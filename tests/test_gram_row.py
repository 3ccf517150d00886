"""Harmonic and McFarland frames certified from one verified Gram row.

A character frame, whose provenance names its group and whose exponents
check, exactly, as distinct characters of it (frames._character_rows), gets
its certificate from Gram row 0, and its tightness residual is a derived
rounding bound, with no frame operator.  Every other frame, every float
frame among them, hinted or not, gets the dense N x N Gram.  The one-row
reports are compared here with the dense ones on the same entries,
coherence with the certificate's coherence, and the dense float certificate
with the formula it replaced.
"""

import json
from fractions import Fraction

import numpy as np
import pytest

from etfkit import fixtures, flatmat, frames, metrics
from etfkit.designs import affine_design, affine_structure
from etfkit.errors import InvariantViolation
from etfkit.flatmat import AbelianGroup, dft, drop_row_simplex
from etfkit.frames import (
    DifferenceSet,
    Frame,
    harmonic_etf,
    mcfarland_as_kirkman,
    mcfarland_set,
    naimark_complement,
    steiner_etf,
)
from etfkit.metrics import DEFAULT_TOL, EtfCertificate, certify_etf, coherence, rip_delta, welch_bound

from test_acceptance import _corpus_frames

# (q, j, G) for every complex float case of the benchmark's harmonic ladder
# with N <= 891, and its 336 x 1408 top
FLOAT_LADDER = [
    (2, 1, (4,)), (3, 1, (5,)), (2, 2, (8,)), (2, 2, (2, 4)), (4, 1, (6,)), (4, 1, (2, 3)),
    (5, 1, (7,)), (7, 1, (9,)), (7, 1, (3, 3)), (8, 1, (10,)), (8, 1, (2, 5)), (9, 1, (11,)),
    (3, 2, (14,)), (3, 2, (2, 7)), (2, 3, (16,)), (2, 3, (4, 4)), (2, 3, (2, 8)), (2, 3, (2, 2, 4)),
]
TOP = (4, 2, (22,))
# groups with a cyclic factor of order 1, at the front (generator column N),
# inside and at the back; the McFarland group appends (Z_q)^(j+1)
UNIT_FACTOR = [(3, 1, (1, 5)), (3, 1, (5, 1)), (2, 1, (1, 1, 4)), (3, 1, (1, 5, 1))]
# the exponent-two cases of the benchmark's harmonic ladder: +-1 tables, exact frames
EXACT_LADDER = [(2, 1, (2, 2)), (2, 2, (2, 2, 2)), (2, 3, (2, 2, 2, 2))]
FLOAT_FIELDS = ("coherence", "welch_bound", "welch_gap", "tightness_residual", "offdiag_max",
                "offdiag_min")


@pytest.fixture
def gram_calls(monkeypatch):
    """Counts Frame.gram calls: the dense certificate's N x N product."""
    calls = []
    real = Frame.gram

    def counted(self):
        calls.append(self.n)
        return real(self)

    monkeypatch.setattr(Frame, "gram", counted)
    return calls


@pytest.fixture
def phase_checks(monkeypatch):
    """The verdicts of flatmat._character_labels, whether it read labels, one
    per call, in order, from frames._character_rows (the one test of a
    character frame, which only a frame with exact exponents reaches)."""
    checks, real = [], flatmat._character_labels

    def counted(phases, order, group):
        labels = real(phases, order, group)
        checks.append(labels is not None)
        return labels

    monkeypatch.setattr(frames, "_character_labels", counted)
    return checks


def _tightness_bound(frame: Frame) -> float:
    """The bound certify_etf reports for a phase frame of distinct characters."""
    return (frame.n + 64) * np.finfo(np.float64).eps / 2 * frame.n / frame.m


def _row_certificate(frame: Frame) -> dict:
    """The one-row certificate of a character frame, formed here from Gram
    row 0 and the tightness bound: certify_etf must give it byte for byte."""
    m, n = frame.m, frame.n
    row = np.abs(frame.entries[:, 0].conj() @ frame.entries)
    mu = float(row[1:].max())
    return EtfCertificate(
        m=m, n=n, coherence=mu, coherence_exact=None, welch=welch_bound(m, n),
        tightness_residual=float(_tightness_bound(frame)), offdiag_max=mu, offdiag_min=float(row[1:].min()),
        potential_residual=abs(n * float(np.sum(row ** 2)) - n * n / m), exact=False, tol=DEFAULT_TOL,
    ).as_dict()


def _dense(frame: Frame) -> dict:
    """The certificate of the same entries with no provenance: the dense path."""
    return certify_etf(Frame(entries=np.array(frame.entries))).as_dict()


def _harmonic_sets(q, j, factors):
    dset = mcfarland_set(q, j, AbelianGroup(factors))
    group = dset.group
    return [(name, harmonic_etf(group, s)) for name, s in (
        ("mcfarland", dset), ("complement", dset.complement()),
        ("full-group", DifferenceSet(group, range(group.order))))]


def _label(case):
    q, j, factors = case
    return f"q{q}j{j}-{'x'.join(map(str, factors))}"


@pytest.mark.parametrize("case", FLOAT_LADDER + UNIT_FACTOR, ids=_label)
def test_one_row_certificate_matches_the_dense_one(case, gram_calls, phase_checks):
    for name, frame in _harmonic_sets(*case):
        assert frame.exact_ints is None and frame.phases is not None
        del gram_calls[:], phase_checks[:]
        got = certify_etf(frame).as_dict()
        assert gram_calls == [] and phase_checks == [True], f"{name}: the one-row path was not taken"
        assert json.dumps(got) == json.dumps(_row_certificate(frame)), name
        want = _dense(frame)
        assert gram_calls == [frame.n]
        assert got["passed"] == want["passed"] and got["criteria"] == want["criteria"], name
        assert got["passed"] == (name != "full-group")
        for key in FLOAT_FIELDS:
            if key != "tightness_residual":
                assert abs(got[key] - want[key]) <= 1e-12, (name, key)
        # the verified path reports the rounding bound on the frame operator
        assert want["tightness_residual"] <= got["tightness_residual"] == _tightness_bound(frame), name
        # the potential N^2/M reaches 8821 on this ladder, where one ulp is 1.8e-12
        scale = max(1.0, frame.n ** 2 / frame.m)
        assert abs(got["potential_residual"] - want["potential_residual"]) <= 1e-12 * scale, name


def _identification(q, j, group_g):
    """(rows, cols) with harmonic.entries[rows] and twin.entries[:, cols] the
    same matrix, for the twins of mcfarland_as_kirkman(q, j, group_g): row
    (r, s) of the twin is the difference-set element (g_r, g^r s), and the
    twin's columns are sorted by the index u |V| + sum_l tr(v x^l) p^l of
    the character pair (u, w) that column (u, v) is."""
    structure, _ = affine_structure(q, j)
    fld = structure.field
    rows = np.searchsorted(mcfarland_set(q, j, group_g).elements, frames._mcfarland_elements(structure).ravel())
    place = fld.p ** np.arange(fld.k)
    w = fld.trace_table[fld.mul_indices(np.arange(fld.order)[:, None], place)] @ place
    return rows, np.argsort((np.arange(group_g.order) * fld.order + w[:, None]).ravel())


def _dense_deviations(a: np.ndarray, k: np.ndarray, block: int = 2 ** 18) -> tuple[float, float]:
    """The dense reference: (max |A - K|, max |A^H A - K^H K|) for M x N
    matrices A and K, rows matched.  A^H A - K^H K = (X + X^H) / 2 for
    X = S^H E, S = A + K and E = A - K; X + X^H is read `block` entries of
    rows at a time.  When the entries are equal, E = 0 and both deviations
    are exactly 0.0."""
    diff = a - k
    x = (a + k).conj().T @ diff
    n = x.shape[0]
    step = max(1, block // n)
    gram_dev = max(float(np.abs(x[lo:lo + step] + x[:, lo:lo + step].conj().T).max()) for lo in range(0, n, step))
    return float(np.abs(diff).max()), gram_dev / 2


@pytest.mark.parametrize("case", FLOAT_LADDER + UNIT_FACTOR + EXACT_LADDER + [TOP], ids=_label)
def test_mcfarland_twins_agree_with_the_dense_reference(case, gram_calls):
    # the report rests on the exponent identity alone, with no Gram; the
    # twins' entries under the identification agree densely as well
    q, j, factors = case
    harm, kirk, report = mcfarland_as_kirkman(q, j, AbelianGroup(factors))
    assert gram_calls == [] and (report.max_entry_dev, report.max_gram_dev) == (0.0, 0.0)
    assert report.as_dict()["passed"]
    rows, cols = _identification(q, j, AbelianGroup(factors))
    entry_dev, gram_dev = _dense_deviations(harm.entries[rows], kirk.entries[:, cols])
    assert entry_dev <= 1e-15 and gram_dev <= 1e-15


@pytest.mark.parametrize("case", FLOAT_LADDER + [TOP], ids=_label)
def test_the_tightness_bound_covers_the_dense_residual_with_no_frame_operator(case, monkeypatch):
    """Every float ladder frame and its complement (at the top, whose
    complement is 1072 x 1408, the frame alone) is certified tight from its
    exponents, and the bound it reports is at least the residual of the
    dense M x M frame operator, which the certificate never forms."""
    operators, real = [], frames._tightness_deviation
    monkeypatch.setattr(metrics, "_tightness_deviation", lambda entries: operators.append(entries.shape) or real(entries))
    for name, frame in _harmonic_sets(*case)[:1 if case == TOP else 2]:
        cert = certify_etf(frame)
        assert operators == [] and cert.passed, name
        assert real(frame.entries) <= cert.tightness_residual == _tightness_bound(frame), name


def test_a_tightness_bound_above_tol_falls_back_to_the_frame_operator(monkeypatch):
    # the bound decides nothing above tol: the float residual is formed, so
    # the tight verdict is the one the dense path gives
    operators, real = [], frames._tightness_deviation
    monkeypatch.setattr(metrics, "_tightness_deviation", lambda entries: operators.append(entries.shape) or real(entries))
    _, frame = _harmonic_sets(*TOP)[0]
    tol = _tightness_bound(frame) / 2
    cert = certify_etf(frame, tol=tol)
    assert operators == [(336, 1408)]
    assert cert.tightness_residual == real(frame.entries) <= tol and cert.tight


SINGER_SETS = [(7, (1, 2, 4)), (13, (0, 1, 3, 9)), (21, (3, 6, 7, 12, 14))]


@pytest.mark.parametrize("order,elements", SINGER_SETS)
def test_singer_sets_in_cyclic_groups_take_the_one_row_path(order, elements, gram_calls, phase_checks):
    group = AbelianGroup((order,))
    frame = harmonic_etf(group, DifferenceSet(group, elements))
    got = certify_etf(frame).as_dict()
    assert gram_calls == [] and phase_checks == [True]
    want = _dense(frame)
    assert got["passed"] and want["passed"] and got["criteria"] == want["criteria"]
    for key in FLOAT_FIELDS + ("potential_residual",):
        assert abs(got[key] - want[key]) <= 1e-12, key


def _coherence_corpus():
    """(label, frame, whether the certificate reads one Gram row): the
    harmonic ladder with its complements, the Singer sets, the two figure
    frames, aff31-dft and a random frame."""
    for case in FLOAT_LADDER + EXACT_LADDER:
        for name, frame in _harmonic_sets(*case):
            yield f"{_label(case)} {name}", frame, frame.exact_ints is None
    for order, elements in SINGER_SETS:
        group = AbelianGroup((order,))
        yield f"singer {order}", harmonic_etf(group, DifferenceSet(group, elements)), True
    yield "fig1", fixtures.fig1(), False
    yield "fig2", fixtures.fig2(), False
    yield "aff31-dft", steiner_etf(affine_design(3, 1), drop_row_simplex(dft(5), 0)), False
    rng = np.random.default_rng(31)
    entries = rng.standard_normal((5, 24)) + 1j * rng.standard_normal((5, 24))
    yield "random 5x24", Frame(entries=entries / np.linalg.norm(entries, axis=0)), False


def test_coherence_is_the_certificate_coherence(gram_calls):
    seen = {"one-row": 0, "exact": 0, "dense": 0}
    for label, frame, one_row in _coherence_corpus():
        del gram_calls[:]
        mu = coherence(frame)
        exact = frame.exact_ints is not None
        # coherence forms the N x N float Gram only where the certificate does
        assert gram_calls == ([] if one_row or exact else [frame.n]), label
        cert = certify_etf(frame)
        if exact:
            assert mu == Fraction(cert.coherence_exact), label
        else:
            assert type(mu) is float and mu == cert.coherence, label
        seen["one-row" if one_row else "exact" if exact else "dense"] += 1
    assert seen == {"one-row": 3 * len(FLOAT_LADDER) + len(SINGER_SETS), "exact": 3 * len(EXACT_LADDER) + 2,
                    "dense": 2}


def test_rip_delta_forms_the_dense_gram_once(gram_calls):
    """On the dense path the Gershgorin term reads the Gram the search forms."""
    frame = steiner_etf(affine_design(3, 1), drop_row_simplex(dft(5), 0))
    report = rip_delta(frame, 2)
    assert gram_calls == [45]
    assert report.gershgorin == coherence(frame)


def test_no_float_harmonic_ladder_frame_forms_an_n_by_n_gram(gram_calls, phase_checks):
    cases = FLOAT_LADDER + [TOP]
    for q, j, factors in cases:
        dset = mcfarland_set(q, j, AbelianGroup(factors))
        assert certify_etf(harmonic_etf(dset.group, dset)).passed
        _, _, match = mcfarland_as_kirkman(q, j, AbelianGroup(factors))
        assert match.entrywise_match and match.gram_match
    assert gram_calls == []
    # per case, the certificate's exponent check; the match compares exponents
    assert phase_checks == [True] * len(cases)


def _mutants(frame: Frame):
    """Frames that must not take the one-row path, labelled."""
    entries = np.array(frame.entries)
    perturbed = entries.copy()
    perturbed[3, 7] += 1e-6
    swapped = entries.copy()
    swapped[:, [1, 2]] = swapped[:, [2, 1]]
    prov = frame.provenance
    yield "perturbed", Frame(entries=perturbed, provenance=prov)
    yield "columns-swapped", Frame(entries=swapped, provenance=prov)
    hints = {
        "reordered": prov["group"][::-1], "other-group": [frame.n], "short": prov["group"][:-1],
        "string": "x".join(map(str, prov["group"])), "float": [float(f) for f in prov["group"]],
        "bool": [True] * frame.n.bit_length(), "negative": [-f for f in prov["group"]],
        "zero": prov["group"] + [0], "nested": [prov["group"]], "empty": [],
    }
    for name, hint in hints.items():
        yield f"group-{name}", Frame(entries=entries, provenance={**prov, "group": hint})
    yield "group-removed", Frame(entries=entries, provenance={k: v for k, v in prov.items() if k != "group"})


@pytest.mark.parametrize("case", [(3, 1, (5,)), (4, 1, (2, 3)), (8, 1, (10,))], ids=_label)
def test_mutations_go_dense_with_the_dense_verdict(case, gram_calls):
    _, frame = _harmonic_sets(*case)[0]
    for name, mutant in _mutants(frame):
        del gram_calls[:]
        got = json.dumps(certify_etf(mutant).as_dict())
        assert gram_calls == [frame.n], name
        assert got == json.dumps(_dense(mutant)), name
        assert json.loads(got)["passed"] == (name != "perturbed"), name


@pytest.mark.parametrize("case", [(3, 1, (5,)), (4, 1, (2, 3))], ids=_label)
def test_phase_form_mutations_go_dense_with_the_dense_verdict(case, gram_calls, phase_checks):
    _, frame = _harmonic_sets(*case)[0]
    order, prov = frame.order, frame.provenance
    flipped, repeated = frame.phases.copy(), frame.phases.copy()
    flipped[3, 7] = (flipped[3, 7] + 1) % order
    repeated[1] = repeated[0]
    mutants = {"flipped": (flipped, prov), "repeated": (repeated, prov),
               "reordered": (frame.phases, {**prov, "group": prov["group"][::-1]}),
               "other-group": (frame.phases, {**prov, "group": [frame.n]})}
    for name, (phases, provenance) in mutants.items():
        del gram_calls[:]
        mutant = Frame(scale_sq=frame.scale_sq, provenance=provenance, _phases=(phases, order))
        got = json.dumps(certify_etf(mutant).as_dict())
        assert gram_calls == [frame.n], name
        assert got == json.dumps(_dense(mutant)), name
        assert json.loads(got)["passed"] == (name in ("reordered", "other-group")), name
    assert phase_checks == [False] * len(mutants)


@pytest.mark.parametrize("case", [(3, 1, (5,)), (7, 1, (3, 3))], ids=_label)
def test_a_conjugated_row_is_still_a_character_and_keeps_the_one_row_path(case, gram_calls, phase_checks):
    # conj(chi_r) = chi_{-r}, the row's phases negated mod L: with -r no
    # other row's label, the rows are still distinct characters, so the Gram
    # is still a circulant, but the labels are no longer a difference set
    _, frame = _harmonic_sets(*case)[0]
    group, labels = frames._character_rows(frame)
    negated = group.index_array(-group.digit_array(labels))
    row = next(i for i, r in enumerate(negated) if r not in labels)
    phases = frame.phases.copy()
    phases[row] = (frame.order - phases[row].astype(np.int64)) % frame.order
    mutant = Frame(scale_sq=frame.scale_sq, provenance=frame.provenance, _phases=(phases, frame.order))
    assert np.abs(mutant.entries[row] - frame.entries[row].conj()).max() <= 1e-15
    del phase_checks[:]
    got = certify_etf(mutant).as_dict()
    assert gram_calls == [] and phase_checks == [True]
    want = _dense(mutant)
    assert not got["passed"] and got["criteria"] == want["criteria"]
    for key in FLOAT_FIELDS:
        assert abs(got[key] - want[key]) <= 1e-12, key


@pytest.mark.parametrize("hint", [[5, 3, 3], [1, 45], [45, 1], [1, 5, 1, 3, 3]], ids=str)
def test_a_forged_harmonic_provenance_on_a_random_frame_changes_nothing(hint, gram_calls, phase_checks):
    rng = np.random.default_rng(13)
    entries = rng.standard_normal((12, 45)) + 1j * rng.standard_normal((12, 45))
    entries /= np.linalg.norm(entries, axis=0)
    forged = Frame(entries=entries, provenance={"construction": "harmonic", "group": hint,
                                               "d": 12, "lambda": 3})
    got = json.dumps(certify_etf(forged).as_dict())
    # a float frame has no exponents to check: no label is read
    assert gram_calls == [45] and phase_checks == []
    assert got == json.dumps(_dense(forged))


@pytest.mark.parametrize("case", FLOAT_LADDER + [TOP], ids=_label)
def test_a_hinted_float_frame_is_certified_on_the_dense_gram(case, gram_calls, phase_checks):
    """A float copy of a character frame keeps its group hint, but has no
    exponents: its certificate is, byte for byte, that of the same entries
    with no provenance, with the verdict of the character frame."""
    for name, frame in _harmonic_sets(*case)[:1 if case == TOP else 2]:
        verdict = certify_etf(frame).passed
        hinted = Frame(entries=np.array(frame.entries), provenance=frame.provenance)
        del gram_calls[:], phase_checks[:]
        got = certify_etf(hinted).as_dict()
        assert gram_calls == [frame.n] and phase_checks == [], name
        assert json.dumps(got) == json.dumps(_dense(frame)), name
        assert got["passed"] == verdict is True, name


def test_a_phase_frame_at_another_scale_is_no_character_frame(gram_calls, phase_checks):
    """McF(3,1)'s phases over sqrt(2M): F F^H = (N/2M) I, so the true
    tightness residual is N/2M = 1.875.  Its exponents are characters, but
    the frame is not zeta_L^phases / sqrt(M): it takes the dense Gram."""
    _, frame = _harmonic_sets(3, 1, (5,))[0]
    halved = Frame(scale_sq=2 * frame.m, provenance=frame.provenance, _phases=(frame.phases, frame.order))
    cert = certify_etf(halved)
    assert gram_calls == [frame.n] and phase_checks == []
    assert abs(cert.tightness_residual - frame.n / (2 * frame.m)) <= 1e-12
    assert not cert.tight and not cert.passed
    assert json.dumps(cert.as_dict()) == json.dumps(_dense(halved))


def test_a_kirkman_frame_off_by_1e_minus_6_raises(monkeypatch):
    real_kirkman, built = frames.kirkman_etf, []

    def kirkman_etf(*args):
        frame = real_kirkman(*args)
        entries = np.array(frame.entries)
        entries[2, 5] += 1e-6
        built.append(Frame(entries=entries, provenance=frame.provenance))
        return built[-1]

    monkeypatch.setattr(frames, "kirkman_etf", kirkman_etf)
    # a float frame has no exponents to compare, so the identity cannot be
    # checked: that fails closed, where the dense reference sees the nudge
    with pytest.raises(InvariantViolation, match=r"^McFarland frame for q=4, j=1, G=\(6,\): .* not flat frames"):
        mcfarland_as_kirkman(4, 1, AbelianGroup((6,)))
    _, harm = _harmonic_sets(4, 1, (6,))[0]
    rows, cols = _identification(4, 1, AbelianGroup((6,)))
    entry_dev, gram_dev = _dense_deviations(harm.entries[rows], built[0].entries[:, cols])
    assert entry_dev == pytest.approx(1e-6) and gram_dev > 1e-8


def test_a_unit_factor_added_to_the_hint_labels_the_same_columns(gram_calls, phase_checks):
    # Z_1 x G enumerates G in the same order, so the hint still verifies on
    # the exponents
    _, frame = _harmonic_sets(4, 1, (2, 3))[0]
    want = certify_etf(frame).as_dict()
    for hint in ([1] + frame.provenance["group"], frame.provenance["group"] + [1]):
        prov = {**frame.provenance, "group": hint}
        got = certify_etf(Frame(scale_sq=frame.scale_sq, provenance=prov, _phases=(frame.phases, frame.order)))
        assert got.as_dict() == want, hint
    assert gram_calls == [] and phase_checks == [True] * 3


# -- the dense float certificate, against the formula it replaced -------------

def _masked_certificate(frame: Frame, tol: float = DEFAULT_TOL) -> EtfCertificate:
    """The dense float certificate as it was computed before: the
    off-diagonal moduli gathered through an N x N mask."""
    m, n = frame.m, frame.n
    g = frame.gram()
    off = np.abs(g[~np.eye(n, dtype=bool)])
    op = frame.entries @ frame.entries.conj().T
    tight_res = float(np.abs(op - (n / m) * np.eye(m)).max())
    pot = float(np.sum(np.abs(g) ** 2))
    return EtfCertificate(
        m=m, n=n, coherence=float(off.max()), coherence_exact=None,
        welch=welch_bound(m, n), tightness_residual=tight_res,
        offdiag_max=float(off.max()), offdiag_min=float(off.min()),
        potential_residual=abs(pot - n * n / m), exact=False, tol=tol,
    )


def _float_corpus():
    """The float frames of the certification corpus and their SVD Naimark
    complements, the harmonic ladder without its group hint, and random
    unit-norm frames."""
    for label, frame in _corpus_frames():
        if frame.exact_ints is None:  # without provenance: no group hint
            stripped = Frame(entries=np.array(frame.entries))
            yield label, stripped
            # the SVD complement: a hinted character frame's complement
            # would be characters again, and take the one-row path
            yield f"naimark {label}", naimark_complement(stripped)
    for case in FLOAT_LADDER[:9]:
        for name, frame in _harmonic_sets(*case):
            yield f"{_label(case)} {name}", Frame(entries=np.array(frame.entries))
    rng = np.random.default_rng(29)
    for m, n in ((3, 4), (5, 60), (8, 9)):
        entries = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
        entries /= np.linalg.norm(entries, axis=0)
        yield f"random {m}x{n}", Frame(entries=entries)


def test_dense_float_certificate_is_bit_identical_to_the_masked_formula():
    count = 0
    for label, frame in _float_corpus():
        assert json.dumps(certify_etf(frame).as_dict()) == json.dumps(_masked_certificate(frame).as_dict()), label
        count += 1
    assert count > 40

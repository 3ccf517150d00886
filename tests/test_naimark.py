"""Naimark complements of character frames, from the complementary characters.

A frame whose provenance names its group, and whose exact exponents check
as distinct characters of it, has as complement the characters at the other
group elements: no frame operator and no SVD.  Its exact form is compared
here with the harmonic frame of the complementary difference set, its Gram
with the SVD complement's, and every frame that fails the check with the
SVD complement computed as before.
"""

import numpy as np
import pytest

from etfkit import frames
from etfkit.errors import NotTight
from etfkit.flatmat import AbelianGroup, _character_phases
from etfkit.frames import Frame, _assemble, _unit_exponents, harmonic_etf, mcfarland_set, naimark_complement
from etfkit.metrics import certify_etf, welch_bound_exact

from test_gram_row import TOP, _label

# (q, j, G) for every group of the benchmark's harmonic ladder with N <= 256
LADDER = [
    (2, 1, (2, 2)), (2, 1, (4,)), (3, 1, (5,)), (2, 2, (2, 2, 2)), (2, 2, (8,)), (2, 2, (2, 4)),
    (4, 1, (6,)), (4, 1, (2, 3)), (5, 1, (7,)), (2, 3, (2, 2, 2, 2)), (2, 3, (16,)), (2, 3, (4, 4)),
    (2, 3, (2, 8)), (2, 3, (2, 2, 4)),
]
EXPONENT_TWO = [case for case in LADDER if set(case[2]) == {2}]


@pytest.fixture
def dense_calls(monkeypatch):
    """The shapes handed to np.linalg.svd and frames._tightness_deviation."""
    calls, svd, tightness = [], np.linalg.svd, frames._tightness_deviation
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: calls.append(("svd", a.shape)) or svd(a, *args, **kw))
    monkeypatch.setattr(frames, "_tightness_deviation",
                        lambda entries: calls.append(("tightness", entries.shape)) or tightness(entries))
    return calls


def _harmonic(case):
    q, j, factors = case
    dset = mcfarland_set(q, j, AbelianGroup(factors))
    return dset, harmonic_etf(dset.group, dset)


def _svd_complement(frame: Frame) -> np.ndarray:
    """The complement's entries as the SVD path computes them."""
    m, n = frame.m, frame.n
    _, _, vh = np.linalg.svd(frame.entries, full_matrices=True)
    return (vh[m:, :] * np.sqrt(n / (n - m))).astype(np.complex128)


@pytest.mark.parametrize("case", LADDER + [TOP], ids=_label)
def test_the_complement_is_the_harmonic_frame_of_the_complementary_set(case, dense_calls):
    dset, frame = _harmonic(case)
    comp = naimark_complement(frame)
    assert dense_calls == []
    want = harmonic_etf(dset.group, dset.complement())
    got_form, want_form = _unit_exponents(comp), _unit_exponents(want)
    assert got_form[1] == want_form[1] and np.array_equal(got_form[0], want_form[0])
    assert comp.exact_ints is None or np.array_equal(comp.exact_ints, want.exact_ints)
    assert comp.provenance == {"construction": "naimark", "parent_m": frame.m, "parent_n": frame.n,
                               "group": list(dset.group.factors)}


@pytest.mark.parametrize("case", LADDER, ids=_label)
def test_the_complement_completes_the_rows_and_has_the_svd_gram(case, dense_calls):
    _, frame = _harmonic(case)
    comp = naimark_complement(frame)
    assert dense_calls == []
    m, n = frame.m, frame.n
    stacked = np.vstack([np.sqrt(m / n) * frame.entries, np.sqrt((n - m) / n) * comp.entries])
    assert np.abs(stacked @ stacked.conj().T - np.eye(n)).max() <= 1e-12
    svd = _svd_complement(frame)
    assert np.abs(comp.gram() - svd.conj().T @ svd).max() <= 1e-12


@pytest.mark.parametrize("case", EXPONENT_TWO, ids=_label)
def test_an_exponent_two_complement_is_certified_exactly(case):
    _, frame = _harmonic(case)
    comp = naimark_complement(frame)
    assert comp.is_sign_matrix
    cert = certify_etf(comp)
    assert cert.exact is True and cert.passed
    assert cert.coherence_exact == welch_bound_exact(comp.m, comp.n)


@pytest.mark.parametrize("case", [(2, 1, (4,)), (3, 1, (5,)), (2, 2, (2, 2, 2))], ids=_label)
def test_mutants_take_the_svd_path_as_before(case, dense_calls):
    _, frame = _harmonic(case)
    prov = frame.provenance
    exponents, order = ((frame.exact_ints < 0).view(np.uint8), 2) if frame.phases is None else (frame.phases, frame.order)
    flipped, repeated, swapped = exponents.copy(), exponents.copy(), exponents.copy()
    flipped[3, 7] = (flipped[3, 7] + 1) % order
    repeated[1] = repeated[0]
    swapped[:, [1, 2]] = swapped[:, [2, 1]]

    def exact(values, provenance=prov):
        return _assemble(values, frame.m, provenance, order)

    mutants = {
        "flipped": exact(flipped), "repeated": exact(repeated), "columns-swapped": exact(swapped),
        "group-other": exact(exponents, {**prov, "group": [frame.n]}),
        "group-removed": exact(exponents, {k: v for k, v in prov.items() if k != "group"}),
        "float-copy": Frame(entries=np.array(frame.entries), provenance=prov),
    }
    if prov["group"][::-1] != prov["group"]:  # (Z_2)^t reordered is the same group
        mutants["group-reordered"] = exact(exponents, {**prov, "group": prov["group"][::-1]})
    tight = set()
    for name, mutant in mutants.items():
        del dense_calls[:]
        try:
            comp = naimark_complement(mutant)
        except NotTight:
            assert dense_calls == [("tightness", (frame.m, frame.n))], name
            continue
        tight.add(name)
        assert dense_calls == [("tightness", (frame.m, frame.n)), ("svd", (frame.m, frame.n))], name
        assert comp.entries.tobytes() == _svd_complement(mutant).tobytes(), name
        assert comp.provenance == {"construction": "naimark", "parent_m": frame.m, "parent_n": frame.n}
    # a flipped exponent or a repeated row breaks tightness; every other mutant is tight
    assert tight == set(mutants) - {"flipped", "repeated"}


@pytest.mark.parametrize("factors,labels", [((7,), (0, 1, 2)), ((2, 2, 2), (0, 3, 5)), ((3, 4), (1, 5, 6, 11))],
                         ids=str)
def test_distinct_characters_that_are_no_difference_set_get_the_character_complement(factors, labels, dense_calls):
    group = AbelianGroup(factors)
    phases, order, _ = _character_phases(group, labels)
    frame = _assemble(phases, len(labels), {"construction": "test", "group": list(factors)}, order)
    comp = naimark_complement(frame)
    assert dense_calls == []
    rest = [u for u in range(group.order) if u not in labels]
    got = _unit_exponents(comp)
    assert got[1] == order and np.array_equal(got[0], _character_phases(group, rest)[0])
    n = group.order
    stacked = np.vstack([np.sqrt(len(labels) / n) * frame.entries, np.sqrt(len(rest) / n) * comp.entries])
    assert np.abs(stacked @ stacked.conj().T - np.eye(n)).max() <= 1e-12
    cert = certify_etf(comp)
    assert cert.tight and not cert.passed


def test_a_full_character_table_has_the_empty_complement(dense_calls):
    group = AbelianGroup((2, 3))
    phases, order, _ = _character_phases(group, range(6))
    comp = naimark_complement(_assemble(phases, 6, {"group": [2, 3]}, order))
    assert dense_calls == [] and (comp.m, comp.n) == (0, 6)

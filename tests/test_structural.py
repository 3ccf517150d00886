"""Structural certificates of Steiner and Kirkman sign frames.

A sign frame whose integers read as a Steiner form (a sparse {0, +-1} frame
itself, or a Kirkman frame reduced by orthogonal class blocks) that passes
the Steiner checks is certified with no N x N Gram.  certify_etf, coherence,
gram_equal, certify_grbe and distance then report exactly the bytes of the
dense path, which each test gets by forcing metrics._steiner_form, the one
entry to the structural path, to return None, on frames built inside that
patch: a frame keeps the Steiner reading it was first given.  Frames that
fail a check, the mutants below among them, take the dense path.
"""

import json
from fractions import Fraction
from functools import lru_cache

import numpy as np
import pytest

from etfkit import codes, frames, metrics
from etfkit.codes import certify_grbe, distance, frame_to_code
from etfkit.designs import affine_design, round_robin_design
from etfkit.flatmat import AbelianGroup, drop_row_simplex, hadamard
from etfkit.frames import Frame, harmonic_etf, kirkman_etf, mcfarland_set, naimark_complement, steiner_etf
from etfkit.metrics import _gram_profile, certify_etf, coherence, gram_equal

DESIGNS = {  # the flat_sign_certify ladder, and A24
    "aff22": lambda: affine_design(2, 2), "rr8": lambda: round_robin_design(8),
    "aff23": lambda: affine_design(2, 3), "rr16": lambda: round_robin_design(16),
    "rr24": lambda: round_robin_design(24), "A24": lambda: affine_design(2, 4),
}
LADDER = ["aff22", "rr8", "aff23", "rr16", "rr24"]
HARMONIC = [(2, 1, (2, 2)), (2, 2, (2, 2, 2)), (2, 3, (2, 2, 2, 2))]  # the (Z_2)^k McFarland frames


@lru_cache(maxsize=None)
def _pair(name: str) -> tuple[Frame, Frame]:
    """(kirkman_etf, steiner_etf) of a ladder design, Hadamard simplex and basis."""
    design = DESIGNS[name]()
    simplex = drop_row_simplex(hadamard(len(design.resolution) + 1), 1)
    return kirkman_etf(design, simplex, hadamard(design.s)), steiner_etf(design, simplex)


@lru_cache(maxsize=None)
def _harmonic(case: tuple) -> tuple[Frame, Frame]:
    """A (Z_2)^k harmonic frame, with no provenance, and its Naimark complement."""
    q, j, factors = case
    dset = mcfarland_set(q, j, AbelianGroup(factors))
    frame = harmonic_etf(dset.group, dset)
    return Frame(exact_ints=frame.exact_ints, scale_sq=frame.scale_sq), naimark_complement(frame)


def _frames(label: str) -> tuple[Frame, Frame]:
    """A pair of frames with equal Grams: Kirkman and Steiner, or a harmonic
    frame (or complement) twice."""
    if label in DESIGNS:
        return _pair(label)
    kind, index = label.split("-")
    frame = _harmonic(HARMONIC[int(index)])[kind == "comp"]
    return frame, frame


HARMONIC_LABELS = [f"{kind}-{i}" for i in range(len(HARMONIC)) for kind in ("harm", "comp")]


def _structural(frame: Frame) -> bool:
    """Whether the exact profile of the frame's integer form, read with no
    provenance, settles tightness, as only the structural path does."""
    return _gram_profile(Frame(exact_ints=frame.exact_ints, scale_sq=frame.scale_sq))[3] is not None


def _with(ints: np.ndarray, frame: Frame) -> Frame:
    return Frame(exact_ints=ints, scale_sq=frame.scale_sq)


def _fresh(frame: Frame) -> Frame:
    """The frame built again from its stored form, with no reading kept: a
    frame keeps its Steiner form (metrics._steiner_reading), so a dense
    comparison needs frames that no path has read yet."""
    return Frame(exact_ints=frame.exact_ints, scale_sq=frame.scale_sq, provenance=frame.provenance)


def _reports(a: Frame, b: Frame) -> str:
    out = [gram_equal(a, b).as_dict()]
    for frame in (a, b):
        out += [certify_etf(frame).as_dict(), str(coherence(frame))]
        if frame.is_sign_matrix:
            code = frame_to_code(frame)
            out += [certify_grbe(code).as_dict(), distance(code)]
    return json.dumps(out)


def _dense_reports(monkeypatch, a: Frame, b: Frame) -> str:
    """The reports with the structural path and the Gram row 0 path of a
    +-1 character frame both switched off, on fresh frames built inside the
    patch."""
    with monkeypatch.context() as patch:
        patch.setattr(metrics, "_steiner_form", lambda ints, d: None)
        patch.setattr(metrics, "_character_rows", lambda frame: None)
        assert not _structural(a) and not _structural(b)
        return _reports(_fresh(a), _fresh(b))


@pytest.mark.parametrize("name", LADDER + ["A24"])
def test_kirkman_and_steiner_frames_are_certified_from_their_structure(name, monkeypatch):
    flat, sparse = _pair(name)
    big_r = sparse.scale_sq
    assert _structural(flat) and _structural(sparse)
    assert metrics._steiner_form(flat.exact_ints, flat.scale_sq)[2] == big_r
    got = _reports(flat, sparse)
    assert got == _dense_reports(monkeypatch, flat, sparse)
    cert = certify_etf(flat)
    assert cert.passed and cert.exact and cert.coherence_exact == f"1/{big_r}" and cert.tightness_residual == 0.0
    assert gram_equal(flat, sparse).max_dev == 0.0


@pytest.mark.parametrize("name", LADDER)
def test_a_frame_is_read_once(name, monkeypatch):
    """A frame keeps its Steiner form: after certify_etf has read the
    Kirkman frame, gram_equal reads only the Steiner frame, and nothing
    after reads either again.  Only the certificate path checks a form
    (_is_steiner), once per frame, and keeps the verdict beside it, so
    gram_equal checks neither frame and no later certificate or coherence
    checks one again."""
    read, calls = metrics._steiner_form, []
    monkeypatch.setattr(metrics, "_steiner_form", lambda ints, d: calls.append(ints.shape) or read(ints, d))
    check, checks = metrics._is_steiner, []
    monkeypatch.setattr(metrics, "_is_steiner", lambda rows, signs, m: checks.append(m) or check(rows, signs, m))
    flat, sparse = (_fresh(frame) for frame in _pair(name))
    assert flat._steiner is None and sparse._steiner is None
    certify_etf(flat)
    assert calls == [flat.exact_ints.shape] and checks == [flat.m]
    assert gram_equal(flat, sparse).max_dev == 0.0
    assert calls == [flat.exact_ints.shape, sparse.exact_ints.shape] and checks == [flat.m]
    for frame in (flat, sparse):
        assert certify_etf(frame).passed and coherence(frame) == Fraction(1, sparse.scale_sq)
    assert gram_equal(sparse, flat).passed and len(calls) == 2 and checks == [flat.m, sparse.m]
    assert flat._steiner[2] == sparse._steiner[2] == sparse.scale_sq


def test_a_frame_with_no_steiner_form_is_read_once(monkeypatch):
    """A frame read with no Steiner form keeps the mark False, not None, so
    no later path reads it again."""
    read, calls = metrics._steiner_form, []
    monkeypatch.setattr(metrics, "_steiner_form", lambda ints, d: calls.append(ints.shape) or read(ints, d))
    frame = Frame(exact_ints=np.array([[2, 0], [0, 2]]), scale_sq=4)
    assert gram_equal(frame, frame).passed and frame._steiner is False
    assert not certify_etf(frame).passed and gram_equal(frame, frame).passed and calls == [(2, 2)]


@pytest.mark.parametrize("name", LADDER + ["A24"])
def test_no_gram_and_no_frame_operator_is_formed(name, monkeypatch):
    def refuse(*args):
        raise AssertionError("a dense product was formed")

    for module in (codes, frames, metrics):
        monkeypatch.setattr(module, "exact_gram", refuse)
    monkeypatch.setattr(Frame, "gram_exact", refuse)
    flat, sparse = _pair(name)
    for frame in (flat, sparse):
        assert certify_etf(frame).passed
        coherence(frame)
    assert gram_equal(flat, sparse).passed and gram_equal(sparse, flat).passed
    assert certify_grbe(frame_to_code(flat)).as_dict()["passed"]


@pytest.mark.parametrize("label", HARMONIC_LABELS)
def test_sign_harmonic_frames_read_as_kirkman_frames(label, monkeypatch):
    """The (Z_2)^k McFarland frames pass the Kirkman check as built, with no
    provenance to read; their complements are no Kirkman frames, and are
    read from Gram row 0 as the characters of the group they carry.  Both
    report the dense bytes."""
    frame, _ = _frames(label)
    assert _structural(frame) == label.startswith("harm")
    assert _reports(frame, frame) == _dense_reports(monkeypatch, frame, frame)
    assert certify_etf(frame).passed


@pytest.mark.parametrize("case", HARMONIC, ids=str)
def test_sign_character_frames_are_certified_from_gram_row_0(case, monkeypatch):
    """A +-1 frame whose rows check as distinct characters of its hinted
    group, a (Z_2)^k harmonic frame or its Naimark complement, is certified
    from Gram row 0 in integers: certify_etf and coherence form no dense
    product, and their bytes are the dense path's."""
    q, j, factors = case
    dset = mcfarland_set(q, j, AbelianGroup(factors))
    harm = harmonic_etf(dset.group, dset)
    for frame in (harm, naimark_complement(harm)):
        assert frames._character_rows(frame) is not None and frame.is_sign_matrix
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_steiner_form", lambda ints, d: None)
            patch.setattr(metrics, "_character_rows", lambda frame: None)
            fresh = _fresh(frame)
            dense = json.dumps([certify_etf(fresh).as_dict(), str(coherence(fresh))])

        def refuse(*args):
            raise AssertionError("a dense product was formed")

        with monkeypatch.context() as patch:
            for module in (frames, metrics):
                patch.setattr(module, "exact_gram", refuse)
            patch.setattr(Frame, "gram_exact", refuse)
            cert = certify_etf(frame)
            assert json.dumps([cert.as_dict(), str(coherence(frame))]) == dense
        assert cert.passed and cert.exact and cert.tightness_residual == 0.0


def _transformed(frame: Frame, kind: str, columns: np.ndarray, rng) -> Frame:
    """The frame with its columns permuted by, or multiplied by the signs
    of, columns, or with random row signs."""
    ints = np.array(frame.exact_ints)
    if kind == "columns":
        return _with(ints[:, columns], frame)
    if kind == "column-signs":
        return _with(ints * columns, frame)
    return _with(ints * rng.choice([-1, 1], size=(frame.m, 1)), frame)


@pytest.mark.parametrize("kind", ["columns", "column-signs", "row-signs"])
@pytest.mark.parametrize("label", LADDER + ["A24"] + HARMONIC_LABELS)
def test_column_permutations_and_sign_flips_keep_the_path_and_the_bytes(label, kind, monkeypatch):
    """The same column permutation, or column signs, on both frames of a
    pair, and independent row signs, keep each frame's path and Gram
    equality, and every report is the dense path's."""
    a, b = _frames(label)
    rng = np.random.default_rng(len(label) * 7 + len(kind))
    columns = rng.permutation(a.n) if kind == "columns" else rng.choice([-1, 1], size=a.n)
    a2, b2 = (_transformed(frame, kind, columns, rng) for frame in (a, b))
    assert (_structural(a2), _structural(b2)) == (_structural(a), _structural(b))
    assert _reports(a2, b2) == _dense_reports(monkeypatch, a2, b2)
    assert gram_equal(a2, b2).max_dev == 0.0


def _class_size(frame: Frame) -> int:
    return frame.m // metrics._steiner_form(frame.exact_ints, frame.scale_sq)[2]


def _mutant(frame: Frame, kind: str) -> Frame:
    """A Kirkman frame with one flipped sign, two rows swapped across
    classes, class 0's patterns replaced by distinct ones that are not
    orthogonal, or two columns swapped across points."""
    ints = np.array(frame.exact_ints)
    s = _class_size(frame)
    if kind == "flip":
        ints[1, 2] *= -1
    elif kind == "classes":
        ints[[0, s]] = ints[[s, 0]]
    elif kind == "nonorthogonal":
        rows, signs, _ = metrics._steiner_form(frame.exact_ints, frame.scale_sq)
        phi = np.zeros(ints.shape, dtype=np.int64)
        phi[rows, np.arange(frame.n)[:, None]] = signs
        patterns = np.ones((s, s), dtype=np.int64) - 2 * np.eye(s, dtype=np.int64)
        patterns[0, 0] = 1  # columns: all ones, then all ones but -1 at row t: distinct, first entry 1
        ints[:s] = patterns @ phi[:s]
    else:
        first = frame.m // s + 1  # R + 1: the first column of point 1
        ints[:, [0, first]] = ints[:, [first, 0]]
    return _with(ints, frame)


@pytest.mark.parametrize("name,kind", [
    (name, kind) for name in LADDER + ["A24", "harm-0", "harm-1", "harm-2"]
    for kind in ("flip", "classes", "nonorthogonal")
    # in the 6 x 16 frame's classes of S = 2 rows, any two distinct patterns are orthogonal,
    # so those two mutants are still Kirkman frames
    if name != "harm-0" or kind == "flip"
])
def test_mutants_take_the_dense_path_with_its_bytes(name, kind, monkeypatch):
    flat, sparse = _frames(name)
    mutant = _mutant(flat, kind)
    assert not _structural(mutant)
    assert _reports(mutant, sparse) == _dense_reports(monkeypatch, mutant, sparse)
    # a row permutation keeps the Gram: the class swap is still an ETF, certified densely
    assert certify_etf(mutant).passed == (kind == "classes")


@pytest.mark.parametrize("name", LADDER + ["A24"])
def test_columns_swapped_across_points_fail_gram_equal_densely(name, monkeypatch):
    flat, sparse = _pair(name)
    mutant = _mutant(flat, "points")
    assert _structural(mutant)  # a column permutation is still a Kirkman frame
    assert _reports(mutant, sparse) == _dense_reports(monkeypatch, mutant, sparse)
    report = gram_equal(mutant, sparse)
    assert not report.passed and report.exact and report.witness is not None


def test_equal_incidence_and_block_grams_do_not_make_equal_grams(monkeypatch):
    """rr8's Steiner frame with point 0's R+1 entries negated in one of its
    rows keeps the incidence and every block Gram, and is still an ETF, but
    its Gram differs from the original's: gram_equal needs the rows equal up
    to order and sign, and takes the dense path here."""
    _, sparse = _pair("rr8")
    big_r = sparse.scale_sq
    ints = np.array(sparse.exact_ints)
    row = int(np.flatnonzero(ints[:, 0])[0])
    ints[row, :big_r + 1] *= -1
    mutant = _with(ints, sparse)
    assert _structural(mutant) and certify_etf(mutant).passed
    assert _reports(mutant, sparse) == _dense_reports(monkeypatch, mutant, sparse)
    report = gram_equal(mutant, sparse).as_dict()
    assert report["passed"] is False and report["witness"] == [0, 8] and report["exact_arithmetic"]

"""The exact integer kernels against independent references: exact_gram
against Python-integer Grams at each of its tiers, code distance against a
pairwise Hamming minimum, and GF(2)-rank linearity against the pairwise XOR
closure scan."""

from fractions import Fraction
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from conftest import hamming
from etfkit.codes import (
    BinaryCode,
    LinearityReport,
    _classify_linear_dimensions,
    certify_grbe,
    distance,
    frame_to_code,
    is_linear,
    parse_code,
)
from etfkit.designs import affine_design
from etfkit.flatmat import drop_row_simplex, hadamard
from etfkit.frames import exact_gram, kirkman_etf
from etfkit.metrics import _tightness_residual, certify_etf

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


def object_gram(a: np.ndarray) -> list:
    """a a^T in Python integers."""
    o = a.astype(object)
    return (o @ o.T).tolist()


@st.composite
def int_matrices(draw):
    """An m x k integer matrix whose largest entry has a drawn magnitude:
    small (the float64 tier), near 2**26 (float64 refused once k >= 2, the
    int64 tier) or near 2**32 (int64 refused too, the object tier)."""
    m, k = draw(st.integers(1, 6)), draw(st.integers(1, 9))
    top = draw(st.sampled_from([1, 7, 2 ** 20, 2 ** 26 + 3, 2 ** 32 + 1]))
    a = draw(hnp.arrays(np.int64, (m, k), elements=st.integers(-top, top)))
    a[0, 0] = draw(st.sampled_from([-top, top]))
    return a


@PROPERTY
@given(int_matrices())
def test_exact_gram_matches_python_integers(a):
    """Both a a^T and a^T a (the Gram of the transposed view)."""
    assert exact_gram(a).tolist() == object_gram(a)
    assert exact_gram(a.T).tolist() == object_gram(a.T)


def test_exact_gram_float_tier_on_signs():
    rng = np.random.default_rng(5)
    a = rng.choice([-1, 1], size=(40, 70)).astype(np.int8)
    for x in (a, a.T):
        out = exact_gram(x)
        assert out.dtype == np.int64 and out.tolist() == object_gram(x)


def test_exact_gram_refuses_float_beyond_2_53():
    # the exact sum is odd and above 2**53, so float64 cannot hold it: the int64 tier
    x = 2 ** 26 + 1
    a = np.array([[x, x, 1]], dtype=np.int64)
    exact = 2 * x * x + 1
    assert exact > 2 ** 53 and int((a.astype(float) @ a.T.astype(float))[0, 0]) != exact
    out = exact_gram(a)
    assert out.dtype == np.int64 and int(out[0, 0]) == exact


def test_exact_gram_beyond_int64_uses_python_integers():
    a = np.array([[2 ** 40, 2 ** 40]], dtype=np.int64)
    out = exact_gram(a)
    assert out.dtype == object and out.tolist() == object_gram(a) == [[2 ** 81]]


def test_exact_gram_empty_inner_dimension():
    out = exact_gram(np.zeros((2, 0), dtype=np.int64))
    assert out.shape == (2, 2) and out.dtype == np.int64 and not out.any()


@st.composite
def codes(draw, max_m=12, max_words=24):
    m = draw(st.integers(1, max_m))
    words = draw(st.lists(st.tuples(*[st.integers(0, 1)] * m),
                          min_size=2, max_size=min(max_words, 2 ** m), unique=True))
    return BinaryCode(m=m, words=tuple(words), self_complementary=False)


def pairwise_distance(code: BinaryCode) -> int:
    return min(hamming(a, b) for a, b in combinations(code.words, 2))


@PROPERTY
@given(codes())
def test_distance_matches_pairwise_hamming(code):
    assert distance(code) == pairwise_distance(code)


def test_distance_on_a_self_complementary_flat_code():
    code = frame_to_code(kirkman_etf(affine_design(2, 2), drop_row_simplex(hadamard(8), 0),
                                     hadamard(4)))
    assert distance(code) == pairwise_distance(code) == 12


def pairwise_linearity(code: BinaryCode) -> LinearityReport:
    """The XOR closure scan over every pair, in lexicographic order."""
    wordset = set(code.words)
    if (0,) * code.m not in wordset:
        return LinearityReport(linear=False, witness=None, family=None)
    for i, j in combinations(range(code.count), 2):
        if tuple(a ^ b for a, b in zip(code.words[i], code.words[j])) not in wordset:
            return LinearityReport(linear=False, witness=(i, j), family=None)
    return LinearityReport(linear=True, witness=None,
                           family=_classify_linear_dimensions(code.m, code.count))


@PROPERTY
@given(codes(max_m=6, max_words=40), st.booleans())
def test_is_linear_matches_pairwise_scan(code, add_zero):
    if add_zero and (0,) * code.m not in code.words:
        code = BinaryCode(m=code.m, words=((0,) * code.m,) + code.words, self_complementary=False)
    assert is_linear(code) == pairwise_linearity(code)


@st.composite
def subspaces(draw):
    """A random GF(2) subspace in shuffled word order, sometimes with one
    word dropped or one foreign word added."""
    m = draw(st.integers(1, 8))
    gens = draw(st.lists(st.tuples(*[st.integers(0, 1)] * m), max_size=5))
    span = {(0,) * m}
    for g in gens:
        span |= {tuple(a ^ b for a, b in zip(w, g)) for w in span}
    words = list(draw(st.permutations(sorted(span))))
    change = draw(st.sampled_from(["none", "drop", "add"]))
    if change == "drop" and len(words) > 2:
        words.pop(draw(st.integers(0, len(words) - 1)))
    elif change == "add" and len(words) < 2 ** m:
        outside = sorted(set(product((0, 1), repeat=m)) - span)
        words.insert(draw(st.integers(0, len(words))), draw(st.sampled_from(outside)))
    return BinaryCode(m=m, words=tuple(words), self_complementary=False)


@PROPERTY
@given(subspaces())
def test_is_linear_matches_pairwise_scan_on_subspaces(code):
    assert is_linear(code) == pairwise_linearity(code)


def test_a24_certificate_bound_and_linearity():
    """The 496 x 1024 flat frame of affine_design(2, 4): its exact
    certificate, its 2048-word Grey-Rankin code and that code's linearity."""
    frame = kirkman_etf(affine_design(2, 4), drop_row_simplex(hadamard(32), 0), hadamard(16))
    assert (frame.m, frame.n) == (496, 1024)
    cert = certify_etf(frame)
    assert cert.passed and cert.exact and cert.coherence_exact == "1/31"
    code = parse_code(frame_to_code(frame).to_text())
    grbe = certify_grbe(code).as_dict()
    assert grbe["bound_value"] == 2048 and grbe["delta"] == 240
    assert grbe["passed"] and grbe["verdicts_agree"]
    assert is_linear(code) == LinearityReport(linear=True, witness=None, family="bent-minus")


# -- the exact ETF certificate on the integer form alone ------------------------

def fraction_loop_tightness(ints: np.ndarray, d: int) -> Fraction:
    """max |op - (N/M) I| of the frame operator ints ints^T / d, one Fraction
    per diagonal entry."""
    m, n = ints.shape
    op = ints.astype(object) @ ints.T.astype(object)
    off = max((abs(op[i, j]) for i in range(m) for j in range(m) if i != j), default=0)
    diag = max(abs(Fraction(int(op[i, i]), d) - Fraction(n, m)) for i in range(m))
    return max(Fraction(int(off), d), diag)


def _certified_corpus():
    from etfkit.designs import round_robin_design
    from etfkit.flatmat import AbelianGroup
    from etfkit.frames import harmonic_etf, mcfarland_set, steiner_etf

    ds = mcfarland_set(2, 2, AbelianGroup((2, 2, 2)))
    frames = {"harmonic-q2j2": harmonic_etf(ds.group, ds)}
    for name, design in (("rr4", round_robin_design(4)), ("rr8", round_robin_design(8)),
                         ("aff22", affine_design(2, 2))):
        big_r = len(design.resolution)
        simplex = drop_row_simplex(hadamard(big_r + 1), big_r // 2)
        frames[f"{name}-steiner"] = steiner_etf(design, simplex)
        frames[f"{name}-kirkman"] = kirkman_etf(design, simplex, hadamard(design.s))
    return frames


@pytest.mark.parametrize("name", ["harmonic-q2j2", "rr4-steiner", "rr4-kirkman", "rr8-steiner",
                                  "rr8-kirkman", "aff22-steiner", "aff22-kirkman"])
def test_tightness_residual_equals_the_fraction_loop(name):
    frame = _certified_corpus()[name]
    assert _tightness_residual(frame.exact_ints, frame.scale_sq) == \
        fraction_loop_tightness(frame.exact_ints, frame.scale_sq)
    # a frame that is not tight: one sign flipped, and a wrong scale
    ints = frame.exact_ints.copy()
    ints[0, 0] *= -1
    for d in (frame.scale_sq, frame.scale_sq + 1):
        got = _tightness_residual(ints, d)
        assert got == fraction_loop_tightness(ints, d) and got > 0


def test_tightness_residual_past_the_int64_bound():
    rng = np.random.default_rng(3)
    ints = rng.integers(2 ** 31, 2 ** 32, size=(3, 5)) * rng.choice([-1, 1], size=(3, 5))
    d = 2 ** 63 + 7
    assert int(np.abs(ints).max()) ** 2 * 5 * 3 >= 2 ** 63  # op_ii m alone is past int64
    assert _tightness_residual(ints, d) == fraction_loop_tightness(ints, d)
    assert _tightness_residual(ints.astype(object), d) == fraction_loop_tightness(ints, d)


def test_the_exact_pipeline_never_builds_complex_entries(monkeypatch):
    from etfkit import frames
    from etfkit.codes import code_to_frame
    from etfkit.frames import frame_to_json, parse_frame, steiner_etf
    from etfkit.metrics import gram_equal

    calls = []
    real = frames._numeric
    monkeypatch.setattr(frames, "_numeric", lambda *args: calls.append(args) or real(*args))
    design, simplex = affine_design(2, 2), drop_row_simplex(hadamard(8), 1)
    flat = kirkman_etf(design, simplex, hadamard(design.s))
    assert certify_etf(flat).passed
    assert gram_equal(flat, steiner_etf(design, simplex)).max_dev == 0.0
    text = frame_to_json(flat)
    assert np.array_equal(parse_frame(text).exact_ints, flat.exact_ints)
    code = parse_code(frame_to_code(flat).to_text())
    assert np.array_equal(code_to_frame(code).exact_ints, flat.exact_ints)
    assert certify_grbe(code).as_dict()["passed"]
    assert calls == []
    assert flat.entries is flat.entries and len(calls) == 1  # derived on first read, once


def _counting_products(monkeypatch) -> list:
    """The (rows, columns) of every exact_gram product the package forms."""
    from etfkit import codes, frames, metrics

    shapes = []

    def counting(a):
        shapes.append((a.shape[0], a.shape[0]))
        return exact_gram(a)

    for module in (codes, frames, metrics):
        monkeypatch.setattr(module, "exact_gram", counting)
    return shapes


def test_certify_grbe_forms_the_half_sign_gram_once(monkeypatch):
    """A code that takes the dense path reads one N x N half sign Gram for
    its distance and its exact ETF side; the only other product is the M x M
    frame operator.  Here the aff22 Kirkman frame with two rows swapped
    across classes: a row permutation keeps the Gram, so it is still an ETF,
    but no longer a Kirkman frame, and it reports today's bytes."""
    from etfkit.frames import Frame

    flat = kirkman_etf(affine_design(2, 2), drop_row_simplex(hadamard(8), 0), hadamard(4))
    ints = np.array(flat.exact_ints)
    ints[[0, 4]] = ints[[4, 0]]  # row 0 of class 0 and row 0 of class 1
    code = frame_to_code(Frame(exact_ints=ints, scale_sq=flat.scale_sq))
    shapes = _counting_products(monkeypatch)
    assert certify_grbe(code).as_dict() == {
        "report": "grbe-certificate", "passed": True, "m": 28, "words": 128, "delta": 12,
        "bound_applicable": True, "bound_value": 128, "bound_equality": True, "etf_passed": True,
        "verdicts_agree": True,
    }
    assert sorted(shapes) == [(28, 28), (64, 64)]


def test_certify_grbe_of_a_kirkman_code_forms_no_product(monkeypatch):
    """The code of a Kirkman frame is certified from the frame's structure:
    its distance and ETF side read one structural profile, with no Gram."""
    code = frame_to_code(kirkman_etf(affine_design(2, 2), drop_row_simplex(hadamard(8), 0), hadamard(4)))
    shapes = _counting_products(monkeypatch)
    assert certify_grbe(code).as_dict()["passed"] and distance(code) == 12
    assert shapes == []

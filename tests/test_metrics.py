import json
from fractions import Fraction
from math import comb

import numpy as np
import pytest

from etfkit.designs import affine_design, round_robin_design
from etfkit.errors import (
    BadDimensions,
    EnumerationBudgetExceeded,
    FrameFormatError,
    NotUnitNorm,
    ShapeMismatch,
    TooFewColumns,
)
from etfkit.flatmat import AbelianGroup, dft, drop_row_simplex, hadamard
from etfkit import metrics
from etfkit.frames import Frame, harmonic_etf, kirkman_etf, mcfarland_set, steiner_etf
from etfkit.metrics import (
    certify_etf,
    coherence,
    gram_equal,
    rip_delta,
    spark,
    steiner_rip_verdict,
    welch_bound,
    welch_bound_exact,
)

from conftest import with_provenance


@pytest.fixture(scope="module")
def fig1():
    return steiner_etf(round_robin_design(4), drop_row_simplex(hadamard(4), 0))


@pytest.fixture(scope="module")
def fig2():
    return kirkman_etf(round_robin_design(4), drop_row_simplex(hadamard(4), 0), hadamard(2))


def orthonormal(n: int) -> Frame:
    return Frame(entries=np.eye(n, dtype=np.complex128))


def test_coherence_fig1_exact(fig1):
    assert coherence(fig1) == Fraction(1, 3)


def test_coherence_fig2_exact(fig2):
    assert coherence(fig2) == Fraction(1, 3)


def test_coherence_orthonormal():
    assert coherence(orthonormal(4)) == 0


def test_coherence_rejects_single_column():
    with pytest.raises(TooFewColumns):
        coherence(Frame(entries=np.ones((3, 1)) / np.sqrt(3)))


def test_coherence_requires_unit_norm():
    with pytest.raises(NotUnitNorm):
        coherence(Frame(entries=2 * np.eye(3, dtype=np.complex128)))


def test_welch_values():
    assert welch_bound(6, 16) == pytest.approx(1 / 3)
    assert welch_bound(5, 5) == 0
    assert welch_bound(12, 45) == pytest.approx(0.25)


def test_welch_exact_forms():
    assert welch_bound_exact(6, 16) == "1/3"
    assert welch_bound_exact(12, 45) == "1/4"
    assert welch_bound_exact(5, 5) == "0"
    assert welch_bound_exact(3, 7) is None  # sqrt(4/18) is irrational


def test_welch_bad_dimensions():
    with pytest.raises(BadDimensions):
        welch_bound(6, 5)
    with pytest.raises(BadDimensions):
        welch_bound(1, 1)


def test_certify_fig2(fig2):
    cert = certify_etf(fig2)
    assert cert.passed
    assert cert.exact
    assert cert.tightness_residual <= 1e-9
    assert cert.coherence_exact == "1/3"
    assert cert.potential_residual <= 1e-6 * 16 ** 2 / 6


def test_certify_detects_broken_equiangularity(fig1):
    entries = fig1.entries.copy()
    entries[0, 0] = 0.0
    cert = certify_etf(Frame(entries=entries), tol=1e-9)
    assert not cert.passed


def test_certify_harmonic_z5():
    ds = mcfarland_set(3, 1, AbelianGroup((5,)))
    cert = certify_etf(harmonic_etf(ds.group, ds))
    assert cert.passed
    assert cert.coherence == pytest.approx(0.25)


def test_certify_rejects_orthonormal_basis():
    cert = certify_etf(orthonormal(4))
    assert not cert.passed
    assert not cert.overcomplete


def test_welch_is_lower_bound_on_corpus(fig1, fig2):
    frames = [fig1, fig2,
              steiner_etf(affine_design(3, 1), drop_row_simplex(dft(5), 0)),
              orthonormal(6)]
    for f in frames:
        mu = float(coherence(f)) if f.n >= 2 else 0.0
        assert welch_bound(f.m, f.n) <= mu + 1e-9


def test_gram_equal_fig_pair(fig1, fig2):
    report = gram_equal(fig1, fig2)
    assert report.passed
    assert report.exact
    assert report.max_dev == 0.0


def test_gram_equal_symmetric_reflexive(fig1, fig2):
    assert gram_equal(fig1, fig1).passed
    a = gram_equal(fig1, fig2)
    b = gram_equal(fig2, fig1)
    assert a.max_dev == b.max_dev


def test_gram_equal_detects_column_swap(fig1):
    entries = fig1.entries.copy()
    entries[:, [0, 4]] = entries[:, [4, 0]]
    report = gram_equal(fig1, Frame(entries=entries))
    assert not report.passed
    assert report.witness is not None


def test_gram_equal_shape_mismatch(fig1):
    with pytest.raises(ShapeMismatch):
        gram_equal(fig1, orthonormal(4))


@pytest.mark.parametrize("build", [
    lambda: Frame(exact_ints=np.zeros((1, 0), dtype=np.int64), scale_sq=1),
    lambda: Frame(entries=np.zeros((1, 0))),
], ids=["integer", "entries"])
def test_gram_equal_on_frames_with_no_columns(build):
    """Two 0 x 0 Grams are equal, on the exact path and the float one:
    max_dev 0.0 with no witness."""
    frame = build()
    report = gram_equal(frame, build())
    assert (report.n, report.max_dev, report.witness, report.passed) == (0, 0.0, None, True)
    assert report.exact == (frame.exact_ints is not None)


@pytest.mark.parametrize("build", [
    lambda: Frame(exact_ints=np.zeros((0, 50), dtype=np.int64), scale_sq=0),
    lambda: Frame(entries=np.zeros((0, 50))),
], ids=["integer", "entries"])
def test_frames_with_no_rows_form_no_gram(build, monkeypatch):
    """A 0 x N document bears out no N, so spark and gram_equal form no
    N x N Gram of a frame with no rows: its first column depends, and two
    such Grams are equal zero matrices.  The reports are the dense ones."""
    frame = build()
    dense = spark(frame).as_dict(), gram_equal(frame, build()).as_dict()

    def refuse(*args):
        raise AssertionError("a Gram was formed")

    monkeypatch.setattr(Frame, "gram", refuse)
    monkeypatch.setattr(metrics, "exact_gram", refuse)
    assert dense == (spark(frame).as_dict(), gram_equal(frame, build()).as_dict())
    assert dense[0]["witness"] == [0] and dense[1]["max_dev"] == 0.0
    assert dense[1]["exact_arithmetic"] == (frame.exact_ints is not None)


def test_spark_fig1(fig1):
    report = spark(fig1)
    assert report.spark == 4
    assert report.witness == (0, 1, 2, 3)
    assert report.structural_witness == (0, 1, 2, 3)
    assert report.structural_rank == 3


def test_spark_fig2_matches(fig2):
    assert spark(fig2).spark == 4


def test_spark_invariant_under_column_permutation(fig1):
    rng = np.random.default_rng(7)
    perm = rng.permutation(fig1.n)
    shuffled = Frame(entries=fig1.entries[:, perm])
    assert spark(shuffled).spark == 4


def test_spark_of_simplex_frame():
    s = drop_row_simplex(dft(3), 0)
    f = Frame(entries=s.entries / np.sqrt(2))
    report = spark(f)
    assert report.spark == 3  # every pair independent, all three dependent


def test_spark_respects_subset_budget():
    f = Frame(entries=np.eye(65, dtype=np.complex128))
    with pytest.raises(EnumerationBudgetExceeded) as refused:
        spark(f)
    assert str(refused.value) == \
        "sum of C(65,k) for k <= 65 = 36893488147419103231 subsets exceeds the budget 10000000"
    report = spark(f, max_subset=2)
    assert report.spark is None and report.lower_bound == 3


@pytest.mark.parametrize("cap", [-1, -3])
def test_spark_rejects_a_negative_cap(fig1, cap):
    with pytest.raises(BadDimensions):
        spark(fig1, max_subset=cap)


def test_spark_with_cap_zero_searches_nothing(fig1):
    report = spark(fig1, max_subset=0)
    assert report.spark is None and report.lower_bound == 1 and not report.exact


def test_a_numpy_cap_gives_the_report_of_the_int_cap(fig1):
    """A numpy integer cap is read as a Python int, so its report is the
    same JSON as the int cap's."""
    assert json.dumps(spark(fig1, max_subset=np.int64(3)).as_dict()) == json.dumps(spark(fig1, max_subset=3).as_dict())


def test_spark_refuses_round_robin_8_before_enumerating(monkeypatch):
    # R = 7 caps the search at 8 columns, but sum C(64, k) for k <= 8 is ~5e9
    frame = steiner_etf(round_robin_design(8), drop_row_simplex(hadamard(8), 0))
    assert (frame.m, frame.n) == (28, 64)

    def enumerate_nothing(gram, size, window=None):
        raise AssertionError("spark enumerated subsets past the budget")
    monkeypatch.setattr(metrics, "_subset_spectra", enumerate_nothing)
    with pytest.raises(EnumerationBudgetExceeded) as refused:
        spark(frame)
    assert str(refused.value) == "sum of C(64,k) for k <= 8 = 5130659560 subsets exceeds the budget 10000000"


def test_spark_budget_does_not_count_size_m_plus_1(monkeypatch):
    # 3 x 30: size 4 is decided by dimension count, so only the 4525 subsets
    # of sizes 1-3 count against the budget, not C(30, 4) = 27405 more
    rng = np.random.default_rng(0)
    entries = rng.standard_normal((3, 30))
    entries /= np.linalg.norm(entries, axis=0)
    monkeypatch.setattr(metrics, "SUBSET_BUDGET", 10_000)
    report = spark(Frame(entries=entries.astype(np.complex128)))
    assert report.spark == 4 and report.witness == (0, 1, 2, 3) and report.exact
    monkeypatch.setattr(metrics, "SUBSET_BUDGET", 4524)
    with pytest.raises(EnumerationBudgetExceeded, match=r"^sum of C\(30,k\) for k <= 3 = 4525 subsets"):
        spark(Frame(entries=entries.astype(np.complex128)))


def test_spark_does_not_trust_a_forged_r(fig2):
    forged = with_provenance(fig2, {**fig2.provenance, "r": 1})
    report = spark(forged)
    assert report.spark == 4 and report.witness == (0, 1, 2, 3)
    assert report.structural_witness == (0, 1)
    assert report.structural_rank == 2
    assert report.exact
    assert not steiner_rip_verdict(forged).applicable  # columns 0 and 1 are independent


def _identity_beside_hadamard(big_r: int) -> Frame:
    """F = [I_4 | H_4 / 2], unit-norm with Gram moduli 0 and 1/2: no ETF,
    under a Steiner provenance that claims R = big_r."""
    entries = np.hstack([np.eye(4), hadamard(4).entries / 2])
    return Frame(entries=entries, provenance={"construction": "steiner", "r": big_r})


@pytest.mark.parametrize("big_r", [2, 3])
def test_steiner_rip_does_not_trust_a_forged_r(big_r):
    """Columns 0..R of F are independent, so no design structure R stands;
    read from the provenance, r = 3 would pass F on delta_4 = 1 + 2^-52."""
    frame = _identity_beside_hadamard(big_r)
    assert not certify_etf(frame).passed
    assert spark(frame).structural_rank == big_r + 1
    report = steiner_rip_verdict(frame)
    assert not report.applicable and report.big_r is None and report.per_l == ()
    assert report.as_dict()["passed"] is None


def test_steiner_rip_rests_on_a_checked_structure_only():
    """With r = 4, columns 0..4 of F lie in 4 dimensions: the witness is
    dependent, so the verdict applies, and F fails it (delta_4 >= 1)."""
    frame = _identity_beside_hadamard(4)
    assert spark(frame).structural_rank == 4
    report = steiner_rip_verdict(frame)
    assert report.applicable and report.big_r == 4
    assert report.as_dict()["passed"] is False


@pytest.mark.parametrize("forged_r", [16, 99, "3", 0])
def test_an_impossible_provenance_r_is_ignored(fig2, forged_r):
    forged = with_provenance(fig2, {**fig2.provenance, "r": forged_r})
    report = spark(forged)
    assert report.spark == 4 and report.structural_witness is None
    assert not steiner_rip_verdict(forged).applicable


def test_rip_fig1_l2_equals_coherence(fig1):
    report = rip_delta(fig1, 2)
    assert report.delta == pytest.approx(1 / 3, abs=1e-12)
    assert report.gershgorin == pytest.approx(1 / 3)


def test_rip_fig1_l3(fig1):
    report = rip_delta(fig1, 3)
    assert report.delta < 1
    assert report.delta <= 2 / 3 + 1e-9
    assert report.subsets == 560


def test_rip_fig1_l4_breaks(fig1):
    report = rip_delta(fig1, 4)
    assert report.delta >= 1  # the dependent four-column subset has a zero eigenvalue
    assert not report.satisfied


def test_rip_gershgorin_dominates(fig1, fig2):
    for f in (fig1, fig2):
        mu = float(coherence(f))
        for size in (2, 3):
            assert rip_delta(f, size).delta <= (size - 1) * mu + 1e-9


def test_rip_budget_guard():
    f = Frame(entries=np.eye(50, dtype=np.complex128))
    with pytest.raises(EnumerationBudgetExceeded):
        rip_delta(f, 25)


def test_rip_checks_unit_norm_before_searching(monkeypatch):
    a = np.random.default_rng(7).standard_normal((4, 40))
    frame = Frame(entries=2 * a / np.linalg.norm(a, axis=0))

    def search_nothing(gram, size, window=None):
        raise AssertionError("rip_delta searched a frame that is not unit-norm")
    monkeypatch.setattr(metrics, "_subset_spectra", search_nothing)
    with pytest.raises(NotUnitNorm, match="column norms deviate from 1 by 1.000e[+]00"):
        rip_delta(frame, 5)


def test_rip_delta_of_size_one(fig1):
    # delta_1 is defined on one column: no pairs, so the Gershgorin term is 0
    report = rip_delta(Frame(entries=np.ones((1, 1), dtype=np.complex128)), 1)
    assert (report.delta, report.min_eig, report.max_eig) == (0.0, 1.0, 1.0)
    assert report.gershgorin == 0.0 and report.subsets == 1
    assert report.as_dict()["gershgorin_bound"] == 0.0
    report = rip_delta(fig1, 1)
    assert report.gershgorin == 0.0 and report.subsets == fig1.n
    assert report.delta == pytest.approx(0.0, abs=1e-12)


def test_rip_delta_of_size_one_checks_columns_before_searching(monkeypatch):
    def search_nothing(gram, size, window=None):
        raise AssertionError("rip_delta searched a frame with bad columns")
    monkeypatch.setattr(metrics, "_subset_spectra", search_nothing)
    with pytest.raises(NotUnitNorm, match="column norms deviate from 1 by 1.000e[+]00"):
        rip_delta(Frame(entries=2 * np.ones((1, 1), dtype=np.complex128)), 1)
    with pytest.raises(NotUnitNorm, match="no rows"):
        rip_delta(Frame(entries=np.zeros((0, 1), dtype=np.complex128)), 1)



def test_steiner_rip_verdict_fig1(fig1):
    report = steiner_rip_verdict(fig1)
    assert report.applicable
    assert report.big_r == 3
    assert report.cutoff_formula == pytest.approx(3.0)
    deltas = dict(report.per_l)
    assert deltas[2] < 1 and deltas[3] < 1 and deltas[4] >= 1
    assert report.consistent


def test_steiner_rip_verdict_of_a_frame_with_no_rows_is_not_unit_norm():
    frame = Frame(entries=np.zeros((0, 5), complex), provenance={"construction": "steiner", "r": 2})
    with pytest.raises(NotUnitNorm, match="no rows"):
        steiner_rip_verdict(frame)


def _search_nothing(gram, size, window=None):
    raise AssertionError("the search ran on input it should refuse")


@pytest.mark.parametrize("cap", [1, 0, -1])
def test_steiner_rip_verdict_refuses_a_cap_below_two(monkeypatch, fig1, cap):
    # L runs from 2, so a cap below 2 would check nothing and pass vacuously
    monkeypatch.setattr(metrics, "_subset_spectra", _search_nothing)
    with pytest.raises(BadDimensions, match=f"at least 2, got {cap}"):
        steiner_rip_verdict(fig1, cap)
    with pytest.raises(BadDimensions):
        steiner_rip_verdict(orthonormal(4), cap)


def test_steiner_rip_verdict_refuses_a_frame_whose_pairs_are_over_budget(monkeypatch, fig1):
    monkeypatch.setattr(metrics, "_subset_spectra", _search_nothing)
    monkeypatch.setattr(metrics, "SUBSET_BUDGET", comb(fig1.n, 2) - 1)
    with pytest.raises(EnumerationBudgetExceeded, match=r"^C\(16,2\) = 120 subsets exceeds the budget 119$"):
        steiner_rip_verdict(fig1)


def test_steiner_rip_verdict_stops_at_the_first_size_over_budget(monkeypatch, fig1):
    monkeypatch.setattr(metrics, "SUBSET_BUDGET", comb(fig1.n, 3) - 1)
    report = steiner_rip_verdict(fig1)
    assert [size for size, _ in report.per_l] == [2] and report.consistent


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)])
def test_spark_refuses_non_finite_entries_before_searching(monkeypatch, bad):
    entries = np.eye(3, 5, dtype=np.complex128)
    entries[1, 2] = bad
    monkeypatch.setattr(metrics, "_subset_spectra", _search_nothing)
    with pytest.raises(FrameFormatError, match="^entries must be finite numbers$"):
        spark(Frame(entries=entries))


def test_steiner_rip_not_applicable_for_plain_frames():
    report = steiner_rip_verdict(orthonormal(4))
    assert not report.applicable


@pytest.fixture(scope="module")
def affine31_dft():
    return steiner_etf(affine_design(3, 1), drop_row_simplex(dft(5), 0))


@pytest.mark.parametrize("name", ["fig1", "fig2", "affine31_dft"])
def test_steiner_rip_verdict_deltas_equal_rip_delta(request, name):
    frame = request.getfixturevalue(name)
    report = steiner_rip_verdict(frame)
    assert [size for size, _ in report.per_l] == list(range(2, report.big_r + 2))
    for size, delta in report.per_l:
        assert delta == rip_delta(frame, size).delta


@pytest.mark.parametrize("forged_r", [4, 5, 12])
def test_steiner_rip_refuses_a_forged_r_above_the_frames_r(fig1, forged_r):
    """fig1 has R = 3.  Under r = 4, 5 or 12 its columns 0..r are dependent,
    as spark reports unchanged, but so are columns 0..r-1 (rank 3, 4 and 6,
    each below r): no design structure r stands, so the verdict does not
    apply, where columns 0..r alone would make it apply and fail."""
    forged = with_provenance(fig1, {**fig1.provenance, "r": forged_r})
    report = spark(forged)
    assert report.spark == 4 and report.witness == (0, 1, 2, 3)
    assert report.structural_witness == tuple(range(forged_r + 1)) and report.structural_rank <= forged_r
    verdict = steiner_rip_verdict(forged)
    assert not verdict.applicable and verdict.big_r is None and verdict.as_dict()["passed"] is None
    assert steiner_rip_verdict(fig1).applicable  # the frame's own R


def test_only_steiner_rip_ranks_the_first_r_columns_and_only_on_a_dependent_witness(fig1, monkeypatch):
    """spark ranks columns 0..R alone; steiner_rip_verdict ranks columns
    0..R-1 as well, and only once columns 0..R are found dependent."""
    widths, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda a, *args, **kw: widths.append(a.shape[1]) or svd(a, *args, **kw))
    spark(fig1)
    assert widths == [4]
    widths.clear()
    steiner_rip_verdict(fig1)
    assert widths == [4, 3]
    widths.clear()
    steiner_rip_verdict(_identity_beside_hadamard(3))  # columns 0..3 independent
    assert widths == [4]


@pytest.mark.parametrize("m,n", [(0, 4), (5, 4), (1, 1), (-1, 3)])
def test_welch_bound_exact_refuses_bad_dimensions(m, n):
    with pytest.raises(BadDimensions):
        welch_bound_exact(m, n)


@pytest.mark.parametrize("size", [0, -1, 17])
def test_rip_delta_refuses_a_subset_size_outside_1_to_n(fig1, size):
    with pytest.raises(BadDimensions):
        rip_delta(fig1, size)


@pytest.mark.parametrize("ints", [
    [[1, 0], [1, 0], [0, 0]],  # N d = 2 nonzeros, but both in column 0
    [[0, 1], [0, 1], [0, 0]],  # both in column 1
], ids=["first-column", "last-column"])
def test_a_form_with_uneven_columns_has_no_steiner_form(ints):
    assert metrics._steiner_form(np.array(ints, dtype=np.int8), 1) is None


def test_point_supports_that_meet_twice_are_no_steiner_form(fig1):
    """Two points of R + 1 = 4 columns each, supported on rows {0, 1, 2}
    and {0, 2, 3}: the grouping reads two points, but their supports meet
    in two rows, so no Steiner ETF has them."""
    rows = np.array([[0, 1, 2]] * 4 + [[0, 2, 3]] * 4)
    assert not metrics._is_steiner(rows, np.ones((8, 3), dtype=np.int8), 4)
    assert metrics._is_steiner(*metrics._steiner_form(fig1.exact_ints, fig1.scale_sq)[:2], fig1.m)

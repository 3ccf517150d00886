"""spark's coherence certificate and the growing batches of the subset
engine, against a reference search that enumerates every subset of every
size from 1 in fixed batches of _EIG_CHUNK, as spark did before sizes that
spark >= 1 + 1/mu certifies were skipped."""

from itertools import chain, combinations, islice
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etfkit import metrics
from etfkit.designs import affine_design, round_robin_design
from etfkit.errors import EnumerationBudgetExceeded
from etfkit.flatmat import dft, drop_row_simplex, hadamard
from etfkit.frames import Frame, kirkman_etf, steiner_etf
from etfkit.metrics import SparkReport, spark

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def reference_spark(frame: Frame, max_subset: int | None = None) -> SparkReport:
    n = frame.n
    limit = n if max_subset is None else min(max_subset, n)
    if n > frame.m:
        limit = min(limit, frame.m + 1)
    structural = structural_rank = None
    big_r = metrics._design_r(frame)
    if big_r is not None:
        structural = tuple(range(big_r + 1))
        svals = np.linalg.svd(frame.entries[:, list(structural)], compute_uv=False)
        structural_rank = int(np.sum(svals > metrics._rank_threshold(n)))
        if structural_rank < big_r + 1:
            limit = min(limit, big_r + 1)
    metrics._check_budget(sum(comb(n, size) for size in range(1, limit + 1)),
                          f"sum of C({n},k) for k <= {limit}")
    gram = frame.gram()
    thr_sq = metrics._rank_threshold(n) ** 2
    for size in range(1, limit + 1):
        flat = chain.from_iterable(combinations(range(n), size))
        while (subsets := np.fromiter(islice(flat, metrics._EIG_CHUNK * size), dtype=np.intp)).size:
            subsets = subsets.reshape(-1, size)
            eigs = np.linalg.eigvalsh(gram[subsets[:, :, None], subsets[:, None, :]])
            hits = np.nonzero(eigs[:, 0] < thr_sq)[0]
            if hits.size:
                return SparkReport(n=n, spark=size, lower_bound=size,
                                   witness=tuple(int(x) for x in subsets[hits[0]]),
                                   structural_witness=structural,
                                   structural_rank=structural_rank, exact=True)
    return SparkReport(n=n, spark=None, lower_bound=limit + 1, witness=None,
                       structural_witness=structural, structural_rank=structural_rank,
                       exact=False)


def outcome(search, frame: Frame, max_subset: int | None):
    try:
        return search(frame, max_subset).as_dict()
    except EnumerationBudgetExceeded as e:
        return f"refused: {e}"


@st.composite
def small_frames(draw) -> Frame:
    """Real or complex frames of up to 5 x 9 with small integer entries, so
    exact dependencies occur; then columns duplicated (times a phase),
    replaced by the sum of two others, or rescaled (zero included)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.integers(-3, 4, (m, n)).astype(np.float64)
    if draw(st.booleans()):
        a = a + 1j * rng.integers(-3, 4, (m, n))
    cols = st.integers(0, n - 1)
    for kind, dst, x, y in draw(st.lists(st.tuples(st.sampled_from("dsr"), cols, cols, cols),
                                         max_size=3)):
        if kind == "d":
            a[:, dst] = a[:, x] * draw(st.sampled_from([1, -1, 1j] if np.iscomplexobj(a) else [1, -1]))
        elif kind == "s":
            a[:, dst] = a[:, x] + a[:, y]
        else:
            a[:, dst] *= draw(st.sampled_from([0.0, 0.5, 2.0]))
    norms = np.linalg.norm(a, axis=0)
    if draw(st.booleans()):
        a = np.where(norms > 0, a / np.where(norms > 0, norms, 1), a)
    return Frame(entries=a)


def _design_frames() -> list[Frame]:
    """Steiner and Kirkman ETFs (coherence 1/R) from affine_design(2, 1..2)
    and round_robin_design(4 | 6), with DFT and, where one exists, Hadamard
    simplices."""
    out = []
    for design in (affine_design(2, 1), affine_design(2, 2),
                   round_robin_design(4), round_robin_design(6)):
        r, s = len(design.resolution), design.v // design.k
        bases = [dft(r + 1)] + ([hadamard(r + 1)] if r + 1 in (4, 8) else [])
        for basis in bases:
            simplex = drop_row_simplex(basis, 0)
            out.append(steiner_etf(design, simplex))
            out.append(kirkman_etf(design, simplex, hadamard(s) if s in (2, 4) else dft(s)))
    return out


DESIGN_FRAMES = _design_frames()


@st.composite
def frames_and_caps(draw):
    if draw(st.booleans()):
        frame = draw(st.sampled_from(DESIGN_FRAMES))
        cap = draw(st.sampled_from([None, 1, 2, 3, metrics._design_r(frame) + 1]))
    else:
        frame = draw(small_frames())
        cap = draw(st.none() | st.integers(1, frame.n + 1))
    return frame, cap


@PROPERTY
@given(frames_and_caps())
def test_spark_matches_the_reference_search(frame_and_cap):
    frame, cap = frame_and_cap
    assert outcome(spark, frame, cap) == outcome(reference_spark, frame, cap)


def test_design_frames_cover_steiner_and_kirkman():
    kinds = {(f.provenance["construction"], f.m, f.n) for f in DESIGN_FRAMES}
    assert kinds == {(c, m, n) for c in ("steiner", "kirkman")
                     for m, n in ((6, 16), (28, 64), (15, 36))}


@pytest.mark.parametrize("design,order", [(affine_design(3, 1), 5), (round_robin_design(6), 6)])
def test_steiner_spark_enumerates_one_batch_of_size_r_plus_1(monkeypatch, design, order):
    frame = steiner_etf(design, drop_row_simplex(dft(order), 0))
    big_r = order - 1
    batches = []
    engine = metrics._subset_spectra

    def recording(gram, size):
        for batch in engine(gram, size):
            batches.append((size, len(batch[0])))
            yield batch
    monkeypatch.setattr(metrics, "_subset_spectra", recording)
    report = spark(frame)
    assert report.spark == big_r + 1 and report.witness == tuple(range(big_r + 1))
    assert batches == [(big_r + 1, 64)]


@pytest.mark.parametrize("n,size,chunk", [(20, 3, metrics._EIG_CHUNK), (12, 4, 128), (5, 5, 64), (9, 1, 64)])
def test_subset_batches_are_the_lexicographic_combinations(monkeypatch, n, size, chunk):
    monkeypatch.setattr(metrics, "_EIG_CHUNK", chunk)
    rng = np.random.default_rng(n * size)
    a = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    gram = a.conj().T @ a
    batches = list(metrics._subset_spectra(gram, size))
    sizes = [len(subsets) for subsets, _ in batches]
    assert sizes[:-1] == [min(64 << i, chunk) for i in range(len(sizes) - 1)]
    subsets = np.concatenate([subsets for subsets, _ in batches])
    assert [tuple(s) for s in subsets.tolist()] == list(combinations(range(n), size))
    eigs = np.concatenate([e for _, e in batches])
    assert np.array_equal(eigs, np.linalg.eigvalsh(gram[subsets[:, :, None], subsets[:, None, :]]))

"""spark's coherence certificate, the subset engine's shifted-LDL^H
certificate and its growing batches, against reference searches that
eigensolve every subset.  reference_spark enumerates every subset of every
size from 1 in fixed batches of _EIG_CHUNK, as spark did before sizes that
spark >= 1 + 1/mu certifies were skipped and certified subsets filtered out;
at size m+1 of an m x N frame every subset depends by dimension count, and
the reference takes the first, as spark does.  reference_rip and
reference_steiner_rip take the extreme eigenvalues over every subset, as
rip_delta and steiner_rip_verdict did before the engine skipped the subsets
certified strictly inside the running extremes.  The references read a
design frame's R from its provenance, and test its R+1 witness columns, in
their own code (provenance_r, witness_rank), not through
metrics._design_structure."""

from dataclasses import replace
from itertools import chain, combinations, islice
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etfkit import fixtures, metrics
from etfkit.designs import affine_design, round_robin_design
from etfkit.errors import EnumerationBudgetExceeded
from etfkit.flatmat import dft, drop_row_simplex, hadamard
from etfkit.frames import Frame, frame_to_json, kirkman_etf, naimark_complement, parse_frame, steiner_etf
from etfkit.metrics import RipReport, SparkReport, SteinerRipReport, rip_delta, spark, steiner_rip_verdict

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def provenance_r(frame: Frame) -> int | None:
    """R as a design frame's provenance states it: an int r, 0 < r < N,
    under a steiner, kirkman or mcfarland-kirkman construction."""
    big_r = frame.provenance.get("r")
    if frame.provenance.get("construction") not in ("steiner", "kirkman", "mcfarland-kirkman"):
        return None
    return big_r if type(big_r) is int and 0 < big_r < frame.n else None


def witness_rank(frame: Frame, big_r: int) -> int:
    """The SVD rank of columns 0..R, at spark's threshold."""
    svals = np.linalg.svd(frame.entries[:, :big_r + 1], compute_uv=False)
    return int(np.sum(svals > metrics._rank_threshold(frame.n)))


def reference_spark(frame: Frame, max_subset: int | None = None) -> SparkReport:
    n = frame.n
    limit = n if max_subset is None else min(max_subset, n)
    if n > frame.m:
        limit = min(limit, frame.m + 1)
    structural = structural_rank = None
    big_r = provenance_r(frame)
    if big_r is not None:
        structural = tuple(range(big_r + 1))
        structural_rank = witness_rank(frame, big_r)
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
            # m+1 columns in m dimensions depend whatever eigvalsh rounds to
            hits = np.arange(len(subsets)) if size > frame.m else np.nonzero(eigs[:, 0] < thr_sq)[0]
            if hits.size:
                return SparkReport(n=n, spark=size, lower_bound=size,
                                   witness=tuple(int(x) for x in subsets[hits[0]]),
                                   structural_witness=structural,
                                   structural_rank=structural_rank, exact=True)
    return SparkReport(n=n, spark=None, lower_bound=limit + 1, witness=None,
                       structural_witness=structural, structural_rank=structural_rank,
                       exact=False)


def reference_spectrum(gram: np.ndarray, size: int) -> tuple[float, float, float]:
    """(delta, smallest, largest) eigenvalue over every size-subset Gram, each eigensolved."""
    lo, hi = np.inf, -np.inf
    flat = chain.from_iterable(combinations(range(gram.shape[0]), size))
    while (subsets := np.fromiter(islice(flat, metrics._EIG_CHUNK * size), dtype=np.intp)).size:
        subsets = subsets.reshape(-1, size)
        eigs = np.linalg.eigvalsh(gram[subsets[:, :, None], subsets[:, None, :]])
        lo, hi = min(lo, float(eigs[:, 0].min())), max(hi, float(eigs[:, -1].max()))
    return max(abs(1.0 - lo), abs(hi - 1.0)), lo, hi


def reference_rip(frame: Frame, size: int) -> RipReport:
    delta, lo, hi = reference_spectrum(frame.gram(), size)
    gershgorin = float((size - 1) * metrics.coherence(frame)) if size > 1 else 0.0
    return RipReport(n=frame.n, size=size, delta=delta, min_eig=lo, max_eig=hi,
                     gershgorin=gershgorin, subsets=comb(frame.n, size))


def reference_steiner_rip(frame: Frame, max_size: int | None = None) -> SteinerRipReport:
    big_r = provenance_r(frame)
    if big_r is None or witness_rank(frame, big_r) == big_r + 1:
        return SteinerRipReport(applicable=False, big_r=None, cutoff_formula=None, per_l=())
    rho = frame.n / frame.m
    per_l = []
    for size in range(2, min(big_r + 1, max_size or big_r + 1) + 1):
        if comb(frame.n, size) > metrics.SUBSET_BUDGET:
            break
        per_l.append((size, reference_spectrum(frame.gram(), size)[0]))
    return SteinerRipReport(applicable=True, big_r=big_r, cutoff_formula=((rho * frame.m - 1) / (rho - 1)) ** 0.5,
                            per_l=tuple(per_l))


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


@st.composite
def generic_frames(draw) -> Frame:
    """Unit-norm Gaussian frames, real or complex, with m <= 5 rows and
    m < n <= 12 columns; in some, one column is a combination of m-1 others plus
    eps noise, eps in {1e-6, 1e-7, 1e-8}, so the smallest eigenvalue of
    that m-subset falls on either side of the threshold and below the
    filter's margin."""
    eps = draw(st.sampled_from([None, 1e-6, 1e-7, 1e-8]))
    m = draw(st.integers(1 if eps is None else 2, 5))
    n = draw(st.integers(m + 1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    complex_entries = draw(st.booleans())

    def gaussian(*shape):
        g = rng.standard_normal(shape)
        return g + 1j * rng.standard_normal(shape) if complex_entries else g
    a = gaussian(m, n)
    if eps is not None:
        dst, *src = rng.permutation(n)[:m]
        a[:, dst] = a[:, src] @ gaussian(m - 1) + eps * gaussian(m)
    return Frame(entries=a / np.linalg.norm(a, axis=0))


@st.composite
def uneven_frames(draw) -> Frame:
    """Gaussian frames, real or complex, with m <= 5 rows and n <= 9 columns
    whose norms span up to sixteen orders of magnitude; then one column is
    left as it is, made a copy of another (spark 2) or made zero (spark 1)."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    a = rng.standard_normal((m, n))
    if draw(st.booleans()):
        a = a + 1j * rng.standard_normal((m, n))
    a = a * 10.0 ** rng.uniform(-8, 8, n)
    dst, src = rng.permutation(n)[:2]
    kind = draw(st.sampled_from(["uneven", "duplicate", "zero"]))
    if kind == "duplicate":
        a[:, dst] = a[:, src]
    elif kind == "zero":
        a[:, dst] = 0
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
    kind = draw(st.sampled_from(["design", "small", "generic", "uneven"]))
    if kind == "design":
        frame = draw(st.sampled_from(DESIGN_FRAMES))
        cap = draw(st.sampled_from([None, 1, 2, 3, frame.provenance["r"] + 1]))
    else:
        frame = draw({"small": small_frames, "generic": generic_frames, "uneven": uneven_frames}[kind]())
        cap = draw(st.none() | st.integers(1, frame.n + 1))
    return frame, cap


@PROPERTY
@given(frames_and_caps())
def test_spark_matches_the_reference_search(frame_and_cap):
    frame, cap = frame_and_cap
    assert outcome(spark, frame, cap) == outcome(reference_spark, frame, cap)


@pytest.mark.parametrize("frame", DESIGN_FRAMES, ids=lambda f: f"{f.provenance['construction']}-{f.m}x{f.n}")
def test_steiner_rip_applies_exactly_when_the_spark_witness_is_dependent(frame):
    """spark and Steiner-RIP read "this frame has design structure r" from
    one witness, under every provenance r from 1 to R+2.  spark's witness,
    columns 0..r, has rank at most r for every r >= R (the R+1 columns of
    point 0 lie on R rows) and for no r < R (coherence 1/R makes any R
    columns independent).  The verdict applies only when, besides, columns
    0..r-1 have rank r, which fails for every r > R: so at r = R alone."""
    big_r = frame.provenance["r"]
    for r in range(1, big_r + 3):
        forged = replace(frame, provenance={**frame.provenance, "r": r})
        rank = spark(forged, max_subset=1).structural_rank
        assert (rank <= r) == (r >= big_r), r
        assert steiner_rip_verdict(forged, 2).applicable == (r == big_r), r


def test_design_frames_cover_steiner_and_kirkman():
    kinds = {(f.provenance["construction"], f.m, f.n) for f in DESIGN_FRAMES}
    assert kinds == {(c, m, n) for c in ("steiner", "kirkman")
                     for m, n in ((6, 16), (28, 64), (15, 36))}


@st.composite
def indefinite_hermitian(draw) -> np.ndarray:
    """Hermitian n x n matrices, n <= 8, real or complex, with eigenvalues
    drawn from [-1, 2]: no Gram, so negative pivots occur."""
    n = draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    g = rng.standard_normal((n, n))
    if draw(st.booleans()):
        g = g + 1j * rng.standard_normal((n, n))
    q, _ = np.linalg.qr(g)
    return (q * rng.uniform(-1, 2, n)) @ q.conj().T


@PROPERTY
@given(st.one_of(generic_frames().map(Frame.gram), small_frames().map(Frame.gram),
                 uneven_frames().map(Frame.gram), indefinite_hermitian()),
       st.sampled_from([None, -np.inf, 1e-6, 1e-3, 1e-2, 0.1, 0.5]),
       st.sampled_from([np.inf, 1.5, 2.0, 3.0]))
def test_every_subset_below_the_floor_is_left_uncertified(gram, lo, hi):
    """Soundness of the certificate: with the floor spark uses (None here)
    or any other lo, and any hi, every subset whose eigvalsh smallest
    eigenvalue is at or below lo, or largest at or above hi, is eigensolved
    and yielded, with the same eigenvalues."""
    n = gram.shape[0]
    if lo is None:
        lo = metrics._rank_threshold(n) ** 2 + metrics.DEFAULT_TOL
    for size in range(1, min(n, 6) + 1):
        every = np.array(list(combinations(range(n), size)), dtype=np.intp)
        eigs = np.linalg.eigvalsh(gram[every[:, :, None], every[:, None, :]])
        yielded = {tuple(subset): row for subsets, batch in metrics._subset_spectra(gram, size, (lo, hi))
                   for subset, row in zip(subsets.tolist(), batch)}
        for subset, row in zip(every.tolist(), eigs):
            if row[0] <= lo or row[-1] >= hi:
                assert np.array_equal(yielded[tuple(subset)], row), (size, subset)


@PROPERTY
@given(st.one_of(generic_frames(), small_frames(), uneven_frames()))
def test_rip_spectrum_matches_the_reference_search(frame):
    """The running-extremes search against every subset eigensolved, on
    every size up to 5, also where column norms differ by orders of
    magnitude or a column repeats or is zero (rip_delta itself refuses such
    frames as not unit-norm)."""
    gram = frame.gram()
    for size in range(1, min(frame.n, 5) + 1):
        assert metrics._rip_spectrum(gram, size) == reference_spectrum(gram, size), size


def _hermitian_batch(rng, size: int, count: int, ends: tuple[float, float], scale: float):
    """The flattened block-diagonal Gram of count complex Hermitian size x size
    blocks with eigenvalues scale * ends[0] and scale * ends[1], and others
    between (one block entry, scale * ends[0], when size is 1), and the
    subsets that pick each block."""
    blocks = []
    for _ in range(count):
        q, _ = np.linalg.qr(rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size)))
        eigs = np.concatenate((ends, rng.uniform(*ends, max(size - 2, 0))))[:size]
        blocks.append((q * (scale * eigs)) @ q.conj().T)
    n = size * count
    gram = np.zeros((n, n), dtype=complex)
    for b, block in enumerate(blocks):
        gram[b * size:(b + 1) * size, b * size:(b + 1) * size] = block
    return gram, np.arange(n, dtype=np.intp).reshape(count, size)


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
@pytest.mark.parametrize("size", [1, 2, 3, 5, 8])
def test_the_shifted_ldl_certificate_is_strict(size, scale):
    """Shifts at, just below and just above the exact extreme eigenvalues: a
    subset certified inside (lo, hi) has an eigvalsh spectrum strictly
    inside, and shifts 1e-9 outside (relative) certify every subset."""
    rng = np.random.default_rng(size)
    ends = (0.3, 1.7) if size > 1 else (0.3, 0.3)
    gram, subsets = _hermitian_batch(rng, size, 100, ends, scale)
    eigs = np.linalg.eigvalsh(gram[subsets[:, :, None], subsets[:, None, :]])

    def certified(lo, hi):
        # each block's first size-1 columns as a prefix, and its last column as the one extension
        return metrics._certified_extensions(gram, subsets[:, :-1], np.ones(len(subsets), dtype=np.intp),
                                             subsets[:, -1], lo, hi)
    low, high = scale * ends[0], scale * ends[1]
    nudges = [0.0, -1e-15, 1e-15, -1e-12, 1e-12, -1e-9, 1e-9]
    for lo in [low * (1 + d) for d in nudges] + [np.nextafter(low, 0), np.nextafter(low, np.inf), -np.inf]:
        for hi in [high * (1 + d) for d in nudges] + [np.nextafter(high, 0), np.nextafter(high, np.inf), np.inf]:
            inside = certified(lo, hi)
            assert np.all(eigs[inside, 0] > lo) and np.all(eigs[inside, -1] < hi), (lo, hi)
    assert certified(low * (1 - 1e-9), high * (1 + 1e-9)).all()
    assert certified(-np.inf, np.inf).all()
    assert not certified(np.inf, -np.inf).any()


def _recording_enumerator(monkeypatch) -> list[tuple[int, int]]:
    """(size, subsets) for every batch the engine enumerates."""
    batches = []
    enumerate_batches = metrics._lex_batches

    def recording(n, size):
        for prefixes, counts in enumerate_batches(n, size):
            batches.append((size, int(counts.sum())))
            yield prefixes, counts
    monkeypatch.setattr(metrics, "_lex_batches", recording)
    return batches


@pytest.mark.parametrize("design,order,first", [(affine_design(3, 1), 5, 41 + 40),
                                                (round_robin_design(6), 6, 31 + 30 + 29)])
def test_steiner_spark_enumerates_one_batch_of_size_r_plus_1(monkeypatch, design, order, first):
    """The first batch is the fewest whole prefixes that stand for 64
    subsets: (0, ..., R-1) and the next prefixes, each with its extensions."""
    frame = steiner_etf(design, drop_row_simplex(dft(order), 0))
    big_r = order - 1
    batches = _recording_enumerator(monkeypatch)
    report = spark(frame)
    assert report.spark == big_r + 1 and report.witness == tuple(range(big_r + 1))
    assert batches == [(big_r + 1, first)] and 64 <= first < 64 + frame.n


def _counting_engine(monkeypatch) -> list[tuple[int, int]]:
    """(size, subsets) for every batch the engine eigensolves, for spark and
    for the RIP searches alike."""
    eigensolved = []
    engine = metrics._subset_spectra

    def counting(gram, size, window=None):
        for subsets, eigs in engine(gram, size, window):
            eigensolved.append((size, len(subsets)))
            yield subsets, eigs
    monkeypatch.setattr(metrics, "_subset_spectra", counting)
    return eigensolved


def test_spark_eigensolves_under_one_percent_of_a_random_frame(monkeypatch):
    a = np.random.default_rng(2013).standard_normal((5, 24))
    frame = Frame(entries=a / np.linalg.norm(a, axis=0))
    enumerated = _recording_enumerator(monkeypatch)
    eigensolved = _counting_engine(monkeypatch)
    report = spark(frame)
    assert report.as_dict() == reference_spark(frame).as_dict()
    assert report.spark == 6
    # sizes 1-2 are left to the coherence bound, 3-5 enumerated in full, and
    # size 6 = m+1 is decided by dimension count, with nothing enumerated
    total = sum(count for _, count in enumerated)
    assert total == sum(comb(24, k) for k in (3, 4, 5))
    assert sum(count for _, count in eigensolved) < total / 100


def _subset_search_frames() -> dict[str, Frame]:
    """The frames of the benchmark's subset_search workload: design frames,
    the Naimark complements of fig1 and fig2, and the random pools, each
    through its JSON document as the workload parses it."""
    def dft_steiner(design, order):
        return steiner_etf(design, drop_row_simplex(dft(order), 0))

    def random_frame(m, n, seed):
        a = np.random.default_rng(seed).standard_normal((m, n))
        a /= np.linalg.norm(a, axis=0)
        return Frame(entries=a.astype(complex), provenance={"construction": "random", "seed": seed})

    frames = {"fig1": fixtures.fig1(), "fig2": fixtures.fig2(),
              "aff31-dft": dft_steiner(affine_design(3, 1), 5),
              "rr6-dft": dft_steiner(round_robin_design(6), 6)}
    for m, n, base in ((5, 24, 100), (4, 30, 200)):
        for i in range(4):
            frames[f"rand{m}x{n}-{i}"] = random_frame(m, n, base + i)
    frames = {name: parse_frame(frame_to_json(f)) for name, f in frames.items()}
    frames.update({f"{name}/naimark": naimark_complement(frames[name]) for name in ("fig1", "fig2")})
    return frames


SUBSET_SEARCH_FRAMES = _subset_search_frames()


@pytest.mark.parametrize("frame", SUBSET_SEARCH_FRAMES.values(), ids=SUBSET_SEARCH_FRAMES.keys())
def test_spark_size_m_plus_1_is_decided_without_an_eigensolve(monkeypatch, frame):
    want = reference_spark(frame).as_dict()
    eigensolved = _counting_engine(monkeypatch)
    assert spark(frame).as_dict() == want
    assert all(size <= frame.m for size, _ in eigensolved)
    if want["spark"] == frame.m + 1:
        # the float test that used to decide this size finds the same witness
        first = np.arange(frame.m + 1)
        smallest = np.linalg.eigvalsh(frame.gram()[np.ix_(first, first)])[0]
        assert smallest < metrics._rank_threshold(frame.n) ** 2
        assert want["witness"] == first.tolist()


@pytest.mark.parametrize("n,size,chunk", [(20, 3, metrics._EIG_CHUNK), (30, 4, 128), (12, 4, 128),
                                          (5, 5, 64), (9, 1, 64), (80, 1, 64), (70, 2, 64)])
def test_subset_batches_are_the_lexicographic_combinations(monkeypatch, n, size, chunk):
    """With a window that certifies nothing, every subset is yielded once,
    in lexicographic order, in batches of whole prefixes: each but the last
    is the fewest that stand for min(64 2^i, chunk) subsets, so it ends at
    column n-1 and holds fewer than that plus n-size+1, the most any prefix
    stands for."""
    monkeypatch.setattr(metrics, "_EIG_CHUNK", chunk)
    rng = np.random.default_rng(n * size)
    a = rng.standard_normal((3, n)) + 1j * rng.standard_normal((3, n))
    gram = a.conj().T @ a
    batches = list(metrics._subset_spectra(gram, size, (np.inf, -np.inf)))
    for i, (subsets, _) in enumerate(batches[:-1]):
        want = min(64 << i, chunk)
        assert want <= len(subsets) < want + n - size + 1 and subsets[-1, -1] == n - 1
        last_prefix = (subsets[:, :-1] == subsets[-1, :-1]).all(axis=1)
        assert len(subsets) - last_prefix.sum() < want
    subsets = np.concatenate([subsets for subsets, _ in batches])
    assert len(subsets) == comb(n, size)
    assert [tuple(s) for s in subsets.tolist()] == list(combinations(range(n), size))
    eigs = np.concatenate([e for _, e in batches])
    assert np.array_equal(eigs, np.linalg.eigvalsh(gram[subsets[:, :, None], subsets[:, None, :]]))


@pytest.mark.parametrize("n,size", [(100, 97), (120, 118)])
def test_lexicographic_batches_where_middle_binomials_pass_int64(n, size):
    # C(98, 49) and C(118, 59) exceed 2**63; the rank tables must not wrap
    subsets = [prefix + (x,) for prefixes, counts in metrics._lex_batches(n, size)
               for prefix, count in zip(map(tuple, prefixes.tolist()), counts.tolist())
               for x in range(n - count, n)]
    assert subsets == list(combinations(range(n), size))


# L = 1..4 on every frame, and L = N on fig1, where the one subset is every column
RIP_CASES = [(name, size) for name in SUBSET_SEARCH_FRAMES for size in range(1, 5)] + [("fig1", 16)]


@pytest.mark.parametrize("name,size", RIP_CASES, ids=[f"{name}-L{size}" for name, size in RIP_CASES])
def test_rip_delta_matches_the_reference(name, size):
    frame = SUBSET_SEARCH_FRAMES[name]
    assert rip_delta(frame, size).as_dict() == reference_rip(frame, size).as_dict()


@pytest.mark.parametrize("frame", SUBSET_SEARCH_FRAMES.values(), ids=SUBSET_SEARCH_FRAMES.keys())
def test_steiner_rip_verdict_matches_the_reference(frame):
    assert steiner_rip_verdict(frame, 4).as_dict() == reference_steiner_rip(frame, 4).as_dict()


@pytest.mark.parametrize("size", [2, 3])
def test_rip_on_an_exact_sign_frame_matches_the_reference(size):
    frame = kirkman_etf(round_robin_design(8), drop_row_simplex(hadamard(8), 0), hadamard(4))
    assert frame.is_sign_matrix and not np.iscomplexobj(frame.exact_ints)
    assert rip_delta(frame, size).as_dict() == reference_rip(frame, size).as_dict()
    assert steiner_rip_verdict(frame, size).as_dict() == reference_steiner_rip(frame, size).as_dict()


def test_rip_eigensolves_every_pair_where_pairs_tie(monkeypatch):
    """Every pair of a Steiner ETF has eigenvalues 1 -+ 1/R, up to rounding,
    so no pair is certified strictly inside the running extremes."""
    frame = SUBSET_SEARCH_FRAMES["rr6-dft"]
    want = reference_rip(frame, 2).as_dict()
    eigensolved = _counting_engine(monkeypatch)
    report = rip_delta(frame, 2)
    assert report.as_dict() == want
    assert report.min_eig == pytest.approx(1 - 1 / 5) and report.max_eig == pytest.approx(1 + 1 / 5)
    assert sum(count for _, count in eigensolved) == comb(frame.n, 2)


def test_rip_eigensolves_under_five_percent_of_aff31_dft_at_l4(monkeypatch):
    frame = SUBSET_SEARCH_FRAMES["aff31-dft"]
    eigensolved = _counting_engine(monkeypatch)
    report = rip_delta(frame, 4)
    assert report.as_dict() == reference_rip(frame, 4).as_dict()
    assert {size for size, _ in eigensolved} == {4}
    assert sum(count for _, count in eigensolved) < 0.05 * comb(45, 4)

"""The McFarland/Kirkman path builds each piece of (q, j) data once per
process: the affine field data (designs), the difference set and the
twin's design, trace-character basis and identification (frames).
Cached objects are frozen or read-only, so no caller can change what the
next call reads, and q and j are checked as integers before any cache is
asked.  kirkman_etf reduces its exponent sums mod L with no mask.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etfkit import designs, frames
from etfkit.designs import affine_design, affine_structure
from etfkit.errors import BadDimensions
from etfkit.flatmat import AbelianGroup, UnimodularMatrix, _phase_dtype
from etfkit.frames import DifferenceSet, frame_to_json, kirkman_etf, mcfarland_as_kirkman, mcfarland_set

from test_frames import HARMONIC_LADDER
from test_gram_row import _label


def _stored(frame) -> tuple:
    """Everything a frame stores, as bytes and values."""
    form = frame.phases if frame.phases is not None else frame.exact_ints
    return (frame.m, frame.n, frame.scale_sq, frame.order, frame.provenance, form.dtype.str, form.tobytes())


@pytest.mark.parametrize("case", HARMONIC_LADDER, ids=_label)
def test_two_calls_give_the_same_bytes(case):
    q, j, factors = case
    first, second = (mcfarland_as_kirkman(q, j, AbelianGroup(factors)) for _ in range(2))
    for a, b in zip(first[:2], second[:2]):
        assert a is not b and _stored(a) == _stored(b)
        if a.is_sign_matrix:
            assert frame_to_json(a) == frame_to_json(b)
    assert first[2].as_dict() == second[2].as_dict()


def test_a_returned_provenance_does_not_reach_the_next_call():
    group = AbelianGroup((2, 2, 2))
    harm, kirk, _ = mcfarland_as_kirkman(2, 2, group)
    want = (dict(harm.provenance), dict(kirk.provenance))
    for frame in (harm, kirk):
        frame.provenance["construction"] = "changed"
        frame.provenance["extra"] = [1]
    again, twin, _ = mcfarland_as_kirkman(2, 2, group)
    assert (again.provenance, twin.provenance) == want


@pytest.mark.parametrize("case", HARMONIC_LADDER, ids=_label)
def test_every_cached_array_is_read_only(case):
    q, j, factors = case
    mcfarland_as_kirkman(q, j, AbelianGroup(factors))
    structure = designs._affine_field(q, j)
    design, basis, rows, cols = frames._mcfarland_twin(q, j)
    for array in (structure.hyperplane, basis._exponents[0], basis.entries, rows, cols):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1
    assert isinstance(design.blocks, tuple) and all(isinstance(block, tuple) for block in design.blocks)
    dset = mcfarland_set(q, j, AbelianGroup(factors))
    for frozen, name in ((structure, "delta"), (design, "v"), (basis, "kind"), (dset, "lam")):
        with pytest.raises(AttributeError):
            setattr(frozen, name, 0)
    # no cache holds an M x N array: the twin holds the design's M blocks of
    # q points, the S x S basis (S^2 <= M) and the identification, O(M + N)
    m, n = len(rows), len(cols)
    assert design.b == m and design.k == q and all(len(block) == q for block in design.blocks)
    assert rows.shape == (m,) and cols.shape == (n,) and basis.rows == basis.cols == q ** j <= m


def test_a_second_call_builds_no_qj_data(monkeypatch):
    """With the caches cleared, a call runs the affine lines, the basis and
    the difference-set check; the next call with the same (q, j, G) runs
    none of them."""
    counts = {"_affine_lines": 0, "trace_character_basis": 0, "DifferenceSet.__post_init__": 0}

    def spy(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return counted

    caches = (designs._affine_field, frames._mcfarland_set, frames._mcfarland_twin)
    monkeypatch.setattr(designs, "_affine_lines", spy("_affine_lines", designs._affine_lines))
    monkeypatch.setattr(frames, "trace_character_basis", spy("trace_character_basis", frames.trace_character_basis))
    monkeypatch.setattr(DifferenceSet, "__post_init__", spy("DifferenceSet.__post_init__", DifferenceSet.__post_init__))
    for cache in caches:
        cache.cache_clear()
    group = AbelianGroup((22,))
    first = mcfarland_as_kirkman(4, 2, group)
    assert all(counts.values()), counts
    counts.update(dict.fromkeys(counts, 0))
    second = mcfarland_as_kirkman(4, 2, group)
    assert not any(counts.values()), counts
    assert _stored(first[1]) == _stored(second[1])


@pytest.mark.parametrize("order", [1, 2, 127, 128, 255, 256, 32768])
def test_the_kirkman_reduction_is_the_sum_mod_l(order):
    """Simplex and basis exponents mod L, with 0 and L - 1 among them, give
    the frame whose exponents are (a + b) % L, summed in int64, in the phase
    dtype of L (a sign frame's for L <= 2)."""
    rng = np.random.default_rng(order)
    design = designs.round_robin_design(8)  # R = 7, S = 4
    edges = np.array([0, 1, order // 2, order - 1]) % order

    def exponents(shape):
        values = np.where(rng.random(shape) < 0.5, rng.choice(edges, shape), rng.integers(0, order, shape))
        return values.astype(_phase_dtype(order))

    f, h = exponents((7, 8)), exponents((4, 4))
    simplex = UnimodularMatrix(None, "simplex", _phases=(f, order))
    basis = UnimodularMatrix(None, "character-table", _phases=(h, order))
    frame = kirkman_etf(design, simplex, basis)
    pos, _ = frames._resolution_lookup(design)
    a = f.astype(np.int64)[:, None, None, :]  # f_u(r) at (r, s, v, u)
    b = h.astype(np.int64)[:, pos].transpose(1, 0, 2)[..., None]  # h_{pos(r, v)}(s)
    want = ((a + b) % order).reshape(frame.m, frame.n)
    assert frame.order == max(order, 2) and frame.phases.dtype == _phase_dtype(max(order, 2))
    assert np.array_equal(frame.phases, want)


# -- q and j are integers, checked before any cache is asked ---------------------

NOT_INTEGERS = st.one_of(st.floats(), st.floats().map(np.float64), st.booleans(), st.just(np.True_),
                         st.just(np.False_), st.text(max_size=3), st.just(2.0), st.just(1.0))
CALLS = {
    "affine_design": lambda q, j: affine_design(q, j),
    "affine_structure": lambda q, j: affine_structure(q, j),
    "mcfarland_set": lambda q, j: mcfarland_set(q, j, AbelianGroup((4,))),
    "mcfarland_as_kirkman": lambda q, j: mcfarland_as_kirkman(q, j, AbelianGroup((4,))),
}
CACHES = (designs._affine_field, frames._mcfarland_set, frames._mcfarland_twin)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(bad=NOT_INTEGERS, slot=st.sampled_from(["q", "j"]), name=st.sampled_from(sorted(CALLS)))
def test_q_and_j_that_are_not_integers_are_refused_before_any_cache(bad, slot, name):
    """(2, 1) is a valid pair, whose data the caches already hold; a float,
    a bool or a string in either place raises BadDimensions, and no cache
    is asked.  2.0 == 2 and True == 1 as cache keys, so a lookup first
    would hand out the (2, 1) data."""
    CALLS[name](2, 1)
    before = [cache.cache_info()[:2] for cache in CACHES]
    args = {"q": 2, "j": 1, slot: bad}
    with pytest.raises(BadDimensions):
        CALLS[name](args["q"], args["j"])
    assert [cache.cache_info()[:2] for cache in CACHES] == before

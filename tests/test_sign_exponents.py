"""One stored form for +-1 data: a sign frame, a Hadamard matrix and a code
all keep exponents mod 2, and every route into them stores the same ones.

The references here are written on int64 signs, independently of the
exponent code: the frame document, the code text and the complex entries
of a +-1 matrix S at scale M, and Hadamard matrices by Sylvester doubling,
Paley I and Kronecker products.
"""

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from etfkit import flatmat, frames, gf
from etfkit.codes import code_to_frame, frame_to_code
from etfkit.designs import round_robin_design
from etfkit.errors import CodeFormatError
from etfkit.flatmat import (AbelianGroup, UnimodularMatrix, character_table, dft, drop_row_simplex, hadamard,
                            hadamard_order_reachable, simplex_from_characters)
from etfkit.frames import Frame, frame_to_json, kirkman_etf, parse_frame

from conftest import with_provenance

PROVENANCE = {"construction": "test"}


def _reference_json(signs: np.ndarray, provenance: dict) -> str:
    m, n = signs.shape
    return json.dumps({"m": m, "n": n, "scale_sq_inv": m, "provenance": provenance, "signs": signs.tolist()},
                      sort_keys=True)


def _reference_code(signs: np.ndarray) -> str | None:
    """The to_text of the code of S's columns and their complements, or None
    when two of those words are equal."""
    m, n = signs.shape
    words = ["".join("1" if s < 0 else "0" for s in column) for column in signs.T.tolist()]
    words += ["".join("1" if c == "0" else "0" for c in w) for w in words]
    if len(set(words)) != len(words):
        return None
    return f"# etfkit-code m={m} n={2 * n} selfcomp=1\n" + "".join(w + "\n" for w in words)


@st.composite
def sign_matrices(draw):
    """An M x N +-1 matrix in int64, M in 0..6 and N in 0..8, the empty
    shapes among them; a quarter of them all +1, whose exponents are all 0
    (the roots of unity of order 1)."""
    shape = draw(st.tuples(st.integers(0, 6), st.integers(0, 8)))
    if draw(st.integers(0, 3)) == 0:
        return np.ones(shape, dtype=np.int64)
    return draw(hnp.arrays(np.int64, shape, elements=st.sampled_from([-1, 1])))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(signs=sign_matrices(), dtype=st.sampled_from([np.int8, np.int32, np.int64]))
def test_every_route_to_a_sign_frame_stores_the_same_exponents(signs, dtype):
    """Frame(exact_ints=...), parse_frame of its document, code_to_frame of
    its code and _assemble of its exponents (order 2, and order 1 when every
    sign is +1) all store S's exponents mod 2 at order 2, and give S's
    integers, entries, document and code text."""
    m = len(signs)
    exponents = (signs < 0).astype(np.uint8)
    direct = Frame(exact_ints=signs.astype(dtype), scale_sq=m, provenance=PROVENANCE)
    code = _reference_code(signs)
    routes = {"exact_ints": direct, "json": parse_frame(frame_to_json(direct)),
              "assemble": frames._assemble(exponents, m, dict(PROVENANCE), 2)}
    if not exponents.any():
        routes["assemble-1"] = frames._assemble(exponents, m, dict(PROVENANCE), 1)
    if code is None:
        with pytest.raises(CodeFormatError):
            frame_to_code(direct)
    else:
        routes["code"] = code_to_frame(frame_to_code(direct))
    entries = signs.astype(np.complex128) / np.sqrt(m) if signs.size else np.zeros(signs.shape, np.complex128)
    for name, frame in routes.items():
        stored, order = frame._phases
        assert order == 2 and stored.dtype == np.uint8 and np.array_equal(stored, exponents), name
        assert frame.is_sign_matrix and frame.scale_sq == m, name
        ints = frame.exact_ints
        assert ints.dtype == np.int8 and not ints.flags.writeable and np.array_equal(ints, signs), name
        assert frame.entries.tobytes() == entries.tobytes(), name
        assert frame_to_json(frame) == _reference_json(signs, frame.provenance), name
        if code is not None:
            assert frame_to_code(frame).to_text() == code, name


def test_a_sign_frame_reads_its_integers_only_when_asked():
    """A parsed sign frame keeps only its exponents until exact_ints is read,
    and a +-1 form at another scale than M stays an integer form."""
    frame = parse_frame(frame_to_json(Frame(exact_ints=np.array([[1, -1], [-1, -1]]), scale_sq=2)))
    assert frame._ints is None and frame._entries is None
    assert frame.exact_ints is frame.exact_ints and frame._ints is not None
    other = Frame(exact_ints=np.array([[1, -1], [-1, -1]]), scale_sq=4)
    assert other.phases is None and not other.is_sign_matrix and other.exact_ints.dtype == np.int64


def test_a_sign_frame_is_rebuilt_from_its_exponents_alone():
    """A sign frame rebuilt with new provenance keeps its exponents; handed
    back its derived integers beside them, agreeing or not, it is refused."""
    from etfkit.errors import FrameFormatError

    frame = Frame(exact_ints=np.array([[1, -1], [-1, -1]]), scale_sq=2, provenance={"r": 1})
    copy = with_provenance(frame, {"r": 2})
    assert copy.provenance == {"r": 2} and np.array_equal(copy.phases, frame.phases)
    for ints in (frame.exact_ints, -frame.exact_ints):
        with pytest.raises(FrameFormatError, match="exactly one of"):
            Frame(exact_ints=ints, scale_sq=2, _phases=frame._phases)


# -- Hadamard matrices against an int64 reference ------------------------------

_REFERENCE: dict[int, np.ndarray | None] = {}


def _paley_reference(n: int) -> np.ndarray:
    q = n - 1
    fld = gf.make_field(*gf.prime_power(q))
    chi = np.full(q, -1, dtype=np.int64)  # the quadratic character: -1 on non-squares
    chi[0] = 0
    chi[fld.mul_indices(np.arange(1, q), np.arange(1, q))] = 1
    h = np.ones((n, n), dtype=np.int64)
    h[1:, 0] = -1
    h[1:, 1:] = chi[fld.sub_indices(np.arange(q)[:, None], np.arange(q)[None, :])] + np.eye(q, dtype=np.int64)
    return h


def _reference_hadamard(n: int) -> np.ndarray | None:
    """int64 signs of order n: Sylvester doubling when n/2 is reachable, else
    Paley I when n - 1 is a prime power = 3 mod 4, else the Kronecker product
    of the first reachable factor pair d x n/d, 4 <= d < n/3."""
    if n not in _REFERENCE:
        if n == 1:
            h = np.ones((1, 1), dtype=np.int64)
        elif n % 4 and n != 2:
            h = None
        elif _reference_hadamard(n // 2) is not None:
            h = np.kron(np.array([[1, 1], [1, -1]]), _reference_hadamard(n // 2))
        elif gf.prime_power(n - 1) is not None and (n - 1) % 4 == 3:
            h = _paley_reference(n)
        else:
            pairs = [(_reference_hadamard(d), _reference_hadamard(n // d)) for d in range(4, n // 3) if n % d == 0]
            h = next((np.kron(a, b) for a, b in pairs if a is not None and b is not None), None)
        _REFERENCE[n] = h
    return _REFERENCE[n]


def test_hadamard_matches_the_int64_reference_at_every_reachable_order_up_to_256():
    """Every reachable order up to 256 is a doubling or Paley I; 784 = 28 x 28,
    the first Kronecker product, is checked beside them."""
    orders = [n for n in range(1, 257) if _reference_hadamard(n) is not None]
    assert orders == [n for n in range(1, 257) if hadamard_order_reachable(n)]
    assert _reference_hadamard(392) is None and gf.prime_power(783) is None
    for n in orders + [784]:
        want = _reference_hadamard(n)
        assert np.array_equal(want.T @ want, n * np.eye(n, dtype=np.int64)), n
        built = hadamard(n)
        assert built._exponents[0].dtype == np.uint8 and not built._exponents[0].flags.writeable
        assert built.signs.dtype == np.int64 and np.array_equal(built.signs, want), n


def test_hadamard_stores_the_cached_exponents_and_nothing_else():
    """hadamard(784), the Kronecker square of Paley 28, holds its 0.6 MB of
    exponents, shared with the cache, and no int64 signs."""
    flatmat._hadamard_signs.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        h = hadamard(784)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert h._exponents[0] is flatmat._hadamard_signs(784)
    assert held <= 700_000, held


def test_hadamard_784_built_cold_peaks_under_6_mb():
    """The exact check forms the +-1 copy and H^T H in float32 (2.5 MB each
    at n = 784), beside the 0.6 MB of exponents; in float64 the peak was
    10.5 MB."""
    flatmat._hadamard_signs.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        hadamard(784)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 6_000_000, peak


@pytest.mark.parametrize("dtype", [np.int8, np.int64, np.float32])
def test_signs_of_exponents_are_the_gathered_roots(dtype):
    """flatmat._signs, 1 - 2 e, is the gather of the +-1 roots at e, in the dtype asked for."""
    exponents = np.random.default_rng(5).integers(0, 2, size=(37, 61)).astype(np.uint8)
    signs = flatmat._signs(exponents, dtype)
    assert signs.dtype == dtype and np.array_equal(signs, flatmat._root_values(exponents, flatmat._unit_roots(2)))


# -- equality and hashing of unimodular matrices ---------------------------------

def _catalogue() -> list[UnimodularMatrix]:
    """Package builds and matrices from outside: +-1 entries in several
    dtypes (kept as exponents), complex entries (kept as entries), and the
    same values under other kinds."""
    built = [hadamard(1), hadamard(2), hadamard(4), dft(1), dft(2), dft(3), dft(4),
             character_table(AbelianGroup((2, 2))), character_table(AbelianGroup((4,))),
             character_table(AbelianGroup((1,))), simplex_from_characters(AbelianGroup((2, 2)), 0),
             drop_row_simplex(hadamard(4), 0), drop_row_simplex(dft(4), 0), drop_row_simplex(dft(4), 1)]
    rotated = hadamard(4).entries.copy()
    rotated[2] *= 1j
    outside = [UnimodularMatrix(entries=m.entries, kind=m.kind) for m in built]
    outside += [UnimodularMatrix(entries=hadamard(4).signs.astype(dtype), kind=kind)
                for dtype in (np.int8, np.float64) for kind in ("hadamard", "character-table")]
    outside += [UnimodularMatrix(entries=rotated, kind="hadamard"), UnimodularMatrix(entries=rotated, kind="dft"),
                UnimodularMatrix(entries=dft(4).entries, kind="character-table"),
                UnimodularMatrix(entries=np.ones((1, 1)), kind="dft")]
    return built + outside


def test_unimodular_equality_is_the_entry_byte_rule():
    """Every pair of the catalogue compares as kind, shape, dtype and entry
    bytes do, and equal matrices hash alike."""
    ms = _catalogue()
    keys = [(m.kind, m.entries.shape, m.entries.dtype.str, m.entries.tobytes()) for m in ms]
    table = [[a == b for b in ms] for a in ms]
    assert table == [[ka == kb for kb in keys] for ka in keys]
    assert all(hash(a) == hash(b) for a in ms for b in ms if a == b)
    assert sum(map(sum, table)) > len(ms)  # some distinct objects are equal


def test_hash_and_equality_of_exponent_forms_derive_no_entries():
    """On McF(4,2)'s 1408 x 1408 character table (2 MB of exponents), hash
    and == read the exponents: no complex entry is derived, and each peaks
    under 5 MB."""
    group = AbelianGroup((22, 2, 2, 2, 2, 2, 2))
    a, b = character_table(group), character_table(group)
    for call in (lambda: hash(a), lambda: a == b):
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000, peak
    assert a == b and hash(a) == hash(b) and "entries" not in vars(a) and "entries" not in vars(b)


def test_a_parsed_sign_frame_holds_only_its_exponents():
    """parse_frame on rr24's Kirkman frame (276 x 576) keeps one byte per
    sign; the int64 array json.loads gave is gone once the frame is built."""
    design = round_robin_design(24)
    text = frame_to_json(kirkman_etf(design, drop_row_simplex(hadamard(24), 0), hadamard(12)))
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        frame = parse_frame(text)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert frame.is_sign_matrix and frame.phases.nbytes == 276 * 576
    assert held <= 200_000, held

import tracemalloc
from dataclasses import FrozenInstanceError
from functools import reduce
from itertools import product
from math import lcm

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from etfkit import flatmat
from etfkit.designs import round_robin_design
from etfkit.errors import (
    EtfkitError,
    IndexOutOfRange,
    InvariantViolation,
    NotUnimodular,
    RowOutOfRange,
    UnsupportedHadamardOrder,
)
from etfkit.flatmat import (
    AbelianGroup,
    UnimodularMatrix,
    character_table,
    dft,
    drop_row_simplex,
    hadamard,
    hadamard_order_reachable,
    simplex_from_characters,
)
from etfkit.frames import kirkman_etf
from etfkit.gf import prime_power


def test_dft_1():
    assert np.allclose(dft(1).entries, [[1.0]])


def test_dft_1_has_the_sign_view_of_hadamard_1():
    # the +-1 DFTs: their sign views are derived like every other matrix's
    assert np.array_equal(dft(1).signs, [[1]])
    assert np.array_equal(dft(1).signs, hadamard(1).signs)
    assert np.array_equal(dft(2).signs, hadamard(2).signs)  # exp(i pi) is gathered as exactly -1
    # so a frame built on dft(2) takes the integer form, that of hadamard(2)
    simplex = drop_row_simplex(hadamard(4))
    on_dft = kirkman_etf(round_robin_design(4), simplex, dft(2))
    on_hadamard = kirkman_etf(round_robin_design(4), simplex, hadamard(2))
    assert on_dft.exact_ints is not None
    assert np.array_equal(on_dft.exact_ints, on_hadamard.exact_ints) and on_dft.scale_sq == on_hadamard.scale_sq


@pytest.mark.parametrize("n", [1024, 2048])
def test_dft_phases_are_reduced_before_the_root_is_taken(n):
    """Entry (a, b) is, byte for byte, the tabulated root at a*b mod n (the
    unreduced exp(2 pi i a b / n) drifted from orthogonal by 7.8e-11 at
    n = 1024 and 2.8e-10 at n = 2048)."""
    a = np.arange(n)
    m = dft(n)
    assert m.entries.tobytes() == flatmat._unit_roots(n)[np.outer(a, a) % n].tobytes()
    phases, order = m._exponents  # kept beside the entries
    assert order == n and np.array_equal(phases, np.outer(a, a) % n)


def test_dft_2():
    assert np.allclose(dft(2).entries, [[1, 1], [1, -1]])


def test_dft_4_column_products_vanish():
    m = dft(4)
    g = m.entries.conj().T @ m.entries
    assert np.abs(g - 4 * np.eye(4)).max() < 1e-12


@pytest.mark.parametrize("n", [1, 2, 4, 8, 12, 20, 24])
def test_hadamard_exact_identity(n):
    h = hadamard(n)
    assert h.signs is not None
    assert np.array_equal(h.signs.T @ h.signs, n * np.eye(n, dtype=np.int64))


def test_hadamard_signs_keep_their_bytes_at_every_reachable_order_up_to_64():
    import hashlib

    digest = hashlib.sha256()
    orders = [n for n in range(1, 65) if hadamard_order_reachable(n)]
    for n in orders:
        digest.update(n.to_bytes(2, "little") + hadamard(n).signs.tobytes())
    assert orders == [1, 2, 4, 8, 12, 16, 20, 24, 28, 32, 40, 44, 48, 56, 60, 64]
    assert digest.hexdigest() == "327f498f2245d6c811f70a3a33aabd8c47ad36dcaeec5518051d7ad4921cd4e6"


def test_hadamard_4_is_sylvester():
    expected = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    assert np.array_equal(hadamard(4).signs, expected)


def test_hadamard_24_is_doubled_12():
    h12, h24 = hadamard(12), hadamard(24)
    assert np.array_equal(h24.signs, np.kron(np.array([[1, 1], [1, -1]]), h12.signs))


def test_hadamard_784_is_the_kronecker_square_of_28():
    """784 = 28 * 28 is the first order that doubling and Paley I miss (392
    and 783 = 27 * 29 are out of reach) and a Kronecker product reaches."""
    h28 = hadamard(28).signs
    assert np.array_equal(hadamard(784).signs, np.kron(h28, h28))


def test_hadamard_unsupported_orders():
    with pytest.raises(UnsupportedHadamardOrder):
        hadamard(6)
    with pytest.raises(UnsupportedHadamardOrder):
        hadamard(36)  # admissible mod 4 but outside the implemented closure
    assert not hadamard_order_reachable(36)
    assert hadamard_order_reachable(12)


def test_hadamard_order_reachable_forms_no_matrix():
    """Reachability is read off the closure's plan, a few ints per order:
    deciding orders 8192 and 4096 built both matrices (64 MB and 16 MB in
    uint8, kept by the _hadamard_signs cache)."""
    flatmat._hadamard_plan.cache_clear()
    entries = flatmat._hadamard_signs.cache_info().currsize
    tracemalloc.start()
    try:
        assert hadamard_order_reachable(8192) and hadamard_order_reachable(4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 20, peak
    assert flatmat._hadamard_signs.cache_info().currsize == entries


def test_hadamard_plan_splits_only_at_reachable_orders():
    """The one plan both readers share: a leaf is 1, 2 or a Paley I order,
    and a split d of n has d and n/d reachable, d = 2 where n/2 is."""
    for n in range(1, 1025):
        d = flatmat._hadamard_plan(n)
        if d == n:
            assert n <= 2 or (n % 4 == 0 and (n - 1) % 4 == 3 and prime_power(n - 1) is not None)
        elif d is not None:
            assert n % d == 0 and hadamard_order_reachable(d) and hadamard_order_reachable(n // d)
            assert (d == 2) is hadamard_order_reachable(n // 2)
        assert hadamard_order_reachable(n) is (d is not None)


def test_drop_row_simplex_hadamard4(fig1_ints):
    f = drop_row_simplex(hadamard(4), 0)
    expected = np.array([[1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    assert np.array_equal(f.signs, expected)
    # and that simplex is the nonzero pattern of the reference frame's first
    # column group
    assert np.array_equal(f.signs, fig1_ints[np.ix_([0, 2, 4], [0, 1, 2, 3])])


def test_drop_any_row_of_dft3():
    for row in range(3):
        s = drop_row_simplex(dft(3), row)
        g = np.abs(s.entries.conj().T @ s.entries)
        off = g[~np.eye(3, dtype=bool)]
        assert np.abs(off - 1).max() < 1e-9


def test_drop_row_of_dft2():
    s = drop_row_simplex(dft(2), 0)
    assert np.allclose(s.entries, [[1, -1]])


def test_drop_row_out_of_range():
    with pytest.raises(RowOutOfRange):
        drop_row_simplex(hadamard(4), 4)


def test_simplex_columns_sum_to_zero_when_all_ones_row_dropped():
    for basis in (hadamard(4), dft(5)):
        s = drop_row_simplex(basis, 0)
        assert np.abs(s.entries.sum(axis=1)).max() < 1e-9


def test_character_table_z2():
    t = character_table(AbelianGroup((2,)))
    assert np.array_equal(t.signs, [[1, 1], [1, -1]])


def test_character_table_z2xz2_is_sylvester():
    t = character_table(AbelianGroup((2, 2)))
    assert np.array_equal(t.signs, hadamard(4).signs)


def test_character_table_z4_orthogonal():
    t = character_table(AbelianGroup((4,)))
    g = t.entries.conj().T @ t.entries
    assert np.abs(g - 4 * np.eye(4)).max() < 1e-12


def _add(g: AbelianGroup, a, b) -> np.ndarray:
    """Group sum of element indices through the digit forms."""
    return g.index_array(g.digit_array(a) + g.digit_array(b))


def character(g: AbelianGroup, u: int, r: int) -> complex:
    """chi_u(g_r) = prod_i exp(2*pi*i * u_i * r_i / n_i)."""
    digits = g.digit_array([u, r]).tolist()
    phase = sum(ui * ri / f for ui, ri, f in zip(*digits, g.factors))
    return complex(np.exp(2j * np.pi * phase))


@pytest.mark.parametrize("factors", [(8,), (2, 4), (3, 4), (2, 2, 2)])
def test_characters_multiplicative(factors):
    g = AbelianGroup(factors)
    table = character_table(g).entries
    for u in range(g.order):
        for a in range(g.order):
            assert abs(table[u, a] - character(g, u, a)) < 1e-12
            sums = _add(g, a, np.arange(g.order))
            assert np.abs(table[u, sums] - table[u, a] * table[u]).max() < 1e-12


def test_simplex_from_characters_z2xz2():
    g = AbelianGroup((2, 2))
    s = simplex_from_characters(g, 3)
    assert s.entries.shape == (3, 4)
    assert s.signs is not None
    table = character_table(g)
    assert np.array_equal(s.signs, table.signs[:, [0, 1, 2]].T)


def test_simplex_from_characters_z4():
    s = simplex_from_characters(AbelianGroup((4,)), 0)
    assert s.entries.shape == (3, 4)
    g = np.abs(s.entries.conj().T @ s.entries)
    off = g[~np.eye(4, dtype=bool)]
    assert np.abs(off - 1).max() < 1e-9


def test_simplex_from_characters_order2():
    s = simplex_from_characters(AbelianGroup((2,)), 1)
    assert s.entries.shape == (1, 2)


def test_simplex_from_characters_bad_index():
    with pytest.raises(IndexOutOfRange):
        simplex_from_characters(AbelianGroup((2, 2)), 4)


def test_group_parse_and_arithmetic():
    g = AbelianGroup.parse("2x3")
    assert g.order == 6
    assert g.digit_array(5).tolist() == [1, 2]
    assert g.index_array((1, 2)) == 5
    assert _add(g, 5, 4) == 0  # (1,2) + (1,1) wraps to the identity
    assert _add(g, 5, 1) == g.index_array((1, 0))
    assert _add(g, 1, g.sub_array(0, 1)) == 0


# -- array forms of the group arithmetic ----------------------------------------

def _ref_digits(factors, index):
    out = []
    for f in reversed(factors):
        out.append(index % f)
        index //= f
    return tuple(reversed(out))


def _ref_index(factors, digits):
    idx = 0
    for f, d in zip(factors, digits):
        idx = idx * f + (d % f)
    return idx


@st.composite
def group_and_elements(draw):
    factors = tuple(draw(st.lists(st.integers(1, 9), min_size=1, max_size=4)))
    order = int(np.prod(factors))
    elems = st.integers(0, order - 1)
    return factors, draw(st.lists(elems, min_size=1, max_size=12)), draw(st.lists(elems, min_size=1, max_size=12))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(group_and_elements())
def test_group_array_forms_match_scalar_arithmetic(case):
    factors, a, b = case
    g = AbelianGroup(factors)
    a_arr, b_arr = np.array(a), np.array(b)
    digits = [_ref_digits(factors, x) for x in a]
    assert [tuple(row) for row in g.digit_array(a_arr).tolist()] == digits
    assert g.index_array(g.digit_array(a_arr)).tolist() == a
    add = [[_ref_index(factors, [x + y for x, y in zip(_ref_digits(factors, u), _ref_digits(factors, v))])
            for v in b] for u in a]
    sub = [[_ref_index(factors, [x - y for x, y in zip(_ref_digits(factors, u), _ref_digits(factors, v))])
            for v in b] for u in a]
    neg = [_ref_index(factors, [-x for x in d]) for d in digits]
    assert _add(g, a_arr[:, None], b_arr[None, :]).tolist() == add
    assert g.sub_array(a_arr[:, None], b_arr[None, :]).tolist() == sub
    assert g.sub_array(0, a_arr).tolist() == neg
    # one element at a time, as 0-d arrays
    assert [g.digit_array(x).tolist() for x in a] == [list(d) for d in digits]
    assert [int(g.index_array(d)) for d in digits] == a
    assert [[int(_add(g, u, v)) for v in b] for u in a] == add
    assert [[int(g.sub_array(u, v)) for v in b] for u in a] == sub
    assert [int(g.sub_array(0, u)) for u in a] == neg


@pytest.mark.parametrize("factors, dtype", [((2 ** 15, 2 ** 15 - 1), np.int32), ((3, 2 ** 15, 2 ** 15), np.int64),
                                            ((1, 2 ** 31 + 11), np.int64)])
def test_sub_array_by_index_borrows_at_either_width(factors, dtype):
    """In int32 while |G| < 2^30, where every partial sum of the borrows
    lies in (-|G|, 2 |G|), else in int64; the extreme elements included."""
    g = AbelianGroup(factors)
    n = g.order
    elements = np.array([0, 1, n // 2, n // 3 + 7, n - 2, n - 1])
    want = [[_ref_index(factors, [x - y for x, y in zip(_ref_digits(factors, u), _ref_digits(factors, v))])
             for v in elements.tolist()] for u in elements.tolist()]
    got = g.sub_array(elements[:, None], elements)
    assert got.dtype == dtype and got.tolist() == want


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 9), min_size=1, max_size=4), st.data())
def test_sub_array_reduces_indices_out_of_range(factors, data):
    """Indices below 0 or at least |G| name the element they are congruent
    to mod |G|, as in digit_array and index_array."""
    g = AbelianGroup(factors)
    n = g.order
    a = data.draw(st.lists(st.integers(-3 * n, 3 * n), min_size=1, max_size=8))
    b = data.draw(st.lists(st.integers(-3 * n, 3 * n), min_size=1, max_size=8))
    want = [[_ref_index(factors, [x - y for x, y in zip(_ref_digits(factors, u % n), _ref_digits(factors, v % n))])
             for v in b] for u in a]
    assert g.sub_array(np.array(a)[:, None], np.array(b)).tolist() == want


def test_sub_array_reduces_single_indices_out_of_range():
    g = AbelianGroup((7,))
    assert int(g.sub_array(9, 1)) == 1 and int(g.sub_array(-1, 0)) == 6
    assert int(g.sub_array(2 ** 31, 0)) == 2 ** 31 % 7 and int(g.sub_array(0, 2 ** 40)) == -(2 ** 40) % 7


def test_group_factors_normalise_to_a_tuple_of_ints():
    g = AbelianGroup([2, np.int64(2)])
    assert g.factors == (2, 2) and type(g.factors[1]) is int
    assert g == AbelianGroup((2, 2)) and hash(g) == hash(AbelianGroup((2, 2)))
    for bad in ([], [2, 0], [2.5], 4):
        with pytest.raises(ValueError):
            AbelianGroup(bad)


def test_character_table_is_read_only_and_memoised():
    t = character_table(AbelianGroup((2, 3)))
    with pytest.raises(ValueError):
        t.entries[0, 0] = 2
    real = character_table(AbelianGroup((2, 2)))
    with pytest.raises(ValueError):
        real.signs[0, 0] = -1
    with pytest.raises(ValueError):
        real.entries[0, 0] = -1


def test_character_table_checks_every_group_once(monkeypatch):
    """The checked halves of _character_phases are memoised per factors
    tuple: after cache_clear, each new tuple runs the check once, whichever
    builder asks first, and a repeat runs none."""
    checked, real = [], flatmat._check_half_exponents
    monkeypatch.setattr(flatmat, "_check_half_exponents",
                        lambda g, split, hi, lo: checked.append(g.factors) or real(g, split, hi, lo))
    flatmat._character_halves.cache_clear()
    for factors in ((5,), (7,), (5,), (3, 3), (7,)):
        character_table(AbelianGroup(factors))
    assert checked == [(5,), (7,), (3, 3)]
    dft(5)
    simplex_from_characters(AbelianGroup((3, 3)), 4)
    assert checked == [(5,), (7,), (3, 3)]
    character_table(AbelianGroup((3, 1, 3)))  # the group of (3, 3), but a new tuple
    dft(9)
    assert checked[3:] == [(3, 1, 3), (9,)]
    assert len(checked) == flatmat._character_halves.cache_info().currsize == 5


@pytest.mark.parametrize("factors,n_hi", [
    ((1,), 1), ((1, 4), 1), ((4, 1), 1), ((1024,), 1), ((3, 4, 2), 3), ((4, 3, 5, 7), 12),
    ((2, 3, 5, 7, 11), 30), ((22,) + (2,) * 6, 44), ((2, 11) + (2,) * 6, 44)],
    ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"hi{v}")
def test_memoised_halves_are_read_only_and_narrow(factors, n_hi):
    """The halves split at the factor boundary that makes max(n_hi, n_lo)
    least, and the cache keeps t (n_hi + n_lo) read-only float64 exponents."""
    g = AbelianGroup(factors)
    got, halves = flatmat._character_halves(g.factors)
    n_lo = g.order // n_hi
    heads = [int(np.prod(factors[:s])) for s in range(len(factors) + 1)]
    assert got == n_hi and max(n_hi, n_lo) == min(max(h, g.order // h) for h in heads)
    assert halves.dtype == np.float64 and halves.shape == (n_hi + n_lo, len(factors))
    assert halves.size <= len(factors) * (n_hi + n_lo) and not halves.flags.writeable
    with pytest.raises(ValueError):
        halves[0, 0] = 1.0


def _reference_phases(factors: tuple[int, ...], elements) -> list[list[int]]:
    """sum_k e_k u_k L / f_k mod L in Python integers, for each element e
    reduced mod |G| and every u in itertools.product order."""
    big_l = lcm(*factors)
    digits = list(product(*map(range, factors)))
    weights = [big_l // f for f in factors]
    rows = {e: [sum(a * b * w for a, b, w in zip(digits[e], u, weights)) % big_l for u in digits]
            for e in {int(e) % len(digits) for e in elements}}
    return [rows[int(e) % len(digits)] for e in elements]


# groups whose half sums overflow a uint8 (L in (128, 256], both halves
# reaching past 127) or a uint16 (L in (32768, 65536]), or whose phases
# need uint16 (L > 256), beside single cyclic factors at those edges
LARGE_EXPONENT_GROUPS = [(128,), (2, 128), (11, 13), (15, 17), (2, 3, 5, 7), (256,), (257,), (16, 17),
                         (32768,), (32769,), (181, 191), (3, 11, 1000)]


@st.composite
def _phase_cases(draw):
    factors = tuple(draw(st.one_of(st.lists(st.integers(1, 9), min_size=1, max_size=4),
                                   st.integers(1, 1100).map(lambda n: [n]),
                                   st.sampled_from(LARGE_EXPONENT_GROUPS))))
    n = int(np.prod(factors))
    if draw(st.booleans()):  # empty, repeated, unsorted or out of range
        return factors, draw(st.lists(st.integers(-3 * n, 3 * n), max_size=6))
    step = max(1, flatmat._TABLE_BLOCK // n)  # the rows of one block
    count = draw(st.sampled_from([step - 1, step + 1]))
    return factors, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1))).integers(-2 * n, 2 * n, size=count)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(_phase_cases())
@example(((15, 17), list(range(-3, 600, 7))))
@example(((181, 191), [0, 1, 193, 34570, -1, 70000]))
@example(((32769,), [5, 5, 2, 40000, -7]))
@example(((3, 11, 1000), []))
def test_character_phases_match_python_integers(case):
    factors, elements = case
    phases, big_l = flatmat._character_phases(AbelianGroup(factors), elements)
    assert big_l == lcm(*factors)
    assert phases.dtype == (np.uint8 if big_l <= 256 else np.uint16 if big_l <= 65536 else np.uint32)
    assert phases.shape == (len(elements), int(np.prod(factors)))
    assert phases.tolist() == _reference_phases(factors, elements)


# -- one stored form, checked at construction -----------------------------------

@pytest.mark.parametrize("entries,kind", [
    (np.array([[1, 1], [1, 0.5]]), "hadamard"),             # a non-unimodular entry
    (np.array([[1, 1j], [1, np.nan]]), "dft"),              # NaN fails closed
    (np.ones((2, 2)), "hadamard"),                           # unimodular, not orthogonal
    (np.ones((3, 3), dtype=complex), "character-table"),
    (hadamard(4).entries, "simplex"),                        # a simplex is (n-1) x n
    (np.ones((2, 3)), "simplex"),                            # right shape, equal columns
    (np.ones(4), "hadamard"),                                # not a matrix
    (np.array([["1", "1"], ["1", "-1"]]), "hadamard"),       # not numbers
])
def test_malformed_unimodular_matrix_raises_at_construction(entries, kind):
    with pytest.raises(NotUnimodular) as info:
        UnimodularMatrix(entries=entries, kind=kind)
    assert isinstance(info.value, EtfkitError) and not isinstance(info.value, AssertionError)


def test_drop_row_simplex_of_a_malformed_basis_is_an_etfkit_error():
    with pytest.raises(NotUnimodular):
        drop_row_simplex(UnimodularMatrix(entries=np.ones((2, 2)), kind="hadamard"))


def test_hadamard_rejects_an_exact_identity_without_unit_entries(monkeypatch):
    # 2 I has H^T H = 4 I exactly, but is not a +-1 matrix
    monkeypatch.setattr(flatmat, "_hadamard_signs", lambda n: 2 * np.eye(n, dtype=np.int64))
    with pytest.raises(InvariantViolation):
        hadamard(4)


def test_drop_row_simplex_derives_the_sign_view_of_the_kept_rows():
    a = hadamard(4).entries.copy()
    a[2] *= 1j  # still orthogonal and unimodular, but no longer real
    basis = UnimodularMatrix(entries=a, kind="hadamard")
    assert basis.signs is None
    simplex = drop_row_simplex(basis, 2)
    assert np.array_equal(simplex.signs, hadamard(4).signs[[0, 1, 3]])
    assert drop_row_simplex(basis, 1).signs is None
    # a simplex with a sign view has complex128 entries, whatever the basis's dtype
    ints = drop_row_simplex(UnimodularMatrix(entries=hadamard(4).signs.copy(), kind="hadamard"), 0)
    assert ints.entries.dtype == np.complex128 and np.array_equal(ints.signs, hadamard(4).signs[1:])


def test_entries_are_a_read_only_copy_and_signs_are_derived():
    arr = hadamard(4).entries.copy()
    m = UnimodularMatrix(entries=arr, kind="hadamard")
    assert not np.shares_memory(m.entries, arr)  # a copy: the caller keeps no handle on it
    with pytest.raises(ValueError):
        m.entries[0, 0] = -1
    assert m.signs.dtype == np.int64 and np.array_equal(m.signs, arr.real)
    with pytest.raises(ValueError):
        m.signs[0, 0] = -1
    assert UnimodularMatrix(entries=dft(4).entries, kind="dft").signs is None
    with pytest.raises(TypeError):
        UnimodularMatrix(entries=arr, kind="hadamard", signs=arr.real)  # not an argument


@pytest.mark.parametrize("entries", [np.full((3, 3), 7.0), hadamard(4).entries], ids=["other", "its-own"])
def test_entries_beside_exponents_are_refused(entries):
    """A unimodular matrix is built from one form: entries handed in beside
    _phases, other ones or its own, are refused, not dropped."""
    with pytest.raises(NotUnimodular, match="not both"):
        UnimodularMatrix(entries, "hadamard", _phases=hadamard(4)._exponents)


def test_the_attributes_are_frozen_so_the_hash_holds():
    outside = UnimodularMatrix(entries=dft(3).entries, kind="dft")
    for m in (hadamard(4), dft(3), outside, drop_row_simplex(outside, 1)):
        key = hash(m)
        for name in ("kind", "_exponents", "entries", "signs"):
            with pytest.raises(FrozenInstanceError):
                setattr(m, name, None)
            with pytest.raises(FrozenInstanceError):
                delattr(m, name)
        assert hash(m) == key and m == UnimodularMatrix(entries=m.entries, kind=m.kind)


def test_drop_row_simplex_of_a_checked_outside_basis_takes_no_dense_test(monkeypatch):
    """The kept rows of an outside basis are a simplex by the basis's own
    dense test; they are copied and scanned for +-1, not tested again."""
    a = hadamard(4).entries.copy()
    a[2] *= 1j
    basis = UnimodularMatrix(entries=a, kind="hadamard")
    dense = []
    monkeypatch.setattr(flatmat, "_check_gram", lambda m: dense.append(m.kind))
    complex_rows, sign_rows = drop_row_simplex(basis, 1), drop_row_simplex(basis, 2)
    assert dense == []
    assert complex_rows._exponents is None and complex_rows.entries.tobytes() == np.delete(a, 1, axis=0).tobytes()
    assert np.array_equal(sign_rows.signs, hadamard(4).signs[[0, 1, 3]])


def test_writing_to_the_callers_array_changes_nothing_built_from_it():
    arr = hadamard(4).entries.copy()
    m = UnimodularMatrix(entries=arr, kind="hadamard")
    arr[0, 1] = 5
    arr[2] *= 1j
    assert m.entries.tobytes() == hadamard(4).entries.tobytes()
    assert np.array_equal(m.signs, hadamard(4).signs)
    simplex = drop_row_simplex(m, 3)
    assert simplex.entries.tobytes() == drop_row_simplex(hadamard(4), 3).entries.tobytes()
    assert np.array_equal(simplex.signs, hadamard(4).signs[:3])


# -- character tables built from their exact phase exponents ------------------

def test_character_builds_keep_their_phases_and_sign_matrices_derive_them():
    g = AbelianGroup((3, 4))
    table = character_table(g)
    phases, order = table._exponents
    assert order == 12 and phases.dtype == np.uint8 and not phases.flags.writeable
    assert table.entries.tobytes() == flatmat._unit_roots(12)[phases].tobytes()
    for simplex in (simplex_from_characters(g, 5), drop_row_simplex(table, 5)):
        assert simplex._exponents[1] == 12 and np.array_equal(simplex._exponents[0], np.delete(phases, 5, axis=0))
    # a +-1 build stores its exponents mod 2, and derives its signs and entries from them on first read
    for m in (hadamard(8), character_table(AbelianGroup((2, 2))), drop_row_simplex(hadamard(4), 1), dft(2)):
        signs_phases, order = m._exponents
        assert order == 2 and signs_phases.dtype == np.uint8 and not signs_phases.flags.writeable
        assert not {"entries", "signs"} & set(vars(m))
        assert np.array_equal(1 - 2 * signs_phases.astype(np.int64), m.signs)
        assert m.entries.tobytes() == m.signs.astype(np.complex128).tobytes()
    # a complex matrix from outside the package has no exponent form
    assert UnimodularMatrix(entries=dft(3).entries, kind="dft")._exponents is None



# the product groups G x V of the harmonic_fields benchmark ladder: G of
# order R + 1 and V the additive group of GF(p^k)
LADDER_GROUPS = [g + (p,) * k for gs, p, k in (
    (((2, 2), (4,)), 2, 2), (((5,),), 3, 2), (((2, 2, 2), (8,), (2, 4)), 2, 3),
    (((6,), (2, 3)), 2, 4), (((7,),), 5, 2), (((9,), (3, 3)), 7, 2),
    (((10,), (2, 5)), 2, 6), (((11,),), 3, 4), (((14,), (2, 7)), 3, 3),
    (((2, 2, 2, 2), (16,), (4, 4), (2, 8), (2, 2, 4)), 2, 4),
    (((22,), (2, 11)), 2, 6)) for g in gs]
U = np.finfo(np.float64).eps / 2


@pytest.mark.parametrize("factors", LADDER_GROUPS + [(1, 5), (5, 1), (1, 1, 4)],
                         ids=lambda f: "x".join(map(str, f)))
def test_ladder_tables_keep_their_bytes_and_both_checks_agree(factors):
    """Each table is, byte for byte, the tabulated L-th roots at its exact
    phase exponents, and lies within 1e-13 of the Kronecker-of-DFT
    reference; the exponent check and the dense Gram test both accept it,
    and exponent-two tables keep the sign bytes the Kronecker build had."""
    g = AbelianGroup(factors)
    table = character_table(g)
    exponents = _exponents(g)
    flatmat._character_halves.__wrapped__(g.factors)  # the exact-form check accepts the halves
    big_l = int(np.lcm.reduce(g.factors))
    phases = (exponents @ g.digit_array(np.arange(g.order)).T) % big_l  # exact int64 product
    assert table.entries.tobytes() == flatmat._unit_roots(big_l)[phases].tobytes()
    want = reduce(np.kron, (dft(f).entries for f in factors))
    assert np.abs(table.entries - want).max() <= 1e-13
    n = g.order
    gram = table.entries.conj().T @ table.entries
    gram[np.diag_indices(n)] -= n
    assert np.abs(gram).max() <= n * (48 * U + (24 * U) ** 2)  # the bound character_table derives
    UnimodularMatrix(entries=table.entries, kind="character-table")  # the dense test agrees
    if big_l <= 2:  # exponent two: the sign view the Kronecker build rounded to, byte for byte
        assert table.signs.tobytes() == np.rint(want.real).astype(np.int64).tobytes()
        assert table.entries.tobytes() == table.signs.astype(np.complex128).tobytes()
    else:
        assert table.signs is None


def test_quarter_roots_are_exact():
    i = 1j
    assert np.array_equal(character_table(AbelianGroup((4,))).entries,
                          [[1, 1, 1, 1], [1, i, -1, -i], [1, -1, 1, -1], [1, -i, -1, i]])
    roots = flatmat._unit_roots(8)
    assert roots[[0, 2, 4, 6]].tolist() == [1, i, -1, -i]
    assert not np.signbit([roots[0].imag, roots[2].real, roots[4].imag, roots[6].real]).any()  # no -0.0
    assert flatmat._unit_roots(2).tolist() == [1, -1]
    for n in (3, 5, 7):  # no quarter root but 1: every root is the plain exponential
        assert flatmat._unit_roots(n).tobytes() == np.exp(2j * np.pi * np.arange(n) / n).tobytes()


LADDER_TOP = AbelianGroup((22,) + (2,) * 6)


@pytest.mark.parametrize("builder,args", [
    (dft, lambda: (1024,)),
    (hadamard, lambda: (256,)),
    (drop_row_simplex, lambda: (hadamard(256), 5)),
    (simplex_from_characters, lambda: (LADDER_TOP, 0)),
    (character_table, lambda: (LADDER_TOP,)),
    (character_table, lambda: (AbelianGroup((2, 11) + (2,) * 6),)),
    (character_table, lambda: (AbelianGroup((4, 3, 5, 7)),)),  # L = 420: uint16 phases
], ids=["dft", "hadamard", "drop_row_simplex", "simplex_from_characters", "character_table",
        "character_table_2x11", "character_table_uint16"])
def test_builders_form_no_dense_gram(builder, args, monkeypatch):
    """Each builder has proved its matrix on the exact form it built it from
    (phase exponents, the integer Hadamard identity, a checked basis): no
    dense Gram test runs, and it stores only its exponents, with no complex
    or sign array until one is read.  So its build peaks under twice the
    bytes of its exponents and under 5 MB (building the complex entries
    took 34.2 MB for the largest character table, 19.4 MB for dft(1024)).
    hadamard is measured cold, its cache cleared, and may hold beside them
    what is live at its exact identity test: the uint8 exponents it caches
    for each order of the doubling chain, one byte an entry for under 4/3 of
    the entries of order n, and the test's float64 signs and product."""
    args = args()
    if builder is hadamard:
        flatmat._hadamard_signs.cache_clear()
    dense = []
    monkeypatch.setattr(flatmat, "_check_gram", lambda m: dense.append(m.kind))
    tracemalloc.start()
    try:
        m = builder(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert dense == []
    assert not {"entries", "signs"} & set(vars(m))
    phases = m._exponents[0]
    if builder is hadamard:  # built from order 2 up, H_2 (x) H_(n/2): 2, 4, ..., 256
        assert flatmat._hadamard_signs.cache_info().currsize == 8
    chain_and_identity = (4 / 3 + 16) * phases.size if builder is hadamard else 0
    assert peak < min(2 * phases.nbytes + chain_and_identity, 5_000_000)


def _exponents(g: AbelianGroup) -> np.ndarray:
    step = np.lcm.reduce(g.factors) // np.array(g.factors)
    return g.digit_array(np.arange(g.order)) * step


@pytest.mark.parametrize("mutation", ["not-a-multiple", "negative", "out-of-range", "repeat",
                                      "leading-at-trailing", "trailing-at-leading", "repeat-leading"])
def test_exponent_check_rejects_a_mutated_form(mutation):
    """Forged half exponents are refused: the halves of (3, 4, 2), split
    after its first factor, are 3 characters on Z_3 and 8 on Z_4 x Z_2."""
    g = AbelianGroup((3, 4, 2))  # L = 12: generator exponents are multiples of 4, 3 and 6
    n_hi, halves = flatmat._character_halves(g.factors)
    hi, lo = halves[:n_hi].astype(np.int64), halves[n_hi:].astype(np.int64)
    flatmat._check_half_exponents(g, 1, hi, lo)
    if mutation == "not-a-multiple":
        lo[5, 1] += 1
    elif mutation == "negative":
        lo[5, 1] -= 12
    elif mutation == "out-of-range":
        lo[5, 1] += 12
    elif mutation == "repeat":
        lo[5] = lo[7]
    elif mutation == "leading-at-trailing":
        hi[1, 2] = 6  # a character, but not zero at the trailing generator e_3
    elif mutation == "trailing-at-leading":
        lo[2, 0] = 4
    else:
        hi[2] = hi[1]
    with pytest.raises(NotUnimodular):
        flatmat._check_half_exponents(g, 1, hi, lo)


@pytest.mark.parametrize("kind", ["dft", "hadamard", "character-table"])
def test_every_orthogonal_kind_without_factors_rejects_a_non_orthogonal_input(kind):
    a = dft(4).entries.copy()
    a[:, 1] = a[:, 0] * 1j  # unimodular, but columns 0 and 1 are parallel
    with pytest.raises(NotUnimodular):
        UnimodularMatrix(entries=a, kind=kind)


def test_unimodular_matrices_compare_and_hash_by_kind_and_entry_bytes():
    assert hadamard(4) == hadamard(4) and hash(hadamard(4)) == hash(hadamard(4))
    assert hadamard(4) != dft(4)
    assert UnimodularMatrix(entries=hadamard(4).entries, kind="character-table") != hadamard(4)
    assert character_table(AbelianGroup((2, 2))) == UnimodularMatrix(
        entries=hadamard(4).entries, kind="character-table")
    assert len({hadamard(4), hadamard(4), dft(4), dft(4)}) == 2
    assert hadamard(4) != "hadamard"

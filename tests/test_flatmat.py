from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etfkit.errors import (
    EtfkitError,
    IndexOutOfRange,
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


def test_dft_1():
    assert np.allclose(dft(1).entries, [[1.0]])


def test_dft_1_has_the_sign_view_of_hadamard_1():
    # the one +-1 DFT: its sign view is derived like every other matrix's
    assert np.array_equal(dft(1).signs, [[1]])
    assert np.array_equal(dft(1).signs, hadamard(1).signs)
    assert dft(2).signs is None  # exp(i pi) is -1 only up to rounding


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


def test_hadamard_4_is_sylvester():
    expected = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
    assert np.array_equal(hadamard(4).signs, expected)


def test_hadamard_24_is_doubled_12():
    h12, h24 = hadamard(12), hadamard(24)
    assert np.array_equal(h24.signs, np.kron(np.array([[1, 1], [1, -1]]), h12.signs))


def test_hadamard_unsupported_orders():
    with pytest.raises(UnsupportedHadamardOrder):
        hadamard(6)
    with pytest.raises(UnsupportedHadamardOrder):
        hadamard(36)  # admissible mod 4 but outside the implemented closure
    assert not hadamard_order_reachable(36)
    assert hadamard_order_reachable(12)


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


@settings(max_examples=200, deadline=None)
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


def test_group_factors_normalise_to_a_tuple_of_ints():
    g = AbelianGroup([2, np.int64(2)])
    assert g.factors == (2, 2) and type(g.factors[1]) is int
    assert g == AbelianGroup((2, 2)) and hash(g) == hash(AbelianGroup((2, 2)))
    for bad in ([], [2, 0], [2.5], 4):
        with pytest.raises(ValueError):
            AbelianGroup(bad)


def test_character_table_is_read_only_and_memoised():
    t = character_table(AbelianGroup((2, 3)))
    assert character_table(AbelianGroup([2, 3])) is t
    with pytest.raises(ValueError):
        t.entries[0, 0] = 2
    real = character_table(AbelianGroup((2, 2)))
    with pytest.raises(ValueError):
        real.signs[0, 0] = -1
    with pytest.raises(ValueError):
        real.entries[0, 0] = -1
    assert character_table.cache_info().maxsize == 2


def test_character_table_checks_every_build(monkeypatch):
    from etfkit import flatmat

    checked = []
    monkeypatch.setattr(flatmat.UnimodularMatrix, "check", lambda self: checked.append(self.kind))
    character_table.cache_clear()
    for factors in ((5,), (7,), (5,), (3, 3)):
        character_table(AbelianGroup(factors))
    # (5,) is served again from the cache; the other three builds each ran check()
    assert checked.count("character-table") == 3
    character_table.cache_clear()


@pytest.mark.parametrize("factors,dense", [
    ((1,), ["character-table"]), ((2,), ["character-table"]), ((12,), ["character-table"]),
    ((2, 3), ["dft", "dft"]), ((2, 2), ["dft", "dft"]),
])
def test_each_table_runs_the_dense_gram_check_once_per_distinct_matrix(factors, dense, monkeypatch):
    """A cyclic group's table is its one DFT: one dense check, of the table,
    and not a second one of a dft() factor with the same bytes.  A product's
    table is checked through its factors, each checked densely."""
    from etfkit import flatmat

    checked, real = [], flatmat._check_gram
    monkeypatch.setattr(flatmat, "_check_gram", lambda m: checked.append(m.kind) or real(m))
    character_table.cache_clear()
    table = character_table(AbelianGroup(factors))
    character_table.cache_clear()
    assert checked == dense
    if len(factors) == 1:
        assert table.entries.tobytes() == (hadamard(2) if factors == (2,) else dft(factors[0])).entries.tobytes()


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


def test_entries_are_a_read_only_view_and_signs_are_derived():
    arr = hadamard(4).entries.copy()
    m = UnimodularMatrix(entries=arr, kind="hadamard")
    assert np.shares_memory(m.entries, arr)  # no copy
    with pytest.raises(ValueError):
        m.entries[0, 0] = -1
    assert m.signs.dtype == np.int64 and np.array_equal(m.signs, arr.real)
    with pytest.raises(ValueError):
        m.signs[0, 0] = -1
    assert UnimodularMatrix(entries=dft(4).entries, kind="dft").signs is None
    with pytest.raises(TypeError):
        UnimodularMatrix(entries=arr, kind="hadamard", signs=arr.real)  # not an argument


# -- character tables checked through their Kronecker factors -------------------

# the product groups G x V of the harmonic_fields benchmark ladder: G of
# order R + 1 and V the additive group of GF(p^k)
LADDER_GROUPS = [g + (p,) * k for gs, p, k in (
    (((2, 2), (4,)), 2, 2), (((5,),), 3, 2), (((2, 2, 2), (8,), (2, 4)), 2, 3),
    (((6,), (2, 3)), 2, 4), (((7,),), 5, 2), (((9,), (3, 3)), 7, 2),
    (((10,), (2, 5)), 2, 6), (((11,),), 3, 4), (((14,), (2, 7)), 3, 3),
    (((2, 2, 2, 2), (16,), (4, 4), (2, 8), (2, 2, 4)), 2, 4),
    (((22,), (2, 11)), 2, 6)) for g in gs]


def _dense_residual(a: np.ndarray) -> float:
    g = a.conj().T @ a
    g[np.diag_indices(len(a))] -= len(a)
    return float(np.abs(g).max())


@pytest.mark.parametrize("factors", LADDER_GROUPS, ids=lambda f: "x".join(map(str, f)))
def test_ladder_tables_keep_their_bytes_and_both_checks_agree(factors):
    from etfkit import flatmat

    g = AbelianGroup(factors)
    table = character_table(g)
    want = reduce(np.kron, (dft(f).entries for f in factors))
    if g.exponent_two:
        want = np.rint(want.real).astype(np.complex128)
    assert table.entries.tobytes() == want.tobytes()
    assert [f.rows for f in table.kron_factors] == list(factors)
    residual = flatmat._kron_residual(table)
    bound = flatmat._kron_gram_bound(table, residual)
    dense = _dense_residual(want)
    # both accept, and the bound the factored check certifies covers the dense residual
    assert residual <= flatmat.ORTHO_TOL and bound <= flatmat.ORTHO_TOL
    assert dense <= bound


def _mutated(kind: str) -> tuple[np.ndarray, tuple]:
    """The Z_3 x Z_4 x Z_2 table and its DFT factors, with one defect of the
    named kind ("intact" for none)."""
    factors = (dft(3), dft(4), dft(2))
    a = reduce(np.kron, (f.entries for f in factors)).copy()
    if kind == "phase":
        a[5, 7] *= np.exp(1e-6j)
    elif kind == "swap":
        a[:, [3, 10]] = a[:, [10, 3]]
    elif kind == "nan":
        a[2, 2] = np.nan
    elif kind == "orders":
        factors = (dft(3), dft(4), dft(5))  # 60 != 24
    return a, factors


@pytest.mark.parametrize("kind", ["phase", "swap", "nan", "orders"])
def test_factored_check_rejects_a_mutated_table(kind):
    a, factors = _mutated(kind)
    with pytest.raises(NotUnimodular):
        UnimodularMatrix(entries=a, kind="character-table", kron_factors=factors)


def test_swapped_columns_pass_the_dense_test_but_not_the_factored_one():
    a, factors = _mutated("swap")
    UnimodularMatrix(entries=a, kind="character-table")  # still orthogonal
    with pytest.raises(NotUnimodular):
        UnimodularMatrix(entries=a, kind="character-table", kron_factors=factors)


def test_kron_factors_must_be_a_sequence():
    with pytest.raises(NotUnimodular):
        UnimodularMatrix(entries=dft(4).entries, kind="character-table", kron_factors=4)


@pytest.mark.parametrize("first", [
    "dft",                                                                 # not a matrix
    drop_row_simplex(dft(4)),                                              # 3 x 4 simplex
    UnimodularMatrix(entries=hadamard(4).entries[:, :3], kind="hadamard"),  # 4 x 3
], ids=["not-a-matrix", "simplex", "not-square"])
def test_kron_factors_must_be_square_orthogonal_unimodular_matrices(first):
    # row counts multiply to N = 12, so only the factor's own form can fail
    factors = (first, dft(4) if getattr(first, "rows", 4) == 3 else dft(3))
    table = np.kron(dft(3).entries, dft(4).entries)
    with pytest.raises(NotUnimodular):
        UnimodularMatrix(entries=table, kind="character-table", kron_factors=factors)


def test_a_bound_too_wide_to_certify_leaves_the_decision_to_the_dense_test(monkeypatch):
    from etfkit import flatmat

    monkeypatch.setattr(flatmat, "_kron_gram_bound", lambda m, residual: np.inf)
    a, factors = _mutated("intact")
    UnimodularMatrix(entries=a, kind="character-table", kron_factors=factors)
    swapped, _ = _mutated("swap")
    with pytest.raises(NotUnimodular):  # the residual still rejects it
        UnimodularMatrix(entries=swapped, kind="character-table", kron_factors=factors)


def test_cyclic_group_tables_are_checked_by_the_dense_test():
    assert character_table(AbelianGroup((12,))).kron_factors == ()


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
        entries=hadamard(4).entries, kind="character-table")  # factors are not part of the key
    assert len({hadamard(4), hadamard(4), dft(4), dft(4)}) == 2
    assert hadamard(4) != "hadamard"

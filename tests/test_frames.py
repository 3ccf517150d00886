import json
import math
import re
import tracemalloc
from importlib import resources

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from etfkit.designs import SteinerSystem, affine_design, kirkman15, round_robin_design
from etfkit.errors import (
    BasisShapeMismatch,
    FrameFormatError,
    GroupOrderMismatch,
    IndexOutOfRange,
    InvariantViolation,
    NotADifferenceSet,
    NotResolvable,
    NotTight,
    NotUnitNorm,
    SimplexShapeMismatch,
)
from etfkit.designs import affine_structure
from etfkit.flatmat import (
    AbelianGroup,
    UnimodularMatrix,
    _phase_dtype,
    _root_table,
    _root_values,
    character_table,
    dft,
    drop_row_simplex,
    hadamard,
    simplex_from_characters,
)
from etfkit.frames import (
    DifferenceSet,
    Frame,
    frame_to_json,
    harmonic_etf,
    kirkman_etf,
    mcfarland_as_kirkman,
    mcfarland_set,
    naimark_complement,
    parse_frame,
    steiner_etf,
    trace_character_basis,
    _numeric,
    _sign_rows,
)
from etfkit.metrics import certify_etf, coherence, gram_equal

from test_gram_row import EXACT_LADDER, FLOAT_LADDER, TOP, _dense_deviations, _identification, _label


def fig1_frame() -> Frame:
    return steiner_etf(round_robin_design(4), drop_row_simplex(hadamard(4), 0))


def fig2_frame() -> Frame:
    return kirkman_etf(round_robin_design(4), drop_row_simplex(hadamard(4), 0), hadamard(2))


def test_steiner_reproduces_reference_grid(fig1_ints):
    f = fig1_frame()
    assert f.scale_sq == 3
    assert np.array_equal(f.exact_ints, fig1_ints)
    assert np.allclose(f.entries, fig1_ints / np.sqrt(3))


def test_steiner_column_support_is_point_blocks():
    design = affine_design(3, 1)
    f = steiner_etf(design, drop_row_simplex(dft(5), 0))
    big_r = 4
    for col in range(f.n):
        v = col // (big_r + 1)  # columns are (u, v) at v * (R+1) + u
        support = set(np.nonzero(np.abs(f.entries[:, col]) > 1e-12)[0])
        expected = {i for i, blk in enumerate(design.blocks) if v in blk}
        assert support == expected
        assert len(support) == 4


def test_steiner_affine31_coherence():
    f = steiner_etf(affine_design(3, 1), drop_row_simplex(dft(5), 0))
    assert abs(coherence(f) - 0.25) < 1e-12


def test_steiner_point_group_is_rank_deficient():
    f = fig1_frame()
    sub = f.entries[:, :4]  # the four columns sharing point v = 0
    assert np.linalg.matrix_rank(sub) <= 3


def test_kirkman_reproduces_reference_grid(fig2_ints):
    f = fig2_frame()
    assert f.scale_sq == 6
    assert np.array_equal(f.exact_ints, fig2_ints)


def test_kirkman_constant_amplitude():
    f = fig2_frame()
    assert np.abs(np.abs(f.entries) - 6 ** -0.5).max() < 1e-12


def _outside_dft(order: int, kind: str, first_row: int = 0) -> UnimodularMatrix:
    """The rows first_row.. of the order x order DFT, built from np.exp and
    handed in as plain entries: a matrix from outside the package, with no
    exponents."""
    exponents = np.outer(np.arange(first_row, order), np.arange(order))
    return UnimodularMatrix(entries=np.exp(2j * np.pi * exponents / order), kind=kind)


TRIPLES = [
    (lambda: affine_design(2, 1), lambda: drop_row_simplex(hadamard(4), 0), lambda: hadamard(2)),
    (lambda: affine_design(2, 1), lambda: drop_row_simplex(dft(4), 0), lambda: dft(2)),
    (lambda: affine_design(3, 1), lambda: drop_row_simplex(dft(5), 0), lambda: dft(3)),
    (lambda: affine_design(2, 2), lambda: drop_row_simplex(hadamard(8), 0), lambda: hadamard(4)),
    (lambda: round_robin_design(6), lambda: drop_row_simplex(dft(6), 0), lambda: dft(3)),
    (kirkman15, lambda: drop_row_simplex(hadamard(8), 0), lambda: dft(5)),
    (lambda: affine_design(3, 1), lambda: _outside_dft(5, "simplex", 1), lambda: _outside_dft(3, "dft")),
]


@pytest.mark.parametrize("design_f,simplex_f,basis_f", TRIPLES)
def test_kirkman_gram_matches_steiner(design_f, simplex_f, basis_f):
    design = design_f()
    sparse = steiner_etf(design, simplex_f())
    flat = kirkman_etf(design, simplex_f(), basis_f())
    report = gram_equal(sparse, flat, tol=1e-9)
    assert report.passed, report.max_dev


def _grid_reference(design: SteinerSystem, simplex: UnimodularMatrix, basis: UnimodularMatrix) -> tuple:
    """steiner_etf's and kirkman_etf's values written from their docstrings,
    one column at a time: column (u, v) is at v (R+1) + u; the Steiner row
    of v's class-r block holds f_u(r), and Kirkman row (r, s) holds
    f_u(r) h_{pos(r,v)}(s), pos(r, v) that block's place in class r.  It
    returns the Steiner values and (Kirkman values, L): exponents mod L when
    both matrices carry exponents, else products of entries, with L None."""
    big_r, s_count = len(design.resolution), design.v // design.k
    place = {(r, v): (blk, at) for r, cls in enumerate(design.resolution)
             for at, blk in enumerate(cls) for v in design.blocks[blk]}
    f = simplex.entries if simplex.signs is None else simplex.signs.astype(np.int8)
    fx, hx = simplex._exponents, basis._exponents
    order = None if fx is None or hx is None else math.lcm(fx[1], hx[1])
    sparse = np.zeros((design.b, design.v * (big_r + 1)), dtype=f.dtype)
    flat = np.zeros((big_r * s_count, sparse.shape[1]), dtype=np.complex128 if order is None else np.int64)
    for v in range(design.v):
        for u in range(big_r + 1):
            col = v * (big_r + 1) + u
            for r in range(big_r):
                blk, at = place[r, v]
                sparse[blk, col] = f[r, u]
                for s in range(s_count):
                    if order is None:
                        flat[r * s_count + s, col] = simplex.entries[r, u] * basis.entries[s, at]
                    else:
                        flat[r * s_count + s, col] = (int(fx[0][r, u]) * (order // fx[1])
                                                      + int(hx[0][s, at]) * (order // hx[1])) % order
    return sparse, (flat, order)


def _assert_stores(frame: Frame, values: np.ndarray, scale_sq: int, order: int | None = None,
                   products: bool = False) -> None:
    """frame stores values, exponents mod order when order is given (+-1
    signs, in int8, for order 2), and its entries are, bit for bit, the
    numbers they stand for divided by sqrt(scale_sq).  Products of two
    complex entries are held to their rounding instead: numpy's vector and
    scalar loops round a complex product differently in its last bit, so
    those bits depend on the loop numpy picks, not on the construction."""
    if order == 2:
        values, order = (1 - 2 * values).astype(np.int8), None
    if order is not None:
        assert frame.order == order and frame.phases.dtype == _phase_dtype(order)
        assert np.array_equal(frame.phases, values)
        values = _root_table(order)[values]
    elif values.dtype.kind == "i":
        assert frame.exact_ints.dtype == np.int8 and frame.exact_ints.tobytes() == values.tobytes()
    else:
        assert frame.exact_ints is None and frame.phases is None
    assert frame.scale_sq in (None, scale_sq)
    expected = np.asarray(values, dtype=np.complex128) / np.sqrt(scale_sq)
    if products:
        assert np.abs(frame.entries - expected).max() <= 2.0 ** -50
    else:
        assert frame.entries.tobytes() == expected.tobytes()


@pytest.mark.parametrize("design_f,simplex_f,basis_f", TRIPLES)
def test_both_constructions_match_their_definition_column_by_column(design_f, simplex_f, basis_f):
    design, simplex, basis = design_f(), simplex_f(), basis_f()
    sparse, (flat, order) = _grid_reference(design, simplex, basis)
    _assert_stores(steiner_etf(design, simplex), sparse, len(design.resolution))
    _assert_stores(kirkman_etf(design, simplex, basis), flat, design.b, order, products=order is None)


@pytest.mark.parametrize("design_f,order,s_count", [
    (lambda: affine_design(3, 1), 5, 3), (kirkman15, 8, 5), (lambda: round_robin_design(16), 16, 8),
], ids=["aff31", "kirkman15", "rr16"])
def test_kirkman_products_of_values_are_python_complex_products(design_f, order, s_count):
    """With a simplex and a basis from outside that have no exponents,
    every stored entry is, bit for bit, the per-element Python complex
    product f_u(r) h_{pos(r,v)}(s), divided by sqrt(B) as _assemble divides
    it: the bits rest on the construction, not on the loop numpy picks for
    an array of complex products (at the parent, 114 of aff31's 540 entries
    differed in the last bit on an AVX-512 machine)."""
    design = design_f()
    simplex, basis = _outside_dft(order, "simplex", 1), _outside_dft(s_count, "dft")
    frame = kirkman_etf(design, simplex, basis)
    big_r = len(design.resolution)
    want = np.empty(frame.entries.shape, dtype=np.complex128)
    for r, cls in enumerate(design.resolution):
        for at, blk in enumerate(cls):
            for v in design.blocks[blk]:
                for u in range(big_r + 1):
                    for s in range(s_count):
                        want[r * s_count + s, v * (big_r + 1) + u] = (complex(simplex.entries[r, u])
                                                                      * complex(basis.entries[s, at]))
    assert frame.entries.tobytes() == (want / np.sqrt(design.b)).tobytes()


def test_steiner_requires_resolution():
    bare = SteinerSystem(v=4, k=2, blocks=round_robin_design(4).blocks, resolution=None)
    with pytest.raises(NotResolvable):
        steiner_etf(bare, drop_row_simplex(hadamard(4), 0))


def _round_robin_4_with_resolution(resolution):
    design = round_robin_design(4)
    return SteinerSystem(v=4, k=2, blocks=design.blocks, resolution=resolution)


@pytest.mark.parametrize("resolution", [
    ((0, 1, 2), (2, 3), (4, 5)),  # a class-1 block appended to class 0
    ((0, 0), (2, 3), (4, 5)),  # right size, but point 2 is never covered
], ids=["extra-block", "repeated-block"])
@pytest.mark.parametrize("build", [
    lambda d: steiner_etf(d, drop_row_simplex(hadamard(4), 0)),
    lambda d: kirkman_etf(d, drop_row_simplex(hadamard(4), 0), hadamard(2)),
], ids=["steiner", "kirkman"])
def test_class_that_does_not_partition_the_points_is_not_resolvable(resolution, build):
    with pytest.raises(NotResolvable):
        build(_round_robin_4_with_resolution(resolution))


def test_steiner_simplex_shape_checked():
    with pytest.raises(SimplexShapeMismatch):
        steiner_etf(round_robin_design(4), drop_row_simplex(hadamard(8), 0))


def test_kirkman_basis_shape_checked():
    with pytest.raises(BasisShapeMismatch):
        kirkman_etf(round_robin_design(4), drop_row_simplex(hadamard(4), 0), hadamard(4))


def test_mcfarland_z2z2():
    ds = mcfarland_set(2, 1, AbelianGroup((2, 2)))
    assert len(ds.elements) == 6
    assert ds.group.order == 16
    assert ds.lam == 2


def test_mcfarland_z4():
    ds = mcfarland_set(2, 1, AbelianGroup((4,)))
    assert len(ds.elements) == 6 and ds.lam == 2


def test_mcfarland_z5():
    ds = mcfarland_set(3, 1, AbelianGroup((5,)))
    assert len(ds.elements) == 12
    assert ds.group.order == 45
    assert ds.lam == 3


def test_mcfarland_set_is_memoised():
    """Every set built is kept: the 14 rungs of the ladder all stay cached."""
    from etfkit import frames

    ds = mcfarland_set(2, 1, AbelianGroup((2, 2)))
    assert mcfarland_set(2, 1, AbelianGroup([2, 2])) is ds
    assert mcfarland_set(np.int64(2), np.uint8(1), AbelianGroup((2, 2))) is ds
    assert frames._mcfarland_set.cache_info().maxsize is None


def test_mcfarland_group_order_checked():
    with pytest.raises(GroupOrderMismatch):
        mcfarland_set(2, 1, AbelianGroup((2,)))


def test_harmonic_group_mismatch_checked():
    from etfkit.errors import GroupMismatch

    ds = mcfarland_set(2, 1, AbelianGroup((2, 2)))
    with pytest.raises(GroupMismatch):
        harmonic_etf(AbelianGroup((16,)), ds)


def test_difference_set_rejects_non_difference_set():
    with pytest.raises(ValueError):
        DifferenceSet(AbelianGroup((7,)), (0, 1, 2))


def test_harmonic_real_case():
    ds = mcfarland_set(2, 1, AbelianGroup((2, 2)))
    f = harmonic_etf(ds.group, ds)
    assert (f.m, f.n) == (6, 16)
    assert f.is_sign_matrix
    assert coherence(f) == pytest.approx(1 / 3)
    assert certify_etf(f).passed


def test_harmonic_trivial_set_is_orthonormal_not_etf():
    g = AbelianGroup((2, 2))
    full = DifferenceSet(g, range(4))
    f = harmonic_etf(g, full)
    assert (f.m, f.n) == (4, 4)
    cert = certify_etf(f)
    assert not cert.passed  # a frame, but rejected as an ETF: no overcompleteness
    assert cert.tightness_residual <= 1e-9


def test_harmonic_complement_coherence():
    ds = mcfarland_set(2, 1, AbelianGroup((2, 2)))
    comp = ds.complement()
    assert len(comp.elements) == 10
    f = harmonic_etf(comp.group, comp)
    assert (f.m, f.n) == (10, 16)
    assert coherence(f) == pytest.approx(0.2)
    assert certify_etf(f).passed


@pytest.mark.parametrize("q,j,factors", [(2, 1, (2, 2)), (3, 1, (5,))])
def test_mcfarland_matches_design_construction_entrywise(q, j, factors):
    _, _, report = mcfarland_as_kirkman(q, j, AbelianGroup(factors))
    assert report.max_entry_dev <= 1e-9
    assert report.entrywise_match


def test_mcfarland_z4_gram_match():
    harm, kirk, report = mcfarland_as_kirkman(2, 1, AbelianGroup((4,)))
    assert report.max_gram_dev <= 1e-9
    assert certify_etf(harm).passed and certify_etf(kirk).passed


def test_naimark_of_flat_6x16():
    comp = naimark_complement(fig2_frame())
    assert (comp.m, comp.n) == (10, 16)
    assert abs(coherence(comp) - 0.2) <= 1e-9
    assert certify_etf(comp).passed


def test_naimark_rows_complete_orthogonal_system():
    f = fig2_frame()
    comp = naimark_complement(f)
    stacked = np.vstack([np.sqrt(f.m / f.n) * f.entries,
                         np.sqrt((f.n - f.m) / f.n) * comp.entries])
    assert np.abs(stacked @ stacked.conj().T - np.eye(f.n)).max() < 1e-9


def test_naimark_of_orthonormal_basis_is_empty():
    f = Frame(entries=np.eye(5, dtype=np.complex128))
    comp = naimark_complement(f)
    assert (comp.m, comp.n) == (0, 5)


def test_naimark_matches_complement_difference_set():
    comp_frame = naimark_complement(fig2_frame())
    ds = mcfarland_set(2, 1, AbelianGroup((2, 2))).complement()
    harm = harmonic_etf(ds.group, ds)
    assert abs(coherence(comp_frame) - float(coherence(harm))) <= 1e-9


def test_naimark_rejects_non_tight():
    bad = Frame(entries=np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]], dtype=np.complex128).T)
    with pytest.raises(NotTight):
        naimark_complement(bad)


def test_frame_json_sign_round_trip():
    f = fig2_frame()
    back = parse_frame(frame_to_json(f))
    assert np.array_equal(back.exact_ints, f.exact_ints)
    assert back.scale_sq == f.scale_sq
    assert np.array_equal(back.entries, f.entries)


PROVENANCE = {"construction": "kirkman", "zeta": [1.5, -0.0, 1e-300, {"nested": None}],
              "name": "Kirkman ✓ ζ\u00e9", "r": 3, "A": {"b": [True, "x\"y"]}}


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (6, 1), (2, 2), (5, 9), (0, 3), (3, 0)])
def test_sign_form_is_json_dumps_of_the_document(shape):
    ints = np.random.default_rng(sum(shape)).choice([-1, 1], shape)
    frame = Frame(entries=ints / np.sqrt(max(shape[0], 1)), exact_ints=ints, scale_sq=shape[0],
                  provenance=PROVENANCE)
    assert frame.is_sign_matrix
    doc = {"m": shape[0], "n": shape[1], "signs": ints.tolist(), "scale_sq_inv": shape[0],
           "provenance": PROVENANCE}
    assert frame_to_json(frame) == json.dumps(doc, sort_keys=True)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(0, 7), st.integers(0, 9)).flatmap(
    lambda shape: hnp.arrays(st.sampled_from([np.int8, np.int64]), shape, elements=st.sampled_from([-1, 1]))))
def test_sign_rows_is_json_dumps_of_the_signs(ints):
    """_sign_rows writes the signs of their exponents mod 2.  Both sides of
    the empty-form test: 1 x 1, 1 x N, M x 1, the empty shapes, and the
    rest."""
    assert _sign_rows((ints < 0).view(np.uint8)) == json.dumps(ints.tolist())


def test_sign_form_of_a_constructed_frame_is_json_dumps_of_the_document():
    frame = kirkman_etf(round_robin_design(16), drop_row_simplex(hadamard(16), 3), hadamard(8))
    doc = {"m": frame.m, "n": frame.n, "signs": frame.exact_ints.tolist(),
           "scale_sq_inv": frame.scale_sq, "provenance": frame.provenance}
    assert frame_to_json(frame) == json.dumps(doc, sort_keys=True)


def test_frame_json_entries_round_trip():
    f = steiner_etf(affine_design(3, 1), drop_row_simplex(dft(5), 0))
    back = parse_frame(frame_to_json(f))
    assert np.array_equal(back.entries, f.entries)


@pytest.mark.parametrize("dtype", [np.int64, np.bool_, np.float32, np.float64, np.complex64], ids=str)
def test_entries_of_any_dtype_a_frame_takes_are_written_as_complex128(dtype):
    """Frame takes bool, integer, float and complex entries; each is
    written as complex128, the per-entry loop's text (an int64 entry raised
    TypeError at the parent)."""
    entries = np.array([[1, 0, 1], [0, 1, 0]]).astype(dtype)
    frame = Frame(entries=entries)
    wide = entries.astype(np.complex128)
    doc = {"m": 2, "n": 3, "scale": None, "provenance": {},
           "entries": [[[float(z.real), float(z.imag)] for z in row] for row in wide]}
    assert frame_to_json(frame) == json.dumps(doc, sort_keys=True)
    assert np.array_equal(parse_frame(frame_to_json(frame)).entries, wide)


@pytest.mark.parametrize("shape", [(0, 4), (0, 1), (0, 0), (3, 0), (1, 0)], ids=str)
@pytest.mark.parametrize("form", ["signs", "entries"])
def test_a_frame_with_no_rows_or_no_columns_round_trips(shape, form):
    """frame_to_json writes 0 x N and M x 0 frames in both forms, and
    parse_frame reads them back (a 0 x N document was refused at the
    parent), as naimark_complement writes the complement of a square
    frame."""
    if form == "signs":
        frame = Frame(exact_ints=np.ones(shape, dtype=np.int64), scale_sq=shape[0])
        assert frame.is_sign_matrix
    else:
        frame = Frame(entries=np.ones(shape, dtype=np.complex128))
    text = frame_to_json(frame)
    assert form in json.loads(text)
    back = parse_frame(text)
    assert (back.m, back.n) == shape and frame_to_json(back) == text
    assert back.is_sign_matrix == (form == "signs")


def test_the_complement_of_a_square_frame_is_read_back_and_refused_again():
    """naimark_complement of a square frame is a 0 x N frame, whose document
    reads back; its own complement is refused with NotTight, where the
    parent divided by zero."""
    comp = naimark_complement(Frame(entries=np.eye(4, dtype=np.complex128)))
    back = parse_frame(frame_to_json(comp))
    assert (back.m, back.n) == (0, 4)
    with pytest.raises(NotTight, match="no rows"):
        naimark_complement(back)


def test_frame_json_rejects_garbage():
    with pytest.raises(FrameFormatError):
        parse_frame("{not json")
    with pytest.raises(FrameFormatError):
        parse_frame('{"m": 2, "n": 2, "signs": [[1, 1], [1, 2]], "scale_sq_inv": 2}')


@pytest.mark.parametrize("text", [
    '{"m": 1, "n": 2, "scale": null, "entries": [[[1.0, 0.0], [NaN, 0.0]]]}',
    '{"m": 1, "n": 2, "scale": null, "entries": [[[1.0, 0.0], [1.0, -Infinity]]]}',
    '{"m": 1, "n": 2, "scale": null, "entries": [[[1.0, 0.0], [1e400, 0.0]]]}',
    '{"m": 1, "n": 2, "scale": NaN, "entries": [[[1.0, 0.0], [1.0, 0.0]]]}',
    '{"m": 1, "n": 2, "scale": Infinity, "entries": [[[1.0, 0.0], [1.0, 0.0]]]}',
    '{"m": 1, "n": 1, "signs": [[1]], "scale_sq_inv": Infinity}',
])
def test_frame_json_rejects_non_finite_numbers(text):
    with pytest.raises(FrameFormatError):
        parse_frame(text)


def test_check_unit_norm_raises_not_unit_norm():
    with pytest.raises(NotUnitNorm):
        Frame(entries=np.array([[1.0, 1.0], [1.0, 0.0]], dtype=np.complex128)).check_unit_norm()
    with pytest.raises(FrameFormatError, match="^entries must be finite numbers$"):  # refused when built
        Frame(entries=np.array([[1.0, np.nan]], dtype=np.complex128))
    Frame(entries=np.eye(2, dtype=np.complex128)).check_unit_norm()


@pytest.mark.parametrize("kwargs,message", [
    # columns [1, 0], [.6, .8], [0, 1]: read as integers, their coherence would be "0", not 0.8
    ({"exact_ints": np.array([[1.0, 0.6, 0.0], [0.0, 0.8, 1.0]]), "scale_sq": 1}, "an integer form is a matrix of integers"),
    ({"exact_ints": np.array([[True, False]]), "scale_sq": 1}, "an integer form is a matrix of integers"),
    ({"exact_ints": np.array([1, -1]), "scale_sq": 1}, "an integer form is a matrix of integers"),
    ({"exact_ints": np.array([[1, -1]], dtype=object), "scale_sq": 1}, "an integer form is a matrix of integers"),
    ({"exact_ints": np.array([[1, -1]]), "scale_sq": 2.0}, "scale_sq must be an integer, got 2.0"),
    ({"exact_ints": np.array([[1, -1]]), "scale_sq": True}, "scale_sq must be an integer, got True"),
    ({"exact_ints": np.array([[1, -1]]), "scale_sq": "1"}, "scale_sq must be an integer, got '1'"),
    ({"exact_ints": np.array([[1, -1]]), "scale_sq": 0}, "scale_sq must be positive, got 0"),
    ({"_phases": (np.zeros((1, 2), dtype=np.uint8), 3), "scale_sq": -1}, "scale_sq must be positive, got -1"),
    ({"entries": np.array([1.0, 0.0])}, "entries must be a matrix of numbers"),
    ({"entries": np.array([["1", "0"]])}, "entries must be a matrix of numbers"),
    ({"entries": np.array([[1.0, np.nan]])}, "entries must be finite numbers"),
    ({"entries": np.array([[1.0, 1j * np.inf]])}, "entries must be finite numbers"),
    ({"entries": np.array([[np.nan]]), "exact_ints": np.array([[1]]), "scale_sq": 1}, "entries must be finite numbers"),
], ids=["float-ints", "bool-ints", "1d-ints", "object-ints", "float-scale", "bool-scale", "str-scale",
        "zero-scale", "negative-scale", "1d-entries", "str-entries", "nan", "inf-imag", "nan-beside-ints"])
def test_a_frame_checks_its_stored_form_when_built(kwargs, message):
    with pytest.raises(FrameFormatError, match=f"^{re.escape(message)}$"):
        Frame(**kwargs)


def test_a_scale_is_stored_as_a_python_int_and_may_be_0_on_an_empty_form():
    frame = Frame(exact_ints=np.array([[3, 4]], dtype=np.uint8), scale_sq=np.int64(25))
    assert frame.scale_sq == 25 and type(frame.scale_sq) is int
    assert Frame(exact_ints=np.zeros((0, 3), dtype=np.int8), scale_sq=0).entries.shape == (0, 3)


# -- the bincount difference-set check against the pairwise count ---------------

def _ref_sub(factors, a, b):
    """a - b in Z_n1 x ... x Z_nt by digit loops, first factor most significant."""
    out, place = 0, 1
    for f in reversed(factors):
        out += ((a % f - b % f) % f) * place
        a, b, place = a // f, b // f, place * f
    return out


def _ref_verified(group, elements):
    """The pairwise count: (sorted elements, lam), or None when the nonzero
    difference counts are not constant."""
    elements = tuple(sorted(set(elements)))
    counts = [0] * group.order
    for d1 in elements:
        for d2 in elements:
            counts[_ref_sub(group.factors, d1, d2)] += 1
    nonzero = counts[1:]
    if not nonzero or min(nonzero) != max(nonzero):
        return None
    return elements, nonzero[0]


def _check_against_reference(group, elements):
    want = _ref_verified(group, elements)
    if want is None:
        with pytest.raises(NotADifferenceSet):
            DifferenceSet(group, elements)
    else:
        got = DifferenceSet(group, elements)
        assert (got.elements, got.lam, got.group) == (*want, group)


MCFARLAND_SMALL = [(2, 1, (2, 2)), (2, 1, (4,)), (3, 1, (5,)), (2, 2, (8,)), (2, 2, (2, 4)), (4, 1, (2, 3))]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(MCFARLAND_SMALL), st.sampled_from(["set", "complement", "flip"]), st.data())
def test_verified_matches_pairwise_count_on_mcfarland_sets(params, variant, data):
    q, j, factors = params
    ds = mcfarland_set(q, j, AbelianGroup(factors))
    elements = list(ds.elements)
    if variant == "complement":
        elements = list(ds.complement().elements)
    elif variant == "flip":  # toggle one element: no longer a difference set
        x = data.draw(st.integers(0, ds.group.order - 1))
        elements = sorted(set(elements) ^ {x})
    _check_against_reference(ds.group, elements)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=4), st.integers(1, 5), st.data())
def test_verified_matches_pairwise_count_on_random_subsets(factors, batch_rows, data):
    """Groups of up to four factors, a subset and its complement, the
    differences counted a few rows at a time."""
    from etfkit import frames

    group = AbelianGroup(factors)
    elements = data.draw(st.lists(st.integers(0, group.order - 1), max_size=group.order))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(frames, "_DIFFERENCE_BATCH", batch_rows * max(len(set(elements)), 1))
        _check_against_reference(group, elements)
        _check_against_reference(group, sorted(set(range(group.order)) - set(elements)))


def test_verified_in_several_batches(monkeypatch):
    from etfkit import frames

    ds = mcfarland_set(2, 2, AbelianGroup((2, 4)))
    monkeypatch.setattr(frames, "_DIFFERENCE_BATCH", 7 * len(ds.elements))  # 7 rows a batch
    assert DifferenceSet(ds.group, ds.elements) == ds
    assert DifferenceSet(ds.group, ds.complement().elements) == ds.complement()
    with pytest.raises(NotADifferenceSet):
        DifferenceSet(ds.group, ds.elements[1:])


def test_difference_set_range_checked():
    for bad in ((8, 9, 11), (-1, 0, 2)):
        with pytest.raises(IndexOutOfRange):
            DifferenceSet(AbelianGroup((7,)), bad)
    assert DifferenceSet(AbelianGroup((7,)), (1, 2, 4)).lam == 1


@pytest.mark.parametrize("bad", [(1.9, 2, 4), (np.float64(1.0), 2, 4), (True, 2, 4), (np.True_, 2, 4),
                                 ("1", 2, 4), (None, 2, 4)], ids=repr)
def test_verified_takes_only_integer_elements(bad):
    """An element that is no integer index is refused, not truncated or
    read: 1.9, True and "1" would all count as the element 1 of {1, 2, 4}."""
    with pytest.raises(IndexOutOfRange):
        DifferenceSet(AbelianGroup((7,)), bad)


def test_verified_takes_python_and_numpy_integers():
    want = DifferenceSet(AbelianGroup((7,)), (1, 2, 4))
    for elements in ((np.int64(1), np.uint8(2), 4), np.array([4, 2, 1], dtype=np.int32), [4, 1, 2, 2]):
        assert DifferenceSet(AbelianGroup((7,)), elements) == want


def test_lam_is_derived_and_cannot_be_passed_in():
    """The parent took lam as given: DifferenceSet(Z_7, (1, 2, 11), lam=5)
    built the {1, 2, 4} harmonic frame with "lambda": 5 in its provenance."""
    with pytest.raises(TypeError):
        DifferenceSet(group=AbelianGroup((7,)), elements=(1, 2, 4), lam=5)
    with pytest.raises(IndexOutOfRange):
        DifferenceSet(AbelianGroup((7,)), (1, 2, 11))
    ds = DifferenceSet(AbelianGroup((7,)), (1, 2, 4))
    assert ds.lam == 1 and harmonic_etf(ds.group, ds).provenance["lambda"] == 1


def test_not_a_difference_set_is_a_value_error():
    with pytest.raises(NotADifferenceSet):
        DifferenceSet(AbelianGroup((7,)), (0, 1, 2))
    assert issubclass(NotADifferenceSet, ValueError)


def test_harmonic_accepts_a_list_form_group():
    ds = mcfarland_set(2, 1, AbelianGroup([2, 2]))
    f = harmonic_etf(AbelianGroup([2, 2, 2, 2]), ds)
    assert (f.m, f.n) == (6, 16)


# -- one stored form: integer frames derive their complex entries --------------

def _integer_frames():
    from etfkit.codes import code_to_frame, frame_to_code
    ds = mcfarland_set(2, 1, AbelianGroup((2, 2)))
    return {
        "steiner": fig1_frame(),
        "kirkman": fig2_frame(),
        "harmonic": harmonic_etf(ds.group, ds),
        "parse_frame": parse_frame(frame_to_json(fig2_frame())),
        "code_to_frame": code_to_frame(frame_to_code(fig2_frame())),
    }


@pytest.mark.parametrize("name", ["steiner", "kirkman", "harmonic", "parse_frame", "code_to_frame"])
def test_derived_entries_are_the_numeric_form_and_read_only(name):
    frame = _integer_frames()[name]
    want = _numeric(frame.exact_ints, frame.scale_sq)
    assert frame.entries.dtype == want.dtype and frame.entries.tobytes() == want.tobytes()
    assert frame.entries is frame.entries  # derived once, then kept
    with pytest.raises(ValueError):
        frame.entries[0, 0] = 0
    with pytest.raises(ValueError):
        frame.exact_ints[0, 0] = 0
    with pytest.raises(AttributeError):
        frame.entries = want


def test_a_phase_frame_derives_read_only_entries_once_and_is_unit_norm_exactly():
    from dataclasses import replace

    from etfkit import flatmat

    dset = mcfarland_set(3, 1, AbelianGroup((5,)))
    frame = harmonic_etf(dset.group, dset)
    assert frame.exact_ints is None and frame.order == 15 and frame.phases.dtype == np.uint8
    assert frame._entries is None  # nothing derived yet
    want = flatmat._unit_roots(15)[frame.phases] / np.sqrt(12)
    assert frame.entries.tobytes() == want.tobytes() and frame.entries is frame.entries
    for array in (frame.entries, frame.phases):
        with pytest.raises(ValueError):
            array[0, 0] = 1
    copy = replace(frame, provenance={})
    assert np.array_equal(copy.phases, frame.phases) and copy.entries.tobytes() == want.tobytes()
    with pytest.raises(FrameFormatError):  # entries alongside an exact form must be the derived ones
        replace(frame, entries=frame.entries[:, ::-1])
    # every entry has modulus 1/sqrt(scale_sq), so no tolerance admits another scale
    with pytest.raises(NotUnitNorm):
        Frame(scale_sq=13, _phases=(frame.phases, 15)).check_unit_norm(tol=1.0)


def test_a_float_frame_keeps_the_array_it_was_given():
    a = np.eye(3, dtype=np.complex128)
    frame = Frame(entries=a)
    assert frame.entries is a and frame.exact_ints is None and (frame.m, frame.n) == (3, 3)


def test_entries_given_alongside_the_integer_form_must_equal_the_derived_ones():
    ints = fig2_frame().exact_ints
    same = Frame(entries=ints / np.sqrt(6), exact_ints=ints, scale_sq=6)
    assert same.entries.tobytes() == _numeric(ints, 6).tobytes()
    flipped = _numeric(ints, 6).copy()
    flipped[0, 0] *= -1
    nudged = _numeric(ints, 6).copy()
    nudged[2, 3] = np.nextafter(nudged[2, 3].real, 2.0)
    for entries, scale_sq in ((flipped, 6), (nudged, 6), (_numeric(ints, 6), 5), (_numeric(ints, 6)[:, :3], 6)):
        with pytest.raises(FrameFormatError):
            Frame(entries=entries, exact_ints=ints, scale_sq=scale_sq)


@pytest.mark.parametrize("kwargs", [{}, {"exact_ints": np.ones((1, 2), dtype=np.int64)},
                                    {"entries": np.ones((1, 2)), "scale_sq": 1},
                                    {"_phases": (np.zeros((1, 2), dtype=np.uint8), 3)},
                                    {"_phases": (np.zeros((1, 2), dtype=np.uint8), 3), "scale_sq": 1,
                                     "exact_ints": np.ones((1, 2), dtype=np.int64)},
                                    {"_phases": (np.zeros((1, 2), dtype=np.int64), 3), "scale_sq": 1},
                                    {"_phases": (np.full((1, 2), 3, dtype=np.uint8), 3), "scale_sq": 1},
                                    {"_phases": (np.zeros(2, dtype=np.uint8), 3), "scale_sq": 1}])
def test_a_frame_needs_one_whole_form(kwargs):
    with pytest.raises(FrameFormatError):
        Frame(**kwargs)


@pytest.mark.parametrize("order", [1, 2, 5])
def test_an_exponent_build_is_unit_norm_by_its_form(monkeypatch, order):
    """Every entry of an exponent build has modulus 1/sqrt(scale_sq), so
    _assemble refuses M != scale_sq, with the message check_unit_norm gives
    a phase frame, and gathers no sign and takes no pass over the entries
    or integers."""
    from etfkit import frames

    def refuse(*args, **kwargs):
        raise AssertionError("an exponent build took the pass over its values")
    for module, name in ((frames, "_root_values"), (frames, "_abs_max"), (np.linalg, "norm")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(NotUnitNorm) as built:
        frames._assemble(np.zeros((3, 4), dtype=np.uint8), 2, {}, order)
    monkeypatch.undo()
    with pytest.raises(NotUnitNorm) as stored:
        Frame(scale_sq=2, _phases=(np.zeros((3, 4), dtype=np.uint8), 5)).check_unit_norm()
    assert str(built.value) == str(stored.value) == "column norms are sqrt(3/2), not 1"


def test_only_a_value_build_takes_the_unit_norm_pass(monkeypatch):
    """steiner_etf hands _assemble values, whose norms check_unit_norm sums
    from the integers; a sign or character kirkman_etf, harmonic_etf and the
    character complement hand it exponents, unit-norm by their form, so
    check_unit_norm reads no integers of theirs."""
    from etfkit import frames

    checked = []
    top = frames._abs_max
    monkeypatch.setattr(frames, "_abs_max", lambda a: checked.append(len(a)) or top(a))
    dset = mcfarland_set(2, 1, AbelianGroup((4,)))
    harmonic = harmonic_etf(dset.group, dset)
    built = [fig2_frame(), kirkman_etf(affine_design(3, 1), drop_row_simplex(dft(5), 0), dft(3)),
             harmonic, naimark_complement(harmonic)]
    assert checked == []
    fig1_frame()
    assert checked == [6]
    monkeypatch.undo()
    assert all(certify_etf(frame).passed for frame in built)


@pytest.mark.parametrize("ints,scale_sq", [
    ([[1, 1], [1, 0]], 2), ([[2, 0], [0, 1]], 1), ([[1, -1], [1, 1]], 3), ([[3, 4]], 26), ([[1], [1]], 1),
])
def test_unit_norm_of_the_integer_form_matches_the_float_check(ints, scale_sq):
    ints = np.array(ints, dtype=np.int64)
    with pytest.raises(NotUnitNorm) as exact:
        Frame(exact_ints=ints, scale_sq=scale_sq).check_unit_norm()
    with pytest.raises(NotUnitNorm) as floating:
        Frame(entries=_numeric(ints, scale_sq)).check_unit_norm()
    assert str(exact.value) == str(floating.value)
    Frame(exact_ints=np.array([[3, 4], [4, -3]]), scale_sq=25).check_unit_norm()


def reference_unit_norm(ints: np.ndarray, scale_sq: int, tol: float) -> str | None:
    """check_unit_norm's message on an integer form, from its column sums of
    squares in Python integers, or None when it passes."""
    sums = [sum(int(x) ** 2 for x in column) for column in ints.T.tolist()]
    worst = float(np.abs(np.sqrt(np.array(sums, dtype=np.float64) / scale_sq) - 1.0).max())
    return None if worst <= tol else f"column norms deviate from 1 by {worst:.3e}"


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 8), st.sampled_from([1, 2, 3])).flatmap(
    lambda case: st.tuples(hnp.arrays(st.sampled_from([np.int8, np.int16, np.int64]), case[:2],
                                      elements=st.integers(-case[2], case[2])),
                           st.integers(1, 9), st.sampled_from([0.0, 1e-9, 0.5]))))
def test_unit_norm_of_an_integer_form_matches_its_sums_of_squares(case):
    """A {0, +-1} form counts its nonzero entries; a wider one, with an entry
    +-2 or +-3 where a count would be wrong, still sums its squares: both
    give the Python-integer reference's verdict and message."""
    ints, scale_sq, tol = case
    try:
        Frame(exact_ints=ints, scale_sq=scale_sq).check_unit_norm(tol)
        got = None
    except NotUnitNorm as e:
        got = str(e)
    assert got == reference_unit_norm(ints, scale_sq, tol)


@pytest.mark.parametrize("resolution,message", [
    (((0, 1, 2), (2, 3), (4, 5)), "parallel class 0 does not partition the 4 points"),
    (((0, 1), (2, 3, 0), (4, 5)), "parallel class 1 does not partition the 4 points"),
    (((0, 1), (2,), (4, 5)), "parallel class 1 does not partition the 4 points"),
    (((0, 0), (2, 3), (4, 5)), "parallel class 0 does not partition the 4 points"),
    (((0, 1), (2, 3), (4, 0)), "parallel class 2 does not partition the 4 points"),
])
def test_resolution_faults_keep_their_messages(resolution, message):
    """Each fault names the first class that does not partition the points
    (designs._class_partition), as validate's classes_partition_points
    check does."""
    with pytest.raises(NotResolvable, match=f"^{message}$"):
        steiner_etf(_round_robin_4_with_resolution(resolution), drop_row_simplex(hadamard(4), 0))


# -- McFarland: one exponent identity, and a dense reference ---------------------

def _two_gram_deviation(a: np.ndarray, k: np.ndarray) -> float:
    return float(np.abs(a.conj().T @ a - k.conj().T @ k).max())


@pytest.mark.parametrize("block", [2 ** 18, 100], ids=["one-block", "two-row-blocks"])
@pytest.mark.parametrize("perturb", [0.0, 1e-6], ids=["exact", "perturbed"])
@pytest.mark.parametrize("q,j,factors", [(3, 1, (5,)), (4, 1, (6,)), (2, 2, (8,))])
def test_the_dense_reference_matches_the_two_gram_value(q, j, factors, perturb, block, monkeypatch):
    """The dense reference the twins are checked against, on the twins with
    three entries of the Kirkman one nudged, read in one block of rows of
    X + X^H or in blocks of 100 // N = 2 (or 1) rows.  mcfarland_as_kirkman
    refuses the nudged frame, which has no exponents."""
    from etfkit import frames

    real_kirkman, built = frames.kirkman_etf, []

    def kirkman_etf(*args):
        frame = real_kirkman(*args)
        entries = np.array(frame.entries)
        rng = np.random.default_rng(sum(factors))
        rows, cols = rng.integers(frame.m, size=3), rng.integers(frame.n, size=3)
        entries[rows, cols] += perturb * np.exp(2j * np.pi * rng.random(3))
        built.append(Frame(entries=entries, provenance=frame.provenance))
        return built[-1]

    monkeypatch.setattr(frames, "kirkman_etf", kirkman_etf)
    with pytest.raises(InvariantViolation, match="not flat frames of one root order"):
        mcfarland_as_kirkman(q, j, AbelianGroup(factors))
    dset = mcfarland_set(q, j, AbelianGroup(factors))
    rows, cols = _identification(q, j, AbelianGroup(factors))
    a, k = harmonic_etf(dset.group, dset).entries[rows], built[0].entries[:, cols]
    entry_dev, gram_dev = _dense_deviations(a, k, block)
    assert entry_dev == float(np.abs(a - k).max())
    assert abs(gram_dev - _two_gram_deviation(a, k)) <= 1e-15
    assert (gram_dev > 1e-8) == (perturb > 0)


def _flip_kirkman_phases(monkeypatch, *at) -> list[Frame]:
    """Patch frames.kirkman_etf to add 1 mod L to the exponents at each
    (row, column) of at; the frames it builds are listed in the result."""
    from etfkit import frames

    real_kirkman, built = frames.kirkman_etf, []

    def kirkman_etf(*args):
        frame = real_kirkman(*args)
        phases = frame.phases.copy()
        for row, col in at:
            phases[row, col] = (phases[row, col] + 1) % frame.order
        built.append(Frame(scale_sq=frame.scale_sq, provenance=frame.provenance, _phases=(phases, frame.order)))
        return built[-1]

    monkeypatch.setattr(frames, "kirkman_etf", kirkman_etf)
    return built


@pytest.mark.parametrize("q,j,factors", [(3, 1, (5,)), (4, 1, (6,)), (2, 2, (8,))])
def test_a_flipped_kirkman_exponent_raises_naming_its_entry(q, j, factors, monkeypatch):
    group = AbelianGroup(factors)
    harm, _, _ = mcfarland_as_kirkman(q, j, group)
    flipped = _flip_kirkman_phases(monkeypatch, (4, 1), (2, 5))
    # the first entry in row-major order is named
    with pytest.raises(InvariantViolation, match=f"^{re.escape(f'McFarland frame for q={q}, j={j}, G={factors}')} "
                                                 r"fails the exponent identity at Kirkman entry \(2, 5\)$"):
        mcfarland_as_kirkman(q, j, group)
    # the dense reference sees the flipped entries as well
    rows, cols = _identification(q, j, group)
    entry_dev, gram_dev = _dense_deviations(harm.entries[rows], flipped[0].entries[:, cols])
    assert entry_dev > 1e-9 and gram_dev > 1e-9


def _ordered_factorizations(n: int) -> list[tuple[int, ...]]:
    """Every ordered factorization of n into factors of at least 2."""
    return [(n,)] * (n > 1) + [(f, *rest) for f in range(2, n) if n % f == 0
                               for rest in _ordered_factorizations(n // f)]


def _every_group(q: int, j: int) -> list[tuple[int, ...]]:
    """Every ordered factorization of R + 1, each also with a unit factor
    at every place."""
    big_r = (q ** (j + 1) - 1) // (q - 1)
    return [g for f in _ordered_factorizations(big_r + 1)
            for g in [f] + [f[:i] + (1,) + f[i:] for i in range(len(f) + 1)]]


EVERY_GROUP = [(q, j, g) for q, j in ((2, 1), (3, 1), (2, 2), (4, 1), (5, 1), (2, 3), (7, 1), (8, 1), (3, 2),
                                      (9, 1))
               for g in _every_group(q, j)]


def test_every_group_lists_each_ordered_factorization_with_its_unit_factors():
    assert _ordered_factorizations(8) == [(8,), (2, 4), (2, 2, 2), (4, 2)]
    assert _every_group(2, 1) == [(4,), (1, 4), (4, 1), (2, 2), (1, 2, 2), (2, 1, 2), (2, 2, 1)]
    assert len(EVERY_GROUP) == len(set(EVERY_GROUP)) == 108


@pytest.mark.parametrize("case", EVERY_GROUP, ids=_label)
def test_the_mcfarland_identity_holds_on_every_group(case):
    q, j, factors = case
    _, _, report = mcfarland_as_kirkman(q, j, AbelianGroup(factors))
    assert (report.max_entry_dev, report.max_gram_dev) == (0.0, 0.0) and report.as_dict()["passed"]


def test_a_complex_kirkman_frame_adds_the_exponents_of_its_two_matrices():
    design, simplex, basis = affine_design(3, 1), drop_row_simplex(dft(5), 0), dft(3)
    frame = kirkman_etf(design, simplex, basis)
    assert frame.order == 15 and frame.exact_ints is None
    # the same matrices from outside the package carry no exponents: their
    # entries are multiplied, which differs from the gathered root in the last bits
    outside = kirkman_etf(design, UnimodularMatrix(entries=simplex.entries, kind="simplex"),
                          UnimodularMatrix(entries=basis.entries, kind="dft"))
    assert outside.phases is None
    assert np.abs(frame.entries - outside.entries).max() <= 1e-15
    assert certify_etf(frame).passed and gram_equal(frame, outside).passed


# -- harmonic frames gathered from the characters at the difference set ------

# (q, j, G) for every case of the benchmark's harmonic ladder
HARMONIC_LADDER = FLOAT_LADDER + EXACT_LADDER + [TOP, (4, 2, (2, 11))]


@pytest.mark.parametrize("case", HARMONIC_LADDER, ids=_label)
def test_harmonic_frame_is_the_character_table_restricted_to_the_set(case):
    q, j, factors = case
    dset = mcfarland_set(q, j, AbelianGroup(factors))
    frame = harmonic_etf(dset.group, dset)
    table = character_table(dset.group)
    rows = list(dset.elements)
    want = table.entries[:, rows].T / np.sqrt(len(rows))
    assert frame.entries.tobytes() == want.tobytes()
    exponent_two = math.lcm(*factors) <= 2
    assert (frame.exact_ints is not None) == exponent_two
    if exponent_two:
        assert frame.exact_ints.dtype == np.int8  # one byte per sign
        assert frame.exact_ints.tobytes() == table.signs[:, rows].T.astype(np.int8).tobytes()


@pytest.mark.parametrize("case", HARMONIC_LADDER, ids=_label)
def test_the_mcfarland_match_is_an_exponent_identity(case, monkeypatch):
    """Both frames are exact forms that agree under the identification:
    both deviations are exactly 0.0, with no character-row check and no
    complex entry formed on either frame."""
    from etfkit import frames

    def forbidden(*args):
        raise AssertionError("the exponent match needs no character-row check")

    monkeypatch.setattr(frames, "_character_rows", forbidden)
    q, j, factors = case
    harm, kirk, report = mcfarland_as_kirkman(q, j, AbelianGroup(factors))
    assert (report.max_entry_dev, report.max_gram_dev) == (0.0, 0.0) and report.as_dict()["passed"]
    assert harm._entries is None and kirk._entries is None
    # both are phase frames, and the exponent-two cases sign frames (order 2) on both sides
    assert harm.phases is not None and kirk.phases is not None
    assert harm.is_sign_matrix == kirk.is_sign_matrix == (case in EXACT_LADDER)


def _intp_kirkman_phases(design: SteinerSystem, simplex: UnimodularMatrix,
                         basis: UnimodularMatrix) -> tuple[np.ndarray, int]:
    """kirkman_etf's exponent sum in intp: both exponent tables cast to
    intp, tiled and gathered, summed into an R x S x N intp array and reduced
    mod L, then stored in _phase_dtype(L) as _assemble stores them."""
    from etfkit import frames

    pos, _ = frames._resolution_lookup(design)
    big_r = pos.shape[0]
    h_cols = np.repeat(pos, big_r + 1, axis=1)
    (f, f_order), (h, h_order) = simplex._exponents, basis._exponents
    order = math.lcm(f_order, h_order)
    f, h = f.astype(np.intp) * (order // f_order), h.astype(np.intp) * (order // h_order)
    phases = (np.tile(f, (1, design.v))[:, None, :] + h[:, h_cols].transpose(1, 0, 2)).reshape(big_r * design.s, -1)
    np.subtract(phases, order, out=phases, where=phases >= order)
    return phases.astype(_phase_dtype(order)), order


def _mcfarland_twin_inputs(case) -> tuple:
    """The design, simplex and basis mcfarland_as_kirkman builds its Kirkman
    twin from."""
    q, j, factors = case
    structure, design = affine_structure(q, j)
    group = AbelianGroup(factors)
    return design, simplex_from_characters(group, group.order - 1), trace_character_basis(structure)


# the McFarland twins, and McF(4,2)'s design with a DFT basis: L = lcm(22, 16) = 176, so the
# sum of two exponents, up to 350, passes 255
KIRKMAN_PHASE_CASES = {_label(case): (lambda case=case: _mcfarland_twin_inputs(case)) for case in HARMONIC_LADDER}
KIRKMAN_PHASE_CASES["affine42-Z22-dft16"] = lambda: (
    affine_design(4, 2), simplex_from_characters(AbelianGroup((22,)), 21), dft(16))
KIRKMAN_PHASE_CASES["affine31-dft5-dft3"] = lambda: (affine_design(3, 1), drop_row_simplex(dft(5)), dft(3))


@pytest.mark.parametrize("name", list(KIRKMAN_PHASE_CASES))
def test_kirkman_phases_equal_the_intp_sum(name):
    """The exponent sum in the narrow phase dtype gives the same exponents,
    dtype and order as the sum in intp; a pair of sign matrices multiplies,
    and gives the signs of those exponents."""
    design, simplex, basis = KIRKMAN_PHASE_CASES[name]()
    want, order = _intp_kirkman_phases(design, simplex, basis)
    frame = kirkman_etf(design, simplex, basis)
    if frame.phases is None:
        assert order == 2 and np.array_equal(frame.exact_ints, _root_values(want, 2))
    else:
        assert frame.order == order and frame.phases.dtype == want.dtype
        assert frame.phases.tobytes() == want.tobytes()
    if name == "affine42-Z22-dft16":
        assert order == 176 and _phase_dtype(2 * order - 1) == np.uint16 and frame.phases.dtype == np.uint8


def _gathered_then_divided(frame: Frame) -> np.ndarray:
    return _numeric(_root_values(frame.phases, frame.order), frame.scale_sq)


@pytest.mark.parametrize("case", HARMONIC_LADDER, ids=_label)
def test_phase_entries_equal_the_gathered_roots_divided(case):
    """A phase frame's entries, gathered from the divided table of roots,
    are bit for bit the gathered roots divided, on every phase frame of the
    ladder: the harmonic frame, its Kirkman twin and its complement."""
    q, j, factors = case
    harm, kirk, _ = mcfarland_as_kirkman(q, j, AbelianGroup(factors))
    for frame in [harm, kirk] + ([naimark_complement(harm)] if harm.n <= 256 else []):
        if frame.phases is not None:
            want = _gathered_then_divided(frame)
            assert frame.entries.dtype == want.dtype and frame.entries.tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [3, 5, 7, 22, 44, 176, 1408])
def test_random_phase_entries_equal_the_gathered_roots_divided(order):
    rng = np.random.default_rng(order)
    phases = rng.integers(0, order, size=(9, 40)).astype(_phase_dtype(order))
    for scale_sq in (1, 2, 3, 9, 336):
        frame = Frame(scale_sq=scale_sq, _phases=(phases, order))
        assert frame.entries.tobytes() == _gathered_then_divided(frame).tobytes()


def test_mcfarland_set_builds_no_design(monkeypatch):
    """mcfarland_set reads only the field data, so it never calls
    affine_structure, which builds the design's blocks."""
    from etfkit import frames

    want = {case: mcfarland_set(case[0], case[1], AbelianGroup(case[2])) for case in HARMONIC_LADDER}

    def no_design(*args):
        raise AssertionError("mcfarland_set builds the affine design")

    monkeypatch.setattr(frames, "affine_structure", no_design)
    for (q, j, factors), dset in want.items():
        assert frames._mcfarland_set.__wrapped__(q, j, AbelianGroup(factors)) == dset


def test_harmonic_frame_builds_no_character_table(monkeypatch):
    """At the 336 x 1408 ladder top only the difference set's M rows of
    character values are gathered: no table is built, and the peak stays
    below one N x N complex table (31.7 MB)."""
    from etfkit import flatmat, frames

    def no_table(g):
        raise AssertionError("harmonic_etf must not build the character table")

    for module in (flatmat, frames):
        monkeypatch.setattr(module, "character_table", no_table, raising=False)
    dset = mcfarland_set(4, 2, AbelianGroup((22,)))
    n = dset.group.order
    tracemalloc.start()
    try:
        frame = harmonic_etf(dset.group, dset)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (frame.m, frame.n) == (336, 1408)
    assert peak < n * n * np.dtype(np.complex128).itemsize

import json
from importlib import resources
from itertools import chain
from math import isqrt

import jsonschema
import numpy as np
import pytest

from conftest import FIG1_GRID
from etfkit.designs import (
    SteinerSystem,
    affine_design,
    kirkman15,
    parse_design,
    round_robin_design,
    steiner_params,
    validate,
)
from etfkit import designs
from etfkit.errors import DesignFormatError, InvariantViolation, OddPointCount
from etfkit.flatmat import dft, drop_row_simplex, hadamard, hadamard_order_reachable
from etfkit.frames import frame_to_json, kirkman_etf, steiner_etf


def incidence(design: SteinerSystem) -> np.ndarray:
    mat = np.zeros((design.b, design.v), dtype=np.int64)
    for i, blk in enumerate(design.blocks):
        mat[i, list(blk)] = 1
    return mat


def test_params_2_4():
    p = steiner_params(2, 4)
    assert p.b == 6 and p.r == 3
    assert all(p.flags.values())


def test_params_3_7_not_resolvable():
    p = steiner_params(3, 7)
    assert p.b == 7 and p.r == 3
    assert not p.flags["k_divides_v"]
    assert not p.flags["resolvable_congruence"]


def test_params_3_9():
    p = steiner_params(3, 9)
    assert (p.b, p.r, p.s, p.w) == (12, 4, 3, 1)
    assert all(p.flags.values())
    # cross-check against the constructed affine design
    d = affine_design(3, 1)
    assert d.b == p.b and d.r == p.r


def test_round_robin_4_matches_reference_incidence():
    d = round_robin_design(4)
    rows = ["".join("1" if c != "0" else "0" for c in line[:4])
            for line in FIG1_GRID.splitlines()]
    # support pattern of the reference grid's first four columns is the
    # incidence matrix itself
    expected = np.array([[int(line[v * 4] != "0") for v in range(4)]
                         for line in FIG1_GRID.splitlines()])
    assert np.array_equal(incidence(d), expected)
    del rows


def test_round_robin_6_pairs_once():
    d = round_robin_design(6)
    assert d.b == 15 and len(d.resolution) == 5
    assert validate(d).ok


def test_round_robin_10_block_count():
    d = round_robin_design(10)
    assert d.b == 45
    assert validate(d).ok


def test_round_robin_odd_rejected():
    with pytest.raises(OddPointCount):
        round_robin_design(7)


@pytest.mark.parametrize("v", [4, 6, 8, 10, 12])
def test_round_robin_round_structure(v):
    d = round_robin_design(v)
    seen = set()
    for cls in d.resolution:
        cover = sorted(p for i in cls for p in d.blocks[i])
        assert cover == list(range(v))
        blocks = frozenset(cls)
        assert not (blocks & seen)
        seen |= blocks


def test_affine_2_1_isomorphic_to_reference():
    # canonical form makes the q=2, j=1 affine design literally equal the
    # complete pair design on four points
    assert affine_design(2, 1) == round_robin_design(4)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_affine_line_counts(q):
    d = affine_design(q, 1)
    assert d.b == q * (q + 1)
    assert all(len(blk) == q for blk in d.blocks)
    assert validate(d).ok


def test_affine_3_1_valid():
    d = affine_design(3, 1)
    assert d.b == 12 and len(d.resolution) == 4
    assert validate(d).ok


def test_affine_2_2_valid():
    d = affine_design(2, 2)
    assert d.b == 28 and len(d.resolution) == 7
    assert validate(d).ok


def test_kirkman15_shape():
    d = kirkman15()
    assert d.b == 35
    assert d.r == 7 and d.s == 5
    assert len(d.resolution) == 7
    assert all(len(cls) == 5 for cls in d.resolution)


def test_kirkman15_pairs_once():
    d = kirkman15()
    rep = validate(d)
    assert rep.ok, rep.as_dict()


@pytest.mark.parametrize("maker", [lambda: affine_design(2, 1), lambda: affine_design(3, 1),
                                   lambda: round_robin_design(6), kirkman15])
def test_incidence_row_column_sums(maker):
    d = maker()
    mat = incidence(d)
    assert set(mat.sum(axis=1)) == {d.k}
    assert set(mat.sum(axis=0)) == {d.r}
    gram = mat.T @ mat
    off = gram[~np.eye(d.v, dtype=bool)]
    assert set(off.tolist()) == {1}


def test_validate_bose_equality_for_affine_2_1():
    d = affine_design(2, 1)
    rep = validate(d)
    assert rep.ok
    assert d.b == d.v + d.r - 1  # 6 = 4 + 3 - 1


FANO = SteinerSystem(
    v=7, k=3,
    blocks=((0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6), (2, 3, 6), (2, 4, 5)),
)


def test_validate_fano():
    rep = validate(FANO)
    by_name = {name: (passed, detail) for name, passed, detail in rep.checks}
    assert by_name["pair_coverage"][0]
    assert not by_name["k_divides_v"][0]  # structurally impossible to resolve


def test_validate_duplicate_block_fails_pair_coverage():
    d = SteinerSystem(v=4, k=2, blocks=((0, 1), (0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)))
    rep = validate(d)
    by_name = {name: (passed, detail) for name, passed, detail in rep.checks}
    assert not by_name["pair_coverage"][0]
    assert "(0, 1)" in by_name["pair_coverage"][1]


@pytest.mark.parametrize("v,k,message", [
    (4, 0, "k must be at least 2, got 0"), (4, 1, "k must be at least 2, got 1"),
    (4, None, "v and k must be integers"), (4, True, "v and k must be integers"),
    (4.0, 2, "v and k must be integers"), (True, 2, "v and k must be integers"),
], ids=str)
@pytest.mark.parametrize("use", [
    validate,
    lambda design: steiner_etf(design, drop_row_simplex(hadamard(4), 0)),
    lambda design: kirkman_etf(design, drop_row_simplex(hadamard(4), 0), hadamard(2)),
], ids=["validate", "steiner_etf", "kirkman_etf"])
def test_a_design_checks_v_and_k_when_it_is_built(v, k, message, use):
    """v and k must be integers, not bools, and k at least 2, whatever the
    design is built for: round-robin 4's blocks with any other v or k are
    refused before any count divides by K - 1 or V/K."""
    rr4 = round_robin_design(4)
    with pytest.raises(DesignFormatError, match=message):
        use(SteinerSystem(v=v, k=k, blocks=rr4.blocks, resolution=rr4.resolution))


@pytest.mark.parametrize("v,k", [(0, 2), (1, 2), (2, 3), (3, 4)])
def test_a_design_with_fewer_points_than_a_block_is_refused(v, k, capsys, monkeypatch):
    """V < K is no design: no block of K points fits.  V = 0 used to pass
    every check of validate, and steiner_etf built a 0 x 0 frame from it
    with "r": 1; the API, parse_design and `design validate -` (exit 2, one
    stderr line) now refuse it where the design is built."""
    import io
    import sys

    from etfkit.cli import main

    message = f"v must be at least k = {k}, got {v}"
    with pytest.raises(DesignFormatError, match=message):
        SteinerSystem(v=v, k=k, blocks=(), resolution=((),))
    text = json.dumps({"v": v, "k": k, "blocks": [], "resolution": [[]]})
    with pytest.raises(DesignFormatError, match=message):
        parse_design(text)
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["design", "validate", "-"]) == 2
    assert capsys.readouterr().err == f"etfkit: {message}\n"
    assert SteinerSystem(v=k, k=k, blocks=(tuple(range(k)),), resolution=((0,),)).b == 1  # V = K: one block


def test_serialization_round_trip():
    for d in (round_robin_design(6), affine_design(3, 1), kirkman15(), FANO):
        assert parse_design(d.to_json()) == d


def _real_kirkman(k: int, w: int):
    """The report for block size k and v = k[w(k-1)+1], the parameters of a
    real constant-amplitude Kirkman ETF."""
    return steiner_params(k, k * (w * (k - 1) + 1))


def test_feasibility_2_4():
    f = steiner_params(2, 4)
    assert f.lam == 2 and f.degree == 4
    assert f.lam * (f.n - 1) == f.m * (f.m - 1) and isqrt(f.degree) ** 2 == f.degree
    # cross-check: M(M-1)/(N-1) with M=6, N=16
    assert 6 * 5 // 15 == f.lam


def test_feasibility_2_20():
    f = steiner_params(2, 20)
    assert (f.w, f.lam, f.degree, f.m, f.n) == (9, 90, 100, 190, 400)


def test_feasibility_rejects_non_resolvable():
    """(3, 7), the Fano plane, is not resolvable: its report has null
    resolvable fields and does not pass (it raised before the
    parameter reports were one)."""
    f = steiner_params(3, 7)
    assert f.w is None and not f.flags["resolvable_congruence"] and not f.constructible
    resolvable = ("m", "n", "lambda", "degree", "hadamard_order_simplex", "hadamard_order_basis",
                  "simplex_constructible", "basis_constructible", "k_2_mod_4", "w_3_mod_4", "design_available")
    doc = f.as_dict()
    assert all(doc[key] is None for key in resolvable) and doc["passed"] is False


def test_feasibility_closed_form_mismatch_raises_an_etfkit_error():
    # a raise, not an assert, so the guard survives python -O
    p = steiner_params(2, 4)
    with pytest.raises(InvariantViolation):
        designs._resolvable_params(2, 4, p.w + 1, p.r, p.b)


def test_feasibility_degree_always_square():
    for k in range(2, 7):
        for w in range(1, 21):
            v = w * k * (k - 1) + k
            f = steiner_params(k, v)
            assert f.lam * (f.n - 1) == f.m * (f.m - 1)
            assert f.lam == w * (w * (k - 1) + 1)
            assert isqrt(f.degree) ** 2 == f.degree


def test_real_kirkman_params_k2_w1():
    rep = _real_kirkman(2, 1)
    assert (rep.v, rep.m, rep.n) == (4, 6, 16)
    assert not rep.w_3_mod_4  # reported, not raised
    assert rep.constructible


def test_real_kirkman_params_k2_w3():
    rep = _real_kirkman(2, 3)
    assert (rep.v, rep.m, rep.n) == (8, 28, 64)
    assert rep.k_2_mod_4 and rep.w_3_mod_4
    assert rep.constructible


def test_real_kirkman_params_k2_w11():
    rep = _real_kirkman(2, 11)
    assert (rep.v, rep.m, rep.n) == (24, 276, 576)
    assert rep.hadamard_order_simplex == 24
    assert rep.hadamard_order_basis == 12
    assert rep.simplex_constructible and rep.basis_constructible


def test_real_kirkman_params_k6_no_generator():
    rep = _real_kirkman(6, 3)
    assert rep.k_2_mod_4 and rep.w_3_mod_4
    assert not rep.design_available


def test_real_kirkman_params_closed_forms():
    """V = K[W(K-1)+1], M = (WK+1)[W(K-1)+1], N = K(WK+2)[W(K-1)+1], and
    the Hadamard orders R+1 = WK+2 and V/K = W(K-1)+1, over the ledger of
    acceptance criterion 10; reachability is the closure's, read off
    hadamard_order_reachable."""
    for k in range(2, 7):
        for w in range(1, 21):
            rep, root = _real_kirkman(k, w), w * (k - 1) + 1
            assert (rep.v, rep.m, rep.n) == (k * root, (w * k + 1) * root, k * (w * k + 2) * root)
            assert (rep.hadamard_order_simplex, rep.hadamard_order_basis) == (w * k + 2, root)
            assert rep.simplex_constructible == hadamard_order_reachable(w * k + 2)
            assert rep.basis_constructible == hadamard_order_reachable(root)
            assert (rep.k_2_mod_4, rep.w_3_mod_4) == (k % 4 == 2, w % 4 == 3)


@pytest.mark.parametrize("k,v,build", [
    (2, 8, lambda: round_robin_design(8)), (3, 9, lambda: affine_design(3, 1)), (3, 15, kirkman15),
    (4, 16, lambda: affine_design(4, 1)), (3, 27, lambda: affine_design(3, 2)), (6, 96, None),
], ids=["rr8", "aff31", "kirkman15", "aff41", "aff32", "k6-v96"])
def test_design_available_is_true_exactly_when_a_generator_builds_the_design(k, v, build):
    """It was hard-coded to k == 2, so (3, 9), (3, 15) and (4, 16) read
    false though affine_design and kirkman15 build them; no generator here
    builds a resolvable (2, 6, 96) system, whose existence is open."""
    assert steiner_params(k, v).design_available is (build is not None)
    if build is not None:
        design = build()
        assert (design.k, design.v) == (k, v) and validate(design).ok


def test_design_available_stops_at_the_field_size_limit():
    """affine_design(2, 19) is GF(2^20), the largest field built; 2^21 is refused."""
    assert steiner_params(4, 4 ** 10).design_available and not steiner_params(4, 4 ** 11).design_available


def _with_numpy_ints(design: SteinerSystem) -> SteinerSystem:
    return SteinerSystem(v=np.int64(design.v), k=np.int64(design.k),
                         blocks=tuple(tuple(np.int64(p) for p in blk) for blk in design.blocks),
                         resolution=tuple(tuple(np.intp(i) for i in cls) for cls in design.resolution))


@pytest.mark.parametrize("design,basis", [(round_robin_design(4), hadamard(4)), (affine_design(3, 1), dft(5))],
                         ids=["rr4", "aff31"])
def test_a_design_of_numpy_integers_writes_the_same_documents(design, basis):
    """numpy integers for v, k, the block points and the resolution indices
    give the bytes of the Python-int design, in its document and in the
    provenance of a frame built on it (the parent raised TypeError)."""
    numpy_design = _with_numpy_ints(design)
    assert validate(numpy_design).ok and type(numpy_design.v) is int and type(numpy_design.k) is int
    assert numpy_design.to_json() == design.to_json()
    simplex = drop_row_simplex(basis)
    assert frame_to_json(steiner_etf(numpy_design, simplex)) == frame_to_json(steiner_etf(design, simplex))


@pytest.mark.parametrize("blocks,resolution", [
    (((0, 1.0), (2, 3)), None), (((0, True), (2, 3)), None), (((0, "1"), (2, 3)), None),
    (((0, 1), (2, 3)), ((0, 1.0),)),
], ids=["float-point", "bool-point", "str-point", "float-index"])
def test_a_design_with_a_point_or_index_that_is_no_integer_is_not_written(blocks, resolution):
    """Refused when the design is built, so no document is ever written."""
    with pytest.raises(DesignFormatError, match="must be an integer"):
        SteinerSystem(v=4, k=2, blocks=blocks, resolution=resolution)


def _rr4_fields(point=None, index=None) -> tuple:
    """Round-robin 4's blocks with point 3 written as point, and its
    resolution with the first index written as index."""
    rr4 = round_robin_design(4)
    blocks = tuple(tuple(point if p == 3 and point is not None else p for p in blk) for blk in rr4.blocks)
    first = rr4.resolution[0]
    return blocks, rr4.resolution if index is None else ((index, *first[1:]), *rr4.resolution[1:])


@pytest.mark.parametrize("fields,message", [
    (_rr4_fields(point=-1), r"block point -1 is out of range \[0, 4\)"),
    (_rr4_fields(point=4), r"block point 4 is out of range \[0, 4\)"),
    (_rr4_fields(point=np.int64(7)), r"block point 7 is out of range \[0, 4\)"),
    (_rr4_fields(point=3.0), "every block point must be an integer"),
    (_rr4_fields(point=True), "every block point must be an integer"),
    (_rr4_fields(index=-1), r"resolution index -1 is out of range \[0, 6\)"),
    (_rr4_fields(index=6), r"resolution index 6 is out of range \[0, 6\)"),
    (_rr4_fields(index=0.0), "every resolution index must be an integer"),
    (((0, 1), 2), "blocks must be a list of lists of integers"),
], ids=["point-minus-1", "point-v", "numpy-point-past-v", "float-point", "bool-point", "index-minus-1",
        "index-b", "float-index", "block-no-list"])
@pytest.mark.parametrize("use", [
    validate, SteinerSystem.to_json,
    lambda design: steiner_etf(design, drop_row_simplex(hadamard(4), 0)),
    lambda design: kirkman_etf(design, drop_row_simplex(hadamard(4), 0), hadamard(2)),
], ids=["validate", "to_json", "steiner_etf", "kirkman_etf"])
def test_a_design_checks_its_points_and_indices_when_it_is_built(fields, message, use):
    """Round-robin 4 with point 3 written as -1 built and certified the rr4
    ETF, a point at or past V or an index at or past B raised IndexError,
    and float points passed validate: each is refused when the design is
    built, whatever it is built for."""
    blocks, resolution = fields
    with pytest.raises(DesignFormatError, match=message):
        use(SteinerSystem(v=4, k=2, blocks=blocks, resolution=resolution))


def test_a_design_stores_python_ints():
    design = SteinerSystem(v=4, k=2, blocks=np.array([[0, 1], [2, 3]], dtype=np.uint8), resolution=[[1, np.int64(0)]])
    assert design.blocks == ((0, 1), (2, 3)) and design.resolution == ((1, 0),)
    assert {type(x) for x in chain(*design.blocks, *design.resolution)} == {int}


def test_the_design_params_report_meets_its_schema():
    schema = json.loads(resources.files("etfkit").joinpath("schemas/report.schema.json").read_text())
    for k, v in ((2, 4), (2, 20), (3, 9), (2, 8), (2, 24), (6, 96), (3, 7)):
        rep = steiner_params(k, v)
        doc = rep.as_dict()
        jsonschema.validate(doc, schema)
        assert doc["report"] == "design-params" and doc["passed"] is rep.constructible
        assert (doc["v"], doc["m"], doc["n"], doc["lambda"]) == (rep.v, rep.m, rep.n, rep.lam)
        if rep.w is not None:  # Lambda integral and the degree a square
            assert doc["lambda"] * (doc["n"] - 1) == doc["m"] * (doc["m"] - 1)
            assert isqrt(doc["degree"]) ** 2 == doc["degree"]

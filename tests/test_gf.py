import numpy as np
import pytest

from etfkit import gf
from etfkit.errors import (
    InvariantViolation,
    NonPrimeCharacteristic,
    NotADivisor,
    NotASubfield,
    SizeLimitExceeded,
)
from etfkit.gf import (
    hyperplane_kernel,
    make_field,
    relative_trace,
    trace,
    trace_one_element,
)


def test_prime_field_construction():
    f = make_field(2, 1)
    assert f.order == 2
    assert f.primitive_index == 1


def test_gf4_modulus_and_primitive():
    # the only monic irreducible quadratic over GF(2) is x^2 + x + 1
    f = make_field(2, 2)
    assert f.modulus == (1, 1, 1)
    omega = f.primitive
    assert omega.index == 2
    # omega^2 = omega + 1
    assert (omega * omega) == omega + f.one


def element_order(x) -> int:
    """Multiplicative order of a nonzero field element, by repeated products."""
    n, y = 1, x
    while y != x.field.one:
        y, n = y * x, n + 1
    return n


def test_gf9_primitive_order():
    f = make_field(3, 2)
    assert f.order == 9
    assert element_order(f.primitive) == 8


def test_make_field_errors():
    with pytest.raises(NonPrimeCharacteristic):
        make_field(4, 1)
    with pytest.raises(NonPrimeCharacteristic):
        make_field(1, 3)
    with pytest.raises(SizeLimitExceeded):
        make_field(2, 21)
    with pytest.raises(SizeLimitExceeded):
        make_field(2, 0)


@pytest.mark.parametrize("patch", [("_is_irreducible", lambda poly, p: False),
                                   ("_prime_factors", lambda n: [1])])
def test_make_field_invariants_raise_an_etfkit_error(monkeypatch, patch):
    # a raise, not an assert, so the guard survives python -O
    monkeypatch.setattr(gf, *patch)
    with pytest.raises(InvariantViolation):
        make_field.__wrapped__(2, 3)


def test_make_field_deterministic():
    a = make_field(5, 2)
    b = make_field(5, 2)
    assert a.modulus == b.modulus and a.primitive_index == b.primitive_index


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (5, 2), (7, 1)])
def test_inverse_all_nonzero(p, k):
    f = make_field(p, k)
    for x in f.elements():
        if x.is_zero():
            continue
        assert x * x.inverse() == f.one


def test_gf4_trace_table():
    # tr(x) = x + x^2 evaluated on all four elements: 0, 0, 1, 1
    f = make_field(2, 2)
    got = [trace(f.element(i)).index for i in range(4)]
    assert got == [0, 0, 1, 1]


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (2, 4)])
def test_trace_of_zero(p, k):
    f = make_field(p, k)
    assert trace(f.zero).is_zero()


def test_trace_composition_gf16():
    # tr to the prime field factors through the middle subfield of GF(16)
    f = make_field(2, 4)
    for x in f.elements():
        mid = trace(x, 2)
        assert relative_trace(mid, 2, 1) == trace(x, 1)


def test_trace_lands_in_subfield():
    for p, k, d in [(2, 4, 2), (2, 6, 3), (3, 2, 1), (2, 6, 2)]:
        f = make_field(p, k)
        q = p ** d
        for x in f.elements():
            t = trace(x, d)
            assert t ** q == t


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_trace_additive(p, k):
    f = make_field(p, k)
    for a in f.elements():
        for b in f.elements():
            assert trace(a + b) == trace(a) + trace(b)


def test_trace_subfield_linear():
    # GF(q)-linearity of the trace onto GF(q), q = 4 inside GF(16)
    f = make_field(2, 4)
    subfield = f.subfield_elements(2)
    for c in subfield:
        for a in f.elements():
            assert trace(c * a, 2) == c * trace(a, 2)


def test_trace_bad_divisor():
    f = make_field(2, 4)
    with pytest.raises(NotADivisor):
        trace(f.one, 3)


def test_hyperplane_gf4():
    f = make_field(2, 2)
    assert [x.index for x in hyperplane_kernel(f, 2)] == [0, 1]


def test_hyperplane_gf9():
    f = make_field(3, 2)
    assert len(hyperplane_kernel(f, 3)) == 3


def test_hyperplane_gf8_closed_under_addition():
    f = make_field(2, 3)
    kern = hyperplane_kernel(f, 2)
    assert len(kern) == 4
    kern_set = {x.index for x in kern}
    for a in kern:
        for b in kern:
            assert (a + b).index in kern_set


@pytest.mark.parametrize("p,k,q", [(2, 2, 2), (2, 4, 4), (2, 4, 2), (3, 2, 3), (2, 6, 4)])
def test_hyperplane_size(p, k, q):
    f = make_field(p, k)
    assert len(hyperplane_kernel(f, q)) * q == f.order


def test_hyperplane_scalar_closed():
    f = make_field(2, 4)
    kern = hyperplane_kernel(f, 4)
    kern_set = {x.index for x in kern}
    for c in f.subfield_elements(2):
        for s in kern:
            assert (c * s).index in kern_set


def test_hyperplane_not_a_subfield():
    f = make_field(2, 4)
    with pytest.raises(NotASubfield):
        hyperplane_kernel(f, 3)
    with pytest.raises(NotASubfield):
        hyperplane_kernel(f, 8)


def test_trace_one_element_gf4():
    f = make_field(2, 2)
    assert trace_one_element(f, 2).index == 2  # omega is the first with tr = 1


def test_trace_one_decomposition_gf4():
    # every v splits uniquely as s + t*delta with s in the kernel, t in GF(2)
    f = make_field(2, 2)
    delta = trace_one_element(f, 2)
    kern = hyperplane_kernel(f, 2)
    sub = f.subfield_elements(1)
    for v in f.elements():
        hits = [(s, t) for s in kern for t in sub if s + t * delta == v]
        assert len(hits) == 1


def test_trace_one_element_gf9():
    f = make_field(3, 2)
    delta = trace_one_element(f, 3)
    assert trace(delta, 1) == f.one


@pytest.mark.parametrize("p,k", [(2, 6), (3, 4), (11, 2)])
def test_primitive_powers_enumerate_nonzero(p, k):
    f = make_field(p, k)
    gamma = f.primitive
    seen = set()
    x = f.one
    for _ in range(f.order - 1):
        seen.add(x.index)
        x = x * gamma
    assert seen == set(range(1, f.order))


def test_canonical_index_round_trip():
    f = make_field(3, 3)
    for i in range(f.order):
        assert f.element(i).index == i


def _poly_mul_mod_p(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return tuple(out)


@pytest.mark.parametrize("p,k", [(2, 3), (2, 4), (3, 3)])
def test_modulus_irreducible_by_brute_force_products(p, k):
    # independent oracle: the modulus never factors as a product of two
    # lower-degree monic polynomials
    modulus = make_field(p, k).modulus
    for d in range(1, k):
        for ia in range(p ** d):
            a = tuple((ia // p ** t) % p for t in range(d)) + (1,)
            e = k - d
            for ib in range(p ** e):
                b = tuple((ib // p ** t) % p for t in range(e)) + (1,)
                assert _poly_mul_mod_p(a, b, p) != modulus


# -- lookup tables against independent polynomial arithmetic ------------------

def _ref_mul(a, b, modulus, p):
    """Schoolbook product of coefficient tuples, reduced by the monic modulus."""
    prod = list(_poly_mul_mod_p(a, b, p))
    k = len(modulus) - 1
    for i in range(len(prod) - 1, k - 1, -1):
        c = prod[i]
        for t in range(k + 1):
            prod[i - k + t] = (prod[i - k + t] - c * modulus[t]) % p
    return tuple(prod[:k]) + (0,) * (k - len(prod[:k]))


def _ref_pow(a, e, modulus, p):
    acc = (1,) + (0,) * (len(modulus) - 2)
    for _ in range(e):
        acc = _ref_mul(acc, a, modulus, p)
    return acc


def _small_fields():
    return [(p, k) for p in range(2, 257) if gf.is_prime(p)
            for k in range(1, 9) if p ** k <= 256]


@pytest.mark.parametrize("p,k", _small_fields())
def test_field_tables_match_element_arithmetic(p, k):
    f = make_field(p, k)
    every = np.arange(f.order)
    elts = [f.element(i) for i in range(f.order)]
    coeffs = [x.coeffs for x in elts]
    assert [tuple(row) for row in f.digits.tolist()] == coeffs

    def index(c):
        return sum(ci * p ** i for i, ci in enumerate(c))

    # antilog walks the powers of the primitive element; log inverts it
    g = f.primitive.coeffs
    walk = [index(_ref_pow(g, e, f.modulus, p)) for e in range(min(f.order - 1, 8))]
    assert f.antilog[:len(walk)].tolist() == walk
    nxt = [index(_ref_mul(coeffs[a], g, f.modulus, p)) for a in f.antilog.tolist()]
    assert nxt == np.roll(f.antilog, -1).tolist()
    assert f.log[0] == -1 and (f.log[f.antilog] == np.arange(f.order - 1)).all()

    # products and sums against a few fixed factors, through both views
    for y in sorted({1, f.order - 1, f.order // 2, f.primitive_index}):
        want = [index(_ref_mul(c, coeffs[y], f.modulus, p)) for c in coeffs]
        assert f.mul_indices(every, y).tolist() == want
        assert [(x * elts[y]).index for x in elts] == want
        assert f.add_indices(every, y).tolist() == [(x + elts[y]).index for x in elts]
        assert f.sub_indices(every, y).tolist() == [(x - elts[y]).index for x in elts]

    # Frobenius and the trace to the prime field
    frob = [_ref_pow(c, p, f.modulus, p) for c in coeffs]
    assert f.pow_indices(every, p).tolist() == [index(c) for c in frob]
    tr = []
    for c in coeffs:
        acc, y = list(c), c
        for _ in range(k - 1):
            y = _ref_pow(y, p, f.modulus, p)
            acc = [(s + t) % p for s, t in zip(acc, y)]
        assert all(t == 0 for t in acc[1:])  # the trace lies in the prime field
        tr.append(acc[0])
    assert f.trace_table.tolist() == tr
    assert [trace(x).index for x in elts] == tr


def test_field_tables_are_read_only_and_lazy():
    f = make_field.__wrapped__(2, 5)  # a fresh field, outside the cache
    assert not set(vars(f)) & {"digits", "antilog", "log", "trace_table"}
    for name in ("digits", "antilog", "log", "trace_table"):
        table = getattr(f, name)
        assert getattr(f, name) is table  # built once, kept with the field
        with pytest.raises(ValueError):
            table[0] = 1


def test_zero_powers():
    f = make_field(3, 2)
    assert f.pow_indices(0, 0) == 1
    assert f.pow_indices(0, 5) == 0
    assert f.zero ** 0 == f.one
    with pytest.raises(ZeroDivisionError):
        f.zero ** -1

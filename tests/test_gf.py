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

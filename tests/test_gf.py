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
from etfkit.flatmat import AbelianGroup
from etfkit.gf import (
    hyperplane_kernel,
    make_field,
    relative_trace_indices,
    trace_one_element,
)

# Every law below is checked on index arrays through the field's tables and
# against the coefficient-tuple reference arithmetic (_coeffs, _ref_add,
# _ref_mul, _ref_pow, _ref_trace), which shares no code with etfkit.gf.


def _coeffs(index: int, p: int, k: int) -> tuple:
    """Base-p digits of an index, low to high: the element's coefficients."""
    return tuple(index // p ** t % p for t in range(k))


def _index(c, p: int) -> int:
    return sum(ci * p ** i for i, ci in enumerate(c))


def _ref_add(a, b, p):
    return tuple((x + y) % p for x, y in zip(a, b))


def _ref_trace(c, f, sub_degree: int):
    """sum of c^(q^i), i = 0 .. k/d - 1, q = p^d, in tuple arithmetic."""
    q = f.p ** sub_degree
    acc = y = c
    for _ in range(f.k // sub_degree - 1):
        y = _ref_pow(y, q, f.modulus, f.p)
        acc = _ref_add(acc, y, f.p)
    return acc


def _ref_field(p, k):
    f = make_field(p, k)
    return f, np.arange(f.order), [_coeffs(i, p, k) for i in range(f.order)]


def test_prime_field_construction():
    f = make_field(2, 1)
    assert f.order == 2
    assert f.primitive_index == 1


def test_gf4_modulus_and_primitive():
    # the only monic irreducible quadratic over GF(2) is x^2 + x + 1
    f = make_field(2, 2)
    assert f.modulus == (1, 1, 1)
    omega = f.primitive_index
    assert omega == 2
    # omega^2 = omega + 1 = x + 1, index 3
    assert f.mul_indices(omega, omega) == f.add_indices(omega, 1) == 3
    assert _index(_ref_mul((0, 1), (0, 1), f.modulus, 2), 2) == 3


def test_gf9_primitive_order():
    f = make_field(3, 2)
    assert f.order == 9
    g = f.primitive_index
    # the reference walk over coefficient tuples first returns to 1 at step 8
    one, x, steps = _coeffs(1, 3, 2), _coeffs(g, 3, 2), 1
    y = x
    while y != one:
        y, steps = _ref_mul(y, x, f.modulus, 3), steps + 1
    assert steps == 8
    assert [int(f.pow_indices(g, e)) == 1 for e in range(1, 9)] == [False] * 7 + [True]


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
    # x^(q-2) is the inverse of every nonzero x
    f, every, coeffs = _ref_field(p, k)
    nonzero = every[1:]
    inv = f.pow_indices(nonzero, f.order - 2)
    assert (f.mul_indices(nonzero, inv) == 1).all()
    for x, y in zip(nonzero.tolist(), inv.tolist()):
        assert _ref_mul(coeffs[x], coeffs[y], f.modulus, p) == coeffs[1]


def test_gf4_trace_table():
    # tr(x) = x + x^2 evaluated on all four elements: 0, 0, 1, 1
    f, every, coeffs = _ref_field(2, 2)
    assert f.trace_table.tolist() == [0, 0, 1, 1]
    assert relative_trace_indices(f, every, 2, 1).tolist() == [0, 0, 1, 1]
    assert [_index(_ref_trace(c, f, 1), 2) for c in coeffs] == [0, 0, 1, 1]


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2), (2, 4)])
def test_trace_of_zero(p, k):
    f = make_field(p, k)
    assert f.trace_table[0] == 0
    for d in range(1, k + 1):
        if k % d == 0:
            assert relative_trace_indices(f, 0, k, d) == 0


def test_trace_composition_gf16():
    # tr to the prime field factors through the middle subfield of GF(16)
    f, every, coeffs = _ref_field(2, 4)
    mid = relative_trace_indices(f, every, 4, 2)
    assert mid.tolist() == [_index(_ref_trace(c, f, 2), 2) for c in coeffs]
    assert relative_trace_indices(f, mid, 2, 1).tolist() == f.trace_table.tolist()
    assert f.trace_table.tolist() == [_index(_ref_trace(c, f, 1), 2) for c in coeffs]


def test_trace_lands_in_subfield():
    for p, k, d in [(2, 4, 2), (2, 6, 3), (3, 2, 1), (2, 6, 2)]:
        f, every, coeffs = _ref_field(p, k)
        q = p ** d
        t = relative_trace_indices(f, every, k, d)
        assert (f.pow_indices(t, q) == t).all()
        assert np.isin(t, f.subfield_indices(d)).all()
        for ti in set(t.tolist()):  # fixed by the q-power Frobenius
            assert _ref_pow(coeffs[ti], q, f.modulus, p) == coeffs[ti]


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_trace_additive(p, k):
    f, every, coeffs = _ref_field(p, k)
    sums = f.add_indices(every[:, None], every[None, :])
    assert sums.tolist() == [[_index(_ref_add(a, b, p), p) for b in coeffs] for a in coeffs]
    tr = f.trace_table
    # traces lie in the prime field, whose index is the residue mod p
    assert (tr[sums] == (tr[:, None] + tr[None, :]) % p).all()


def test_trace_subfield_linear():
    # GF(q)-linearity of the trace onto GF(q), q = 4 inside GF(16)
    f, every, coeffs = _ref_field(2, 4)
    tr = relative_trace_indices(f, every, 4, 2)
    subfield = f.subfield_indices(2)
    assert subfield.tolist() == [i for i, c in enumerate(coeffs) if _ref_pow(c, 4, f.modulus, 2) == c]
    for c in subfield.tolist():
        want = [_index(_ref_mul(coeffs[c], coeffs[t], f.modulus, 2), 2) for t in tr.tolist()]
        assert tr[f.mul_indices(c, every)].tolist() == want


def test_trace_bad_divisor():
    f = make_field(2, 4)
    with pytest.raises(NotADivisor):
        relative_trace_indices(f, 1, 4, 3)
    with pytest.raises(NotADivisor):
        relative_trace_indices(f, 1, 3, 1)


def test_hyperplane_gf4():
    f = make_field(2, 2)
    assert hyperplane_kernel(f, 2).tolist() == [0, 1]


def test_hyperplane_gf9():
    f = make_field(3, 2)
    assert len(hyperplane_kernel(f, 3)) == 3


def test_hyperplane_gf8_closed_under_addition():
    f, _, coeffs = _ref_field(2, 3)
    kern = hyperplane_kernel(f, 2)
    assert len(kern) == 4
    assert np.isin(f.add_indices(kern[:, None], kern[None, :]), kern).all()
    kern_set = set(kern.tolist())
    for a in kern.tolist():
        for b in kern.tolist():
            assert _index(_ref_add(coeffs[a], coeffs[b], 2), 2) in kern_set


@pytest.mark.parametrize("p,k,q", [(2, 2, 2), (2, 4, 4), (2, 4, 2), (3, 2, 3), (2, 6, 4)])
def test_hyperplane_size(p, k, q):
    f, _, coeffs = _ref_field(p, k)
    kern = hyperplane_kernel(f, q)
    assert len(kern) * q == f.order
    d = next(d for d in range(1, k + 1) if p ** d == q)
    assert all(not any(_ref_trace(coeffs[s], f, d)) for s in kern.tolist())


def test_hyperplane_scalar_closed():
    f, _, coeffs = _ref_field(2, 4)
    kern = hyperplane_kernel(f, 4)
    kern_set = set(kern.tolist())
    for c in f.subfield_indices(2).tolist():
        assert np.isin(f.mul_indices(c, kern), kern).all()
        for s in kern.tolist():
            assert _index(_ref_mul(coeffs[c], coeffs[s], f.modulus, 2), 2) in kern_set


def test_hyperplane_not_a_subfield():
    f = make_field(2, 4)
    with pytest.raises(NotASubfield):
        hyperplane_kernel(f, 3)
    with pytest.raises(NotASubfield):
        hyperplane_kernel(f, 8)


def test_trace_one_element_gf4():
    f = make_field(2, 2)
    assert trace_one_element(f, 2) == 2  # omega is the first with tr = 1


def test_trace_one_decomposition_gf4():
    # every v splits uniquely as s + t*delta with s in the kernel, t in GF(q)
    for p, k, q, d in [(2, 2, 2, 1), (2, 4, 4, 2), (3, 2, 3, 1)]:
        f, _, coeffs = _ref_field(p, k)
        delta = trace_one_element(f, q)
        kern, sub = hyperplane_kernel(f, q), f.subfield_indices(d)
        split = f.add_indices(kern[:, None], f.mul_indices(sub, delta)[None, :])
        assert sorted(split.ravel().tolist()) == list(range(f.order))
        ref = [_index(_ref_add(coeffs[s], _ref_mul(coeffs[t], coeffs[delta], f.modulus, p), p), p)
               for s in kern.tolist() for t in sub.tolist()]
        assert ref == split.ravel().tolist()


def test_trace_one_element_gf9():
    f, _, coeffs = _ref_field(3, 2)
    delta = trace_one_element(f, 3)
    assert isinstance(delta, int)
    assert f.trace_table[delta] == 1
    assert _ref_trace(coeffs[delta], f, 1) == coeffs[1]


@pytest.mark.parametrize("p,k", [(2, 6), (3, 4), (11, 2)])
def test_primitive_powers_enumerate_nonzero(p, k):
    f, _, coeffs = _ref_field(p, k)
    gamma = coeffs[f.primitive_index]
    walk, x = [], coeffs[1]
    for _ in range(f.order - 1):
        walk.append(_index(x, p))
        x = _ref_mul(x, gamma, f.modulus, p)
    assert sorted(walk) == list(range(1, f.order))
    assert f.antilog.tolist() == walk
    assert [int(f.pow_indices(f.primitive_index, e)) for e in range(f.order - 1)] == walk


def _monomial_sums(f, coeffs) -> list:
    """Each element as the field sum of its monomials c_t x^t, of index c_t p^t."""
    monomials = np.array(coeffs) * f.p ** np.arange(f.k)
    acc = monomials[:, 0]
    for t in range(1, f.k):
        acc = f.add_indices(acc, monomials[:, t])
    return acc.tolist()


def test_canonical_index_round_trip():
    f, every, coeffs = _ref_field(3, 3)
    assert _monomial_sums(f, coeffs) == every.tolist()
    assert f.add_indices(every, 0).tolist() == every.tolist()
    assert [_index(c, 3) for c in coeffs] == every.tolist()


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
    f, every, coeffs = _ref_field(p, k)
    assert _monomial_sums(f, coeffs) == every.tolist()  # the index encodes the coefficients

    def index(c):
        return _index(c, p)

    # antilog walks the powers of the primitive element; log inverts it
    g = coeffs[f.primitive_index]
    walk = [index(_ref_pow(g, e, f.modulus, p)) for e in range(min(f.order - 1, 8))]
    assert f.antilog[:len(walk)].tolist() == walk
    nxt = [index(_ref_mul(coeffs[a], g, f.modulus, p)) for a in f.antilog.tolist()]
    assert nxt == np.roll(f.antilog, -1).tolist()
    assert f.log[0] == -1 and (f.log[f.antilog] == np.arange(f.order - 1)).all()

    # products and sums against a few fixed factors
    for y in sorted({1, f.order - 1, f.order // 2, f.primitive_index}):
        want = [index(_ref_mul(c, coeffs[y], f.modulus, p)) for c in coeffs]
        assert f.mul_indices(every, y).tolist() == want
        assert f.add_indices(every, y).tolist() == [index(_ref_add(c, coeffs[y], p)) for c in coeffs]
        neg_y = tuple(-t % p for t in coeffs[y])
        assert f.sub_indices(every, y).tolist() == [index(_ref_add(c, neg_y, p)) for c in coeffs]

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
    assert relative_trace_indices(f, every, k, 1).tolist() == tr


def test_field_tables_are_read_only_and_lazy():
    f = make_field.__wrapped__(2, 5)  # a fresh field, outside the cache
    assert not set(vars(f)) & {"antilog", "log", "trace_table"}
    assert not hasattr(f, "digits")  # addition takes carries on the indices: no digit table
    for name in ("antilog", "log", "trace_table"):
        table = getattr(f, name)
        assert getattr(f, name) is table  # built once, kept with the field
        with pytest.raises(ValueError):
            table[0] = 1


def test_field_addition_and_group_subtraction_are_one_index_function(monkeypatch):
    calls, real = [], gf._digitwise_indices
    monkeypatch.setattr(gf, "_digitwise_indices",
                        lambda *args, **kw: calls.append(kw.get("subtract", False)) or real(*args, **kw))
    f, every = make_field(3, 2), np.arange(9)
    f.add_indices(every, 4)
    f.sub_indices(every, 4)
    AbelianGroup((3, 3)).sub_array(every, 4)
    assert calls == [False, True, True]


@pytest.mark.parametrize("k", [16, 20])
def test_binary_field_addition_is_xor_of_indices(k):
    """In GF(2^k) both a + b and a - b are the XOR of the indices: carries
    and borrows on every one of k digits, in int32 up to the largest field."""
    f = make_field(2, k)
    a, b = np.random.default_rng(k).integers(0, f.order, (2, 4096))
    assert np.array_equal(f.add_indices(a, b), a ^ b) and np.array_equal(f.sub_indices(a, b), a ^ b)


def test_zero_powers():
    f = make_field(3, 2)
    assert f.pow_indices(0, 0) == 1
    assert f.pow_indices(0, 5) == 0
    every = np.arange(f.order)
    assert f.pow_indices(every, 0).tolist() == [1] * f.order  # 0^0 = 1 with the rest
    assert f.mul_indices(0, every).tolist() == [0] * f.order
    assert f.log[0] == -1  # zero has no logarithm, so no inverse

"""Finite fields GF(p^k) in polynomial-basis representation.

An element is its canonical integer index, sum(coeffs[i] * p^i) of its
coefficient vector over Z_p (coeffs[i] is the coefficient of x^i, reduced
modulo a monic irreducible polynomial of degree k).  Enumerating indices
0 .. p^k-1 is the canonical element order used throughout the package
wherever designs or frames need a stable point ordering.

The modulus is the first monic irreducible polynomial of degree k in canonical
order, and the primitive element is the first field element that generates the
multiplicative group, so construction is fully deterministic: repeated calls
to make_field agree, across runs and machines.

All arithmetic runs on integer index arrays.  Addition and subtraction take
the carries and borrows of the base-p digits on the indices themselves
(_digitwise_indices, shared with AbelianGroup.sub_array), with no digit
table.  The rest uses per-field tables (log and antilog over the primitive
element, trace to the prime field), built on first use and kept, and
make_field is memoised, so each field pays for them once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import prod

import numpy as np

from .errors import (
    InvariantViolation,
    NonPrimeCharacteristic,
    NotADivisor,
    NotASubfield,
    SizeLimitExceeded,
)

SIZE_LIMIT = 2 ** 20  # fields above this are out of scope (keeps exhaustive checks cheap)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with n == p**e and p prime, or None."""
    if n < 2:
        return None
    for p in range(2, n + 1):
        if p * p > n:
            return (n, 1)  # n itself is prime
        if n % p:
            continue
        e = 0
        m = n
        while m % p == 0:
            m //= p
            e += 1
        return (p, e) if m == 1 else None
    return None


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# -- polynomial arithmetic over Z_p (tuples, low-to-high, not trimmed) -------

def _poly_trim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _poly_mod(a, b, p):
    """Remainder of a modulo the monic polynomial b (leading 1 last), over Z_p:
    every caller passes the modulus or a candidate factor, both monic."""
    a = list(a)
    db = len(b) - 1
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c == 0:
            continue
        for j_, bj in enumerate(b):
            a[i - db + j_] = (a[i - db + j_] - c * bj) % p
    return tuple(c % p for c in a[:db])


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j_, bj in enumerate(b):
            out[i + j_] = (out[i + j_] + ai * bj) % p
    return tuple(out)


def _poly_mulmod(a, b, modulus, p):
    return _poly_mod(_poly_mul(a, b, p), modulus, p)


def _poly_pow(a, e: int, modulus, p: int):
    """a^e modulo modulus over Z_p, by square and multiply."""
    acc, base = (1,), a
    while e:
        if e & 1:
            acc = _poly_mulmod(acc, base, modulus, p)
        base = _poly_mulmod(base, base, modulus, p)
        e >>= 1
    return acc


def _index_digits(index: int, p: int, k: int) -> tuple[int, ...]:
    """Base-p digits of a canonical index, least significant first."""
    coeffs = []
    for _ in range(k):
        coeffs.append(index % p)
        index //= p
    return tuple(coeffs)


def _monic_polys(degree: int, p: int):
    """All monic polynomials of the given degree, in canonical index order."""
    for idx in range(p ** degree):
        yield _index_digits(idx, p, degree) + (1,)


def _is_irreducible(poly, p: int) -> bool:
    """Trial division against every monic polynomial of degree <= deg/2."""
    deg = len(poly) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for g in _monic_polys(d, p):
            if not any(_poly_mod(poly, g, p)):
                return False
    return True


@dataclass(frozen=True)
class FiniteField:
    """GF(p^k) with a deterministic modulus and primitive element.

    modulus is a monic irreducible polynomial of degree k, stored low-to-high
    (length k+1); primitive_index is the canonical index of the first element
    of multiplicative order p^k - 1.
    """

    p: int
    k: int
    modulus: tuple[int, ...]
    primitive_index: int

    @property
    def order(self) -> int:
        return self.p ** self.k

    def subfield_indices(self, sub_degree: int) -> np.ndarray:
        """Indices of the subfield GF(p^sub_degree): fixed points of x -> x^(p^d)."""
        if self.k % sub_degree:
            raise NotADivisor(f"sub_degree {sub_degree} does not divide {self.k}")
        every = np.arange(self.order)
        return np.flatnonzero(self.pow_indices(every, self.p ** sub_degree) == every)

    # -- lookup tables, built on first use --------------------------------

    @cached_property
    def _place(self) -> np.ndarray:
        return self.p ** np.arange(self.k, dtype=np.int64)

    @cached_property
    def antilog(self) -> np.ndarray:
        """antilog[e] is the index of g^e, e = 0 .. order-2, for the primitive g.

        Built by doubling: with the digit rows of g^0 .. g^(m-1) in hand, the
        next m rows are those times g^m, one Z_p-linear map (the k x k matrix
        of multiplication by g^m) applied to all rows at once."""
        p, k, n1 = self.p, self.k, self.order - 1
        x_powers = [(0,) * l + (1,) for l in range(k)]

        def mul_matrix(coeffs) -> np.ndarray:
            cols = [_poly_mulmod(coeffs, xl, self.modulus, p) for xl in x_powers]
            return np.array(cols, dtype=np.int64).T

        rows = np.eye(1, k, dtype=np.int64)
        step = mul_matrix(_index_digits(self.primitive_index, p, k))
        while len(rows) < n1:
            rows = np.concatenate([rows, rows @ step.T % p])
            step = step @ step % p
        return _read_only(rows[:n1] @ self._place)

    @cached_property
    def log(self) -> np.ndarray:
        """log[i] = e with g^e = element i; log[0] = -1 (zero has no logarithm)."""
        n1 = self.order - 1
        table = np.full(self.order, -1, dtype=np.int64)
        table[self.antilog] = np.arange(n1)
        if table[0] != -1 or (table[1:] < 0).any():  # g generates the nonzero elements
            raise InvariantViolation(f"primitive element of GF({self.order}) repeats a power")
        return _read_only(table)

    @cached_property
    def trace_table(self) -> np.ndarray:
        """Trace of every element to the prime field, as an integer in 0 .. p-1."""
        return _read_only(relative_trace_indices(self, np.arange(self.order), self.k, 1))

    # -- arithmetic on index arrays (numpy broadcasting) -------------------

    def add_indices(self, a, b) -> np.ndarray:
        return _digitwise_indices(a, b, (self.p,) * self.k, self._place.tolist())

    def sub_indices(self, a, b) -> np.ndarray:
        return _digitwise_indices(a, b, (self.p,) * self.k, self._place.tolist(), subtract=True)

    def mul_indices(self, a, b) -> np.ndarray:
        a, b = np.asarray(a), np.asarray(b)
        prod = self.antilog[(self.log[a] + self.log[b]) % (self.order - 1)]
        return np.where((a == 0) | (b == 0), 0, prod)

    def pow_indices(self, a, e: int) -> np.ndarray:
        """a^e elementwise for one integer exponent e >= 0 (0^0 = 1)."""
        a = np.asarray(a)
        n1 = self.order - 1
        return np.where(a == 0, int(e == 0), self.antilog[self.log[a] * (e % n1) % n1])


def _digitwise_indices(a, b, factors, places, subtract: bool = False) -> np.ndarray:
    """Indices of a + b, or a - b, for indices a and b of Z_f1 x ... x Z_ft
    with place values P_k, broadcast: idx(a + b) = (a + b) - sum_k f_k P_k
    [a_k + b_k >= f_k] by carries, idx(a - b) = (a - b) + sum_k f_k P_k
    [a_k < b_k] by borrows, once a and b are reduced mod the order in int64.
    One index sum, then one in-place term per factor above 1, with no digit
    table or vectors; in int32 below order 2^30, since every partial sum
    lies in (-order, 2 order), else int64."""
    order = prod(factors)
    work = np.int32 if order < 2 ** 30 else np.int64
    a, b = (np.asarray(np.asarray(x, dtype=np.int64) % order, dtype=work) for x in (a, b))
    out = np.asarray(a - b if subtract else a + b)  # an array even for two single elements, so terms add in place
    for f, place in zip(factors, places):
        if f > 1:
            if subtract:
                out += (a // place % f < b // place % f) * work(f * place)
            else:
                out -= (a // place % f + b // place % f >= f) * work(f * place)
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def make_field(p: int, k: int) -> FiniteField:
    """Construct GF(p^k) deterministically.

    The modulus is the first monic irreducible degree-k polynomial in canonical
    order and the primitive element is the first generator in canonical element
    order, so repeated calls (and independent runs) agree.
    """
    if not is_prime(p):
        raise NonPrimeCharacteristic(f"{p} is not prime")
    if k < 1:
        raise SizeLimitExceeded(f"extension degree must be >= 1, got {k}")
    if p ** k > SIZE_LIMIT:
        raise SizeLimitExceeded(f"p^k = {p ** k} exceeds the size guard {SIZE_LIMIT}")

    modulus = None
    for cand in _monic_polys(k, p):
        if _is_irreducible(cand, p):
            modulus = cand
            break
    if modulus is None:  # an irreducible polynomial of every degree exists
        raise InvariantViolation(f"no monic irreducible polynomial of degree {k} over GF({p})")

    group_order = p ** k - 1
    factors = _prime_factors(group_order) if group_order > 1 else []
    prim = None
    for i in range(1, p ** k):
        x = _index_digits(i, p, k)
        if all(_poly_trim(_poly_pow(x, group_order // f, modulus, p)) != (1,) for f in factors):
            prim = i
            break
    if prim is None:  # the multiplicative group of a finite field is cyclic
        raise InvariantViolation(f"no primitive element in GF({p}^{k})")
    return FiniteField(p=p, k=k, modulus=modulus, primitive_index=prim)


def relative_trace_indices(field: FiniteField, indices, upper_degree: int,
                           lower_degree: int) -> np.ndarray:
    """Trace from the degree-upper subfield onto the degree-lower subfield of
    every index: the sum of x^(q^i), i = 0 .. upper/lower - 1, with
    q = p^lower.  Only meaningful for elements of the degree-upper subfield;
    the caller is responsible for that."""
    if upper_degree % lower_degree or field.k % upper_degree:
        raise NotADivisor(
            f"subfield degrees {lower_degree} | {upper_degree} | {field.k} do not form a divisor chain")
    q = field.p ** lower_degree
    acc = y = np.asarray(indices)
    for _ in range(upper_degree // lower_degree - 1):
        y = field.pow_indices(y, q)
        acc = field.add_indices(acc, y)
    return acc


def _subfield_degree(field: FiniteField, q: int) -> int:
    pp = prime_power(q)
    if pp is None or pp[0] != field.p:
        raise NotASubfield(f"{q} is not a power of the characteristic {field.p}")
    d = pp[1]
    if field.k % d:
        raise NotASubfield(f"GF({q}) is not a subfield of GF({field.order})")
    return d


def _traces_onto(field: FiniteField, q: int) -> np.ndarray:
    """Trace onto GF(q) of every element, indexed by canonical element index."""
    d = _subfield_degree(field, q)
    if d == 1:
        return field.trace_table
    return relative_trace_indices(field, np.arange(field.order), field.k, d)


def hyperplane_kernel(field: FiniteField, q: int) -> np.ndarray:
    """Indices of the trace-zero hyperplane {v : tr(v) = 0} of GF(q^(j+1))
    over GF(q), in canonical order: exactly q^j of them, closed under
    addition and under multiplication by GF(q) scalars."""
    return np.flatnonzero(_traces_onto(field, q) == 0)


def trace_one_element(field: FiniteField, q: int) -> int:
    """Index of the first element delta in canonical order with tr(delta) = 1
    over GF(q).

    Every field element then decomposes uniquely as s + t*delta with s in the
    trace-zero hyperplane and t in GF(q).  A nonzero linear functional attains
    1, so the search always succeeds.
    """
    return int(np.flatnonzero(_traces_onto(field, q) == 1)[0])

"""Unimodular matrices: DFT and Hadamard bases, drop-row simplices, character
tables of finite abelian groups.

Hadamard construction is deliberately limited to Sylvester doubling and the
quadratic-character (Paley I) construction composed via Kronecker products;
orders outside that closure raise UnsupportedHadamardOrder.  Matrices whose
entries are exactly +-1 carry an integer sign view alongside the complex one
so downstream code arithmetic can stay exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from . import gf
from .errors import IndexOutOfRange, RowOutOfRange, UnsupportedHadamardOrder

ENTRY_TOL = 1e-12
ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class UnimodularMatrix:
    """Matrix of unit-modulus entries; kind tags the invariant family.

    Orthogonal kinds (dft, hadamard, character-table) have pairwise-orthogonal
    columns of squared norm rows; the simplex kind is (n-1) x n with distinct
    columns at inner-product modulus exactly 1.  signs is the exact +-1 view,
    present whenever every entry is exactly real +-1.
    """

    entries: np.ndarray
    kind: str
    signs: np.ndarray | None = None

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def check(self) -> None:
        a = self.entries
        if np.abs(np.abs(a) - 1.0).max() > ENTRY_TOL:
            raise AssertionError(f"{self.kind} matrix has a non-unimodular entry")
        g = a.conj().T @ a
        n = self.rows
        if self.kind == "simplex":
            if self.cols != self.rows + 1:
                raise AssertionError("simplex must be (n-1) x n")
            off = np.abs(g[~np.eye(self.cols, dtype=bool)])
            if np.abs(off - 1.0).max() > ORTHO_TOL:
                raise AssertionError("simplex columns must meet at inner-product modulus 1")
        else:
            if np.abs(g - n * np.eye(self.cols)).max() > ORTHO_TOL:
                raise AssertionError(f"{self.kind} columns are not orthogonal with norm^2 = rows")
        if self.signs is not None and np.abs(a - self.signs).max() > 0:
            raise AssertionError("sign view disagrees with entries")


def _with_signs(entries_int: np.ndarray, kind: str) -> UnimodularMatrix:
    m = UnimodularMatrix(entries=entries_int.astype(np.complex128), kind=kind,
                         signs=entries_int.astype(np.int64))
    m.check()
    return m


def dft(n: int) -> UnimodularMatrix:
    """n x n matrix with entry (a,b) = exp(2*pi*i*a*b/n)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a = np.arange(n)
    m = UnimodularMatrix(entries=np.exp(2j * np.pi * np.outer(a, a) / n), kind="dft")
    m.check()
    return m


def _quadratic_character_row(q: int) -> np.ndarray:
    """chi over GF(q) in canonical element order: +1 on nonzero squares, -1
    on non-squares, 0 at zero."""
    p, d = gf.prime_power(q)
    fld = gf.make_field(p, d)
    squares = {(x * x).index for x in fld.elements() if not x.is_zero()}
    return np.array([0] + [1 if i in squares else -1 for i in range(1, q)], dtype=np.int64)


def _paley_signs(n: int) -> np.ndarray:
    """Paley-I Hadamard matrix of order n = q + 1, q a prime power = 3 mod 4."""
    q = n - 1
    p, d = gf.prime_power(q)
    fld = gf.make_field(p, d)
    chi = _quadratic_character_row(q)
    elts = list(fld.elements())
    jac = np.empty((q, q), dtype=np.int64)
    for i in range(q):
        for j in range(q):
            jac[i, j] = chi[(elts[i] - elts[j]).index]
    h = np.empty((n, n), dtype=np.int64)
    h[0, :] = 1
    h[1:, 0] = -1
    h[1:, 1:] = jac + np.eye(q, dtype=np.int64)
    return h


@lru_cache(maxsize=None)
def _hadamard_signs(n: int) -> tuple | None:
    """Sign matrix (as nested tuples, for hashability) or None if unreachable."""
    if n == 1:
        return ((1,),)
    if n == 2:
        return ((1, 1), (1, -1))
    if n % 4:
        return None
    if n % 2 == 0 and _hadamard_signs(n // 2) is not None:
        half = np.array(_hadamard_signs(n // 2), dtype=np.int64)
        return tuple(map(tuple, np.kron(np.array([[1, 1], [1, -1]]), half)))
    pp = gf.prime_power(n - 1)
    if pp is not None and (n - 1) % 4 == 3:
        return tuple(map(tuple, _paley_signs(n)))
    for d in range(4, n // 3):
        if n % d == 0 and _hadamard_signs(d) is not None and _hadamard_signs(n // d) is not None:
            a = np.array(_hadamard_signs(d), dtype=np.int64)
            b = np.array(_hadamard_signs(n // d), dtype=np.int64)
            return tuple(map(tuple, np.kron(a, b)))
    return None


def hadamard_order_reachable(n: int) -> bool:
    if n < 1 or (n not in (1, 2) and n % 4):
        return False
    return _hadamard_signs(n) is not None


def hadamard(n: int) -> UnimodularMatrix:
    """+-1 matrix with H^T H = n I exactly, built by Sylvester doubling and
    Paley I composed with Kronecker products."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    signs = _hadamard_signs(n) if (n in (1, 2) or n % 4 == 0) else None
    if signs is None:
        raise UnsupportedHadamardOrder(f"no Hadamard matrix of order {n} in the implemented closure")
    arr = np.array(signs, dtype=np.int64)
    if not np.array_equal(arr.T @ arr, n * np.eye(n, dtype=np.int64)):
        raise AssertionError("constructed matrix fails the exact Hadamard identity")
    return _with_signs(arr, "hadamard")


def drop_row_simplex(basis: UnimodularMatrix, row: int = 0) -> UnimodularMatrix:
    """Remove one row of an orthogonal unimodular basis, leaving the
    (n-1) x n unimodular regular simplex."""
    if basis.rows != basis.cols:
        raise ValueError("simplex construction needs a square orthogonal basis")
    basis.check()
    if not 0 <= row < basis.rows:
        raise RowOutOfRange(f"row {row} out of range for a {basis.rows}-row basis")
    keep = [i for i in range(basis.rows) if i != row]
    signs = None if basis.signs is None else basis.signs[keep, :]
    m = UnimodularMatrix(entries=basis.entries[keep, :], kind="simplex", signs=signs)
    m.check()
    return m


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product of cyclic groups Z_n1 x ... x Z_nt.

    Elements are enumerated lexicographically by digit vectors (first factor
    most significant), matching itertools.product order; element 0 is the
    identity.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        if not self.factors or any(f < 1 for f in self.factors):
            raise ValueError("factors must be a nonempty list of positive cyclic orders")

    @property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.factors, 1)

    @property
    def exponent_two(self) -> bool:
        return all(f in (1, 2) for f in self.factors)

    def digits(self, index: int) -> tuple[int, ...]:
        out = []
        for f in reversed(self.factors):
            out.append(index % f)
            index //= f
        return tuple(reversed(out))

    def index(self, digits) -> int:
        idx = 0
        for f, d in zip(self.factors, digits):
            idx = idx * f + (d % f)
        return idx

    def add(self, a: int, b: int) -> int:
        da, db = self.digits(a), self.digits(b)
        return self.index(tuple((x + y) % f for x, y, f in zip(da, db, self.factors)))

    def neg(self, a: int) -> int:
        return self.index(tuple((-x) % f for x, f in zip(self.digits(a), self.factors)))

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    @staticmethod
    def parse(spec: str) -> "AbelianGroup":
        """Parse '2x2x4' style factor lists."""
        try:
            factors = tuple(int(tok) for tok in spec.lower().split("x"))
        except ValueError as e:
            raise ValueError(f"bad group spec {spec!r}: expected orders like '2x2' or '4'") from e
        return AbelianGroup(factors)


def character_table(g: AbelianGroup) -> UnimodularMatrix:
    """|G| x |G| table with entry (u, r) = chi_u(g_r); the Kronecker product of
    the factors' DFT matrices under the lexicographic element order."""
    table = reduce(np.kron, (dft(f).entries for f in g.factors))
    signs = None
    if g.exponent_two:  # every character is +-1: the rounded real parts are the signs
        signs = np.rint(table.real).astype(np.int64)
        table = signs.astype(np.complex128)
    m = UnimodularMatrix(entries=table, kind="character-table", signs=signs)
    m.check()
    return m


def simplex_from_characters(g: AbelianGroup, dropped: int) -> UnimodularMatrix:
    """Delete one group-element column of the character table; the transposed
    view f_u(r) = chi_u(g_r) over the remaining R elements is an R x (R+1)
    unimodular regular simplex."""
    n = g.order
    if not 0 <= dropped < n:
        raise IndexOutOfRange(f"element index {dropped} out of range for a group of order {n}")
    table = character_table(g)
    keep = [r for r in range(n) if r != dropped]
    entries = table.entries[:, keep].T.copy()
    signs = None if table.signs is None else table.signs[:, keep].T.copy()
    m = UnimodularMatrix(entries=entries, kind="simplex", signs=signs)
    m.check()
    return m

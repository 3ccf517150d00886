"""Unimodular matrices: DFT and Hadamard bases, drop-row simplices, character
tables of finite abelian groups.

Hadamard construction is deliberately limited to Sylvester doubling and the
quadratic-character (Paley I) construction composed via Kronecker products;
orders outside that closure raise UnsupportedHadamardOrder.  A
UnimodularMatrix stores one array, its read-only entries, and is checked once,
when it is built; its integer sign view, which keeps downstream arithmetic
exact, is derived from entries whenever every entry is exactly real +-1.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce

import numpy as np

from . import gf
from .errors import IndexOutOfRange, InvariantViolation, NotUnimodular, RowOutOfRange, UnsupportedHadamardOrder

ENTRY_TOL = 1e-12
ORTHO_TOL = 1e-9


@dataclass(frozen=True)
class UnimodularMatrix:
    """Matrix of unit-modulus entries; kind tags the invariant family.

    Orthogonal kinds (dft, hadamard, character-table) have pairwise-orthogonal
    columns of squared norm rows; the simplex kind is (n-1) x n with distinct
    columns at inner-product modulus exactly 1.  entries becomes a read-only
    view of the array passed in (no copy) and is checked at construction.
    signs is the exact +-1 integer view, derived from entries: present
    exactly when every entry is real +-1.
    """

    entries: np.ndarray
    kind: str
    signs: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        entries = np.asarray(self.entries).view()
        entries.flags.writeable = False
        signs = None
        if np.all((entries == 1) | (entries == -1)):
            signs = entries.real.astype(np.int64)
            signs.flags.writeable = False
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "signs", signs)
        self.check()

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def check(self) -> None:
        """Raise NotUnimodular unless the entries meet the kind's invariants;
        NaN entries fail."""
        a = self.entries
        if a.ndim != 2 or not np.issubdtype(a.dtype, np.number):
            raise NotUnimodular(f"{self.kind} matrix must be a 2-d numeric array, got {a.dtype} {a.shape}")
        if not _deviation(np.abs(a) - 1.0) <= ENTRY_TOL:
            raise NotUnimodular(f"{self.kind} matrix has a non-unimodular entry")
        g = a.conj().T @ a
        if self.kind == "simplex":
            if self.cols != self.rows + 1:
                raise NotUnimodular(f"simplex must be (n-1) x n, got {a.shape}")
            off = np.abs(g[~np.eye(self.cols, dtype=bool)])
            if not _deviation(off - 1.0) <= ORTHO_TOL:
                raise NotUnimodular("simplex columns must meet at inner-product modulus 1")
        else:
            g[np.diag_indices(self.cols)] -= self.rows  # g - n I, without an N x N identity
            if not _deviation(g) <= ORTHO_TOL:
                raise NotUnimodular(f"{self.kind} columns are not orthogonal with norm^2 = rows")


def _deviation(a: np.ndarray) -> float:
    """Largest modulus in a, 0 for an empty array and NaN if any entry is."""
    return float(np.abs(a).max(initial=0.0))


def dft(n: int) -> UnimodularMatrix:
    """n x n matrix with entry (a,b) = exp(2*pi*i*a*b/n)."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a = np.arange(n)
    return UnimodularMatrix(entries=np.exp(2j * np.pi * np.outer(a, a) / n), kind="dft")


def _paley_signs(n: int) -> np.ndarray:
    """Paley-I Hadamard matrix of order n = q + 1, q a prime power = 3 mod 4."""
    q = n - 1
    p, d = gf.prime_power(q)
    fld = gf.make_field(p, d)
    # the quadratic character chi in canonical element order: +1 on nonzero
    # squares, -1 on non-squares, 0 at zero
    nonzero = np.arange(1, q)
    chi = np.full(q, -1, dtype=np.int64)
    chi[0] = 0
    chi[fld.mul_indices(nonzero, nonzero)] = 1
    elts = np.arange(q)
    jac = chi[fld.sub_indices(elts[:, None], elts[None, :])]
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
        raise InvariantViolation(f"constructed matrix of order {n} fails the exact Hadamard identity")
    return UnimodularMatrix(entries=arr.astype(np.complex128), kind="hadamard")


def drop_row_simplex(basis: UnimodularMatrix, row: int = 0) -> UnimodularMatrix:
    """Remove one row of an orthogonal unimodular basis, leaving the
    (n-1) x n unimodular regular simplex."""
    if basis.rows != basis.cols:
        raise ValueError("simplex construction needs a square orthogonal basis")
    if not 0 <= row < basis.rows:
        raise RowOutOfRange(f"row {row} out of range for a {basis.rows}-row basis")
    keep = [i for i in range(basis.rows) if i != row]
    return UnimodularMatrix(entries=basis.entries[keep, :], kind="simplex")


@dataclass(frozen=True)
class AbelianGroup:
    """Direct product of cyclic groups Z_n1 x ... x Z_nt.

    Elements are enumerated lexicographically by digit vectors (first factor
    most significant), matching itertools.product order; element 0 is the
    identity.  An element is its index; the *_array methods work on integer
    arrays of element indices (digit vectors along a trailing axis) with
    numpy broadcasting.
    """

    factors: tuple[int, ...]

    def __post_init__(self):
        try:
            factors = tuple(operator.index(f) for f in self.factors)
        except TypeError:
            factors = ()
        if not factors or any(f < 1 for f in factors):
            raise ValueError("factors must be a nonempty list of positive cyclic orders")
        object.__setattr__(self, "factors", factors)

    @property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.factors, 1)

    @property
    def exponent_two(self) -> bool:
        return all(f in (1, 2) for f in self.factors)

    @cached_property
    def _radix(self) -> np.ndarray:
        return np.array(self.factors, dtype=np.int64)

    @cached_property
    def _place(self) -> np.ndarray:
        """Mixed-radix place value of each digit: the product of the factors after it."""
        return np.cumprod((self.factors[1:] + (1,))[::-1])[::-1].astype(np.int64)

    def digit_array(self, indices) -> np.ndarray:
        """Digit vectors of element indices, on a new trailing axis."""
        return np.asarray(indices, dtype=np.int64)[..., None] // self._place % self._radix

    def index_array(self, digits) -> np.ndarray:
        """Element indices of digit vectors along the last axis, each digit
        reduced modulo its factor."""
        return np.asarray(digits, dtype=np.int64) % self._radix @ self._place

    def add_array(self, a, b) -> np.ndarray:
        return self.index_array(self.digit_array(a) + self.digit_array(b))

    def sub_array(self, a, b) -> np.ndarray:
        return self.index_array(self.digit_array(a) - self.digit_array(b))

    def neg_array(self, a) -> np.ndarray:
        return self.index_array(-self.digit_array(a))

    @staticmethod
    def parse(spec: str) -> "AbelianGroup":
        """Parse '2x2x4' style factor lists."""
        try:
            factors = tuple(int(tok) for tok in spec.lower().split("x"))
        except ValueError as e:
            raise ValueError(f"bad group spec {spec!r}: expected orders like '2x2' or '4'") from e
        return AbelianGroup(factors)


@lru_cache(maxsize=2)
def character_table(g: AbelianGroup) -> UnimodularMatrix:
    """|G| x |G| table with entry (u, r) = chi_u(g_r); the Kronecker product of
    the factors' DFT matrices under the lexicographic element order.

    Each table is checked in full when it is built.  The two most recently
    requested tables are kept and handed out again; like every
    UnimodularMatrix, their arrays are read-only."""
    table = reduce(np.kron, (dft(f).entries for f in g.factors))
    if g.exponent_two:  # every character is +-1: round off the DFT's phase error
        table = np.rint(table.real).astype(np.complex128)
    return UnimodularMatrix(entries=table, kind="character-table")


def simplex_from_characters(g: AbelianGroup, dropped: int) -> UnimodularMatrix:
    """Delete one group-element column of the character table; the transposed
    view f_u(r) = chi_u(g_r) over the remaining R elements is an R x (R+1)
    unimodular regular simplex."""
    n = g.order
    if not 0 <= dropped < n:
        raise IndexOutOfRange(f"element index {dropped} out of range for a group of order {n}")
    table = character_table(g)
    keep = [r for r in range(n) if r != dropped]
    return UnimodularMatrix(entries=table.entries[:, keep].T.copy(), kind="simplex")

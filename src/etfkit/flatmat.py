"""Unimodular matrices: DFT and Hadamard bases, drop-row simplices, character
tables of finite abelian groups.

Hadamard construction is deliberately limited to Sylvester doubling and the
quadratic-character (Paley I) construction composed via Kronecker products;
orders outside that closure raise UnsupportedHadamardOrder.  A
UnimodularMatrix stores one array, its read-only entries, and is checked once,
when it is built; its integer sign view, which keeps downstream arithmetic
exact, is derived from entries whenever every entry is exactly real +-1.
A character table is checked through the DFT factors of its Kronecker
product rather than through its own N x N Gram.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import cached_property, lru_cache, reduce
from math import prod

import numpy as np

from . import gf
from .errors import IndexOutOfRange, InvariantViolation, NotUnimodular, RowOutOfRange, UnsupportedHadamardOrder

ENTRY_TOL = 1e-12
ORTHO_TOL = 1e-9
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_KRON_BLOCK = 1 << 18  # entries per column block of the Kronecker-factor check


@dataclass(frozen=True, eq=False)
class UnimodularMatrix:
    """Matrix of unit-modulus entries; kind tags the invariant family.

    Orthogonal kinds (dft, hadamard, character-table) have pairwise-orthogonal
    columns of squared norm rows; the simplex kind is (n-1) x n with distinct
    columns at inner-product modulus exactly 1.  entries becomes a read-only
    view of the array passed in (no copy) and is checked at construction.
    signs is the exact +-1 integer view, derived from entries: present
    exactly when every entry is real +-1.

    kron_factors, when given, are square orthogonal UnimodularMatrix objects
    F_1, ..., F_t whose Kronecker product the entries claim to be; the check
    then requires entries to match that product as well as to be orthogonal
    (see character_table).  Equality and hashing are over kind, shape, dtype
    and entry bytes.
    """

    entries: np.ndarray
    kind: str
    kron_factors: tuple[UnimodularMatrix, ...] = field(default=(), repr=False)
    signs: np.ndarray | None = field(init=False, repr=False)

    def __post_init__(self):
        entries = np.asarray(self.entries).view()
        entries.flags.writeable = False
        signs = None
        if np.all((entries == 1) | (entries == -1)):
            signs = entries.real.astype(np.int64)
            signs.flags.writeable = False
        try:
            factors = tuple(self.kron_factors)
        except TypeError:
            raise NotUnimodular(f"{self.kind} Kronecker factors must be a sequence of matrices") from None
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "kron_factors", factors)
        object.__setattr__(self, "signs", signs)
        self.check()

    def _key(self) -> tuple:
        return (self.kind, self.entries.shape, self.entries.dtype.str, self.entries.tobytes())

    def __eq__(self, other):
        if not isinstance(other, UnimodularMatrix):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

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
        if self.kron_factors:
            residual = _kron_residual(self)
            if not residual <= ORTHO_TOL:
                raise NotUnimodular(f"{self.kind} matrix is not the Kronecker product of its factors")
            if _kron_gram_bound(self, residual) <= ORTHO_TOL:
                return
            # the rounding allowance of a large factor is too wide to certify
            # orthogonality from the residual: the dense Gram decides
        _check_gram(self)


def _check_gram(m: UnimodularMatrix) -> None:
    """The dense O(N^3) test of m's kind invariant on its Gram m^H m."""
    a = m.entries
    g = a.conj().T @ a
    if m.kind == "simplex":
        if m.cols != m.rows + 1:
            raise NotUnimodular(f"simplex must be (n-1) x n, got {a.shape}")
        off = np.abs(g[~np.eye(m.cols, dtype=bool)])
        if not _deviation(off - 1.0) <= ORTHO_TOL:
            raise NotUnimodular("simplex columns must meet at inner-product modulus 1")
    else:
        g[np.diag_indices(m.cols)] -= m.rows  # g - n I, without an N x N identity
        if not _deviation(g) <= ORTHO_TOL:
            raise NotUnimodular(f"{m.kind} columns are not orthogonal with norm^2 = rows")


def _deviation(a: np.ndarray) -> float:
    """Largest modulus in a, 0 for an empty array and NaN if any entry is."""
    return float(np.abs(a).max(initial=0.0))


def _inner_product_error(n: int) -> float:
    """Relative rounding bound of a complex inner product of length n:
    twice gamma_{n+2} = (n+2)u / (1 - (n+2)u), u the unit roundoff."""
    return 2 * (n + 2) * _UNIT_ROUNDOFF / (1 - (n + 2) * _UNIT_ROUNDOFF)


def _kron_residual(m: UnimodularMatrix) -> float:
    """max |(F_1 x ... x F_t)^H T - N I| for T = m.entries, computed a block of
    columns at a time: each F_k^H is applied along its own axis of the
    reshaped block by one batched matmul, O(N^2 sum f_k) work in all.
    Raises NotUnimodular unless T is N x N and the factors are square,
    orthogonal and of orders multiplying to N."""
    a, factors = m.entries, m.kron_factors
    n = a.shape[0]
    if not all(isinstance(f, UnimodularMatrix) and f.kind != "simplex" and f.rows == f.cols
               for f in factors):
        raise NotUnimodular(f"{m.kind} Kronecker factors must be square orthogonal unimodular matrices")
    orders = [f.rows for f in factors]
    if a.shape != (n, n) or prod(orders) != n:
        raise NotUnimodular(f"{m.kind} matrix of shape {a.shape} is not a product "
                            f"of factors of orders {orders}")
    adjoints = [np.ascontiguousarray(f.entries.conj().T) for f in factors]
    step = max(1, _KRON_BLOCK // n)
    devs = []
    for lo in range(0, n, step):
        width = min(step, n - lo)
        y = np.ascontiguousarray(a[:, lo:lo + width])
        for k, adj in enumerate(adjoints):
            y = np.matmul(adj, y.reshape(prod(orders[:k]), orders[k], -1))
        y = y.reshape(n, width)
        y[lo + np.arange(width), np.arange(width)] -= n
        devs.append(_deviation(y))
    return _deviation(np.array(devs))


def _kron_gram_bound(m: UnimodularMatrix, residual: float) -> float:
    """Bound on max |T^H T - N I| in exact arithmetic from the computed
    residual of _kron_residual; derived in character_table's docstring."""
    n = m.rows
    eps = residual + 1.01 * n * sum(_inner_product_error(f.rows) for f in m.kron_factors)
    sigma = 1.0
    for f in m.kron_factors:
        g = f.entries.conj().T @ f.entries
        g[np.diag_indices(f.rows)] -= f.rows
        r = _deviation(g) + 1.01 * f.rows * _inner_product_error(f.rows)
        if not r < 1:
            return np.inf
        sigma *= 1 + r / f.rows / (1 - r)
    sigma -= 1
    return 2 * eps + eps ** 2 + n * (1 + eps) ** 2 * sigma


def dft(n: int) -> UnimodularMatrix:
    """n x n matrix with entry (a,b) = exp(2*pi*i*a*b/n)."""
    return UnimodularMatrix(entries=_dft_entries(n), kind="dft")


def _dft_entries(n: int) -> np.ndarray:
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    a = np.arange(n)
    return np.exp(2j * np.pi * np.outer(a, a) / n)


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

    def sub_array(self, a, b) -> np.ndarray:
        return self.index_array(self.digit_array(a) - self.digit_array(b))

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

    Each table of a group with two or more cyclic factors is checked when it
    is built, through its checked DFT factors F_k of orders f_k: with
    K = F_1 x ... x F_t and N = |G|, the check computes the residual
    max |K^H T - N I| in O(N^2 sum f_k) work, instead of the O(N^3) Gram
    T^H T.  Since K / sqrt(N) is unitary up to rounding,
    a small residual holds only when T is K entry for entry, so a table with
    two columns swapped fails although its Gram is N I.

    The rounding allowance.  Let u be the unit roundoff and c_f = 2 gamma_{f+2}
    the relative error bound of a complex inner product of length f.
      - Each stage applies one F_k^H to entries bounded by the product of the
        earlier orders (all entries have modulus 1 + ENTRY_TOL at most), and
        later stages multiply an error by at most their orders, so the
        computed residual is within eta = 1.01 N sum_k c_{f_k} of the exact
        max |E|, E = K^H T - N I.  Let eps = residual + eta.
      - Each factor's Gram is F_k^H F_k = f_k (I + D_k) with max |D_k| at most
        s_k = r_k / f_k, r_k its computed max |F_k^H F_k - f_k I| plus
        1.01 f_k c_{f_k}; the operator norm of D_k is at most r_k < 1, so
        max |(I + D_k)^-1 - I| <= s_k / (1 - r_k) =: s'_k, and every entry of
        N (K^H K)^-1 - I, a Kronecker product of the (I + D_k)^-1, is within
        sigma = prod_k (1 + s'_k) - 1 of I.
      - K is then invertible and T = K^-H (N I + E), so
        T^H T = (N I + E)^H (K^H K)^-1 (N I + E).  With W = N (K^H K)^-1 - I,
        T^H T - N I = E + E^H + E^H E / N + (N I + E)^H W (N I + E) / N,
        and entry by entry |E_ij| + |E_ji| <= 2 eps, |(E^H E)_ij| <= N eps^2,
        and the last term is at most sigma ||(N I + E) e_i||_1
        ||(N I + E) e_j||_1 / N <= N (1 + eps)^2 sigma.
    So max |T^H T - N I| <= 2 eps + eps^2 + N (1 + eps)^2 sigma in exact
    arithmetic; when this bound is within ORTHO_TOL, the table meets the
    invariant the dense Gram test checks, to the same tolerance.  The check
    rejects a residual above ORTHO_TOL; a residual under it whose bound
    exceeds ORTHO_TOL (only a factor of order in the thousands has so wide
    an allowance) is settled by the dense Gram test, as is the table of a
    cyclic group, which is its one DFT and is checked once, with no factor.

    The two most recently requested tables are kept and handed out again;
    like every UnimodularMatrix, their arrays are read-only."""
    if len(g.factors) == 1:
        # the table is the group's one DFT, built here and checked once by
        # the dense Gram test: a checked dft() factor would be the same O(N^3)
        # product over the same bytes
        factors, table = (), _dft_entries(g.order)
    else:
        factors = tuple(dft(f) for f in g.factors)
        table = reduce(np.kron, (f.entries for f in factors))
    if g.exponent_two:  # every character is +-1: round off the DFT's phase error
        table = np.rint(table.real).astype(np.complex128)
    return UnimodularMatrix(entries=table, kind="character-table", kron_factors=factors)


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

"""Unimodular matrices: DFT and Hadamard bases, drop-row simplices, character
tables of finite abelian groups.

Hadamard construction is deliberately limited to Sylvester doubling and the
quadratic-character (Paley I) construction composed via Kronecker products;
orders outside that closure raise UnsupportedHadamardOrder.  A
UnimodularMatrix stores one form and is checked once, when it is built:
every builder hands in the exact exponents it proved the matrix on, Hadamard
signs as exponents mod 2, and entries from outside the package are copied
and get the dense test of their Gram.  Its entries are derived from the
exponents on first read, gathered from one table of roots of unity,
_unit_roots, the one place the package evaluates them, and its signs as
1 - 2e (_signs).  Character
phase exponents, the DFT's among them, are computed by one helper,
_character_phases, each row the sum of two halves, n_hi and n_lo wide, for
G split at one factor boundary with n_hi n_lo = N, reduced mod the group
exponent L.  The halves' generator exponents are checked once per factors
tuple, in O(t (n_hi + n_lo)) integers for a group of t cyclic factors, and
kept read-only (_character_halves).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import accumulate
from math import isqrt, lcm

import numpy as np

from . import gf
from .errors import (BadDimensions, BasisShapeMismatch, IndexOutOfRange, InvariantViolation, NotUnimodular,
                     RowOutOfRange, UnsupportedHadamardOrder, _integers, _is_integer)

ENTRY_TOL = 1e-12
ORTHO_TOL = 1e-9
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2
_TABLE_BLOCK = 1 << 16  # phase exponents per row block of _character_phases and _root_values


@dataclass(frozen=True, eq=False, init=False, repr=False)
class UnimodularMatrix:
    """Matrix of unit-modulus entries; kind tags the invariant family.

    Orthogonal kinds (dft, hadamard, character-table) have pairwise-orthogonal
    columns of squared norm rows; the simplex kind is (n-1) x n with distinct
    columns at inner-product modulus exactly 1.  Equality is over kind, shape,
    dtype and entry bytes (read off exponents of one L), hashing over kind and shape.

    One form is stored, _exponents = (phases, L) with entries zeta_L^phases
    (+-1 signs: L = 2), handed in as _phases by a builder that proved them,
    with no entries beside them (NotUnimodular).  Entries from outside the
    package are copied and, unless _checked by the caller, get the dense
    O(N^3) test of their Gram; all real +-1, they are kept as exponents
    mod 2, else as the read-only copy, with _exponents None.  entries
    (complex128 when derived, by _root_values) and signs (the exact int64
    view, present exactly when L <= 2, by _signs) are derived on first read
    and kept read-only, and the attributes are frozen.
    """

    def __init__(self, entries: np.ndarray | None, kind: str, _phases: tuple[np.ndarray, int] | None = None,
                 _checked: bool = False):
        if _phases is not None and entries is not None:
            raise NotUnimodular(f"a {kind} matrix is built from its entries or its _phases, not both")
        vars(self).update(kind=kind, _exponents=_phases)  # frozen: set only here, through vars, or by a cached_property
        if _phases is None:
            vars(self)["entries"] = gf._read_only(np.array(entries))  # a copy: the caller's cannot change it
            if not _checked:
                self.check()
            if (signs := _sign_exponents(self.entries)) is not None:  # 2-d, checked: a +-1 matrix
                vars(self)["_exponents"] = (signs, 2)
                del vars(self)["entries"]  # derived again from the exponents
        if self._exponents is not None:
            self._exponents[0].flags.writeable = False

    @cached_property
    def entries(self) -> np.ndarray:
        """zeta_L^phases, gathered from _unit_roots(L)."""
        phases, big_l = self._exponents
        return gf._read_only(_root_values(phases, _unit_roots(big_l)))

    @cached_property
    def signs(self) -> np.ndarray | None:
        """The exact int64 view, +-1 derived by _signs, when L <= 2."""
        if self._exponents is None or self._exponents[1] > 2:
            return None
        return gf._read_only(_signs(self._exponents[0], np.int64))

    def __eq__(self, other):
        if not isinstance(other, UnimodularMatrix):
            return NotImplemented
        if (self.kind, self._stored.shape) != (other.kind, other._stored.shape):
            return False
        if self._exponents and other._exponents and self._exponents[1] == other._exponents[1]:  # one table
            return np.array_equal(self._exponents[0], other._exponents[0])
        return (self.entries.dtype.str, self.entries.tobytes()) == (other.entries.dtype.str, other.entries.tobytes())

    def __hash__(self):
        return hash((self.kind, self._stored.shape))

    @property
    def rows(self) -> int:
        return self._stored.shape[0]

    @property
    def cols(self) -> int:
        return self._stored.shape[1]

    @property
    def _stored(self) -> np.ndarray:
        return self.entries if self._exponents is None else self._exponents[0]

    def check(self) -> None:
        """Raise NotUnimodular unless the entries meet the kind's invariants;
        NaN entries fail."""
        a = self.entries
        if a.ndim != 2 or not np.issubdtype(a.dtype, np.number):
            raise NotUnimodular(f"{self.kind} matrix must be a 2-d numeric array, got {a.dtype} {a.shape}")
        if not _deviation(np.abs(a) - 1.0) <= ENTRY_TOL:
            raise NotUnimodular(f"{self.kind} matrix has a non-unimodular entry")
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


def _unit_roots(n: int) -> np.ndarray:
    """The n-th roots of unity exp(2 pi i k / n), k = 0..n-1: the one table
    of roots the package evaluates, from which the DFT, every character
    table and every frame stored as phases are gathered (_root_values).
    The quarter roots 1, i, -1, -i that n admits are exact, so for n <= 2
    the table holds exactly 1 and -1; every other root is within 24 u of
    exact, u the unit roundoff.  The phase 2 pi k / n, below 2 pi, takes
    three roundings (pi, the product by k, the quotient by n), so it is
    within 3 u 2 pi (1 + 3 u) of exact, and so is its exponential; cos and
    sin, each within an ulp of a value below 1, add at most sqrt(2) u:
    19 u + 1.5 u < 24 u."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    for k, root in enumerate((1, 1j, -1, 0 - 1j)):  # the literal -1j has real part -0.0
        if k * n % 4 == 0:
            roots[k * n // 4] = root
    return roots


def dft(n: int) -> UnimodularMatrix:
    """n x n matrix with entry (a,b) = exp(2*pi*i*a*b/n): the character table
    of Z_n, stored as the exponents a*b mod n and gathered from
    _unit_roots(n), so its +-1, +-i entries are exact and dft(2) has the
    signs of hadamard(2).
    Z_n has no factor boundary to split at, so its leading half is trivial
    (n_hi = 1) and its trailing half holds the n exponents b at the
    generator; they are checked once per n, in O(n) integers, and kept (see
    character_table).  n must be an integer (errors._integers)."""
    n, = _integers(n=n)
    if n < 1:
        raise BadDimensions(f"need n >= 1, got {n}")
    return _character_matrix(AbelianGroup((n,)), np.arange(n), "dft")


def _sign_exponents(values: np.ndarray) -> np.ndarray | None:
    """Read-only uint8 exponents mod 2 of +-1 entries, else None: how outside data is read as signs."""
    return gf._read_only((values < 0).view(np.uint8)) if np.all((values == 1) | (values == -1)) else None


def _signs(exponents: np.ndarray, dtype=np.int8) -> np.ndarray:
    """(-1)^exponents for exponents below 2, as 1 - 2 e in dtype: the one
    derivation of +-1 from exponents mod 2, by arithmetic, since a gather
    from the root table takes 10x as long."""
    signs = exponents.astype(dtype)
    signs *= -2
    signs += 1
    return signs


def _paley_exponents(n: int) -> np.ndarray:
    """Paley-I Hadamard matrix of order n = q + 1, q a prime power = 3 mod 4, as
    exponents mod 2: 1 in column 0 below row 0, and where a - b is a non-square."""
    q = n - 1
    fld = gf.make_field(*gf.prime_power(q))
    nonsquare = np.ones(q, dtype=np.uint8)  # in canonical element order, 0 at zero
    nonzero = np.arange(1, q)
    nonsquare[0] = nonsquare[fld.mul_indices(nonzero, nonzero)] = 0
    elts = np.arange(q)
    exponents = np.zeros((n, n), dtype=np.uint8)
    exponents[1:, 0] = 1
    exponents[1:, 1:] = nonsquare[fld.sub_indices(elts[:, None], elts[None, :])]
    return exponents


@lru_cache(maxsize=None)
def _hadamard_plan(n: int) -> int | None:
    """How the implemented closure reaches order n, with no matrix formed:
    None when it does not, n for a leaf (orders 1 and 2, or Paley I with
    q = n - 1 a prime power = 3 mod 4), else the d < n of the Kronecker
    product H_d (x) H_(n/d), d = 2 being Sylvester doubling, else the least
    divisor d in [4, n/3) with both factors reachable.  Each order's plan is
    kept, a few ints where its matrix is n x n, and the divisors are found
    by trial division up to sqrt(n)."""
    if n in (1, 2):
        return n
    if n < 1 or n % 4:
        return None
    if _hadamard_plan(n // 2) is not None:
        return 2
    if gf.prime_power(n - 1) is not None and (n - 1) % 4 == 3:
        return n
    low = [d for d in range(4, isqrt(n) + 1) if n % d == 0]
    return next((d for d in low + [n // d for d in reversed(low) if d * d < n]
                 if _hadamard_plan(d) is not None and _hadamard_plan(n // d) is not None), None)


@lru_cache(maxsize=None)
def _hadamard_signs(n: int) -> np.ndarray | None:
    """Read-only uint8 exponents mod 2 of the sign matrix of order n, built as
    _hadamard_plan says, or None if unreachable."""
    d = _hadamard_plan(n)
    if d is None:
        return None
    if d < n:  # Kronecker: XOR, written once into the n x n result
        m = n // d
        exponents = np.empty((d, m, d, m), dtype=np.uint8)
        np.bitwise_xor(_hadamard_signs(d)[:, None, :, None], _hadamard_signs(m)[None, :, None, :], out=exponents)
        exponents = exponents.reshape(n, n)
    elif n > 2:
        exponents = _paley_exponents(n)
    else:  # H_1 = (1) and H_2 = [[1, 1], [1, -1]]
        exponents = np.array([[0, 0], [0, 1]] if n == 2 else [[0]], dtype=np.uint8)
    return gf._read_only(exponents)


def hadamard_order_reachable(n: int) -> bool:
    """Whether hadamard(n) builds, read off the plan alone."""
    return _hadamard_plan(n) is not None


def _has_hadamard_identity(exponents: np.ndarray) -> bool:
    """True when every exponent is 0 or 1 and H = (-1)^exponents has H^T H =
    n I, exactly: every partial sum of H^T H is an integer of magnitude at
    most n, so the float32 BLAS product is exact for n < 2^24, far beyond
    any n x n matrix that fits in memory."""
    if not np.all((exponents == 0) | (exponents == 1)):
        return False
    f = _signs(exponents, np.float32)
    gram = f.T @ f
    gram[np.diag_indices(len(f))] -= len(f)  # H^T H - n I, without an n x n identity
    return not gram.any()


def hadamard(n: int) -> UnimodularMatrix:
    """+-1 matrix with H^T H = n I, built by Sylvester doubling and Paley I
    composed with Kronecker products as exponents mod 2, checked exactly on
    them, and stored as those cached read-only exponents.  n must be an
    integer (errors._integers)."""
    n, = _integers(n=n)
    if n < 1:
        raise BadDimensions(f"need n >= 1, got {n}")
    exponents = _hadamard_signs(n)
    if exponents is None:
        raise UnsupportedHadamardOrder(f"no Hadamard matrix of order {n} in the implemented closure")
    if not _has_hadamard_identity(exponents):
        raise InvariantViolation(f"constructed matrix of order {n} fails the exact Hadamard identity")
    return UnimodularMatrix(None, "hadamard", _phases=(exponents, 2))


def drop_row_simplex(basis: UnimodularMatrix, row: int = 0) -> UnimodularMatrix:
    """Remove row r of an orthogonal unimodular basis B, leaving the (n-1) x n
    unimodular regular simplex, with no test: off the diagonal, columns a, b
    meet at G[a, b] - conj(B[r, a]) B[r, b], with |G[a, b]| <= ORTHO_TOL as
    checked when B was built (0 for exponents), so at modulus 1 within
    ORTHO_TOL + 2 ENTRY_TOL.  The kept rows of B's one stored form are handed in.
    row must be an integer (errors._integers)."""
    row, = _integers(row=row)
    if basis.rows != basis.cols:
        raise BasisShapeMismatch("simplex construction needs a square orthogonal basis")
    if not 0 <= row < basis.rows:
        raise RowOutOfRange(f"row {row} out of range for a {basis.rows}-row basis")
    if basis._exponents is None:
        return UnimodularMatrix(np.delete(basis.entries, row, axis=0), "simplex", _checked=True)
    phases, big_l = basis._exponents
    return UnimodularMatrix(None, "simplex", _phases=(np.delete(phases, row, axis=0), big_l))


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
            factors = tuple(self.factors)
        except TypeError:
            factors = ()
        if not factors or not all(_is_integer(f) and f >= 1 for f in factors):
            raise BadDimensions("factors must be a nonempty list of positive cyclic orders")
        object.__setattr__(self, "factors", tuple(map(int, factors)))

    @property
    def order(self) -> int:
        return reduce(lambda a, b: a * b, self.factors, 1)

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
        """Indices of a - b for element indices a and b, broadcast, by index
        borrows, with no digit vectors formed (gf._digitwise_indices)."""
        return gf._digitwise_indices(a, b, self.factors, self._place.tolist(), subtract=True)

    @staticmethod
    def parse(spec: str) -> "AbelianGroup":
        """Parse '2x2x4' style factor lists."""
        try:
            factors = tuple(int(tok) for tok in spec.lower().split("x"))
        except ValueError as e:
            raise BadDimensions(f"bad group spec {spec!r}: expected orders like '2x2' or '4'") from e
        return AbelianGroup(factors)


def character_table(g: AbelianGroup) -> UnimodularMatrix:
    """|G| x |G| table with entry (u, r) = chi_u(g_r), stored as its exact
    phase exponents (_character_phases) over every element of G.

    For G = Z_f1 x ... x Z_ft with exponent L = lcm(f_k), the character u
    takes the generator e_k to zeta_L^(u_k L / f_k), zeta_L = exp(2 pi i / L),
    so chi_u(g_r) = zeta_L^(sum_k u_k r_k L / f_k mod L), gathered from the
    table of the L-th roots (_unit_roots) when first read.  When G has
    exponent two, L is at most 2 and the values are the exact integers 1 and
    -1, so the table has a sign view.

    Each phase row is the sum of two halves (_character_phases): G splits
    after its first s factors into a leading part of order n_hi and a
    trailing part of order n_lo, n_hi n_lo = N, and column u = u_hi n_lo +
    u_lo is the character u_hi n_lo plus the character u_lo.  The check is
    on the exact generator exponents of the two halves, once per factors
    tuple, in O(t (n_hi + n_lo)) integers (_check_half_exponents, from
    _character_halves, which keeps them): every exponent lies in [0, L) and
    is a multiple of L / f_k, so each half row is a homomorphism
    G -> <zeta_L>, a character; the leading half is zero at the trailing
    generators and the trailing half at the leading ones, so a sum of a
    leading and a trailing row has each generator exponent from one of
    them, and is the character with those exponents; and each half's rows
    are distinct, so the n_hi n_lo = N sums are N distinct characters, each
    of the N characters of G once.  Then the exact table T* has
    T*^H T* = N I, since sum_r chi_u(g_r) conj(chi_v(g_r)) sums a character
    that is trivial only when u = v.  No float Gram is formed: each computed
    entry is a tabulated root within 24 u of the exact one (u the unit
    roundoff, the bound _unit_roots derives), so T = T* + E with
    max |E| <= 24 u, and every entry of T^H T - N I = E^H T* + T*^H E + E^H E
    is at most N (48 u + (24 u)^2), below ORTHO_TOL for every N under 10^5,
    far beyond any table that fits in memory.

    Each call builds a new table, read-only like every UnimodularMatrix;
    only the checked halves are memoised."""
    return _character_matrix(g, np.arange(g.order), "character-table")


def _character_matrix(g: AbelianGroup, elements, kind: str) -> UnimodularMatrix:
    """The proven matrix of the characters at the listed elements, stored as
    its phases (_character_phases)."""
    return UnimodularMatrix(None, kind, _phases=_character_phases(g, elements))


def _phase_dtype(big_l: int) -> np.dtype:
    """The smallest unsigned integer type that holds every exponent mod L."""
    return np.min_scalar_type(big_l - 1)


def _character_phases(g: AbelianGroup, elements) -> tuple[np.ndarray, int]:
    """(phases, L): the len(elements) x |G| exponents
    sum_k e_k u_k L / f_k mod L of every character u of G at each listed
    element e, so that chi_u(e) = zeta_L^phase (see character_table), in
    _phase_dtype(L), computed a block of rows at a time: the one place the
    package computes character phases.  The phase is symmetric in e and u,
    so row i is also the character chi_{elements[i]} at every element u.

    Column u = u_hi n_lo + u_lo splits at the factor boundary of
    _character_halves: the digits of u_hi n_lo and of u_lo sit on disjoint
    factors, so the phase at u is the phase at u_hi n_lo plus the phase at
    u_lo, mod L.  Each block of B rows forms only the two narrow halves,
    B x n_hi and B x n_lo: one float64 product of the element digits with
    the checked generator exponents, exact since each entry is an integer of
    at most sum_k (f_k - 1)^2 L / f_k, far under 2^53, then reduced mod L in
    int32 when that bound is below 2^31, else in int64.  Each row is then
    the broadcast sum of its halves, reduced as min(s, s - L) in the
    narrowest unsigned type that holds 2L - 2, since below L the difference
    wraps above the sum; that type is _phase_dtype(L), and the sum is
    written straight into the phases, unless L is in (128, 256] or
    (32768, 65536].  No product or division spans the N columns, except
    when one half is trivial, as for a single cyclic factor."""
    n, big_l = g.order, lcm(*g.factors)
    n_hi, halves = _character_halves(g.factors)
    rows = g.digit_array(elements).astype(np.float64)
    phases = np.empty((len(rows), n), dtype=_phase_dtype(big_l))
    work = _phase_dtype(2 * big_l - 1)  # holds every sum of two exponents below L, up to 2L - 2
    exact = np.int32 if sum((f - 1) ** 2 * (big_l // f) for f in g.factors) < 2 ** 31 else np.int64
    step = max(1, _TABLE_BLOCK // n)
    for lo in range(0, len(rows), step):
        part = np.dot(rows[lo:lo + step], halves.T).astype(exact)
        part -= part // big_l * big_l
        part = part.astype(work)
        block = phases[lo:lo + step]
        out = block.reshape(len(block), n_hi, -1) if work == phases.dtype else None
        sums = np.add(part[:, :n_hi, None], part[:, None, n_hi:], out=out)
        np.minimum(sums, sums - big_l, out=sums)
        if out is None:
            block[...] = sums.reshape(len(block), n)
    return phases, big_l


@lru_cache(maxsize=None)
def _character_halves(factors: tuple[int, ...]) -> tuple[int, np.ndarray]:
    """(n_hi, halves) for G = Z_f1 x ... x Z_ft split after its first s
    factors, of order n_hi, and before the other t - s, of order n_lo, with
    the s that makes max(n_hi, n_lo) least.  halves is the read-only float64
    (n_hi + n_lo) x t array of the exponents at each generator e_k of the
    characters a n_lo, a < n_hi, then b, b < n_lo, checked
    (_check_half_exponents) once per factors tuple and kept: O(t (n_hi +
    n_lo)) numbers, never an N x N array, and N-long only for t = 1."""
    g = AbelianGroup(factors)
    heads = list(accumulate(factors, operator.mul, initial=1))  # heads[s]: the order of the first s factors
    split = min(range(len(factors) + 1), key=lambda s: max(heads[s], g.order // heads[s]))
    n_hi = heads[split]
    step = lcm(*factors) // g._radix
    hi = g.digit_array(np.arange(n_hi) * (g.order // n_hi)) * step
    lo = g.digit_array(np.arange(g.order // n_hi)) * step
    _check_half_exponents(g, split, hi, lo)
    return n_hi, gf._read_only(np.concatenate((hi, lo)).astype(np.float64))


def _root_values(phases: np.ndarray, table: np.ndarray) -> np.ndarray:
    """table[phases] for an M x N array of exponents already reduced mod L
    and a table of L values: _unit_roots(L), so the values are
    zeta_L^phases, or that table divided by a frame's sqrt(scale_sq).  The
    one gather of roots at phases, a block of rows at a time: numpy's take
    casts its indices to intp, so only a block of them is cast at once.
    Every index is below L, so mode "clip" changes none, and it writes into
    out directly, where the default mode would buffer it."""
    values = np.empty(phases.shape, dtype=table.dtype)
    step = max(1, _TABLE_BLOCK // max(phases.shape[1], 1))
    for lo in range(0, len(phases), step):
        table.take(phases[lo:lo + step], mode="clip", out=values[lo:lo + step])
    return values


def _check_half_exponents(g: AbelianGroup, split: int, hi: np.ndarray, lo: np.ndarray) -> None:
    """Raise NotUnimodular unless the n_hi x t and n_lo x t generator
    exponents hi and lo of G split after its first split factors sum to
    every character of G once: each exponent of e_k in [0, L) and a multiple
    of L / f_k, so every row is a character; hi zero at the trailing
    generators and lo at the leading ones, so each sum of a row of hi and a
    row of lo takes each exponent from one of them and is the character
    with those exponents; the rows of each half distinct, so distinct pairs
    give distinct sums; and n_hi n_lo = N, so the sums are all N characters
    of G (see character_table)."""
    big_l = lcm(*g.factors)
    step = big_l // g._radix
    for half in (hi, lo):
        if not (np.all((half >= 0) & (half < big_l)) and np.all(half % step == 0)):
            raise NotUnimodular("character-table generator exponents are not characters of the group")
    if hi[:, split:].any() or lo[:, :split].any():
        raise NotUnimodular("character-table halves share a generator")
    labels = [np.sort(g.index_array(half // step)) for half in (hi, lo)]  # not np.unique: its first call maps 1.7 MB
    if len(hi) * len(lo) != g.order or any((keys[1:] == keys[:-1]).any() for keys in labels):
        raise NotUnimodular("character-table rows repeat a character of the group")


def _character_labels(phases: np.ndarray, order: int, group: AbelianGroup) -> np.ndarray | None:
    """The element labels r of the rows when every row of the M x N phases
    mod order is, exactly, the character chi_r of G = Z_f1 x ... x Z_ft with
    exponent order, column u the element u of G, and no two rows are the
    same character; None otherwise.  Exact, with no allowance: a row's
    label is read at the generators, whose exponents are r_k L / f_k
    (L = order) if it is chi_r; the row must then equal the phases of chi_r
    (_character_phases), and the labels must be distinct.  The rows of the
    exact frame zeta_L^phases / sqrt(M) are then orthogonal, each of squared
    norm N / M."""
    m, n = phases.shape
    if m == 0 or group.order != n or lcm(*group.factors) != order:
        return None
    # generator e_k's column is its place value (a leading factor of 1 has
    # place N: the identity, column 0); index_array reduces each digit mod
    # its factor, so a factor of 1 reads label 0
    labels = group.index_array(phases[:, group._place % n] // (order // group._radix))
    if np.array_equal(phases, _character_phases(group, labels)[0]) and np.bincount(labels, minlength=n).max() == 1:
        return labels
    return None


def simplex_from_characters(g: AbelianGroup, dropped: int) -> UnimodularMatrix:
    """The character table with one group-element column deleted, transposed:
    f_u(r) = chi_u(g_r) over the remaining R elements is an R x (R+1)
    unimodular regular simplex, checked and stored as its phases
    (_character_phases).  dropped must be an integer (errors._integers)."""
    dropped, = _integers(dropped=dropped)
    n = g.order
    if not 0 <= dropped < n:
        raise IndexOutOfRange(f"element index {dropped} out of range for a group of order {n}")
    return _character_matrix(g, np.delete(np.arange(n), dropped), "simplex")

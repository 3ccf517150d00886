"""Unimodular matrices: DFT and Hadamard bases, drop-row simplices, character
tables of finite abelian groups.

Hadamard construction is deliberately limited to Sylvester doubling and the
quadratic-character (Paley I) construction composed via Kronecker products;
orders outside that closure raise UnsupportedHadamardOrder.  A
UnimodularMatrix stores one form and is checked once, when it is built:
every builder hands in the exact exponents it proved the matrix on, Hadamard
signs as exponents mod 2, and entries from outside the package are copied
and get the dense test of their Gram.  Its entries and signs are derived
from the exponents on first read, gathered from one table of roots of
unity, _unit_roots, the one place the package evaluates them.  Character
phase exponents, the DFT's among them, are computed by one helper,
_character_phases, reduced mod the group exponent L and checked in O(N t)
integers for a group of t cyclic factors.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from math import lcm

import numpy as np

from . import gf
from .errors import (BadDimensions, BasisShapeMismatch, IndexOutOfRange, InvariantViolation, NotUnimodular,
                     RowOutOfRange, UnsupportedHadamardOrder)

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
    (+-1 signs: L = 2), handed in as _phases by a builder that proved them.
    Entries from outside the package are copied and, unless _checked by the
    caller, get the dense O(N^3) test of their Gram; all real +-1, they are
    kept as exponents mod 2, else as the read-only copy, with _exponents
    None.  entries (complex128 when derived) and signs (the exact int64
    view, present exactly when L <= 2) are derived on first read
    (_root_values) and kept read-only, and the attributes are frozen.
    """

    def __init__(self, entries: np.ndarray | None, kind: str, _phases: tuple[np.ndarray, int] | None = None,
                 _checked: bool = False):
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
        return gf._read_only(_root_values(phases, big_l, _unit_roots(big_l)))

    @cached_property
    def signs(self) -> np.ndarray | None:
        """The exact int64 view, +-1 gathered from _root_table(L), when L <= 2."""
        if self._exponents is None or self._exponents[1] > 2:
            return None
        return gf._read_only(_root_values(*self._exponents))

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
    table and every frame stored as phases are gathered.  The quarter roots
    1, i, -1, -i that n admits are exact, so for n <= 2 the table holds
    exactly 1 and -1; every other root is within 24 u of exact, u the unit
    roundoff.  The phase 2 pi k / n, below 2 pi, takes three roundings (pi,
    the product by k, the quotient by n), so it is within 3 u 2 pi (1 + 3 u)
    of exact, and so is its exponential; cos and sin, each within an ulp of
    a value below 1, add at most sqrt(2) u: 19 u + 1.5 u < 24 u."""
    roots = np.exp(2j * np.pi * np.arange(n) / n)
    for k, root in enumerate((1, 1j, -1, 0 - 1j)):  # the literal -1j has real part -0.0
        if k * n % 4 == 0:
            roots[k * n // 4] = root
    return roots


def dft(n: int) -> UnimodularMatrix:
    """n x n matrix with entry (a,b) = exp(2*pi*i*a*b/n): the character table
    of Z_n, stored as the exponents a*b mod n and gathered from
    _unit_roots(n), so its +-1, +-i entries are exact and dft(2) has the
    signs of hadamard(2);
    it is checked on those exponents, in O(n) integers (see character_table)."""
    if n < 1:
        raise BadDimensions(f"need n >= 1, got {n}")
    return _character_matrix(AbelianGroup((n,)), np.arange(n), "dft")


def _sign_exponents(values: np.ndarray) -> np.ndarray | None:
    """Read-only uint8 exponents mod 2 of +-1 entries, else None: how outside data is read as signs."""
    return gf._read_only((values < 0).view(np.uint8)) if np.all((values == 1) | (values == -1)) else None


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
def _hadamard_signs(n: int) -> np.ndarray | None:
    """Read-only uint8 exponents mod 2 of the sign matrix of order n, or None if unreachable."""
    if n == 1:
        exponents = np.zeros((1, 1), dtype=np.uint8)
    elif n % 4 and n != 2:
        return None
    elif (half := _hadamard_signs(n // 2)) is not None:
        exponents = np.block([[half, half], [half, half ^ 1]])  # [[H, H], [H, -H]]
    elif gf.prime_power(n - 1) is not None and (n - 1) % 4 == 3:
        exponents = _paley_exponents(n)
    else:
        for d in range(4, n // 3):
            if n % d == 0 and _hadamard_signs(d) is not None and _hadamard_signs(n // d) is not None:
                outer = np.bitwise_xor.outer(_hadamard_signs(d), _hadamard_signs(n // d))  # Kronecker: XOR
                exponents = outer.swapaxes(1, 2).reshape(n, n)
                break
        else:
            return None
    return gf._read_only(exponents)


def hadamard_order_reachable(n: int) -> bool:
    return n >= 1 and _hadamard_signs(n) is not None


def _has_hadamard_identity(exponents: np.ndarray) -> bool:
    """True when every exponent is 0 or 1 and H = (-1)^exponents has H^T H =
    n I, exactly: every partial sum of H^T H is an integer of magnitude at
    most n < 2^53, so the float64 BLAS product is exact."""
    if not np.all((exponents == 0) | (exponents == 1)):
        return False
    f = 1.0 - 2.0 * exponents
    gram = f.T @ f
    gram[np.diag_indices(len(f))] -= len(f)  # H^T H - n I, without an n x n identity
    return not gram.any()


def hadamard(n: int) -> UnimodularMatrix:
    """+-1 matrix with H^T H = n I, built by Sylvester doubling and Paley I
    composed with Kronecker products as exponents mod 2, checked exactly on
    them, and stored as those cached read-only exponents."""
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
    ORTHO_TOL + 2 ENTRY_TOL.  The kept rows of B's one stored form are handed in."""
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
            factors = tuple(operator.index(f) for f in self.factors)
        except TypeError:
            factors = ()
        if not factors or any(f < 1 for f in factors):
            raise BadDimensions("factors must be a nonempty list of positive cyclic orders")
        object.__setattr__(self, "factors", factors)

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

    The check is on the exact form, in O(N t) integers
    (_check_character_exponents): every generator exponent u_k L / f_k lies
    in [0, L) and is a multiple of L / f_k, so each row is a homomorphism
    G -> <zeta_L>, a character; and the N rows are distinct, so each of the
    N characters of G appears once.  Then the exact table T* has
    T*^H T* = N I, since sum_r chi_u(g_r) conj(chi_v(g_r)) sums a character
    that is trivial only when u = v.  No float Gram is formed: each computed
    entry is a tabulated root within 24 u of the exact one (u the unit
    roundoff, the bound _unit_roots derives), so T = T* + E with
    max |E| <= 24 u, and every entry of T^H T - N I = E^H T* + T*^H E + E^H E
    is at most N (48 u + (24 u)^2), below ORTHO_TOL for every N under 10^5,
    far beyond any table that fits in memory.

    Each call builds a new table, read-only like every UnimodularMatrix."""
    return _character_matrix(g, np.arange(g.order), "character-table")


def _character_matrix(g: AbelianGroup, elements, kind: str) -> UnimodularMatrix:
    """The proven matrix of the characters at the listed elements, stored as
    its phases (_character_phases)."""
    return UnimodularMatrix(None, kind, _phases=_character_phases(g, elements))


def _phase_dtype(big_l: int) -> np.dtype:
    """The smallest unsigned integer type that holds every exponent mod L."""
    return np.min_scalar_type(big_l - 1)


def _root_table(big_l: int) -> np.ndarray:
    """_unit_roots(L), as the int64 values 1 and -1 when L <= 2, where they
    are exact: the table every character value is gathered from."""
    roots = _unit_roots(big_l)
    return roots.real.astype(np.int64) if big_l <= 2 else roots


def _character_phases(g: AbelianGroup, elements) -> tuple[np.ndarray, int]:
    """(phases, L): the len(elements) x |G| exponents
    sum_k e_k u_k L / f_k mod L of every character u of G at each listed
    element e, so that chi_u(e) = zeta_L^phase (see character_table), in
    _phase_dtype(L), computed a block of rows at a time: the one place the
    package computes character phases.  The phase is symmetric in e and u,
    so row i is also the character chi_{elements[i]} at every element u.
    The N x t generator exponents are checked (_check_character_exponents)
    before anything is computed."""
    n, big_l = g.order, lcm(*g.factors)
    exponents = g.digit_array(np.arange(n)) * (big_l // g._radix)  # row u: the exponent of chi_u at each e_k
    _check_character_exponents(g, exponents)
    # each phase is an integer of at most sum_k (f_k - 1)^2 L / f_k, far
    # under 2^53, so the product runs exactly on float64 BLAS; it is then
    # reduced mod L once, in int32 when that holds it (the faster division)
    bound = sum((f - 1) ** 2 * (big_l // f) for f in g.factors)
    work = np.int32 if bound < 2 ** 31 else np.int64
    rows, chars = g.digit_array(elements).astype(np.float64), exponents.T.astype(np.float64)
    phases = np.empty((len(rows), n), dtype=_phase_dtype(big_l))
    step = max(1, _TABLE_BLOCK // n)
    for lo in range(0, len(rows), step):
        block = (rows[lo:lo + step] @ chars).astype(work)
        block -= block // big_l * big_l
        phases[lo:lo + step] = block
    return phases, big_l


def _root_values(phases: np.ndarray, big_l: int, table: np.ndarray | None = None) -> np.ndarray:
    """table[phases] for an M x N array of exponents already reduced mod L:
    by default table is _root_table(L), so the values are zeta_L^phases,
    int64 when L <= 2, where they are exactly +-1, else complex.  The one
    gather of roots at phases, a block of rows at a time: numpy's take
    casts its indices to intp, so only a block of them is cast at once.
    Every index is below L, so mode "clip" changes none, and it writes into
    out directly, where the default mode would buffer it."""
    table = _root_table(big_l) if table is None else table
    values = np.empty(phases.shape, dtype=table.dtype)
    step = max(1, _TABLE_BLOCK // max(phases.shape[1], 1))
    for lo in range(0, len(phases), step):
        table.take(phases[lo:lo + step], mode="clip", out=values[lo:lo + step])
    return values


def _check_character_exponents(g: AbelianGroup, exponents: np.ndarray) -> None:
    """Raise NotUnimodular unless the N x t generator exponents name every
    character of G once: each exponent of e_k in [0, L) and a multiple of
    L / f_k, and no two rows equal (see character_table)."""
    big_l = lcm(*g.factors)
    step = big_l // g._radix
    if not (np.all((exponents >= 0) & (exponents < big_l)) and np.all(exponents % step == 0)):
        raise NotUnimodular("character-table generator exponents are not characters of the group")
    if np.bincount(g.index_array(exponents // step), minlength=g.order).max() != 1:
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
    (_character_phases)."""
    n = g.order
    if not 0 <= dropped < n:
        raise IndexOutOfRange(f"element index {dropped} out of range for a group of order {n}")
    return _character_matrix(g, np.delete(np.arange(n), dropped), "simplex")

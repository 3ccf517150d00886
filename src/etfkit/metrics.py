"""Certification and analysis: coherence, Welch bound, tightness, ETF
certificates, Gram comparison, spark, and brute-force restricted-isometry
constants.

Subset searches are exhaustive by design; the constructions in this package
are desk-scale and exactness is the point.  Every certificate takes one
path: _gram_profile, the one way into the exact or float reading of a Gram,
then _certify, the one place an EtfCertificate is built; codes.certify_grbe
takes it too, on the frame of a code's first half.  Frames carrying an exact
integer form are certified exactly, and the results are Fractions with no
tolerance involved.  A Steiner or Kirkman sign frame is certified from its
structure, with no N x N Gram: _steiner_form reads a {0, +-1} form with
d = R nonzero entries per column as a Steiner form Phi, and a +-1 form with
d = M as a Kirkman frame blockdiag(H_r) Phi with orthogonal H_r; _is_steiner
checks Phi's design and simplex blocks (Fickus, Mixon and Tremain), in
O(MN) integer work plus small Grams.  A frame is read so once, and keeps
its form, and its verdict once checked (_steiner_reading).  The check proves every
off-diagonal Gram modulus 1/R and the frame operator (N/M) I, so the
Fractions are exactly the ones the dense path computes, and the reports are
the same bytes.  This covers steiner_etf and kirkman_etf with sign
matrices, and the +-1 harmonic frames of (Z_2)^k, read as built, with no
provenance.  A character frame (frames._character_rows), whose exponents
check exactly as distinct characters of an abelian group labelling its
columns, is certified from one Gram row with no frame operator; exactly,
with no N x N Gram, when it is a +-1 frame, such as the Naimark complement
of a (Z_2)^k harmonic frame.  Every other integer frame, and any frame
that fails a check, gets its integer Gram and frame operator from
frames.exact_gram (float64 BLAS while every partial sum stays below 2**53);
further integer reductions run in int64 while their bound stays below 2**63
and in Python integers beyond it.  Everything else is certified in floating
point against the stated tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt

import numpy as np

from .errors import (
    BadDimensions,
    EnumerationBudgetExceeded,
    NotUnitNorm,
    ShapeMismatch,
    TooFewColumns,
)
from .flatmat import _UNIT_ROUNDOFF
from .frames import Frame, _abs_max, _character_rows, _exact_ints, _tightness_deviation, exact_gram

DEFAULT_TOL = 1e-9
SUBSET_BUDGET = 10 ** 7
_EIG_CHUNK = 8192


def coherence(frame: Frame, tol: float = DEFAULT_TOL):
    """Largest inner-product modulus over distinct columns: the coherence
    certify_etf reports, from the same _gram_profile.  A Fraction (exact)
    for frames with an integer form, a float otherwise."""
    if frame.n < 2:
        raise TooFewColumns("coherence needs at least two columns")
    _check_columns(frame, tol)
    return _gram_profile(frame)[0]


def _check_columns(frame: Frame, tol: float = DEFAULT_TOL) -> None:
    if frame.m == 0:
        raise NotUnitNorm("a frame with no rows has zero-norm columns")
    frame.check_unit_norm(tol)


def welch_bound(m: int, n: int) -> float:
    """sqrt((n - m) / (m (n - 1))): the coherence floor for n unit vectors in
    dimension m."""
    if not (1 <= m <= n and n >= 2):
        raise BadDimensions(f"need 1 <= m <= n and n >= 2, got m={m}, n={n}")
    return ((n - m) / (m * (n - 1))) ** 0.5


def welch_bound_exact(m: int, n: int) -> str | None:
    """Exact 'a/b' form of the Welch bound when it is rational, else None."""
    if not (1 <= m <= n and n >= 2):
        raise BadDimensions(f"need 1 <= m <= n and n >= 2, got m={m}, n={n}")
    sq = Fraction(n - m, m * (n - 1))
    if sq == 0:
        return "0"
    p, q = sq.numerator, sq.denominator
    rp, rq = isqrt(p), isqrt(q)
    if rp * rp == p and rq * rq == q:
        return f"{rp}/{rq}" if rq > 1 else str(rp)
    return None


@dataclass(frozen=True)
class EtfCertificate:
    """Welch-bound equality, tightness, and equiangularity in one verdict.

    passed needs coherence within tol of the Welch bound, frame operator
    within tol of (N/M) I, a flat off-diagonal Gram profile, and genuine
    overcompleteness (n > m): an orthonormal basis is a frame, not an ETF.
    """

    m: int
    n: int
    coherence: float
    coherence_exact: str | None
    welch: float
    tightness_residual: float
    offdiag_max: float
    offdiag_min: float
    potential_residual: float
    exact: bool
    tol: float

    @property
    def welch_gap(self) -> float:
        return self.coherence - self.welch

    @property
    def overcomplete(self) -> bool:
        return self.n > self.m

    @property
    def welch_equality(self) -> bool:
        return self.welch_gap <= self.tol

    @property
    def tight(self) -> bool:
        return self.tightness_residual <= self.tol

    @property
    def equiangular(self) -> bool:
        return (self.offdiag_max - self.offdiag_min) <= self.tol

    @property
    def passed(self) -> bool:
        return self.overcomplete and self.welch_equality and self.tight and self.equiangular

    def as_dict(self) -> dict:
        return {
            "report": "etf-certificate",
            "passed": self.passed,
            "m": self.m, "n": self.n,
            "coherence": self.coherence,
            "coherence_exact": self.coherence_exact,
            "welch_bound": self.welch,
            "welch_gap": self.welch_gap,
            "tightness_residual": self.tightness_residual,
            "offdiag_max": self.offdiag_max,
            "offdiag_min": self.offdiag_min,
            "potential_residual": self.potential_residual,
            "criteria": {
                "welch_equality": self.welch_equality,
                "tightness": self.tight,
                "equiangularity": self.equiangular,
                "overcomplete": self.overcomplete,
            },
            "overcomplete": self.overcomplete,
            "exact_arithmetic": self.exact,
            "tol": self.tol,
        }


def _tightness_residual(ints: np.ndarray, d: int) -> Fraction:
    """max |op - (N/M) I| for the frame operator op = ints ints^T / d of an
    M x N integer form, exactly.  Off the diagonal it is max |op_ij| / d; on
    it, max |op_ii m - n d| / (d m), one Fraction from one array reduction,
    in int64 while |op_ii| m + n |d| stays below 2**63 and in Python integers
    beyond."""
    m, n = ints.shape
    op = exact_gram(ints)
    op_off = int(_offdiag_extremes(np.abs(op))[0])
    diag = np.diagonal(op)
    diag = _exact_ints(diag, _abs_max(diag) * m + n * abs(d))
    diag_dev = Fraction(int(np.abs(diag * m - n * d).max()), abs(d) * m)
    return max(Fraction(op_off, d), diag_dev)


def _offdiag_extremes(a: np.ndarray) -> tuple:
    """(max, min) of the square array a off its diagonal, which it overwrites
    (0 for the max, then that max for the min, so an integer or object array
    stays exact); no N x N mask is formed.  Fewer than two rows give (0, 0)."""
    np.fill_diagonal(a, 0)
    hi = a.max(initial=0)
    np.fill_diagonal(a, hi)
    return hi, a.min(initial=hi)


# -- structural certificates of Steiner and Kirkman frames ----------------------

_KEY_BITS = 53  # a Kirkman class's pattern bits, summed in float64: exact below 2**53


def _steiner_form(ints: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray, int] | None:
    """The Steiner form (rows, signs, R) of the integer frame ints / sqrt(d),
    read from the integers alone, or None: the one entry to the structural
    path.  rows and signs are N x R, and Phi, the M x N matrix with
    signs[i] in the rows rows[i] (ascending) of column i and zeros
    elsewhere, has Phi^T Phi / R = ints^T ints / d.  The form is not yet
    checked as an ETF: _is_steiner does that.

    A +-1 form with d = M is tried as a Kirkman frame (_kirkman_columns) at
    each class size S = 2, 3, ... in turn that divides M into R = M/S >= 2
    classes, with R + 1 dividing N (and S <= 53 with R 2^S below 2^63, so
    its pattern keys are exact); the first that reads gives the form.
    Failing that, a {0, +-1} form with exactly d nonzero entries in every
    column is its own Phi, with R = d.  A frame that is neither, or an empty
    form, has no Steiner form.  ints and d are a Frame's checked exact form."""
    if not ints.size or ints.min() < -1 or ints.max() > 1:
        return None
    m, n = ints.shape
    if d == m and ints.all():
        for s in range(2, min(m // 2, _KEY_BITS) + 1):
            if m % s == 0 and n % (m // s + 1) == 0 and (m // s).bit_length() + s <= 63:
                form = _kirkman_columns(ints, s)
                if form is not None:
                    return (*form, m // s)
    if d > m or n % (d + 1):
        return None
    flat = np.flatnonzero(np.ascontiguousarray((ints != 0).T))  # i m + row, column-major: rows ascend
    rows = flat.reshape(n, -1) - (np.arange(n) * m)[:, None] if len(flat) == n * d else None
    if rows is None or rows.min() < 0 or rows.max() >= m:  # with N d nonzeros in all, d in each column
        return None
    return rows, ints[rows, np.arange(n)[:, None]], d


def _kirkman_columns(ints: np.ndarray, s: int) -> tuple[np.ndarray, np.ndarray] | None:
    """(rows, signs) of Phi when the +-1 form ints reads as a Kirkman frame
    with classes of s consecutive rows, else None.

    In class r, column i is c_ri h with c_ri its first entry and h a +-1
    pattern with first entry 1.  Each class must show exactly s distinct
    patterns, and their s x s Gram must be s I: they are then the columns
    h_0, ..., h_(s-1) of an H_r with H_r^T H_r = H_r H_r^T = s I.  With h_sigma
    the pattern of column i in class r, Phi has c_ri in row r s + sigma and
    zeros in the class's other rows, so ints = blockdiag(H_r) Phi exactly:
    ints^T ints = s Phi^T Phi, the Gram of ints / sqrt(M) is the Gram of
    Phi / sqrt(R), R = M/s, and the frame operators agree up to the
    orthogonal blockdiag(H_r) / sqrt(s).

    A pattern's key is its bits (entry unequal to the first), summed in
    float64 (exact: s <= 53), plus r 2^s, in int64.  One sort of the R x N
    keys lists each class's distinct patterns in turn, so a key's place
    among them is its row r s + sigma in Phi, and the patterns are read back
    off their keys."""
    m, n = ints.shape
    big_r = m // s
    x = ints.reshape(big_r, s, n)
    flips = x < 0
    weights = np.exp2(np.arange(s))
    keys = weights @ flips  # R x N: the bits of each class's column, exact in float64
    # a column with a negative first entry has the complementary pattern bits
    keys = np.where(flips[:, 0, :], 2 ** s - 1 - keys, keys).astype(np.int64) + (np.arange(big_r) << s)[:, None]
    ranked = np.sort(keys, axis=None)
    distinct = ranked[np.concatenate(([True], ranked[1:] != ranked[:-1]))]
    if len(distinct) != m or ((distinct >> s) != np.arange(m) // s).any():
        return None
    patterns = 1 - 2 * ((distinct[:, None] >> np.arange(s)) & 1).reshape(big_r, s, s)  # one per row of Phi
    if not (patterns @ patterns.transpose(0, 2, 1) == s * np.eye(s, dtype=np.int64)).all():
        return None
    return np.searchsorted(distinct, keys).T.copy(), x[:, 0, :].T.copy()


def _is_steiner(rows: np.ndarray, signs: np.ndarray, m: int) -> bool:
    """Whether the M x N matrix Phi of +-1 signs on the rows rows (both
    N x R, rows ascending, R+1 | N: a _steiner_form) is a Steiner ETF form:
    Phi / sqrt(R) then has coherence 1/R and frame operator (N/M) I exactly.

    The checks: the columns fall into V = N/(R+1) points of R+1 columns
    sharing one support; two distinct supports meet in exactly one row
    (the point incidence P, M x V, has P^T P = 1 off its diagonal); every
    row lies in the same number k of supports; and each point's R x (R+1)
    sign block has a column Gram with off-diagonal entries +-1 and a row
    Gram (R+1) I.

    Why they suffice (Fickus, Mixon and Tremain, Steiner equiangular tight
    frames, 2012).  Gram: two columns of one point meet in the off-diagonal
    of its column Gram, +-1; two columns of distinct points meet only in the
    one row their supports share, where each is +-1.  So every off-diagonal
    entry of Phi^T Phi / R has modulus 1/R, the diagonal is 1, and the
    potential is N + N(N-1)/R^2.  Frame operator: two rows meet in at most
    one support (two supports sharing both would meet twice), within which
    the point's row Gram is 0 off its diagonal; a row's own entry sums the
    row Grams of its k points, k (R+1).  So Phi Phi^T = k (R+1) I, and
    counting nonzeros, M k (R+1) = N R, so Phi Phi^T / R = (N/M) I."""
    n, big_r = rows.shape
    size = big_r + 1
    # group by the first two support rows, then check that each group shares its whole support
    key = rows[:, 0] * m + rows[:, 1] if big_r > 1 else rows[:, 0]
    order = np.argsort(key)
    ranked = key[order]
    if not np.array_equal(ranked[1:] != ranked[:-1], np.arange(1, n) % size == 0):
        return False
    points = order.reshape(-1, size)
    supports = rows[points[:, 0]]
    if not (rows[points] == supports[:, None, :]).all():
        return False
    incidence = np.zeros((m, len(points)))
    incidence[supports, np.arange(len(points))[:, None]] = 1.0
    meets = incidence.T @ incidence  # exact: every count is at most M
    np.fill_diagonal(meets, 1.0)
    per_row = incidence.sum(axis=1)
    if (meets != 1.0).any() or (per_row != per_row[0]).any():
        return False
    blocks = signs[points].astype(np.float64)  # V x (R+1) x R: a point's columns on its support
    col_gram = np.abs(blocks @ blocks.transpose(0, 2, 1))
    col_gram[:, np.arange(size), np.arange(size)] = 1.0
    row_gram = blocks.transpose(0, 2, 1) @ blocks
    return bool((col_gram == 1.0).all() and (row_gram == size * np.eye(big_r)).all())


def _steiner_reading(frame: Frame) -> tuple | None:
    """The _steiner_form of a frame with an integer form and its verdict,
    (rows, signs, R, verdict), or None: the one caller of _steiner_form.  It
    is read once and kept in Frame._steiner (None while unread, False with
    no form; the exact form is read-only, so it cannot go stale).  verdict
    is None until _gram_profile, its one reader, asks _is_steiner."""
    if frame._steiner is None:
        form = _steiner_form(frame.exact_ints, frame.scale_sq)
        frame._steiner = False if form is None else (*form, None)
    return frame._steiner or None


def _signed_rows(frame: Frame) -> tuple[int, bytes] | None:
    """(R, rows) of the Steiner form Phi of a frame with an integer form
    (_steiner_reading), or None: rows holds Phi's rows, each times the sign
    of its first nonzero entry, sorted as byte strings and joined.  Two
    frames with equal (R, rows) have equal Grams, ETFs or not: their forms
    are P D Phi and Phi for a row permutation P and a diagonal sign matrix
    D, and (P D Phi)^T (P D Phi) = Phi^T Phi, over the same R."""
    form = _steiner_reading(frame)
    if form is None:
        return None
    rows, signs, big_r, _ = form
    m, n = frame.m, frame.n
    phi = np.zeros((m, n), dtype=np.int8)
    phi[rows, np.arange(n)[:, None]] = signs
    phi *= phi[np.arange(m), np.argmax(phi != 0, axis=1)][:, None]
    return big_r, np.sort(phi.view(np.dtype((np.void, n))).ravel()).tobytes()


def _gram_profile(frame: Frame, gram: np.ndarray | None = None) -> tuple:
    """(offdiag max, offdiag min, potential, tightness) of the frame's Gram
    moduli: the one way into the exact or float reading of a Gram.  gram is
    the dense Gram when the caller already holds it (rip_delta's search
    does).  tightness is the frame-operator residual when the path settles
    it with no frame operator, else None (_certify forms the operator).

    A character frame (frames._character_rows: the group its provenance
    names, checked exactly on its exponents) is read from Gram row 0,
    F[:, 0]^H F: its rows are characters chi_r of G, so its Gram is the
    circulant G[a, b] = g(b - a), g(c) = (1/M) sum_rows chi_r(c), with
    extremes those of |g(c)|, c != 0, and potential N sum_c |g(c)|^2.  A +-1
    character frame X / sqrt(M) (G of exponent two, so b - a = a + b) reads
    r = X[:, 0]^T X in exact integers, |r_c| <= M: its Gram is r[a + b] / M,
    so the Fractions max and min of |r_c| / M over c != 0 and
    N sum_c r_c^2 / M^2 are exactly the dense ones, and its tightness is 0,
    since distinct characters are orthogonal.

    Any other frame with an integer form ints / sqrt(d) gets Fractions: from
    its Steiner form (_steiner_reading, read once per frame) when
    _is_steiner, which only this path runs, once per frame, accepts it, else
    from its dense
    integer Gram (frames.exact_gram), with tightness None.  The structural
    Fractions are the dense ones: every off-diagonal Gram entry has modulus
    1/R and every diagonal entry is 1 (_is_steiner), so the dense path's
    Fraction(max |G_ij|, d) and Fraction(sum G^2, d^2) reduce to 1/R and
    N + N(N-1)/R^2, and the frame operator is (N/M) I, residual 0.  Any
    other frame, every float frame among them, gets the dense Gram.

    The tightness of a character frame.  Its exact frame
    F* = zeta_L^phases / sqrt(M) has orthogonal rows of squared norm N/M,
    so F* F*^H = (N/M) I exactly.  Each computed entry is a root
    within 24 u of exact (flatmat._unit_roots; u the unit roundoff), divided
    by a rounded sqrt(M), so within eps = 27 u / sqrt(M) of F*; then every
    entry of F F^H - F* F*^H = E F*^H + F* E^H + E E^H is at most
    N (2 eps / sqrt(M) + eps^2) = (N/M)(54 u + 729 u^2).  A dense product
    fl(F F^H), by any order of summation, is within gamma_(N+2) sum_n |f_in|
    |f_jn| <= (N+2) u (N/M)(1 + 27 u)^2 / (1 - (N+2) u) of F F^H (complex
    inner products, Higham 3.6), and forming (N/M) I and the difference
    adds 2 u (N/M).  So the residual a dense certificate computes, and the
    true one of the stored entries, are both at most (N + 64) u N / M while
    N stays below 10^8; that bound is returned, and no frame operator is
    formed here (_certify forms it when the bound exceeds its tol)."""
    rows = _character_rows(frame)
    ints, d = frame.exact_ints, frame.scale_sq
    if frame.exact_ints is not None and rows is None:
        form = _steiner_reading(frame)
        if form is not None and form[3] is None:
            form = frame._steiner = (*form[:3], _is_steiner(form[0], form[1], frame.m))
        if form is not None and form[3]:
            n, big_r = ints.shape[1], form[2]
            mu = Fraction(1, big_r)
            return mu, mu, n + Fraction(n * (n - 1), big_r * big_r), Fraction(0)
        g = exact_gram(ints.T)
        hi, lo = _offdiag_extremes(np.abs(g))
        g = _exact_ints(g, _abs_max(g) ** 2 * g.size)
        return Fraction(int(hi), d), Fraction(int(lo), d), Fraction(int(np.sum(g * g)), d * d), None
    if rows is not None:
        m, n = frame.m, frame.n
        if frame.exact_ints is not None:
            x = ints.astype(np.int64, copy=False)
            r = _exact_ints(np.abs(x[:, 0] @ x), m * m * n)  # |r_c| <= M
            return (Fraction(int(r[1:].max()), d), Fraction(int(r[1:].min()), d),
                    Fraction(n * int(np.sum(r * r)), d * d), Fraction(0))
        row = np.abs(frame.entries[:, 0].conj() @ frame.entries)
        tight = (n + 64) * _UNIT_ROUNDOFF * n / m
        return float(row[1:].max()), float(row[1:].min()), n * float(np.sum(row ** 2)), tight
    a = np.abs(frame.gram() if gram is None else gram)
    pot = float(np.sum(a ** 2))  # before _offdiag_extremes overwrites the diagonal
    return (*map(float, _offdiag_extremes(a)), pot, None)


def _certify(frame: Frame, profile: tuple, tol: float) -> EtfCertificate:
    """The frame's certificate from its _gram_profile: the one place an
    EtfCertificate is built, exact when the profile is.  Tightness is the
    profile's when it settles it; an exact profile that leaves it open gets
    the exact M x M frame operator (_tightness_residual), and a float one
    the float frame operator, also when its rounding bound exceeds tol.  The
    bound is at least the float residual, so the tightness verdict is the
    float path's either way."""
    m, n = frame.m, frame.n
    mu, mu_min, pot, tight_res = profile
    exact = isinstance(mu, Fraction)
    if exact and tight_res is None:
        tight_res = _tightness_residual(frame.exact_ints, frame.scale_sq)
    elif not exact and (tight_res is None or tight_res > tol):
        tight_res = _tightness_deviation(frame.entries)
    return EtfCertificate(
        m=m, n=n, coherence=float(mu), coherence_exact=str(mu) if exact else None, welch=welch_bound(m, n),
        tightness_residual=float(tight_res), offdiag_max=float(mu), offdiag_min=float(mu_min),
        potential_residual=float(abs(pot - (Fraction(n * n, m) if exact else n * n / m))), exact=exact, tol=tol,
    )


def certify_etf(frame: Frame, tol: float = DEFAULT_TOL) -> EtfCertificate:
    """Full certificate: the Gram profile (_gram_profile decides exact
    Fractions, one Gram row or the dense Gram) and the tightness residual
    (_certify): 0 for a frame whose Steiner form checks (_is_steiner: its
    frame operator is (N/M) I exactly, and its coherence 1/R, the dense
    path's Fractions, with no N x N Gram and no M x M frame operator
    formed), and for a +-1 character frame, read from Gram row 0 in
    integers; of the exact M x M frame operator alongside any other exact
    profile; for a character frame (frames._character_rows) with no integer
    form, the rounding bound (N + 64) u N / M that _gram_profile derives,
    with no frame operator formed, unless the bound exceeds tol; else of the
    float frame operator.  A complex frame's certificate is a float one
    (exact_arithmetic false)."""
    welch_bound(frame.m, frame.n)  # first: it refuses the shapes no Gram should be formed for
    return _certify(frame, _gram_profile(frame), tol)


@dataclass(frozen=True)
class MatchReport:
    """Entrywise Gram comparison of two frames over the same column count."""

    n: int
    max_dev: float
    witness: tuple[int, int] | None
    exact: bool
    tol: float

    @property
    def passed(self) -> bool:
        return self.max_dev <= self.tol

    def as_dict(self) -> dict:
        return {
            "report": "gram-comparison",
            "passed": self.passed,
            "n": self.n,
            "max_dev": self.max_dev,
            "witness": list(self.witness) if self.witness else None,
            "exact_arithmetic": self.exact,
            "tol": self.tol,
        }


def gram_equal(a: Frame, b: Frame, tol: float = DEFAULT_TOL) -> MatchReport:
    """Compare the two N x N Gram matrices entrywise; exact when both frames
    carry integer forms (cross-multiplied integer comparison, no tolerance).

    Two integer frames whose Steiner forms (_steiner_reading: a Kirkman
    frame's Phi, or a sparse frame itself; a frame that certify_etf has
    read is not read again, and neither form is checked as an ETF form)
    have the same R and the same rows up to order and sign (_signed_rows)
    have equal Grams, so the report is max_dev 0.0 with no witness, as the
    dense comparison finds, and no Gram is formed: this is how a kirkman_etf
    frame matches its steiner_etf frame.  Otherwise the Grams are compared
    densely, and a witness is the first largest deviation; two frames with
    no columns, or none with rows, have equal Grams: max_dev 0.0, no witness."""
    if a.n != b.n:
        raise ShapeMismatch(f"column counts differ: {a.n} != {b.n}")
    if a.m == b.m == 0:
        exact = a.exact_ints is not None and b.exact_ints is not None
        return MatchReport(n=a.n, max_dev=0.0, witness=None, exact=exact, tol=tol)
    if a.exact_ints is not None and b.exact_ints is not None:
        rows_a = _signed_rows(a)
        if rows_a is not None and rows_a == _signed_rows(b):
            return MatchReport(n=a.n, max_dev=0.0, witness=None, exact=True, tol=tol)
        ga, da = a.gram_exact()
        gb, db = b.gram_exact()
        # max(., 1): the scale factors themselves must fit as well
        bound = max(_abs_max(ga), 1) * abs(db) + max(_abs_max(gb), 1) * abs(da)
        diff = np.abs(_exact_ints(ga, bound) * db - _exact_ints(gb, bound) * da)
        max_int = diff.max(initial=0)
        if max_int == 0:
            return MatchReport(n=a.n, max_dev=0.0, witness=None, exact=True, tol=tol)
        i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
        return MatchReport(n=a.n, max_dev=float(Fraction(int(max_int), da * db)),
                           witness=(int(i), int(j)), exact=True, tol=tol)
    diff = np.abs(a.gram() - b.gram())
    max_dev = float(diff.max(initial=0.0))
    if not max_dev > tol:  # a NaN deviation too: it has no witness
        return MatchReport(n=a.n, max_dev=max_dev, witness=None, exact=False, tol=tol)
    i, j = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return MatchReport(n=a.n, max_dev=max_dev, witness=(int(i), int(j)), exact=False, tol=tol)


def _rank_threshold(n: int) -> float:
    return 1e-8 * np.sqrt(n)


def _check_budget(total: int, what: str) -> None:
    """Refuse, before enumerating, a search over more than SUBSET_BUDGET subsets."""
    if total > SUBSET_BUDGET:
        raise EnumerationBudgetExceeded(f"{what} = {total} subsets exceeds the budget {SUBSET_BUDGET}")


def _lex_batches(n: int, size: int):
    """Every size-subset of range(n) in lexicographic order, factored into
    its (size-1)-prefix P, a subset of range(n - 1), and its last element
    x, last(P) < x < n: the one place that enumerates subsets.  Yields
    (prefixes, counts), index arrays of prefixes in order and the number
    n - 1 - last(P) of each one's extensions (n for the empty prefix), a
    batch the fewest whole prefixes that stand for 64, 128, ... up to
    _EIG_CHUNK subsets, or the last ones, so a search that stops at its
    first subsets does not pay for a full batch.

    Prefixes are unranked in the combinatorial number system: the
    lexicographic rank r of a j-subset c of range(m) is C(m, j) - 1 minus
    the colexicographic rank R of m - 1 - c (reversed), and the largest
    element of the subset with colex rank R is the largest x with
    C(x, i) <= R.  The tables of C(x, i) saturate at C(m, j), above every
    rank, so they stay exact where they are read and never overflow int64.
    Every prefix stands for at least one subset, so unranking as many
    prefixes as a batch stands for, when those left over from the last
    batch stand for fewer, always fills it: at most 2 _EIG_CHUNK prefixes
    are held at once."""
    m, j = n - 1, size - 1
    total = comb(m, j)
    tables = []
    binom = np.ones(m, dtype=np.int64)  # C(x, 0) for x < m
    for _ in range(j):
        # C(x, i) = sum over y < x of C(y, i-1)
        binom = np.minimum(np.concatenate(([0], np.cumsum(binom)[:-1])), total)
        tables.append(binom)
    start, batch = 0, 64
    prefixes = np.empty((0, j), dtype=np.intp)
    counts = np.empty(0, dtype=np.intp)
    while start < total or len(prefixes):
        if start < total and counts.sum() < batch:
            stop = min(start + batch, total)
            rank = total - 1 - np.arange(start, stop, dtype=np.int64)
            more = np.empty((stop - start, j), dtype=np.intp)
            for i in range(j, 0, -1):
                x = np.searchsorted(tables[i - 1], rank, side="right") - 1
                rank -= tables[i - 1][x]
                more[:, j - i] = m - 1 - x
            prefixes = np.concatenate((prefixes, more))
            counts = np.concatenate((counts, m - (more[:, -1] if j else np.full(len(more), -1))))
            start = stop
        cut = int(np.searchsorted(np.cumsum(counts), batch)) + 1
        yield prefixes[:cut], counts[:cut]
        prefixes, counts, batch = prefixes[cut:], counts[cut:], min(2 * batch, _EIG_CHUNK)


def _certified_extensions(gram: np.ndarray, prefixes: np.ndarray, counts: np.ndarray,
                          ext: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Mask of the subsets P + (x), for each prefix P (a row of prefixes)
    and its next counts[P] entries x of ext, each above P's last element,
    whose Gram eigenvalues, as eigvalsh computes them, are certified
    strictly inside (lo, hi) (see _subset_spectra).  Each prefix's shifted
    Gram is factored once, then each subset takes one forward solve and one
    pivot, both sides at once, all read from the lower triangle of the
    contiguous n x n Gram.  lo = -inf or hi = inf certifies that side for
    every subset; lo = inf or hi = -inf for none."""
    k = prefixes.shape[1] + 1
    sides = [(shift, sign) for shift, sign in ((lo, 1.0), (hi, -1.0)) if not np.isinf(shift)]
    if lo == np.inf or hi == -np.inf or not sides:
        return np.full(len(ext), lo != np.inf and hi != -np.inf)
    shift, sign = (np.array(column)[:, None] for column in zip(*sides))  # a row per side
    n, flat = len(gram), gram.ravel()
    cols = prefixes.T
    starts = cols * n
    h = [[flat.take(starts[i] + cols[j]) for j in range(i + 1)] for i in range(k - 1)]  # G[p_i, p_j], i >= j
    index = np.repeat(cols, counts, axis=1)
    index += ext * n
    border = flat.take(index)  # row j: G[x, p_j], the lower triangle
    diag = flat[::n + 1].real
    corner = diag.take(ext)
    # |tr G_S| <= |tr G_P| + max over y > last(P) of |g_yy|, for every extension S = P + (x)
    tail = np.maximum.accumulate(np.abs(diag[::-1]))[::-1]
    bound = tail[cols[-1] + 1 if k > 1 else np.zeros(len(prefixes), dtype=np.intp)]
    if k > 1:
        bound += np.abs(sum(h[i][i].real for i in range(k - 1)))
    # LDL^H of G_S - s' I without pivoting; sign (G_S - s' I) has sign times its pivots
    inward = shift + sign * 16 * k ** 4 * 2.0 ** -53 * (np.abs(shift) + bound)
    a = [row[:-1] + [row[-1].real - inward] for row in h]
    complex_gram = flat.dtype.kind == "c"
    invs, ratios = [], []
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for j in range(k - 1):
            signed = sign * a[j][j]
            least = signed if j == 0 else np.minimum(least, signed)  # NaN propagates
            invs.append(1.0 / a[j][j])
            step = [(a[i][j].conj() if complex_gram else a[i][j]) * invs[j] for i in range(j + 1, k - 1)]
            for i in range(j + 1, k - 1):
                for col in range(j + 1, i):
                    a[i][col] = a[i][col] - a[i][j] * step[col - j - 1]
                a[i][i] = a[i][i] - (a[i][j] * step[i - j - 1]).real
            ratios.append(step)
        if k > 1:  # a prefix with a pivot that is not positive fails every extension: a NaN shift
            inward[~(least > 0)] = np.nan
        # The last row, the same operations on the border: v, then the last pivot times sign.
        # A prefix's entries are spread to its extensions one row at a time, into one buffer.
        owner = np.repeat(np.arange(len(prefixes)), counts)
        v = list(border[:, None])
        spread = np.empty((len(sides), len(ext)))
        work = np.empty(spread.shape, dtype=flat.dtype)
        pivot = np.multiply(sign, corner)
        pivot -= np.multiply(sign, inward, out=inward).take(owner, axis=-1, out=spread)
        for j in range(k - 1):
            scale = np.multiply(sign, invs[j], out=invs[j]).take(owner, axis=-1, out=spread)
            np.multiply(np.conjugate(v[j], out=work) if complex_gram else v[j], scale, out=work)
            pivot -= np.multiply(work, v[j], out=work).real
            for col, ratio in enumerate(ratios[j], j + 1):
                np.multiply(v[j], ratio.take(owner, axis=-1, out=work), out=work)
                v[col] = np.subtract(v[col], work, out=v[col] if v[col].shape == work.shape else None)
    return (pivot > 0).all(axis=0)


def _subset_spectra(gram: np.ndarray, size: int, window: tuple | list):
    """Every size-subset of the columns in lexicographic order: yields
    (subsets, eigenvalues), the ascending eigenvalues of each subset's Gram
    submatrix.  _lex_batches enumerates them as (size-1)-prefixes P, each
    standing for its extensions P + (x), last(P) < x < n, in batches of
    whole prefixes that stand for 64, 128, ... up to _EIG_CHUNK subsets
    (and at most one more prefix).

    The window (lo, hi) is read before each batch, so a caller may move it
    between batches.  A subset whose eigvalsh eigenvalues are certified
    strictly inside (lo, hi) (_certified_extensions) is neither eigensolved
    nor yielded, and no index row is built for it; a batch yields its other
    subsets, in order, or nothing, so no subset with an eigvalsh extreme at
    or beyond lo or hi goes missing.  (inf, -inf) certifies nothing: every
    subset is yielded.

    The certificate.  Let S = P + (x) be a k-subset, H the k x k Hermitian
    matrix whose lower triangle, diagonal real part, both the factorization
    and eigvalsh read, u = 2^-53 and kappa_k = 16 k^4 u.  The trace bound
    T_P = |tr G_P| + max over y > last(P) of |g_yy| is at least |tr H| for
    every extension of P (up to the rounding of the sum).  The side s = lo
    (sigma = 1), or s = hi (sigma = -1), is certified when the LDL^H
    factorization without pivoting of A = sigma (H - s' I), formed in
    floating point with s' = s + sigma kappa_k (|s| + T_P), has only
    positive pivots.

    The factorization is bordered.  s' is one per prefix, so the leading
    (k-1) x (k-1) block of A, sigma (G_P - s' I), and its factors L_P and
    D_P are the same for every extension of P, and are formed once.  Each x
    then adds the last row: v, the solution of v L_P^H = h, h the row
    (G[x, p_0], ..., G[x, p_(k-2)]) of the lower triangle, by forward
    substitution (v_j = h_j - sum over i < j of v_i conj(L_ji)), and the
    last pivot d = (g_xx - s') - sum over j of v_j conj(v_j) / D_j (times
    sigma).  These are the operations, with the same roundings, that the
    factorization of all of A performs on its last row after its first
    k - 1, so the computed factors are those of one factorization without
    pivoting of A, with its backward error.  A subset is certified when
    its prefix's k - 1 pivots and its own d are positive.

    Why kappa_k (|s| + T_P) covers the rounding, to first order in u:
      - forming A rounds its diagonal, an error F with ||F|| <= u (max |h_ii| + |s'|);
      - the factors are exact for A + F + E with |E| <= gamma_(k+2) |L| D |L|^H
        (no growth factor: nothing is pivoted and D > 0; the reciprocal pivot
        adds one rounding).  |L| D |L|^H is positive semidefinite with the
        trace of L D L^H, so ||E|| <= 2 (k+2) u tr A <= 2 (k+2) u (T_P + k |s'|);
      - A + F + E = L D L^H is positive definite, so every eigenvalue l of H
        has sigma (l - s') > -||E + F||, and as the eigenvalues sum to tr H,
        ||H|| <= T_P + k |s'|, which also bounds max |h_ii|;
      - eigvalsh is backward stable: each eigenvalue it returns is within a
        modest multiple of u ||H|| of H's, taken as 4 k^3 u ||H||.
    The errors add to at most 12 k^4 u (T_P + |s'|) <= 12 k^4 u (1 + kappa_k)
    (|s| + T_P), so with the rounding of s' itself the eigvalsh extreme on
    that side has sigma (l - s) > (16 - 15) k^4 u (|s| + T_P) >= 0 (and
    |s| + T_P = 0 admits no positive pivot).  Neither H positive
    semidefinite nor any column scale is assumed.  Every bound above holds
    with any T >= |tr H| in place of |tr H|, so sharing T_P over the
    extensions costs only tightness: on a Gram, T_P = tr G_P + max g_yy is
    at most tr H plus the largest squared norm after P, never the largest
    over all columns times k.
    """
    n = gram.shape[0]
    lower = np.ascontiguousarray(gram.real if not gram.imag.any() else gram)
    for prefixes, counts in _lex_batches(n, size):
        ends = np.cumsum(counts)
        ext = np.arange(ends[-1]) + np.repeat(n - ends, counts)  # last(P) + 1, ..., n - 1 for each P
        keep = np.flatnonzero(~_certified_extensions(lower, prefixes, counts, ext, *window))
        if len(keep):
            owner = np.searchsorted(ends, keep, side="right")
            subsets = np.concatenate((prefixes[owner], ext[keep, None]), axis=1)
            yield subsets, np.linalg.eigvalsh(gram[subsets[:, :, None], subsets[:, None, :]])


def _design_structure(frame: Frame) -> tuple[int, tuple[int, ...], int] | None:
    """(R, witness, rank) when the provenance names a resolvable-design
    construction with an int r, 0 < r < N, else None: the one provenance
    read in metrics.  The witness, columns 0..R, lies on one design point's
    R rows as built, so is dependent: SVD rank <= R at _rank_threshold(N)."""
    big_r = frame.provenance.get("r")
    if (frame.provenance.get("construction") not in ("steiner", "kirkman", "mcfarland-kirkman")
            or type(big_r) is not int or not 0 < big_r < frame.n):
        return None
    return big_r, tuple(range(big_r + 1)), _svd_rank(frame, big_r + 1)


def _svd_rank(frame: Frame, size: int) -> int:
    """SVD rank of columns 0..size-1 at _rank_threshold(N)."""
    return int(np.sum(np.linalg.svd(frame.entries[:, :size], compute_uv=False) > _rank_threshold(frame.n)))


@dataclass(frozen=True)
class SparkReport:
    """Smallest dependent column-subset size, or a lower bound when capped."""

    n: int
    spark: int | None
    lower_bound: int
    witness: tuple[int, ...] | None
    structural_witness: tuple[int, ...] | None
    structural_rank: int | None
    exact: bool

    def as_dict(self) -> dict:
        return {
            "report": "spark",
            "passed": self.spark is not None,
            "n": self.n,
            "spark": self.spark,
            "lower_bound": self.lower_bound,
            "witness": list(self.witness) if self.witness else None,
            "structural_witness": list(self.structural_witness) if self.structural_witness else None,
            "structural_rank": self.structural_rank,
            "exact": self.exact,
        }


def spark(frame: Frame, max_subset: int | None = None) -> SparkReport:
    """Exact spark by increasing-size subset search.

    A subset is dependent when the smallest singular value of its column
    submatrix falls below 1e-8 sqrt(N) (equivalently its Gram's smallest
    eigenvalue below the square).  Frames from resolvable constructions also
    get the structural witness (_design_structure): the R+1 columns sharing
    one design point are supported on only R rows.  The search stops at R+1
    only when that witness checks as dependent, so a provenance R is never
    taken on trust.  Sizes up to the cap, but not size m+1, must fit
    SUBSET_BUDGET in total; max_subset lowers the cap.

    Sizes k that the coherence bound spark >= 1 + 1/mu already certifies are
    not enumerated: with mu the largest off-diagonal Gram modulus and d the
    smallest squared column norm, k is skipped when d - (k-1) mu exceeds the
    threshold square by DEFAULT_TOL.  A Steiner ETF (mu = 1/R) thus only
    enumerates size R+1, whose first subset is the structural witness.
    Within a size that is enumerated, _subset_spectra eigensolves only the
    subsets whose G_S - f I, f = thr^2 + DEFAULT_TOL, it cannot certify
    positive definite (the window (f, inf)).  A certified subset's eigvalsh
    smallest eigenvalue is above f, so it cannot test dependent: the first
    dependent subset, and the report, are those of the full search.

    exact: true means the report gives a value, not a lower bound: spark is
    the size of the witness, the first dependent subset in lexicographic
    order of the smallest size that has one.  Dependence itself is decided
    in floating point, by the threshold 1e-8 sqrt(N) above, not by exact
    rank, except at size m+1 of an m x N frame with N > m: there every
    subset depends by dimension count, so the witness is (0, ..., m), with
    no eigensolve.  exact: false means no subset up to the cap tested
    dependent, and lower_bound is only a bound.  A negative max_subset
    raises BadDimensions; max_subset=0 searches nothing (lower_bound 1).
    """
    n = frame.n
    if max_subset is not None and max_subset < 0:
        raise BadDimensions(f"spark subset cap must be at least 0, got {max_subset}")
    limit = n if max_subset is None else min(max_subset, n)
    if n > frame.m:
        limit = min(limit, frame.m + 1)  # m+1 columns in m dimensions always depend

    big_r, structural, structural_rank = _design_structure(frame) or (None, None, None)
    if structural is not None and structural_rank <= big_r:
        limit = min(limit, big_r + 1)
    searched = min(limit, frame.m)  # size m+1 is decided by dimension count, with nothing enumerated
    _check_budget(sum(comb(n, size) for size in range(1, searched + 1)),
                  f"sum of C({n},k) for k <= {searched}")

    def found(witness: tuple[int, ...]) -> SparkReport:
        return SparkReport(n=n, spark=len(witness), lower_bound=len(witness), witness=witness,
                           structural_witness=structural, structural_rank=structural_rank,
                           exact=True)

    if limit > frame.m == 0:  # a frame with no rows: its first column depends, and no Gram is formed
        return found((0,))
    gram = frame.gram()
    thr_sq = _rank_threshold(n) ** 2
    mu = _offdiag_extremes(np.abs(gram))[0]
    least_norm_sq = float(np.diag(gram).real.min(initial=np.inf))

    for size in range(1, limit + 1):
        if size > frame.m:  # every subset of m+1 columns depends: the first is the witness
            return found(tuple(range(size)))
        # Gershgorin: every size-subset Gram has smallest eigenvalue at least
        # least_norm_sq - (size-1) mu; the DEFAULT_TOL margin dwarfs eigvalsh's
        # backward error, so no subset of a skipped size could test dependent.
        if least_norm_sq - (size - 1) * mu > thr_sq + DEFAULT_TOL:
            continue
        for subsets, eigs in _subset_spectra(gram, size, (thr_sq + DEFAULT_TOL, np.inf)):
            hits = np.nonzero(eigs[:, 0] < thr_sq)[0]
            if hits.size:
                return found(tuple(int(x) for x in subsets[hits[0]]))
    return SparkReport(n=n, spark=None, lower_bound=limit + 1, witness=None,
                       structural_witness=structural, structural_rank=structural_rank,
                       exact=False)


@dataclass(frozen=True)
class RipReport:
    """Exact restricted-isometry constant for one subset size."""

    n: int
    size: int
    delta: float
    min_eig: float
    max_eig: float
    gershgorin: float
    subsets: int

    @property
    def satisfied(self) -> bool:
        return self.delta < 1.0

    def as_dict(self) -> dict:
        return {
            "report": "rip",
            "passed": self.satisfied,
            "n": self.n,
            "l": self.size,
            "delta": self.delta,
            "min_eig": self.min_eig,
            "max_eig": self.max_eig,
            "gershgorin_bound": self.gershgorin,
            "subsets": self.subsets,
        }


def _rip_spectrum(gram: np.ndarray, size: int) -> tuple[float, float, float]:
    """(delta, smallest, largest) eigenvalue over every size-subset Gram; the
    running extremes are the engine's window, (inf, -inf) at the first batch."""
    extremes = [np.inf, -np.inf]
    for _, eigs in _subset_spectra(gram, size, extremes):
        extremes[:] = min(extremes[0], float(eigs[:, 0].min())), max(extremes[1], float(eigs[:, -1].max()))
    lo, hi = extremes
    return max(abs(1.0 - lo), abs(hi - 1.0)), lo, hi


def rip_delta(frame: Frame, size: int) -> RipReport:
    """delta_L = max over L-subsets of the spectral deviation of the subset
    Gram from the identity, by exhaustive enumeration within SUBSET_BUDGET:
    only subsets that could move an extreme are eigensolved (_rip_spectrum)."""
    n = frame.n
    if not 1 <= size <= n:
        raise BadDimensions(f"need 1 <= L <= {n}, got {size}")
    total = comb(n, size)
    _check_budget(total, f"C({n},{size})")
    _check_columns(frame)  # before the search, not after it
    gram = frame.gram()
    # coherence's mu, from the Gram the search reads; one column has no
    # pairs, so its Gershgorin term (L-1)*mu is 0
    gershgorin = float((size - 1) * _gram_profile(frame, gram)[0]) if size > 1 else 0.0
    delta, lo, hi = _rip_spectrum(gram, size)
    return RipReport(n=n, size=size, delta=delta, min_eig=lo, max_eig=hi,
                     gershgorin=gershgorin, subsets=total)


@dataclass(frozen=True)
class SteinerRipReport:
    """Per-L RIP constants for a frame with a checked design structure,
    against the structural cutoff L <= R."""

    applicable: bool
    big_r: int | None
    cutoff_formula: float | None
    per_l: tuple[tuple[int, float], ...]

    @property
    def consistent(self) -> bool:
        return self.applicable and all((delta < 1.0) == (size <= self.big_r) for size, delta in self.per_l)

    def as_dict(self) -> dict:
        return {
            "report": "steiner-rip",
            "passed": self.consistent if self.applicable else None,
            "applicable": self.applicable,
            "r": self.big_r,
            "cutoff_formula": self.cutoff_formula,
            "deltas": [{"l": s, "delta": d} for s, d in self.per_l],
        }


def steiner_rip_verdict(frame: Frame, max_size: int | None = None) -> SteinerRipReport:
    """Check that delta_L < 1 exactly when L <= R, for every L from 2 up to
    R+1 (or max_size) that fits SUBSET_BUDGET, on a frame with a checked
    design structure R (_design_structure, and columns 0..R-1 of rank R,
    which no r above the frame's R gives); the cutoff formula
    sqrt((rho M - 1)/(rho - 1)) comes from its dimensions.  Each delta_L
    comes from rip_delta's search on one shared Gram, the same bits.  A
    verdict that checks no L would pass vacuously, so a max_size below 2
    raises BadDimensions, and a frame whose C(N, 2) is over SUBSET_BUDGET
    raises EnumerationBudgetExceeded."""
    if max_size is not None and max_size < 2:
        raise BadDimensions(f"Steiner RIP checks L >= 2, so its cap must be at least 2, got {max_size}")
    big_r, _, rank = _design_structure(frame) or (None, None, None)
    if big_r is not None:
        _check_columns(frame)  # before rho, which a frame with no rows would divide by zero
    if big_r is None or rank > big_r or _svd_rank(frame, big_r) < big_r:  # no r, 0..R independent, 0..R-1 not
        return SteinerRipReport(applicable=False, big_r=None, cutoff_formula=None, per_l=())
    _check_budget(comb(frame.n, 2), f"C({frame.n},2)")
    rho = frame.n / frame.m
    cutoff = ((rho * frame.m - 1) / (rho - 1)) ** 0.5
    top = min(big_r + 1, max_size if max_size is not None else big_r + 1)
    gram = frame.gram()
    per_l = []
    for size in range(2, top + 1):
        if comb(frame.n, size) > SUBSET_BUDGET:
            break
        per_l.append((size, _rip_spectrum(gram, size)[0]))
    return SteinerRipReport(applicable=True, big_r=big_r, cutoff_formula=cutoff, per_l=tuple(per_l))

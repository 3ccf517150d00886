"""Frame synthesis: sparse ETFs from resolvable Steiner systems, their
constant-amplitude counterparts, difference-set (harmonic) ETFs and Naimark
complements.  The parameters a real constant-amplitude build needs are
reported by designs.steiner_params.

A flat frame of L-th roots of unity stores only their exponents mod L and d,
a +-1/sqrt(M) frame, which the binary-code bridge consumes, among them at
L = 2; any other frame of integer multiples of a common 1/sqrt(d) stores that
integer matrix and d.  So Gram computations downstream are exact, and the
complex entries are derived when first read; entries handed in beside the
form a frame is built from are only checked against it.  _assemble is the
one place a construction picks its form, from what it gathered, and
exact_gram the one place that decides how an integer product, always the
Gram a a^T of one matrix, is computed exactly.  Exponents are the one exact route through the Kirkman
layer: kirkman_etf sums them, signs included, and mcfarland_as_kirkman
proves the twins equal as one identity on them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import lru_cache
from math import lcm

import numpy as np

from . import gf
from .designs import (
    AffineStructure,
    SteinerSystem,
    _affine_field,
    _class_partition,
    affine_structure,
)
from .errors import (
    BasisShapeMismatch,
    FrameFormatError,
    GroupMismatch,
    GroupOrderMismatch,
    IndexOutOfRange,
    InvariantViolation,
    NotADifferenceSet,
    NotResolvable,
    NotTight,
    NotUnitNorm,
    SimplexShapeMismatch,
    _integers,
    _is_integer,
)
from .flatmat import (
    AbelianGroup,
    UnimodularMatrix,
    _character_labels,
    _character_phases,
    _phase_dtype,
    _root_values,
    _sign_exponents,
    _signs,
    _unit_roots,
    simplex_from_characters,
)

UNIT_NORM_TOL = 1e-9
_FLOAT64_EXACT = 2 ** 53  # every integer of smaller magnitude is a float64
_INT64_EXACT = 2 ** 63
_DIFFERENCE_BATCH = 2 ** 18  # pairs per bincount: its int32 differences and their borrow masks take a few MB


def _abs_max(a: np.ndarray) -> int:
    return max(abs(int(a.max())), abs(int(a.min()))) if a.size else 0


def exact_gram(a: np.ndarray) -> np.ndarray:
    """a @ a.T for an integer array a, exactly.

    With K the inner dimension, every partial sum is bounded by
    max|a|^2 * K.  Below 2**53 those sums are integers a float64 holds
    exactly, so the product runs on float64 BLAS, as f @ f.T, numpy's
    symmetric kernel; below 2**63 it runs in int64 (no BLAS); beyond that in
    Python integers (object dtype).  The result is int64 on the first two
    paths."""
    bound = _abs_max(a) ** 2 * a.shape[-1]
    if bound < _FLOAT64_EXACT:
        f = a.astype(np.float64)
        return (f @ f.T).astype(np.int64)
    a = a.astype(np.int64 if bound < _INT64_EXACT else object)
    return a @ a.T


def _exact_ints(arr: np.ndarray, bound: int) -> np.ndarray:
    """arr in int64 when the caller's bound on every value its elementwise
    arithmetic produces is below 2**63, else in Python integers (object)."""
    return arr.astype(np.int64) if bound < _INT64_EXACT else arr.astype(object)


class Frame:
    """M x N synthesis matrix; columns are the frame vectors.

    A frame is built from exactly one stored form, handed in as exactly one
    of entries, exact_ints and _phases; every other form is derived from it
    when read and never handed back in.  One pair is taken: entries beside
    exact_ints must equal the entries derived from them, bit for bit, else
    FrameFormatError, and are not stored.  A float frame stores its complex
    entries.  A phase frame stores phases, its exponents mod order
    (unsigned integers), and scale_sq, the frame being
    zeta_order^phases / sqrt(scale_sq); a builder hands them in as the
    private _phases = (phases, order).  A +-1 frame at scale M is the phase
    form at order 2, however it is handed in (exact_ints of +-1 are
    converted here); any other integer frame stores exact_ints and
    scale_sq, the frame being exact_ints / sqrt(scale_sq).  A sign frame's
    exact_ints and an exact form's entries are derived on first read and
    kept read-only; repr derives neither.  The stored form is checked once,
    here: finite 2-D entries, 2-D integer exact_ints, phases below their
    order, and a scale_sq with exactly the exact forms, an integer
    (errors._is_integer) positive on a nonempty form; else
    FrameFormatError.
    """

    _entries = _ints = _phases = scale_sq = None  # a frame sets the one form it stores, and an exact form's scale
    _steiner = None  # metrics._steiner_reading keeps the exact form's Steiner form and verdict here

    def __init__(self, entries: np.ndarray | None = None, exact_ints: np.ndarray | None = None,
                 scale_sq: int | None = None, provenance: dict | None = None,
                 _phases: tuple[np.ndarray, int] | None = None):
        beside, entries = (entries, None) if exact_ints is not None else (None, entries)
        if sum(f is not None for f in (entries, exact_ints, _phases)) != 1 or (entries is None) == (scale_sq is None):
            raise FrameFormatError("a frame is built from exactly one of entries, exact_ints and _phases, "
                                   "with scale_sq beside either of the last two")
        self.provenance = {} if provenance is None else provenance
        if entries is not None:
            entries = np.asarray(entries)
            if entries.ndim != 2 or entries.dtype.kind not in "biufc":
                raise FrameFormatError("entries must be a matrix of numbers")
            if not np.isfinite(entries).all():
                raise FrameFormatError("entries must be finite numbers")
            self._entries = entries
            return
        exact, order = (exact_ints, None) if _phases is None else _phases
        exact = gf._read_only(np.asarray(exact).view())
        if order is not None and (exact.ndim != 2 or exact.dtype.kind != "u" or exact.max(initial=0) >= order):
            raise FrameFormatError("a phase form is a matrix of unsigned exponents below its order")
        if order is None and (exact.ndim != 2 or exact.dtype.kind not in "iu"):
            raise FrameFormatError("an integer form is a matrix of integers")
        if not _is_integer(scale_sq):
            raise FrameFormatError(f"scale_sq must be an integer, got {scale_sq!r}")
        self.scale_sq = int(scale_sq)
        if self.scale_sq < 1 and exact.size:  # else the derived entries divide by zero or take a NaN root
            raise FrameFormatError(f"scale_sq must be positive, got {self.scale_sq}")
        if order is None and self.scale_sq == len(exact) and (signs := _sign_exponents(exact)) is not None:
            exact, order = signs, 2  # +-1 / sqrt(M): a sign frame
        self._ints, self._phases = (exact, None) if order is None else (None, (exact, order))
        if beside is not None and not np.array_equal(beside, self.entries):
            raise FrameFormatError("entries beside exact_ints must be exact_ints / sqrt(scale_sq)")

    def __repr__(self):
        return f"Frame(m={self.m}, n={self.n}, scale_sq={self.scale_sq}, provenance={self.provenance!r})"

    @property
    def entries(self) -> np.ndarray:
        """The complex entries: a float frame's stored ones, else derived on
        first read by _numeric and kept read-only.  A phase frame divides
        the table of the order-th roots (flatmat._unit_roots) by
        sqrt(scale_sq) and gathers its entries from that table at the phases
        (flatmat._root_values, a block of rows at a time): each entry is the
        same division of the same root as dividing the gathered roots would
        make, bit for bit."""
        if self._entries is None:
            values = self.exact_ints if self.phases is None else _unit_roots(self.order)
            entries = _numeric(values, self.scale_sq)
            if self.phases is not None:
                entries = _root_values(self.phases, entries)
            self._entries = gf._read_only(entries)
        return self._entries

    @property
    def exact_ints(self) -> np.ndarray | None:
        """The stored integers, or a sign frame's int8 +-1, derived on first read and kept read-only."""
        if self._ints is None and self._phases is not None and self.order <= 2:
            self._ints = gf._read_only(_signs(self.phases))
        return self._ints

    @property
    def phases(self) -> np.ndarray | None:
        return None if self._phases is None else self._phases[0]

    @property
    def order(self) -> int | None:
        return None if self._phases is None else self._phases[1]

    @property
    def _stored(self) -> np.ndarray:
        return next(a for a in (self.phases, self._ints, self._entries) if a is not None)

    @property
    def m(self) -> int:
        return self._stored.shape[0]

    @property
    def n(self) -> int:
        return self._stored.shape[1]

    @property
    def is_sign_matrix(self) -> bool:
        """True when the stored form is +-1/sqrt(M), phases of order <= 2 at scale M."""
        return self._phases is not None and self.order <= 2 and self.scale_sq == self.m

    def gram(self) -> np.ndarray:
        return self.entries.conj().T @ self.entries

    def check_unit_norm(self, tol: float = UNIT_NORM_TOL) -> None:
        """Raise NotUnitNorm unless every column norm is within tol of 1; a
        norm past float64 fails.  Frames with no rows or no columns pass.  An
        integer frame's norms are sqrt(c / scale_sq), c its integer column
        sums of squares.  A phase frame, all of modulus 1/sqrt(scale_sq), is
        unit-norm exactly when M = scale_sq, whatever tol is.  A {0, +-1}
        form's sums of squares are its column counts of nonzero entries."""
        if self.m == 0 or self.n == 0:
            return
        if self.phases is not None:
            if self.m != self.scale_sq:
                raise NotUnitNorm(f"column norms are sqrt({self.m}/{self.scale_sq}), not 1")
            return
        if self.exact_ints is None:
            with np.errstate(over="ignore"):  # a norm past float64 is inf, which fails below
                norms = np.linalg.norm(self.entries, axis=0)
        else:
            top = _abs_max(self.exact_ints)
            sums = (np.count_nonzero(self.exact_ints, axis=0) if top <= 1
                    else np.sum(_exact_ints(self.exact_ints, top ** 2 * self.m) ** 2, axis=0))
            norms = np.sqrt(sums.astype(np.float64) / self.scale_sq)
        worst = float(np.abs(norms - 1.0).max())
        if not worst <= tol:
            raise NotUnitNorm(f"column norms deviate from 1 by {worst:.3e}")


def _numeric(values: np.ndarray, scale_sq: int) -> np.ndarray:
    """The complex entries values / sqrt(scale_sq) of an exact form, values
    its integers or the table of roots its phases gather from: Frame.entries
    derives them here (an empty form, the one with scale_sq 0, divides by 1)."""
    return np.true_divide(values, np.sqrt(max(scale_sq, 1)), dtype=np.complex128)


# -- serialization ------------------------------------------------------------

# the NUL-padded 4-byte cells of +1 and -1, inside a row and at its end, and the break after a row
_SIGN_CELLS = np.frombuffer(b"1, \0-1, 1\0\0\0-1\0\0", dtype=np.uint32).reshape(2, 2)
_ROW_BREAK = np.frombuffer(b"], [", dtype=np.uint32)[0]


def _sign_rows(exponents: np.ndarray) -> str:
    """json.dumps of the +-1 matrix (-1)^exponents as nested lists, written
    from the exponents: the one writer of sign text.  Each entry is one
    NUL-padded 4-byte cell, "1, " or "-1, ", or "1" or "-1" at the end of
    its row, chosen by one np.where; a cell "], [" follows each row, and
    bytes.translate drops the NULs."""
    if not exponents.size:
        return json.dumps(exponents.tolist())
    m, n = exponents.shape
    cells = np.repeat(_SIGN_CELLS, (n - 1, 1), axis=0)  # n x 2: column j's cells of +1 and -1
    text = np.empty((m, n + 1), dtype=np.uint32)
    text[:, :n] = np.where(exponents, cells[:, 1], cells[:, 0])
    text[:, n] = _ROW_BREAK
    return "[[" + text.tobytes().translate(None, b"\0")[:-4].decode() + "]]"


def frame_to_json(frame: Frame) -> str:
    """Sign form for exact +-1/sqrt(M) frames, literal complex entries otherwise:
    json.dumps(doc, sort_keys=True) either way.  "signs" sorts after every
    other key of the sign form, so its text is spliced in last.  Entries are written as complex128."""
    if frame.is_sign_matrix:
        head = json.dumps({"m": frame.m, "n": frame.n, "scale_sq_inv": frame.scale_sq,
                           "provenance": frame.provenance}, sort_keys=True)
        return f'{head[:-1]}, "signs": {_sign_rows(frame.phases)}}}'
    entries = np.ascontiguousarray(frame.entries, dtype=np.complex128).view(np.float64)
    return json.dumps({"m": frame.m, "n": frame.n, "scale": None, "provenance": frame.provenance,
                       "entries": entries.reshape(frame.m, frame.n, 2).tolist()}, sort_keys=True)


def _has_bool(values) -> bool:
    """Whether a JSON bool sits among the nested lists of numbers values,
    which numpy and complex() would read as 1 or 0."""
    return any(type(v) is bool or (type(v) is list and _has_bool(v)) for v in values)


def parse_frame(text: str) -> Frame:
    """The frame of a frame_to_json document.  Integer fields must be JSON
    integers, and no sign or entry may be a JSON true or false; that
    per-entry check runs only when the text holds one of those tokens."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise FrameFormatError(f"invalid JSON: {e}") from e
    booleans = "true" in text or "false" in text
    try:
        m, n = doc["m"], doc["n"]
        if type(m) is not int or type(n) is not int:  # not a float, bool or string, which int() would read
            raise FrameFormatError("m and n must be JSON integers")
        provenance = {} if doc.get("provenance") is None else doc["provenance"]
        if not isinstance(provenance, dict):
            raise FrameFormatError(f"provenance must be a JSON object, got {type(provenance).__name__}")
        if "signs" in doc:
            signs = doc["signs"]  # in its dtype, with no cast: a float or a string entry is no sign
            ints = np.array(signs) if signs != [] else np.zeros((0, n), dtype=np.int64)  # [] has no row to give n
            scale_sq = doc["scale_sq_inv"]
            if type(scale_sq) is not int:
                raise FrameFormatError("scale_sq_inv must be a JSON integer")
            if (ints.shape != (m, n) or not (ints.dtype.kind in "iu" or ints.size == 0)
                    or not np.all(np.abs(ints) == 1) or (booleans and _has_bool(signs))):
                raise FrameFormatError("sign form must be an m x n matrix of +-1")
            frame = Frame(exact_ints=ints.astype(np.int64, copy=False), scale_sq=scale_sq, provenance=provenance)
        else:
            raw = doc["entries"]
            arr = np.array([[complex(re, im) for re, im in row] for row in raw] if raw != [] else np.zeros((0, n)),
                           dtype=np.complex128)
            if arr.shape != (m, n):
                raise FrameFormatError(f"entries shape {arr.shape} does not match ({m}, {n})")
            if booleans and _has_bool(raw):
                raise FrameFormatError("entries must be JSON numbers, not true or false")
            scale = doc.get("scale")
            if scale is not None:
                if type(scale) not in (int, float):
                    raise FrameFormatError("scale must be a JSON number")
                scale = float(scale)
                if not math.isfinite(scale):
                    raise FrameFormatError(f"scale {scale} is not a finite number")
                with np.errstate(over="ignore"):  # an entry past float64 is inf, which Frame refuses
                    arr = arr * scale
            frame = Frame(entries=arr, provenance=provenance)
        frame.check_unit_norm()  # inside: a scale past float64 is malformed
    except FrameFormatError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise FrameFormatError(f"malformed frame document: {e}") from e
    return frame


# -- Steiner and flat (Kirkman-transformed) ETFs ------------------------------

def _resolution_lookup(design: SteinerSystem) -> tuple[np.ndarray, np.ndarray]:
    """R x V tables (designs._class_partition): pos[r, v] is the index within
    class r of the block containing v, and block[r, v] that block's id."""
    if not design.resolution:
        raise NotResolvable("design carries no resolution")
    bad, pos, block = _class_partition(design)
    if bad is not None:
        raise NotResolvable(f"parallel class {bad} does not partition the {design.v} points")
    return pos, block


def _form(m: UnimodularMatrix) -> np.ndarray:
    """m's +-1 signs (_signs) when its exponents have order <= 2, else its
    entries: the array a builder gathers, so that the dtype of the product
    decides the form."""
    return m.entries if m._exponents is None or m._exponents[1] > 2 else _signs(m._exponents[0])


def _assemble(values: np.ndarray, scale_sq: int, provenance: dict, order: int | None = None) -> Frame:
    """The unit-norm frame values / sqrt(scale_sq), checked by
    check_unit_norm: the one place a construction picks its form.  With
    order, values are the exponents mod order of the roots zeta_order, kept
    as the phase form in _phase_dtype(order), a sign frame's at order 2 when
    order <= 2.  Without it, integer values become the integer form, and any
    others complex entries divided by sqrt(scale_sq)."""
    if order is not None:
        frame = Frame(scale_sq=scale_sq, provenance=provenance,
                      _phases=(values.astype(_phase_dtype(order), copy=False), max(order, 2)))
    elif np.issubdtype(values.dtype, np.integer):
        frame = Frame(exact_ints=values, scale_sq=scale_sq, provenance=provenance)
    else:
        frame = Frame(entries=np.asarray(values, dtype=np.complex128) / np.sqrt(scale_sq), provenance=provenance)
    frame.check_unit_norm()
    return frame


def _check_simplex(simplex: UnimodularMatrix, big_r: int) -> None:
    if (simplex.rows, simplex.cols) != (big_r, big_r + 1):
        raise SimplexShapeMismatch(
            f"simplex is {(simplex.rows, simplex.cols)}, need ({big_r}, {big_r + 1})")


def steiner_etf(design: SteinerSystem, simplex: UnimodularMatrix) -> Frame:
    """Sparse ETF from a resolvable design: column (u, v) places simplex value
    f_u(r), scaled by 1/sqrt(R), in the row of the class-r block containing v.

    Columns are ordered v-major (all u for v=0, then v=1, ...); rows are block
    indices.  M = B, N = V(R+1); every column has exactly R nonzero entries.
    """
    _, block = _resolution_lookup(design)
    big_r = block.shape[0]
    _check_simplex(simplex, big_r)
    big_b, v_count = design.b, design.v
    prov = {"construction": "steiner", "v": v_count, "k": design.k,
            "b": big_b, "r": big_r, "simplex": simplex.kind}
    f = _form(simplex)
    # on the B x V x (R+1) grid of rows and columns (u, v) = v (R+1) + u, f_u(r) goes to the class-r block of v
    values = np.zeros((big_b, v_count, big_r + 1), dtype=f.dtype)
    values[block, np.arange(v_count)] = f[:, None, :]
    return _assemble(values.reshape(big_b, v_count * (big_r + 1)), big_r, prov)


def kirkman_etf(design: SteinerSystem, simplex: UnimodularMatrix,
                basis: UnimodularMatrix) -> Frame:
    """Constant-amplitude ETF: entry at row (r, s), column (u, v) is
    f_u(r) * h_{s(r,v)}(s) / sqrt(B), where s(r,v) indexes the class-r block
    containing v and h-columns come from a unimodular orthogonal basis.

    Rows are (r, s) pairs, r-major, and columns (u, v) at v (R+1) + u, as
    steiner_etf places them; its Gram equals the Steiner ETF's.  Every
    pair of matrices that both carry an exact exponent form
    (UnimodularMatrix._exponents: every package build, and +-1 entries from
    outside) takes the one exponent route: f = zeta_Ls^a and h = zeta_Lb^b, so
    the entry is exactly zeta_L^(a L/Ls + b L/Lb) with L = lcm(Ls, Lb), and
    _assemble gets those exponents mod L: a sign frame for L <= 2, else a
    phase frame.  The exponents are summed into one R x S x V x (R+1) array
    of the narrowest unsigned type that holds 2L - 2 (flatmat._phase_dtype),
    and reduced mod L as the least of the sum and the sum minus L: that
    type wraps modulo more than L, so below L the unsigned difference wraps
    above the sum, and no wider integer or mask is formed.  Only when a
    matrix from outside the package has no exponent form are the values
    multiplied, from float64 parts as
    re = fr hr - fi hi, im = fr hi + fi hr: the bits of a Python complex
    product, where numpy's complex multiply rounds by the loop it picks.
    """
    pos, _ = _resolution_lookup(design)
    big_r = pos.shape[0]
    _check_simplex(simplex, big_r)
    s_count = design.s
    if pos.max(initial=-1) >= s_count:  # blocks of other sizes than K: a class holds more than V/K
        raise NotResolvable(f"a parallel class holds more than V/K = {s_count} blocks")
    if (basis.rows, basis.cols) != (s_count, s_count):
        raise BasisShapeMismatch(f"basis is {(basis.rows, basis.cols)}, need ({s_count}, {s_count})")

    big_b, v_count = design.b, design.v
    shape = (big_r * s_count, v_count * (big_r + 1))
    prov = {"construction": "kirkman", "v": v_count, "k": design.k,
            "b": big_b, "r": big_r, "simplex": simplex.kind, "basis": basis.kind}
    # on the R x S x V x (R+1) grid of rows (r, s) and columns (u, v) = v (R+1) + u, the
    # R x 1 x 1 x (R+1) table of f_u(r) meets the R x S x V x 1 gather of h_{pos(r,v)}(s)
    fx, hx = simplex._exponents, basis._exponents
    if fx is None or hx is None:  # a complex matrix from outside has no exponents to add
        f, h = _form(simplex)[:, None, None, :], _form(basis)[:, pos].transpose(1, 0, 2)[..., None]
        values = np.empty((big_r, s_count, v_count, big_r + 1), dtype=np.complex128)
        values.real = f.real * h.real - f.imag * h.imag
        values.imag = f.real * h.imag + f.imag * h.real
        return _assemble(values.reshape(shape), big_b, prov)
    (f, f_order), (h, h_order) = fx, hx
    order = lcm(f_order, h_order)
    work = _phase_dtype(2 * order - 1)  # holds every sum of two exponents below order, up to 2 order - 2
    f, h = f.astype(work) * (order // f_order), h.astype(work) * (order // h_order)
    phases = np.empty((big_r, s_count, v_count, big_r + 1), dtype=work)
    np.add(f[:, None, None, :], h[:, pos].transpose(1, 0, 2)[..., None], out=phases)
    np.minimum(phases, phases - order, out=phases)  # the sum mod order: below order, the difference wraps above it
    return _assemble(phases.reshape(shape), big_b, prov, order)


# -- difference sets and harmonic ETFs ----------------------------------------

@dataclass(frozen=True)
class DifferenceSet:
    """Subset D of an abelian group hitting every nonzero element as a
    difference exactly lam times, checked once, when built, and lam derived.
    Each element must be an integer index (errors._is_integer) in
    [0, |G|), which AbelianGroup.sub_array would read mod |G|; then all
    |D|^2 differences are counted by np.bincount, in batches of whole rows
    of at most _DIFFERENCE_BATCH pairs.  elements are kept sorted, unique,
    as ints."""

    group: AbelianGroup
    elements: tuple[int, ...]
    lam: int = field(init=False)

    def __post_init__(self):
        elements = list(self.elements)
        if not all(map(_is_integer, elements)):
            raise IndexOutOfRange("difference set elements must be integer element indices")
        elements = tuple(sorted(set(map(int, elements))))
        order = self.group.order
        if elements and not (0 <= elements[0] and elements[-1] < order):
            raise IndexOutOfRange(f"difference set element out of range for a group of order {order}")
        d = np.array(elements, dtype=np.int64)
        counts = np.zeros(order, dtype=np.int64)
        rows = max(1, _DIFFERENCE_BATCH // max(len(d), 1))
        for lo in range(0, len(d), rows):
            counts += np.bincount(self.group.sub_array(d[lo:lo + rows, None], d).ravel(), minlength=order)
        nonzero = counts[1:]
        if not nonzero.size or nonzero.min() != nonzero.max():
            raise NotADifferenceSet("not a difference set: difference counts are not constant")
        object.__setattr__(self, "elements", elements)
        object.__setattr__(self, "lam", int(nonzero[0]))

    def complement(self) -> "DifferenceSet":
        rest = np.ones(self.group.order, dtype=bool)
        rest[list(self.elements)] = False
        return DifferenceSet(self.group, np.flatnonzero(rest))


def _mcfarland_elements(structure: AffineStructure) -> np.ndarray:
    """R x S product-group indices of (g_r, g^r s), s running over the
    hyperplane.  V's digits fill the last k places of G x V, highest
    coefficient first, so the index of (g_r, v) is r * |V| + the canonical
    field index of v."""
    fld = structure.field
    r = np.arange((fld.order - 1) // (structure.q - 1))[:, None]
    return r * fld.order + fld.mul_indices(fld.antilog[r], structure.hyperplane)


def mcfarland_set(q: int, j: int, group_g: AbelianGroup) -> DifferenceSet:
    """Hyperplane-translate difference set in G x V, where V is the additive
    group of GF(q^(j+1)): D = {(g_r, v) : v in g^r * S, r = 0..R-1} for the
    canonical primitive element g and trace-zero hyperplane S.

    G may be any abelian group of order R + 1 = (q^(j+1)-1)/(q-1) + 1, and
    q and j must be integers (errors._integers).  The set reads
    only the field data (designs._affine_field), so no design is built.
    Each set is built once per (q, j, G), and the frozen set, O(M) ints, is
    handed out again (_mcfarland_set).
    """
    return _mcfarland_set(*_integers(q=q, j=j), group_g)


@lru_cache(maxsize=None)
def _mcfarland_set(q: int, j: int, group_g: AbelianGroup) -> DifferenceSet:
    structure = _affine_field(q, j)
    fld = structure.field
    big_r = (q ** (j + 1) - 1) // (q - 1)
    if group_g.order != big_r + 1:
        raise GroupOrderMismatch(f"group order {group_g.order} != R+1 = {big_r + 1}")
    product = AbelianGroup(group_g.factors + (fld.p,) * fld.k)
    return DifferenceSet(product, _mcfarland_elements(structure).ravel())


def harmonic_etf(group: AbelianGroup, dset: DifferenceSet) -> Frame:
    """Characters of the group restricted to the difference set, normalized:
    entry (d, n) = chi_n(d) / sqrt(|D|).  M = |D|, N = |group|."""
    if dset.group != group:
        raise GroupMismatch("difference set lives in a different group")
    m = len(dset.elements)
    prov = {"construction": "harmonic", "group": list(group.factors),
            "d": m, "lambda": dset.lam}
    phases, order = _character_phases(group, dset.elements)
    return _assemble(phases, m, prov, order)


# -- the harmonic / flat-frame identification ---------------------------------

def trace_character_basis(structure: AffineStructure) -> UnimodularMatrix:
    """Unimodular orthogonal basis over the hyperplane S:
    h_{s'}(s) = exp(2*pi*i/p * tr(s' * s / delta)), traces taken down to the
    prime field, stored as its exponents mod p.  With no check on those
    exponents, its derived entries get the dense test."""
    fld = structure.field
    p = fld.p
    hyper = structure.hyperplane
    dinv = fld.pow_indices(structure.delta, fld.order - 2)
    tr_vals = fld.trace_table[fld.mul_indices(fld.mul_indices(hyper[:, None], hyper[None, :]), dinv)]
    basis = UnimodularMatrix(None, "character-table", _phases=(tr_vals.astype(_phase_dtype(p)), p))
    basis.check()
    return basis


@dataclass(frozen=True)
class McFarlandMatchReport:
    """Entrywise and Gram agreement between the two constructions: both
    deviations are 0.0, since mcfarland_as_kirkman returns a report only
    when the two frames are the same matrix."""

    q: int
    j: int
    group: tuple[int, ...]
    max_entry_dev: float
    max_gram_dev: float
    tol: float

    @property
    def entrywise_match(self) -> bool:
        return self.max_entry_dev <= self.tol

    @property
    def gram_match(self) -> bool:
        return self.max_gram_dev <= self.tol

    def as_dict(self) -> dict:
        return {
            "report": "mcfarland-vs-kirkman",
            "passed": self.entrywise_match and self.gram_match,
            "q": self.q, "j": self.j, "group": list(self.group),
            "max_entry_dev": self.max_entry_dev, "max_gram_dev": self.max_gram_dev,
            "tol": self.tol,
        }


@lru_cache(maxsize=None)
def _mcfarland_twin(q: int, j: int) -> tuple[SteinerSystem, UnimodularMatrix, np.ndarray, np.ndarray]:
    """What mcfarland_as_kirkman reads that depends on (q, j) alone, built
    once per (q, j): the affine design in (r, s) order, the trace-character
    basis and the read-only identification (rows, cols) of the Kirkman twin
    with the harmonic frame of any G.  Row (r, s) is the difference-set
    element (g_r, g^r s), at rows[r S + s] among the sorted elements of D,
    whatever G is, since an element's index is r |V| + v.  Column (u, v) is
    the character (u, w) with w(l) = tr(v * x^l) over the power basis x^l
    of V, at the place of V's coefficient l: the index
    cols[v (R+1) + u] = u |V| + sum_l w(l) p^l.  It holds the design's M
    blocks of q points, O(q M) ints; the S x S basis, its exponents and
    complex entries, with S^2 <= M; and the identification, O(M + N) ints:
    no M x N array."""
    structure, design = affine_structure(q, j)
    fld = structure.field
    elements = _mcfarland_elements(structure).ravel()
    rows = np.searchsorted(np.sort(elements), elements)
    place = fld.p ** np.arange(fld.k)
    w = (fld.trace_table[fld.mul_indices(np.arange(fld.order)[:, None], place)] * place).sum(axis=1)
    cols = (np.arange(design.r + 1) * fld.order + w[:, None]).ravel()
    return design, trace_character_basis(structure), gf._read_only(rows), gf._read_only(cols)


def mcfarland_as_kirkman(q: int, j: int, group_g: AbelianGroup,
                         tol: float = 1e-9) -> tuple[Frame, Frame, McFarlandMatchReport]:
    """Build the same ETF twice: as restricted characters over the
    hyperplane-translate difference set, and as the flat transform of the
    affine design with f_u(r) = chi_u(g_r) and the trace-character basis.

    Returns (harmonic frame, design-based frame, match report), under the
    canonical identification of row (r, s) with group element (g_r, g^r s)
    and of column (u, v) with the character pair.  Both frames are exact
    forms built by _assemble: the harmonic one from the character phases at
    the difference set, the design-based one from the sums of simplex and
    basis exponents (kirkman_etf), both mod the exponent L of G x V: phase
    forms, sign frames (L = 2) when G has exponent two and p = 2.  q and j
    must be integers (errors._integers).

    The design, the basis and the identification, which depend on (q, j)
    alone (_mcfarland_twin), and the difference set of (q, j, G)
    (mcfarland_set) are built once per process and read-only; each call
    builds only what it returns, the two frames and the report, from the
    simplex of G.  The harmonic frame is built again even when the caller
    has just built it, since it is a returned value.

    The theorem is checked as one integer identity, the only test: both are
    unit-norm flat frames at scale M, and their exponents (_unit_exponents)
    have the same order L and are equal under the identification, so the
    frames are the same matrix and both deviations are exactly 0.0, with no
    complex entry formed.  Should the identity fail, that is a bug, and
    InvariantViolation names q, j, G and the first entry (row, column) of
    the design-based frame, in row-major order, where it fails.
    """
    q, j = _integers(q=q, j=j)
    dset = _mcfarland_set(q, j, group_g)
    design, basis, rows, cols = _mcfarland_twin(q, j)
    harm = harmonic_etf(dset.group, dset)
    kirk = kirkman_etf(design, simplex_from_characters(group_g, group_g.order - 1), basis)
    kirk.provenance["construction"] = "mcfarland-kirkman"

    where = f"McFarland frame for q={q}, j={j}, G={group_g.factors}"
    a, k = _unit_exponents(harm), _unit_exponents(kirk)
    if a is None or k is None or a[1] != k[1]:
        raise InvariantViolation(f"{where}: its two builds are not flat frames of one root order")
    mapped = a[0][rows][:, cols]
    if not np.array_equal(mapped, k[0]):
        row, col = np.argwhere(mapped != k[0])[0].tolist()
        raise InvariantViolation(f"{where} fails the exponent identity at Kirkman entry ({row}, {col})")
    report = McFarlandMatchReport(q=q, j=j, group=tuple(group_g.factors),
                                  max_entry_dev=0.0, max_gram_dev=0.0, tol=tol)
    return harm, kirk, report


# -- Naimark complement --------------------------------------------------------

def _tightness_deviation(entries: np.ndarray) -> float:
    """max |F F^H - (N/M) I| for the M x N entries F, in floating point: a
    float certificate's tightness residual and naimark_complement's check."""
    m, n = entries.shape
    return float(np.abs(entries @ entries.conj().T - (n / m) * np.eye(m)).max())


def _group_hint(frame: Frame) -> AbelianGroup | None:
    """The abelian group Z_f1 x ... x Z_ft that the provenance field "group"
    names as the labelling of the columns, when it is a nonempty list of
    positive ints; None otherwise.  Only a hint: _character_rows verifies
    it on the exponents before anything rests on it."""
    factors = frame.provenance.get("group")
    if type(factors) is not list or not factors or not all(type(f) is int and f > 0 for f in factors):
        return None
    return AbelianGroup(tuple(factors))


def _unit_exponents(frame: Frame) -> tuple[np.ndarray, int] | None:
    """(exponents, L) with the frame exactly zeta_L^exponents / sqrt(M): a
    phase frame's stored phases, a sign frame's among them, when its scale
    is M; None for any other frame."""
    return frame._phases if frame.phases is not None and frame.scale_sq == frame.m else None


def _character_rows(frame: Frame) -> tuple[AbelianGroup, np.ndarray] | None:
    """(G, labels) when the frame's provenance names G (_group_hint) and its
    exact exponents (_unit_exponents) are, row by row, the distinct
    characters chi_d of G, d over the labels (flatmat._character_labels);
    None otherwise, for a float frame among others: the one test of whether
    a frame is a character frame.  The frame is then exactly
    zeta_L^exponents / sqrt(M), whose rows are orthogonal, each of squared
    norm N / M."""
    group = _group_hint(frame)
    form = None if group is None else _unit_exponents(frame)
    labels = None if form is None else _character_labels(*form, group)
    return None if labels is None else (group, labels)


def naimark_complement(frame: Frame, tol: float = 1e-9) -> Frame:
    """The (N-M) x N unit-norm tight frame whose rows complete the scaled
    rows of a tight frame to an orthogonal N x N system; NotTight unless
    the frame is tight within tol.

    A character frame (_character_rows) has rows chi_d / sqrt(M), d over
    its labels D.  Its complement is the characters at the other elements
    of G over sqrt(N - M), gathered as phases (_character_phases), assembled
    by _assemble and carrying the group.  Stacked, the rows of both frames,
    scaled by sqrt(M/N) and sqrt((N-M)/N), are the whole character table
    over sqrt(N), whose rows are exactly orthogonal since distinct
    characters are.  So the frame and its complement are exactly tight, and
    neither a frame operator nor an SVD is formed; when D is a difference
    set, the complement has the exact form of harmonic_etf of the
    complementary set.  An exponent-two group gives a sign frame.

    Every other frame, a float frame, one with no group hint and one whose
    check fails, is checked tight on its float frame operator
    (_tightness_deviation), and its complement is read off the SVD.  The
    SVD's last bits depend on the BLAS kernel and its thread count, so the
    bytes of such a complement are fixed only under one BLAS and thread
    count (OPENBLAS_NUM_THREADS, for OpenBLAS)."""
    m, n = frame.m, frame.n
    if m == 0:
        raise NotTight("a frame with no rows has no frame operator (N/M) I")
    prov = {"construction": "naimark", "parent_m": m, "parent_n": n}
    rows = _character_rows(frame)
    if rows is None:
        dev = _tightness_deviation(frame.entries)
        if dev > tol:
            raise NotTight(f"frame operator deviates from (N/M) I by {dev:.3e}")
    if n == m:
        return Frame(entries=np.zeros((0, n), dtype=np.complex128), provenance=prov)
    if rows is not None:
        group, labels = rows
        rest = np.ones(n, dtype=bool)
        rest[labels] = False
        phases, order = _character_phases(group, np.flatnonzero(rest))
        return _assemble(phases, n - m, {**prov, "group": list(group.factors)}, order)
    _, _, vh = np.linalg.svd(frame.entries, full_matrices=True)
    out = Frame(entries=(vh[m:, :] * np.sqrt(n / (n - m))).astype(np.complex128), provenance=prov)
    out.check_unit_norm()
    return out

"""(2,K,V)-Steiner systems: construction, validation, resolutions, serialization.

A SteinerSystem is stored in canonical form: each block is a sorted tuple of
0-based point indices, blocks within a parallel class are sorted, and classes
are sorted by their smallest block.  Canonical form is what makes the golden
fixtures byte-stable; all constructors here emit it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import asdict, dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations

import numpy as np

from . import gf
from .errors import BadDimensions, DesignFormatError, FieldConstructionError, InvariantViolation, OddPointCount
from .flatmat import hadamard_order_reachable


@dataclass(frozen=True)
class SteinerSystem:
    """V points, B blocks of size K, every point pair in exactly one block.

    resolution, when present, lists R parallel classes, each a list of block
    indices whose blocks partition the point set.  The fields are checked
    once, here: v and k integers with 2 <= k <= v, block points in [0, V) and
    resolution indices in [0, B), where an integer is a Python or numpy
    integer, not a bool; else DesignFormatError.  Points and indices are
    stored as tuples of Python ints, which JSON writes.
    """

    v: int
    k: int
    blocks: tuple[tuple[int, ...], ...]
    resolution: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):  # K >= 2: blocks hold two points or more, and V/K and (V-1)/(K-1) need it
        if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in (self.v, self.k)):
            raise DesignFormatError(f"v and k must be integers, got v={self.v!r}, k={self.k!r}")
        object.__setattr__(self, "v", int(self.v))
        object.__setattr__(self, "k", int(self.k))
        if self.k < 2:
            raise DesignFormatError(f"k must be at least 2, got {self.k}")
        if self.v < self.k:  # no block of K points fits, and V = 0 would pass every check of validate
            raise DesignFormatError(f"v must be at least k = {self.k}, got {self.v}")
        bound = self.v
        for name, what in (("blocks", "block point"), ("resolution", "resolution index")):
            if name == "resolution" and self.resolution is None:
                break
            try:
                rows = tuple(map(tuple, getattr(self, name)))
            except TypeError as e:
                raise DesignFormatError(f"{name} must be a list of lists of integers: {e}") from e
            values = list(chain.from_iterable(rows))
            types = set(map(type, values))
            if not all(issubclass(t, (int, np.integer)) and not issubclass(t, bool) for t in types):
                raise DesignFormatError(f"every {what} must be an integer")
            if values and not (0 <= min(values) and max(values) < bound):
                bad = next(x for x in values if not 0 <= x < bound)
                raise DesignFormatError(f"{what} {bad} is out of range [0, {bound})")
            if types != {int}:
                rows = tuple(tuple(map(int, row)) for row in rows)
            object.__setattr__(self, name, rows)
            bound = len(rows)

    @property
    def b(self) -> int:
        return len(self.blocks)

    @property
    def r(self) -> int:
        return (self.v - 1) // (self.k - 1)

    @property
    def s(self) -> int:
        return self.v // self.k

    def to_json(self) -> str:
        return json.dumps({"v": self.v, "k": self.k, "blocks": self.blocks, "resolution": self.resolution},
                          sort_keys=True)


@dataclass(frozen=True)
class DesignParams:
    """Arithmetic consequences of (K, V) with feasibility flags; r, b, s and w
    are None where they are not integers.  The fields after flags are None
    unless w is an integer; then they give the M x N Kirkman ETF, M = B and
    N = V(R+1), a difference set of its size (Lambda = M(M-1)/(N-1) and
    degree M - Lambda), and a real flat build's needs: Hadamard orders R+1
    and S = V/K, both 0 mod 4 when K = 2 mod 4 and W = 3 mod 4 (reported,
    not required), and a design that a generator here builds (Fickus, Mixon
    and Tremain, "Steiner equiangular tight frames", 2012).
    """

    v: int
    k: int
    r: int | None
    b: int | None
    s: int | None
    w: int | None
    flags: dict
    m: int | None = None
    n: int | None = None
    lam: int | None = None
    degree: int | None = None
    hadamard_order_simplex: int | None = None
    hadamard_order_basis: int | None = None
    simplex_constructible: bool | None = None
    basis_constructible: bool | None = None
    k_2_mod_4: bool | None = None
    w_3_mod_4: bool | None = None
    design_available: bool | None = None

    @property
    def constructible(self) -> bool:
        """Whether the package builds a real constant-amplitude Kirkman ETF on (K, V)."""
        return bool(self.design_available and self.simplex_constructible and self.basis_constructible)

    def as_dict(self) -> dict:
        doc = {"report": "design-params", "passed": self.constructible, **asdict(self)}
        doc["lambda"] = doc.pop("lam")
        return doc


def parse_design(text: str) -> SteinerSystem:
    """The design of a to_json document; SteinerSystem checks its fields."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as e:
        raise DesignFormatError(f"invalid JSON: {e}") from e
    try:
        v, k, blocks = doc["v"], doc["k"], doc["blocks"]
    except (KeyError, TypeError) as e:
        raise DesignFormatError(f"malformed design document: {e}") from e
    return SteinerSystem(v=v, k=k, blocks=blocks, resolution=doc.get("resolution"))


def _canonicalize(classes: list[list[tuple[int, ...]]]) -> tuple[tuple, tuple]:
    """Sort blocks within classes, classes by smallest block; flatten class-major."""
    classes = sorted((sorted(tuple(sorted(b)) for b in cls) for cls in classes), key=lambda cls: cls[0])
    starts = list(accumulate(map(len, classes), initial=0))
    return tuple(chain.from_iterable(classes)), tuple(tuple(range(a, b)) for a, b in zip(starts, starts[1:]))


def steiner_params(k: int, v: int) -> DesignParams:
    """Parameter arithmetic for a putative (2,k,v)-Steiner system.

    k and v must be integers (_integers).  Infeasibility is reported in flags
    rather than raised: r and b integrality, Fisher's count bound, and the
    resolvability congruence v = k mod k(k-1) (equivalently integral w with
    v = w*k*(k-1) + k), which decides whether the resolvable fields are set.
    """
    k, v = _integers(k=k, v=v)
    if not (v > k >= 2):
        raise BadDimensions(f"need v > k >= 2, got k={k}, v={v}")
    r_num, r_den = v - 1, k - 1
    b_num, b_den = v * (v - 1), k * (k - 1)
    r = r_num // r_den if r_num % r_den == 0 else None
    b = b_num // b_den if b_num % b_den == 0 else None
    s = v // k if v % k == 0 else None
    w = (v - k) // (k * (k - 1)) if (v - k) % (k * (k - 1)) == 0 else None
    flags = {
        "r_integral": r is not None,
        "b_integral": b is not None,
        "fisher": b is not None and b >= v,
        "k_divides_v": s is not None,
        "resolvable_congruence": v % (k * (k - 1)) == k % (k * (k - 1)),
        "bose": b is not None and r is not None and b >= v + r - 1,
    }
    resolvable = {} if w is None else _resolvable_params(k, v, w, r, b)
    return DesignParams(v=v, k=k, r=r, b=b, s=s, w=w, flags=flags, **resolvable)


def _resolvable_params(k: int, v: int, w: int, r: int, b: int) -> dict:
    """The resolvable fields of DesignParams.  Lambda must divide out of
    M(M-1)/(N-1), equal its closed form W[W(K-1)+1] and leave degree
    [W(K-1)+1]^2, else InvariantViolation (a raise, so it survives python -O).
    A generator builds the design when K = 2 (round_robin_design: V is even
    and at least 4), for (3, 15) (kirkman15), and for V = K^(j+1) <=
    gf.SIZE_LIMIT with K a prime power (affine_design)."""
    m, n = b, v * (r + 1)
    lam, rest = divmod(m * (m - 1), n - 1)
    root = w * (k - 1) + 1
    if rest or lam != w * root or m - lam != root * root:
        raise InvariantViolation(f"Lambda = {m * (m - 1)}/{n - 1} disagrees with W[W(K-1)+1] = {w * root}")
    pk, pv = gf.prime_power(k), v <= gf.SIZE_LIMIT and gf.prime_power(v)
    affine = bool(pk and pv) and pk[0] == pv[0] and pv[1] % pk[1] == 0  # V = K^(j+1)
    return dict(m=m, n=n, lam=lam, degree=m - lam, hadamard_order_simplex=r + 1, hadamard_order_basis=v // k,
                simplex_constructible=hadamard_order_reachable(r + 1),
                basis_constructible=hadamard_order_reachable(v // k), k_2_mod_4=k % 4 == 2, w_3_mod_4=w % 4 == 3,
                design_available=k == 2 or (k, v) == (3, 15) or affine)


def affine_design(q: int, j: int) -> SteinerSystem:
    """Resolvable (2, q, q^(j+1)) system whose blocks are the affine lines of
    a (j+1)-dimensional space over GF(q).

    Points are field elements of GF(q^(j+1)) in canonical index order.  The
    line with direction exponent r and hyperplane offset s is
    { s*g^-r*d^-1 + t*g^-r : t in GF(q) } for the canonical primitive element
    g and trace-one element d; class r collects the lines of direction g^-r.
    Output is re-sorted into canonical form like every other constructor.
    """
    structure, lines = _affine_lines(*_integers(q=q, j=j))
    blocks, resolution = _canonicalize(lines.tolist())
    return SteinerSystem(v=structure.field.order, k=q, blocks=blocks, resolution=resolution)


@dataclass(frozen=True, eq=False)
class AffineStructure:
    """The field data behind an affine design, kept in (r, s) order.

    hyperplane holds the indices of the trace-zero elements in canonical
    order, and delta the index of the trace-one element; class r of the
    design has its blocks indexed by hyperplane position, which is the
    alignment the harmonic/flat-frame comparison needs.
    """

    q: int
    j: int
    field: gf.FiniteField
    hyperplane: np.ndarray
    delta: int


def _integers(**values) -> tuple[int, ...]:
    """The named values as Python ints, checked before any arithmetic or cache
    is asked: each must be a Python or numpy integer, not a bool, else
    BadDimensions (2.0 would find the cached entry of 2)."""
    if not all(isinstance(x, (int, np.integer)) and not isinstance(x, bool) for x in values.values()):
        got = ", ".join(f"{name}={x!r}" for name, x in values.items())
        raise BadDimensions(f"{' and '.join(values)} must be integers, got {got}")
    return tuple(map(int, values.values()))


@lru_cache(maxsize=None)
def _affine_field(q: int, j: int) -> AffineStructure:
    """The field data of the affine design over GF(q^(j+1)), with no design
    built: its field, read-only trace-zero hyperplane and trace-one element,
    built once per (q, j), as gf.make_field builds each field once."""
    pp = gf.prime_power(q)
    if pp is None:
        raise FieldConstructionError(f"q = {q} is not a prime power")
    p, d = pp
    if j < 1:
        raise BadDimensions(f"need j >= 1, got {j}")
    fld = gf.make_field(p, d * (j + 1))
    hyper = gf.hyperplane_kernel(fld, q)
    hyper.flags.writeable = False
    return AffineStructure(q=q, j=j, field=fld, hyperplane=hyper, delta=gf.trace_one_element(fld, q))


def _affine_lines(q: int, j: int) -> tuple[AffineStructure, np.ndarray]:
    """The field data of the affine design over GF(q^(j+1)) and its R x S x q
    lines, each sorted, with no design built: class r, offset s holds the
    line {s * g^-r * delta^-1 + t * g^-r : t in GF(q)}."""
    structure = _affine_field(q, j)
    fld, hyper, delta = structure.field, structure.hyperplane, structure.delta
    n1 = fld.order - 1
    g_neg = fld.antilog[-np.arange((q ** (j + 1) - 1) // (q - 1)) % n1][:, None]  # g^-r, an R x 1 column
    start = fld.mul_indices(fld.mul_indices(hyper, g_neg), fld.pow_indices(delta, n1 - 1))
    steps = fld.mul_indices(fld.subfield_indices(fld.k // (j + 1)), g_neg)  # GF(q) = GF(p^(k/(j+1)))
    return structure, np.sort(fld.add_indices(start[:, :, None], steps[:, None, :]), axis=-1)


def affine_structure(q: int, j: int) -> tuple[AffineStructure, SteinerSystem]:
    """Affine design in natural (r, s) block order plus its field data."""
    structure, lines = _affine_lines(*_integers(q=q, j=j))
    resolution = np.arange(lines[..., 0].size).reshape(lines.shape[:2]).tolist()  # class r lists its S lines
    return structure, SteinerSystem(v=structure.field.order, k=q, blocks=lines.reshape(-1, q).tolist(),
                                    resolution=resolution)


def round_robin_design(v: int) -> SteinerSystem:
    """The complete (2,2,v) design resolved by the circle-method schedule.

    Round r pairs {v-1, r} and {(r+i) mod (v-1), (r-i) mod (v-1)} for
    i = 1 .. v/2 - 1, then the rounds are put in canonical form.
    """
    if v < 4 or v % 2:
        raise OddPointCount(f"round-robin resolution needs an even v >= 4, got {v}")
    n = v - 1
    blocks, resolution = _canonicalize([[(n, r)] + [((r + i) % n, (r - i) % n) for i in range(1, v // 2)]
                                        for r in range(n)])
    return SteinerSystem(v=v, k=2, blocks=blocks, resolution=resolution)


# A classical resolvable (2,3,15) triple system (schoolgirl schedule), frozen
# in canonical form: 7 days of 5 disjoint triples covering each pair once.
_KIRKMAN15_CLASSES = (
    ((0, 1, 2), (3, 7, 11), (4, 9, 14), (5, 10, 12), (6, 8, 13)),
    ((0, 3, 4), (1, 7, 9), (2, 12, 13), (5, 8, 14), (6, 10, 11)),
    ((0, 5, 6), (1, 8, 10), (2, 11, 14), (3, 9, 13), (4, 7, 12)),
    ((0, 7, 8), (1, 11, 13), (2, 4, 5), (3, 10, 14), (6, 9, 12)),
    ((0, 9, 10), (1, 12, 14), (2, 3, 6), (4, 8, 11), (5, 7, 13)),
    ((0, 11, 12), (1, 3, 5), (2, 8, 9), (4, 10, 13), (6, 7, 14)),
    ((0, 13, 14), (1, 4, 6), (2, 7, 10), (3, 8, 12), (5, 9, 11)),
)


def kirkman15() -> SteinerSystem:
    """The embedded resolvable (2,3,15) system: 35 triples in 7 parallel classes."""
    blocks, resolution = _canonicalize([list(cls) for cls in _KIRKMAN15_CLASSES])
    return SteinerSystem(v=15, k=3, blocks=blocks, resolution=resolution)


def _flatten(seqs) -> tuple[np.ndarray, np.ndarray]:
    """The integer sequences concatenated, and the index of each value's sequence."""
    lengths = np.fromiter(map(len, seqs), dtype=np.intp, count=len(seqs))
    values = np.fromiter(chain.from_iterable(seqs), dtype=np.intp, count=int(lengths.sum()))
    return values, np.repeat(np.arange(len(seqs)), lengths)


def _class_partition(design: SteinerSystem) -> tuple[int | None, np.ndarray, np.ndarray]:
    """(bad, pos, block): the one test of whether a resolution's classes
    partition the points, for validate and both frame builders.  bad is the
    first class that does not, or None.  Classes are tabulated up to the
    first whose blocks hold other than V points, so no table is larger than
    the points the blocks list: pos[r, x] is the place in class r of the
    block holding x, block[r, x] its index, -1 where no block of r holds x.
    A class of V points that leaves no -1 is a partition."""
    listed, cls = _flatten(design.resolution)  # every listing of a block in a class, class-major
    lengths = np.fromiter(map(len, design.blocks), dtype=np.intp, count=design.b)[listed]
    sizes = np.bincount(cls, lengths, minlength=len(design.resolution)).astype(np.intp)
    count = next(iter(np.flatnonzero(sizes != design.v)), len(sizes))
    points, listing = _flatten([design.blocks[i] for i in listed[:np.searchsorted(cls, count)].tolist()])
    pos = np.full((count, len(points) // max(count, 1)), -1, dtype=np.intp)  # V: each class here lists V points
    block = np.full_like(pos, -1)
    pos[cls[listing], points] = (np.arange(len(listed)) - np.searchsorted(cls, cls))[listing]
    block[cls[listing], points] = listed[listing]
    bad = int(next(iter(np.flatnonzero((pos < 0).any(axis=1))), count))
    return (bad if bad < len(sizes) else None), pos, block


@dataclass(frozen=True)
class ValidationReport:
    """Per-invariant pass/fail, with the first counterexample on failure."""

    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    def as_dict(self) -> dict:
        return {
            "report": "design-validation",
            "passed": self.ok,
            "checks": [{"name": n, "passed": p, "detail": d} for n, p, d in self.checks],
        }


def validate(design: SteinerSystem) -> ValidationReport:
    """Check every Steiner/resolution invariant, reporting each separately."""
    checks = []
    v, k, blocks = design.v, design.k, design.blocks

    bad = next((b for b in blocks if len(set(b)) != k), None)
    checks.append(("block_sizes", bad is None, "" if bad is None else f"block {bad} does not have {k} distinct points"))

    counts = Counter(chain.from_iterable(blocks))  # as many entries as the blocks hold, whatever v is
    try:
        r_expected = (v - 1) / (k - 1)
    except OverflowError:  # past float64: no point lies in that many blocks
        r_expected = float("inf")
    bad_pt = next((p for p in range(v) if counts[p] != r_expected), None)
    checks.append(("replication", bad_pt is None,
                   "" if bad_pt is None else f"point {bad_pt} lies in {counts[bad_pt]} blocks, expected {r_expected:g}"))

    pair_counts = {}
    for blk in blocks:
        for pr in combinations(sorted(set(blk)), 2):
            pair_counts[pr] = pair_counts.get(pr, 0) + 1
    bad_pair = next((pr for pr, c in pair_counts.items() if c != 1), None)
    if bad_pair is None:
        # pairs in combinations' order, drawn lazily: combinations would first hold all of range(v)
        pairs = ((a, b) for a in range(v) for b in range(a + 1, v))
        missing = next((pr for pr in pairs if pr not in pair_counts), None)
        checks.append(("pair_coverage", missing is None, "" if missing is None else f"pair {missing} is uncovered"))
    else:
        checks.append(("pair_coverage", False, f"pair {bad_pair} is covered {pair_counts[bad_pair]} times"))

    b = len(blocks)
    r = design.r if (v - 1) % (k - 1) == 0 else None
    ident = r is not None and b * k == v * r and r * (k - 1) == v - 1
    checks.append(("parameter_identities", ident, "" if ident else f"BK = {b * k}, VR undefined or mismatched"))
    checks.append(("fisher", b >= v, "" if b >= v else f"B = {b} < V = {v}"))
    checks.append(("k_divides_v", v % k == 0,
                   "" if v % k == 0 else f"{k} does not divide {v}: no block subset can partition the points"))

    if design.resolution is not None:
        res = design.resolution
        flat = sorted(i for cls in res for i in cls)
        part = flat == list(range(b))
        checks.append(("resolution_partitions_blocks", part,
                       "" if part else "classes do not partition the block list"))
        bad_cls = _class_partition(design)[0]
        checks.append(("classes_partition_points", bad_cls is None,
                       "" if bad_cls is None else f"class {bad_cls} does not partition the point set"))
        bose = r is not None and b >= v + r - 1
        checks.append(("bose", bose, "" if bose else f"B = {b} < V + R - 1"))

    return ValidationReport(checks=tuple(checks))

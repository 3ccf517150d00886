"""Self-complementary binary codes and the Grey-Rankin bound.

A real +-1/sqrt(M) frame and a self-complementary (M, 2N) binary code are two
views of the same object: column signs map to bits (+ -> 0, - -> 1), the
second half of the code is the complement of the first, and distance-bound
equality for the code is Welch-bound equality for the frame.

A BinaryCode is one read-only W x m uint8 bit array; validation, text I/O and
the frame conversions are array operations on it.  All arithmetic in this
module is exact (bits and integers, no tolerances).  A self-complementary
code is certified as the frame it is: its distance and its ETF side are
both read off metrics._gram_profile of the frame S^T / sqrt(m) of its first
half's signs (_half), and certify_grbe hands that profile to
metrics._certify, the path certify_etf takes.  The profile is structural,
with no Gram, for the code of a Steiner-form sign frame (a kirkman_etf
frame, or a +-1 harmonic frame of (Z_2)^k), else it reads the N x N sign
Gram of the first half, computed by frames.exact_gram.  Any other code's
distance comes from its W x W sign Gram.  Linearity comes from GF(2)
elimination on words packed into Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import (
    CodeFormatError,
    InvariantViolation,
    NotRealConstantAmplitude,
    NotSelfComplementary,
    TooFewWords,
)
from .frames import Frame, exact_gram
from .metrics import DEFAULT_TOL, _certify, _gram_profile

_NOT_BITS = "every codeword must be a 0/1 vector of the stated length"


def _bit_array(m: int, words) -> np.ndarray:
    """words (an array or a sequence of sequences) as a W x m uint8 array,
    checked for shape and for 0/1 entries."""
    if isinstance(words, np.ndarray):
        arr = words
    else:
        words = tuple(words)
        if any(not hasattr(w, "__len__") or len(w) != m for w in words):
            raise CodeFormatError(_NOT_BITS)
        try:
            arr = np.array(words) if words else np.zeros((0, m), dtype=np.uint8)
        except (TypeError, ValueError) as e:
            raise CodeFormatError(_NOT_BITS) from e
    if arr.ndim != 2 or arr.shape[1] != m or not ((arr == 0) | (arr == 1)).all():
        raise CodeFormatError(_NOT_BITS)
    bits = np.array(arr, dtype=np.uint8, order="C")  # always a private copy
    bits.flags.writeable = False
    return bits


def _has_equal_rows(bits: np.ndarray) -> bool:
    """Whether two rows of a bit array are equal: the packed rows, sorted as
    opaque byte strings, have two equal neighbours.  (np.unique(axis=0) says
    the same, but its first call imports numpy.ma: about 6 ms and 1 MB in
    every CLI process.)"""
    if len(bits) < 2 or bits.shape[1] == 0:
        return len(bits) >= 2  # zero-length words are all equal
    packed = np.packbits(bits, axis=1)
    rows = np.sort(packed.view(np.dtype((np.void, packed.shape[1]))).ravel())
    return bool((rows[1:] == rows[:-1]).any())


class BinaryCode:
    """Distinct length-m bit vectors, held as the read-only W x m uint8 array
    `bits` (row w is word w); when self_complementary, word n+N is the
    complement of word n for the first half n = 0..N-1."""

    __slots__ = ("m", "bits", "self_complementary")

    def __init__(self, m: int, words, self_complementary: bool):
        if not isinstance(m, (int, np.integer)) or m < 0:
            raise CodeFormatError(f"code length must be a non-negative integer, got {m!r}")
        m = int(m)
        bits = _bit_array(m, words)
        count = bits.shape[0]
        if _has_equal_rows(bits):
            raise CodeFormatError("codewords must be distinct")
        if self_complementary:
            if count % 2:
                raise NotSelfComplementary("self-complementary codes have an even word count")
            half = count // 2
            broken = np.flatnonzero(((bits[:half] ^ bits[half:]) == 0).any(axis=1))
            if broken.size:
                i = int(broken[0])
                raise NotSelfComplementary(f"word {i + half} is not the complement of word {i}")
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "self_complementary", bool(self_complementary))

    def __setattr__(self, name, value):
        raise AttributeError("BinaryCode is immutable")

    def _key(self) -> tuple:
        return (self.m, self.self_complementary, self.bits.shape, self.bits.tobytes())

    def __eq__(self, other):
        if not isinstance(other, BinaryCode):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return (f"BinaryCode(m={self.m}, count={self.count}, "
                f"self_complementary={self.self_complementary})")

    @property
    def count(self) -> int:
        return self.bits.shape[0]

    @property
    def words(self) -> tuple[tuple[int, ...], ...]:
        """The words as a tuple of 0/1 tuples, derived from `bits`."""
        return tuple(map(tuple, self.bits.tolist()))

    def to_text(self) -> str:
        header = f"# etfkit-code m={self.m} n={self.count} selfcomp={int(self.self_complementary)}"
        body = np.empty((self.count, self.m + 1), dtype=np.uint8)
        np.add(self.bits, ord("0"), out=body[:, :-1])
        body[:, -1] = ord("\n")
        return header + "\n" + body.tobytes().decode("ascii")


def parse_code(text: str) -> BinaryCode:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("# etfkit-code"):
        raise CodeFormatError("missing '# etfkit-code' header line")
    fields = {}
    for tok in lines[0].split()[2:]:
        key, eq, value = tok.partition("=")
        if not eq:
            raise CodeFormatError(f"bad header token {tok!r}: expected key=value")
        fields[key] = value
    try:
        m, count, selfcomp = int(fields["m"]), int(fields["n"]), int(fields["selfcomp"])
    except (KeyError, ValueError) as e:
        raise CodeFormatError(f"bad header: {e}") from e
    if m < 0 or count < 0:
        raise CodeFormatError(f"bad header: m and n must be non-negative, got m={m}, n={count}")
    if selfcomp not in (0, 1):
        raise CodeFormatError(f"bad header: selfcomp must be 0 or 1, got {fields['selfcomp']!r}")
    body = lines[1:]
    bits = None
    if all(len(ln) == m for ln in body):
        # one char per byte: anything outside ASCII becomes '?' and fails below
        raw = np.frombuffer("".join(body).encode("ascii", "replace"), dtype=np.uint8)
        bits = raw - np.uint8(ord("0"))  # '0' -> 0, '1' -> 1, anything else > 1
        if bits.max(initial=0) > 1:
            bits = None
    if bits is None:
        for ln in body:  # only to quote the first bad line
            if len(ln) != m or any(c not in "01" for c in ln):
                raise CodeFormatError(f"bad codeword line {ln!r}")
    if len(body) != count:
        raise CodeFormatError(f"header says {count} words, file has {len(body)}")
    return BinaryCode(m=m, words=bits.reshape(count, m), self_complementary=bool(selfcomp))


def frame_to_code(frame: Frame) -> BinaryCode:
    """Column signs to bits (+ -> 0, - -> 1), then append all complements.

    The frame must be in exact sign form (+-1/sqrt(M) entries); the result is
    a self-complementary (M, 2N) code that round-trips with code_to_frame.
    """
    if not frame.is_sign_matrix:
        raise NotRealConstantAmplitude(
            "frame is not in exact sign form; only +-1/sqrt(M) frames convert to codes")
    bits = frame.exact_ints.T == -1
    return BinaryCode(m=frame.m, words=np.concatenate([bits, ~bits]), self_complementary=True)


def code_to_frame(code: BinaryCode) -> Frame:
    """Exponentiate the first half of a self-complementary code back into the
    M x N sign-form frame."""
    if not code.self_complementary:
        raise NotSelfComplementary("only self-complementary codes map back to frames")
    half = code.count // 2
    ints = 1 - 2 * code.bits[:half].T.astype(np.int64, order="C")
    frame = Frame(exact_ints=ints, scale_sq=code.m,
                  provenance={"construction": "from-code", "m": code.m, "n": half})
    frame.check_unit_norm()
    return frame


def _half(code: BinaryCode) -> tuple[int, Frame, tuple]:
    """(distance(code), F, profile) of a self-complementary code:
    F = S^T / sqrt(m), the frame of the signs S = (-1)^bit of the first
    N = W/2 words, which code_to_frame gives the code, and profile its
    metrics._gram_profile, whose offdiag max is max_{a != b} |G_ab| / m for
    the half sign Gram G = S S^T (see distance).  S^T is held as an int8
    view, with no copy and no norm pass: +-1 over sqrt(m) is unit-norm."""
    if code.count < 2:
        raise TooFewWords("distance needs at least two codewords")
    signs = 1 - 2 * code.bits[:code.count // 2].astype(np.int8)
    frame = Frame(exact_ints=signs.T, scale_sq=code.m)
    profile = _gram_profile(frame)
    return (code.m if code.count == 2 else (code.m - int(profile[0] * code.m)) // 2), frame, profile


def distance(code: BinaryCode) -> int:
    """Minimum pairwise Hamming distance over all codewords.

    With s_a = (-1)^(word a), the Hamming distance of words a and b is
    (m - <s_a, s_b>) / 2, so the minimum is (m - max_{a != b} <s_a, s_b>) / 2
    over the W x W sign Gram.

    A self-complementary code needs only the N x N Gram G of its first half
    (N = W/2).  The complement of w_b has signs -s_b, so for a != b in the
    first half
        d(w_a, w_b)  = d(~w_a, ~w_b) = (m - G_ab) / 2,
        d(w_a, ~w_b) = d(~w_a, w_b)  = (m + G_ab) / 2,
        d(w_a, ~w_a) = m,
    and the smaller of the first two is (m - |G_ab|) / 2 <= m / 2 <= m.  Hence
    the minimum is (m - max_{a != b} |G_ab|) / 2 for N >= 2 and m for N = 1,
    from a quarter of the multiply-adds of the full Gram.

    That maximum is m times the offdiag max of metrics._gram_profile of
    the frame S^T / sqrt(m) of the first half's signs (_half).  When that
    frame's Steiner form checks, every |G_ab| is m/R and no Gram is formed;
    otherwise exact_gram computes the Gram in float64, exact because every
    partial sum is at most m < 2**53, in N^2 memory.  Any other code reads
    its W x W sign Gram, in W^2 memory.
    """
    if code.self_complementary:
        return _half(code)[0]
    if code.count < 2:
        raise TooFewWords("distance needs at least two codewords")
    gram = exact_gram(1 - 2 * code.bits.astype(np.int8))
    np.fill_diagonal(gram, -code.m)  # no pair has a smaller inner product
    return (code.m - int(gram.max())) // 2


@dataclass(frozen=True)
class BoundReport:
    """Grey-Rankin word-count ceiling 8 d (m - d) / (m - (m - 2d)^2), valid
    only when the denominator is positive."""

    m: int
    delta: int
    applicable: bool
    value: Fraction | None

    def as_dict(self) -> dict:
        return {
            "report": "grey-rankin-bound",
            "passed": self.applicable,
            "m": self.m,
            "delta": self.delta,
            "applicable": self.applicable,
            "value": None if self.value is None else
                     (int(self.value) if self.value.denominator == 1 else str(self.value)),
        }


def grey_rankin_bound(m: int, delta: int) -> BoundReport:
    """Bound on 2N for a self-complementary (m, 2N) code of distance delta;
    NotApplicable (value None) when 2*delta <= m - sqrt(m)."""
    denom = m - (m - 2 * delta) ** 2
    if denom <= 0:
        return BoundReport(m=m, delta=delta, applicable=False, value=None)
    return BoundReport(m=m, delta=delta, applicable=True,
                       value=Fraction(8 * delta * (m - delta), denom))


@dataclass(frozen=True)
class GrbeCertificate:
    """Both sides of the distance/coherence equivalence, independently run.

    bound_equality checks 2N against the exact Grey-Rankin value; etf_passed
    runs the exact ETF certificate on the exponentiated first half.  The two
    verdicts agreeing is itself the equivalence under test, so agreement is
    reported rather than assumed.
    """

    m: int
    count: int
    delta: int
    bound_applicable: bool
    bound_value: Fraction | None
    bound_equality: bool
    etf_passed: bool

    @property
    def agrees(self) -> bool:
        return self.bound_equality == self.etf_passed

    def as_dict(self) -> dict:
        return {
            "report": "grbe-certificate",
            "passed": self.bound_equality and self.etf_passed,
            "m": self.m,
            "words": self.count,
            "delta": self.delta,
            "bound_applicable": self.bound_applicable,
            "bound_value": None if self.bound_value is None else
                           (int(self.bound_value) if self.bound_value.denominator == 1
                            else str(self.bound_value)),
            "bound_equality": self.bound_equality,
            "etf_passed": self.etf_passed,
            "verdicts_agree": self.agrees,
        }


def certify_grbe(code: BinaryCode) -> GrbeCertificate:
    """Certify Grey-Rankin equality and cross-check it against the exact ETF
    certificate of the corresponding sign frame, both read from one exact
    profile of the frame of the first half (_half), which metrics._certify
    turns into the ETF side, so one path decides both.  For the code of a
    Steiner-form sign frame (a kirkman_etf frame) the profile is
    structural: no Gram and no frame operator is formed, and its Fractions
    are the dense ones.  Any other code forms the N x N half sign Gram once,
    and the M x M frame operator for the ETF side."""
    if not code.self_complementary:
        raise NotSelfComplementary("Grey-Rankin certification applies to self-complementary codes")
    delta, frame, profile = _half(code)
    bound = grey_rankin_bound(code.m, delta)
    equality = bound.applicable and bound.value == code.count
    if code.count // 2 >= max(code.m, 2):
        # exact path: the profile the distance read is the Gram profile of
        # code_to_frame's frame, so the certificate tolerance plays no role
        # in the verdict comparison
        etf_passed = _certify(frame, profile, DEFAULT_TOL).passed
    else:
        # a lone vector and its complement span no ETF, and fewer than m
        # vectors cannot span R^m at all, let alone tightly
        etf_passed = False
    return GrbeCertificate(
        m=code.m, count=code.count, delta=delta,
        bound_applicable=bound.applicable, bound_value=bound.value,
        bound_equality=equality, etf_passed=etf_passed,
    )


@dataclass(frozen=True)
class LinearityReport:
    """Closure of the word set under bitwise addition, plus the dimension
    families a linear bound-equality code is allowed to have."""

    linear: bool
    witness: tuple[int, int] | None
    family: str | None

    def as_dict(self) -> dict:
        return {
            "report": "linearity",
            "passed": self.linear,
            "linear": self.linear,
            "witness": list(self.witness) if self.witness else None,
            "family": self.family,
        }


def _classify_linear_dimensions(m: int, count: int) -> str | None:
    """Which allowed family (if any) a linear bound-equality code of these
    dimensions falls into: the simplex family m = 2^(j+1) - 1 with 2^(j+2)
    words, or m = 2^j (2^(j+1) +- 1) with 2^(2j+3) words."""
    j = 1
    while 2 ** (j + 2) <= count or 2 ** (2 * j + 3) <= count:
        if m == 2 ** (j + 1) - 1 and count == 2 ** (j + 2):
            return "simplex"
        if count == 2 ** (2 * j + 3):
            if m == 2 ** j * (2 ** (j + 1) - 1):
                return "bent-minus"
            if m == 2 ** j * (2 ** (j + 1) + 1):
                return "bent-plus"
        j += 1
    return None


def _gf2_rank_exceeds(words: list[int], limit: int) -> bool:
    """Whether the GF(2) span of the packed words has rank above limit, by
    XOR-basis elimination: O(len(words) * rank) integer XORs."""
    basis: list[int] = []  # distinct leading bits, in decreasing order
    for w in words:
        for b in basis:
            w = min(w, w ^ b)
        if w:
            basis.append(w)
            basis.sort(reverse=True)
            if len(basis) > limit:
                return True
    return False


def is_linear(code: BinaryCode) -> LinearityReport:
    """XOR closure of the word set; when closed, also report the allowed
    dimension family for linear bound-equality codes (None if neither fits).

    A set of W distinct words that contains zero is closed under XOR exactly
    when it is a GF(2) subspace, that is when W == 2**rank.  Words are packed
    into Python integers and the rank found by elimination, O(W * m) bit
    work.  Only a set that is not closed gets the pairwise scan, in
    lexicographic pair order, for its first witness pair (i, j).
    """
    packed = [int.from_bytes(row.tobytes(), "big") for row in np.packbits(code.bits, axis=1)]
    wordset = set(packed)
    if 0 not in wordset:
        return LinearityReport(linear=False, witness=None, family=None)
    count = code.count
    dim = count.bit_length() - 1
    if count == 1 << dim and not _gf2_rank_exceeds(packed, dim):
        return LinearityReport(linear=True, witness=None,
                               family=_classify_linear_dimensions(code.m, count))
    for i, j in combinations(range(count), 2):
        if packed[i] ^ packed[j] not in wordset:
            return LinearityReport(linear=False, witness=(i, j), family=None)
    raise InvariantViolation("a non-subspace containing zero has a non-closed pair")  # unreachable

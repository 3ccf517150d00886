"""Self-complementary binary codes and the Grey-Rankin bound.

A real +-1/sqrt(M) frame and a self-complementary (M, 2N) binary code are two
views of the same object: column signs map to bits (+ -> 0, - -> 1), the
frame's exponents mod 2, the second half of the code is the complement of
the first, and distance-bound equality for the code is Welch-bound equality.

A BinaryCode is one read-only W x m uint8 bit array; validation, text I/O and
the frame conversions are array operations on it.  All arithmetic in this
module is exact (bits and integers, no tolerances).  A self-complementary
code is certified as the frame it is: its distance and its ETF side are
both read off metrics._gram_profile of the frame S^T / sqrt(m) of its first
half's bits, which code_to_frame builds (_half), and certify_grbe hands
that profile to metrics._certify, the path certify_etf takes.  The profile
is structural, with no Gram, for the code of a Steiner-form sign frame (a
kirkman_etf frame, or a +-1 harmonic frame of (Z_2)^k), else it reads the
N x N sign Gram of the first half, computed by frames.exact_gram.  Any other code's
distance comes from its W x W sign Gram.  Linearity comes from GF(2)
elimination on words packed into uint64 lanes, and a hashed table of them
for the first pair whose XOR is no word.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import (
    CodeFormatError,
    InvariantViolation,
    NotRealConstantAmplitude,
    NotSelfComplementary,
    TooFewWords,
)
from .frames import Frame, _signs, exact_gram
from .metrics import DEFAULT_TOL, _certify, _gram_profile

_NOT_BITS = "every codeword must be a 0/1 vector of the stated length"


def _bit_array(m: int, words) -> np.ndarray:
    """words (an array or a sequence of sequences) as a W x m uint8 array,
    checked for shape and for 0/1 entries; a bool array holds nothing else."""
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
    if arr.ndim != 2 or arr.shape[1] != m or (arr.dtype != bool and not ((arr == 0) | (arr == 1)).all()):
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


def _header(line: str) -> tuple[int, int, int]:
    """(m, n, selfcomp) of a code's header line.  Each field is a string of
    ASCII digits: int() would also read a sign, an underscore or a
    non-ASCII digit, and to_text would then write a different header."""
    if not line.startswith("# etfkit-code"):
        raise CodeFormatError("missing '# etfkit-code' header line")
    fields = {}
    for tok in line.split()[2:]:
        key, eq, value = tok.partition("=")
        if not eq:
            raise CodeFormatError(f"bad header token {tok!r}: expected key=value")
        fields[key] = value
    values = []
    for key in ("m", "n", "selfcomp"):
        if key not in fields:
            raise CodeFormatError(f"bad header: {key!r}")
        value = fields[key]
        if not (value.isascii() and value.isdigit()):
            wanted = "0 or 1" if key == "selfcomp" else "a non-negative integer in ASCII digits"
            raise CodeFormatError(f"bad header: {key} must be {wanted}, got {value!r}")
        values.append(int(value))
    m, count, selfcomp = values
    if m > np.iinfo(np.intp).max:  # a word that long fits no array, even in a code of no words
        raise CodeFormatError(f"bad header: m={m} is past the largest array dimension")
    if selfcomp not in (0, 1):
        raise CodeFormatError(f"bad header: selfcomp must be 0 or 1, got {fields['selfcomp']!r}")
    return m, count, selfcomp


def _canonical_bits(body: str, m: int, count: int) -> np.ndarray | None:
    """The count x m bits of a body laid out as to_text writes it, count
    lines of m characters 0 or 1, each ended by a newline, read as one
    count x (m+1) array of bytes; None for any other body, and for an empty
    one (with m = 0 its lines would be blank)."""
    if not (m and count) or len(body) != count * (m + 1):
        return None
    # one byte per character: anything outside ASCII becomes '?' and fails
    grid = np.frombuffer(body.encode("ascii", "replace"), dtype=np.uint8).reshape(count, m + 1)
    if not ((grid[:, m] == ord("\n")).all() and ((grid[:, :m] | 1) == ord("1")).all()):
        return None
    return grid[:, :m] == ord("1")


def parse_code(text: str) -> BinaryCode:
    """The code of a to_text document.  Blank lines are skipped and a line
    may end in any line break, but the text as to_text writes it, a header
    line and then the body, is checked as it stands, as one array of bytes
    (_canonical_bits).  Any other text is split into lines, which are
    checked the same way once joined; a bad line is quoted."""
    head, _, body = text.partition("\n")
    if head.strip() and head.splitlines() == [head]:  # the header is the first line
        m, count, selfcomp = _header(head)
        bits = _canonical_bits(body, m, count)
        if bits is not None:
            return BinaryCode(m=m, words=bits, self_complementary=bool(selfcomp))
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise CodeFormatError("missing '# etfkit-code' header line")
    m, count, selfcomp = _header(lines[0])
    body = lines[1:]
    bits = _canonical_bits("".join(ln + "\n" for ln in body), m, len(body))
    if bits is None:  # a bad line, or no lines
        for ln in body:  # only to quote the first bad line
            if len(ln) != m or any(c not in "01" for c in ln):
                raise CodeFormatError(f"bad codeword line {ln!r}")
        bits = np.zeros((0, m), dtype=bool)
    if len(body) != count:
        raise CodeFormatError(f"header says {count} words, file has {len(body)}")
    return BinaryCode(m=m, words=bits, self_complementary=bool(selfcomp))


def frame_to_code(frame: Frame) -> BinaryCode:
    """Column signs to bits (+ -> 0, - -> 1), then append all complements.

    The frame must be in exact sign form (+-1/sqrt(M) entries); the result is
    a self-complementary (M, 2N) code that round-trips with code_to_frame.
    """
    if not frame.is_sign_matrix:
        raise NotRealConstantAmplitude(
            "frame is not in exact sign form; only +-1/sqrt(M) frames convert to codes")
    bits = np.ascontiguousarray(frame.phases.T).view(bool)  # the exponents mod 2, in rows, are the bits
    return BinaryCode(m=frame.m, words=np.concatenate((bits, ~bits)), self_complementary=True)


def code_to_frame(code: BinaryCode) -> Frame:
    """The M x N sign-form frame S^T / sqrt(M), S = (-1)^bit of the first
    N = W/2 words of a self-complementary code: the transposed bits are its
    exponents mod 2, held as a view, with no copy and no norm pass (+-1 over
    sqrt(M) is unit-norm)."""
    if not code.self_complementary:
        raise NotSelfComplementary("only self-complementary codes map back to frames")
    half = code.count // 2
    return Frame(scale_sq=code.m, provenance={"construction": "from-code", "m": code.m, "n": half},
                 _phases=(code.bits[:half].T, 2))


def _half(code: BinaryCode) -> tuple[int, Frame, tuple]:
    """(distance(code), F, profile) of a self-complementary code: F its
    frame (code_to_frame) and profile its metrics._gram_profile, whose
    offdiag max is max_{a != b} |G_ab| / m for the half sign Gram
    G = S S^T (see distance)."""
    if code.count < 2:
        raise TooFewWords("distance needs at least two codewords")
    frame = code_to_frame(code)
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
    gram = exact_gram(_signs(code.bits))
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


_MIX = np.uint64(0x9E3779B97F4A7C15)  # odd, about 2^64 / golden ratio: multiplicative hashing
_PAIR_BLOCKS = (4096, 1 << 16)  # the pairs in _first_witness's first block, and its cap as they double


def _lanes(bits: np.ndarray) -> np.ndarray:
    """The L x W array of the W words of bits, each packed (np.packbits)
    into L = max(1, ceil(m / 64)) uint64 lanes, zero-padded: two words are
    equal exactly when their lanes are, and XOR acts lane by lane."""
    count, m = bits.shape
    lanes = max(1, -(-m // 64))
    packed = np.zeros((count, 8 * lanes), dtype=np.uint8)
    packed[:, :-(-m // 8)] = np.packbits(bits, axis=1)
    return np.ascontiguousarray(packed.view(np.uint64).T)


def _gf2_rank_exceeds(lanes: np.ndarray, limit: int) -> bool:
    """Whether the GF(2) span of the packed words (_lanes) has rank above
    limit, by elimination over all the words at once.  A step takes the
    first lane that is not zero in every word, the word largest there and
    its highest set bit in that lane, and XORs that word into every word
    with that bit, itself included: the others then lack the bit, so the
    pivot lies outside their span, and the rank falls by exactly one.  The
    rank exceeds limit exactly when words remain after limit steps, each
    one XOR over the W words."""
    words = lanes.copy()
    lane_of = np.arange(len(words))
    for _ in range(limit):
        ats = words.argmax(axis=1)
        tops = words[lane_of, ats]
        live = np.flatnonzero(tops)
        if not live.size:
            return False
        lane, at = words[live[0]], ats[live[0]]
        bit = np.uint64(1 << (int(tops[live[0]]).bit_length() - 1))
        np.bitwise_xor(words, words[:, at:at + 1].copy(), out=words, where=(lane & bit) != 0)
    return bool(words.any())


def _slots(lanes: np.ndarray, bits: int) -> np.ndarray:
    """The top bits of a multiplicative hash of each packed word's lanes: its
    slot in a table of 2^bits, as an index."""
    key = lanes[0] * _MIX
    for lane in lanes[1:]:
        key ^= lane
        key *= _MIX
    return (key >> np.uint64(64 - bits)).view(np.int64)


def _first_witness(lanes: np.ndarray) -> tuple[int, int] | None:
    """The first pair (i, j), i < j, in lexicographic order, whose XOR is
    not a word, or None.  The words go into a hash table of at least 8 W
    slots (_slots), sorted by slot, so a slot's words lie between two
    offsets.  The pairs are tried in blocks of whole rows i, each against
    every j > the block's first row: from about 4096 pairs, doubling up to
    65536 (_PAIR_BLOCKS), so a witness among the first rows costs only its
    block.  A pair's XOR is looked up round by round: the first compares
    every XOR with the first word of its slot, each later one the XORs
    still unfound with the next.  Words are distinct, so at most one
    matches, whatever the hash."""
    width, count = lanes.shape
    bits = (8 * count - 1).bit_length()
    slots = _slots(lanes, bits)
    order = np.argsort(slots, kind="stable")
    # the words by slot, and a zero word after them that an empty last slot's offset reads
    table = np.concatenate((lanes[:, order], np.zeros((width, 1), dtype=np.uint64)), axis=1)
    offsets = np.zeros((1 << bits) + 1, dtype=np.int64)
    np.cumsum(np.bincount(slots, minlength=1 << bits), out=offsets[1:])

    def found(xors: np.ndarray) -> np.ndarray:
        slot = _slots(xors, bits)
        at, stop = offsets.take(slot), offsets.take(slot + 1)
        hit = at < stop
        for lane, xor in zip(table, xors):
            hit &= lane.take(at) == xor
        todo = np.flatnonzero(~hit & (at + 1 < stop))
        while todo.size:
            at[todo] += 1
            pos = at.take(todo)
            same = np.ones(todo.size, dtype=bool)
            for lane, xor in zip(table, xors):
                same &= lane.take(pos) == xor.take(todo)
            hit[todo[same]] = True
            todo = todo[~same & (pos + 1 < stop.take(todo))]
        return hit

    first, (pairs, cap) = 0, _PAIR_BLOCKS
    while first < count - 1:
        span = count - first - 1  # the columns j = first + 1, ..., count - 1
        last = min(count - 1, first + max(1, pairs // span))
        xors = (lanes[:, first:last, None] ^ lanes[:, None, first + 1:]).reshape(width, -1)
        missing = ~found(xors).reshape(last - first, span)
        missing &= np.arange(span) >= np.arange(last - first)[:, None]  # j > i
        hits = np.flatnonzero(missing)
        if hits.size:
            row, col = divmod(int(hits[0]), span)
            return first + row, first + 1 + col
        first, pairs = last, min(2 * pairs, cap)
    return None


def is_linear(code: BinaryCode) -> LinearityReport:
    """XOR closure of the word set; when closed, also report the allowed
    dimension family for linear bound-equality codes (None if neither fits).

    A set of W distinct words that contains zero is closed under XOR exactly
    when it is a GF(2) subspace, that is when W == 2**rank.  Words are packed
    into uint64 lanes (_lanes) and the rank found by elimination over all of
    them at once (_gf2_rank_exceeds).  Only a set that is not closed gets the
    pair search, in lexicographic pair order, for its first witness pair
    (i, j) (_first_witness).
    """
    lanes = _lanes(code.bits)
    if not (lanes == 0).all(axis=0).any():
        return LinearityReport(linear=False, witness=None, family=None)
    count = code.count
    dim = count.bit_length() - 1
    if count == 1 << dim and not _gf2_rank_exceeds(lanes, dim):
        return LinearityReport(linear=True, witness=None,
                               family=_classify_linear_dimensions(code.m, count))
    witness = _first_witness(lanes)
    if witness is None:
        raise InvariantViolation("a non-subspace containing zero has a non-closed pair")  # unreachable
    return LinearityReport(linear=False, witness=witness, family=None)

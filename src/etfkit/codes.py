"""Self-complementary binary codes and the Grey-Rankin bound.

A real +-1/sqrt(M) frame and a self-complementary (M, 2N) binary code are two
views of the same object: column signs map to bits (+ -> 0, - -> 1), the
second half of the code is the complement of the first, and distance-bound
equality for the code is Welch-bound equality for the frame.  All arithmetic
in this module is exact (bits and integers, no tolerances): distances come
from the +-1 sign Gram of the words, computed by frames.exact_matmul, and
linearity from GF(2) elimination on words packed into Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations

import numpy as np

from .errors import (
    CodeFormatError,
    NotRealConstantAmplitude,
    NotSelfComplementary,
    TooFewWords,
)
from .frames import Frame, _numeric, exact_matmul
from .metrics import certify_etf


@dataclass(frozen=True)
class BinaryCode:
    """Distinct length-m bit vectors; when self_complementary, word n+N is
    the complement of word n for the first half n = 0..N-1."""

    m: int
    words: tuple[tuple[int, ...], ...]
    self_complementary: bool

    def __post_init__(self):
        if any(len(w) != self.m or any(b not in (0, 1) for b in w) for w in self.words):
            raise CodeFormatError("every codeword must be a 0/1 vector of the stated length")
        if len(set(self.words)) != len(self.words):
            raise CodeFormatError("codewords must be distinct")
        if self.self_complementary:
            count = len(self.words)
            if count % 2:
                raise NotSelfComplementary("self-complementary codes have an even word count")
            half = count // 2
            for i in range(half):
                comp = tuple(1 - b for b in self.words[i])
                if self.words[i + half] != comp:
                    raise NotSelfComplementary(
                        f"word {i + half} is not the complement of word {i}")

    @property
    def count(self) -> int:
        return len(self.words)

    def to_text(self) -> str:
        header = f"# etfkit-code m={self.m} n={self.count} selfcomp={int(self.self_complementary)}"
        lines = ["".join(str(b) for b in w) for w in self.words]
        return "\n".join([header] + lines) + "\n"


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
        m, count, selfcomp = int(fields["m"]), int(fields["n"]), bool(int(fields["selfcomp"]))
    except (KeyError, ValueError) as e:
        raise CodeFormatError(f"bad header: {e}") from e
    words = []
    for ln in lines[1:]:
        if len(ln) != m or any(c not in "01" for c in ln):
            raise CodeFormatError(f"bad codeword line {ln!r}")
        words.append(tuple(int(c) for c in ln))
    if len(words) != count:
        raise CodeFormatError(f"header says {count} words, file has {len(words)}")
    return BinaryCode(m=m, words=tuple(words), self_complementary=selfcomp)


def frame_to_code(frame: Frame) -> BinaryCode:
    """Column signs to bits (+ -> 0, - -> 1), then append all complements.

    The frame must be in exact sign form (+-1/sqrt(M) entries); the result is
    a self-complementary (M, 2N) code that round-trips with code_to_frame.
    """
    if not frame.is_sign_matrix:
        raise NotRealConstantAmplitude(
            "frame is not in exact sign form; only +-1/sqrt(M) frames convert to codes")
    bits = (frame.exact_ints.T == -1).astype(np.int64)
    words = np.concatenate([bits, 1 - bits]).tolist()
    return BinaryCode(m=frame.m, words=tuple(map(tuple, words)), self_complementary=True)


def code_to_frame(code: BinaryCode) -> Frame:
    """Exponentiate the first half of a self-complementary code back into the
    M x N sign-form frame."""
    if not code.self_complementary:
        raise NotSelfComplementary("only self-complementary codes map back to frames")
    half = code.count // 2
    bits = np.array(code.words[:half], dtype=np.int64).reshape(half, code.m)
    ints = np.ascontiguousarray(1 - 2 * bits.T)
    frame = Frame(entries=_numeric(ints, code.m), exact_ints=ints, scale_sq=code.m,
                  provenance={"construction": "from-code", "m": code.m, "n": half})
    frame.check_unit_norm()
    return frame


def distance(code: BinaryCode) -> int:
    """Minimum pairwise Hamming distance over all codewords.

    With s_a = (-1)^(word a), the Hamming distance of words a and b is
    (m - <s_a, s_b>) / 2, so the minimum is (m - max_{a != b} <s_a, s_b>) / 2
    over the W x W sign Gram.  exact_matmul computes that Gram in float64,
    exact because every partial sum is at most m < 2**53, in W^2 memory.
    """
    if code.count < 2:
        raise TooFewWords("distance needs at least two codewords")
    signs = 1 - 2 * np.array(code.words, dtype=np.int8)
    gram = exact_matmul(signs, signs.T)
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
    certificate of the corresponding sign frame."""
    if not code.self_complementary:
        raise NotSelfComplementary("Grey-Rankin certification applies to self-complementary codes")
    delta = distance(code)
    bound = grey_rankin_bound(code.m, delta)
    equality = bound.applicable and bound.value == code.count
    if code.count >= 4:
        # exact path: the frame from a code always carries integer form, so
        # the certificate tolerance plays no role in the verdict comparison
        etf_passed = certify_etf(code_to_frame(code)).passed
    else:
        etf_passed = False  # a lone vector and its complement span no ETF
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
    bits = np.array(code.words, dtype=np.uint8).reshape(code.count, code.m)
    packed = [int.from_bytes(row.tobytes(), "big") for row in np.packbits(bits, axis=1)]
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
    raise AssertionError("a non-subspace containing zero has a non-closed pair")  # unreachable

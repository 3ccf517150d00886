from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import fig3_words, hamming
from etfkit.codes import (
    BinaryCode,
    certify_grbe,
    code_to_frame,
    distance,
    frame_to_code,
    grey_rankin_bound,
    is_linear,
    parse_code,
)
from etfkit.designs import round_robin_design
from etfkit.errors import (
    CodeFormatError,
    EtfkitError,
    NotRealConstantAmplitude,
    NotSelfComplementary,
    TooFewWords,
)
from etfkit.flatmat import drop_row_simplex, hadamard
from etfkit.frames import Frame, kirkman_etf, steiner_etf
from etfkit.metrics import certify_etf


def fig2_frame() -> Frame:
    return kirkman_etf(round_robin_design(4), drop_row_simplex(hadamard(4), 0), hadamard(2))


def fig3_code() -> BinaryCode:
    return frame_to_code(fig2_frame())


def flat_28x64() -> Frame:
    return kirkman_etf(round_robin_design(8), drop_row_simplex(hadamard(8), 0), hadamard(4))


def test_fig3_words_match_reference():
    assert fig3_code().words == fig3_words()


def test_one_column_frame_converts():
    ints = np.array([[1]], dtype=np.int64)
    f = Frame(entries=ints.astype(np.complex128), exact_ints=ints, scale_sq=1)
    code = frame_to_code(f)
    assert code.words == ((0,), (1,))


def test_frame_to_code_requires_sign_form():
    sparse = steiner_etf(round_robin_design(4), drop_row_simplex(hadamard(4), 0))
    with pytest.raises(NotRealConstantAmplitude):
        frame_to_code(sparse)


def test_round_trip_through_code():
    f = fig2_frame()
    back = code_to_frame(frame_to_code(f))
    assert np.array_equal(back.exact_ints, f.exact_ints)
    assert back.scale_sq == f.scale_sq


def test_round_trip_through_frame():
    code = fig3_code()
    assert frame_to_code(code_to_frame(code)) == code


def test_code_file_round_trip():
    code = fig3_code()
    assert parse_code(code.to_text()) == code


def test_code_file_rejects_garbage():
    with pytest.raises(CodeFormatError):
        parse_code("001101\n010101\n")
    with pytest.raises(CodeFormatError):
        parse_code("# etfkit-code m=3 n=2 selfcomp=0\n0011\n1100\n")


def test_code_header_token_without_value_is_format_error():
    with pytest.raises(CodeFormatError, match="bogus"):
        parse_code("# etfkit-code m=3 bogus n=2 selfcomp=1\n000\n111\n")


def test_code_to_frame_needs_self_complementary():
    code = BinaryCode(m=3, words=((0, 0, 0), (1, 1, 0)), self_complementary=False)
    with pytest.raises(NotSelfComplementary):
        code_to_frame(code)


def test_self_complementary_ordering_enforced():
    with pytest.raises(NotSelfComplementary):
        BinaryCode(m=2, words=((0, 0), (0, 1)), self_complementary=True)


def test_distance_fig3():
    assert distance(fig3_code()) == 2


def test_distance_antipodal_pair():
    code = BinaryCode(m=5, words=((0,) * 5, (1,) * 5), self_complementary=True)
    assert distance(code) == 5


def test_distance_needs_two_words():
    with pytest.raises(TooFewWords):
        distance(BinaryCode(m=3, words=((0, 0, 0),), self_complementary=False))


def test_grey_rankin_values():
    assert grey_rankin_bound(6, 2).value == 32
    assert grey_rankin_bound(28, 12).value == 128
    rep = grey_rankin_bound(6, 1)
    assert not rep.applicable and rep.value is None


def test_certify_fig3():
    cert = certify_grbe(fig3_code())
    assert cert.delta == 2
    assert cert.bound_value == 32
    assert cert.bound_equality and cert.etf_passed and cert.agrees


def flip_entry(code: BinaryCode, word: int, bit: int) -> BinaryCode:
    """Flip one bit in a first-half word and mirror it in the complement half,
    keeping the code self-complementary."""
    half = code.count // 2
    words = [list(w) for w in code.words]
    words[word][bit] ^= 1
    words[word + half][bit] ^= 1
    return BinaryCode(m=code.m, words=tuple(tuple(w) for w in words), self_complementary=True)


def test_certify_flipped_fig3_fails_both_ways():
    cert = certify_grbe(flip_entry(fig3_code(), 1, 0))
    assert not cert.bound_equality
    assert not cert.etf_passed
    assert cert.agrees


def test_certify_28x128():
    code = frame_to_code(flat_28x64())
    cert = certify_grbe(code)
    assert cert.delta == 12
    assert cert.bound_value == 128
    assert cert.bound_equality and cert.etf_passed


def test_inner_product_hamming_identity():
    # M - 2 hd equals the integer Gram entry for every pair, exactly
    for frame in (fig2_frame(), flat_28x64()):
        code = frame_to_code(frame)
        half = code.count // 2
        g, d = code_to_frame(code).gram_exact()
        assert d == code.m
        for a in range(half):
            for b in range(half):
                assert g[a, b] == code.m - 2 * hamming(code.words[a], code.words[b])


def test_self_complementary_distance_bound():
    for code in (fig3_code(), frame_to_code(flat_28x64())):
        assert 2 * distance(code) <= code.m


def test_fig3_linearity_against_brute_force():
    code = fig3_code()
    wordset = set(code.words)
    closed = all(
        tuple(x ^ y for x, y in zip(a, b)) in wordset
        for a in code.words for b in code.words
    ) and (0,) * code.m in wordset
    report = is_linear(code)
    assert report.linear == closed
    if report.linear:
        assert report.family in ("simplex", "bent-minus", "bent-plus")


def test_flipped_code_is_nonlinear_or_reclassified():
    report = is_linear(flip_entry(fig3_code(), 1, 0))
    # one sign flip destroys closure: the XOR of two words leaves the set
    assert not report.linear
    assert report.witness is not None


def test_zero_word_alone_is_linear():
    code = BinaryCode(m=4, words=((0, 0, 0, 0),), self_complementary=False)
    report = is_linear(code)
    assert report.linear


def test_linear_family_classification():
    # simplex family: m = 2^(j+1) - 1 with 2^(j+2) words
    from etfkit.codes import _classify_linear_dimensions
    assert _classify_linear_dimensions(3, 8) == "simplex"
    assert _classify_linear_dimensions(6, 32) == "bent-minus"
    assert _classify_linear_dimensions(10, 32) == "bent-plus"
    assert _classify_linear_dimensions(7, 32) is None


def test_list_words_are_accepted():
    code = BinaryCode(m=2, words=[[0, 1], [1, 0]], self_complementary=True)
    assert code == BinaryCode(m=2, words=((0, 1), (1, 0)), self_complementary=True)
    assert code.words == ((0, 1), (1, 0))


def test_array_words_are_copied():
    arr = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    code = BinaryCode(m=2, words=arr, self_complementary=True)
    arr[0, 0] = 1
    assert code.words == ((0, 1), (1, 0))


def test_bits_are_read_only():
    code = fig3_code()
    assert code.bits.dtype == np.uint8 and code.bits.shape == (32, 6)
    with pytest.raises(ValueError):
        code.bits[0, 0] = 1
    with pytest.raises(AttributeError):
        code.m = 7


def test_equality_and_hash_cover_every_field():
    code = BinaryCode(m=2, words=((0, 1), (1, 0)), self_complementary=True)
    same = BinaryCode(m=2, words=np.array([[0, 1], [1, 0]]), self_complementary=True)
    assert code == same and hash(code) == hash(same)
    assert len({code, same}) == 1
    assert code != BinaryCode(m=2, words=((0, 1), (1, 0)), self_complementary=False)
    assert code != BinaryCode(m=2, words=((1, 0), (0, 1)), self_complementary=True)
    assert BinaryCode(m=0, words=(), self_complementary=False) != \
        BinaryCode(m=1, words=(), self_complementary=False)


@pytest.mark.parametrize("m", [-1, 2.0, "2", None])
def test_code_length_must_be_a_non_negative_integer(m):
    with pytest.raises(CodeFormatError, match="non-negative integer"):
        BinaryCode(m=m, words=(), self_complementary=False)


@pytest.mark.parametrize("words", [
    ((0, 2), (1, 0)),
    ((0, 1), (1,)),
    ("01", "10"),
    ((0, None), (1, 0)),
    ((0, [1]), (1, 0)),
    np.array([0, 1]),
    np.array([[0, 1, 0]]),
    np.array([[0.5, 1]]),
])
def test_malformed_words_are_format_errors(words):
    with pytest.raises(CodeFormatError, match="every codeword must be a 0/1 vector"):
        BinaryCode(m=2, words=words, self_complementary=False)


@pytest.mark.parametrize("header, message", [
    ("# etfkit-code m=-1 n=0 selfcomp=1", "non-negative"),
    ("# etfkit-code m=2 n=-2 selfcomp=1", "non-negative"),
    ("# etfkit-code m=2 n=2 selfcomp=7", "selfcomp must be 0 or 1"),
    ("# etfkit-code m=2 n=2 selfcomp=-1", "selfcomp must be 0 or 1"),
])
def test_code_header_is_strict(header, message):
    with pytest.raises(CodeFormatError, match=message):
        parse_code(header + "\n01\n10\n")


def test_few_half_words_certify_as_a_negative_verdict():
    # N = 2 < m = 3: the sign frame cannot be tight, so etf_passed is False
    # without running the ETF certificate on a 3 x 2 frame
    code = parse_code("# etfkit-code m=3 n=4 selfcomp=1\n000\n011\n111\n100\n")
    cert = certify_grbe(code)
    assert (cert.delta, cert.bound_value) == (1, 8)
    assert not cert.bound_equality and not cert.etf_passed and cert.agrees


# -- the tuple-based validation BinaryCode ran before it held a bit array,
# kept as the reference for the array form (with the strict header rules)

def reference_validate(m, words, self_complementary):
    if any(len(w) != m or any(b not in (0, 1) for b in w) for w in words):
        raise CodeFormatError("every codeword must be a 0/1 vector of the stated length")
    if len(set(words)) != len(words):
        raise CodeFormatError("codewords must be distinct")
    if self_complementary:
        count = len(words)
        if count % 2:
            raise NotSelfComplementary("self-complementary codes have an even word count")
        half = count // 2
        for i in range(half):
            comp = tuple(1 - b for b in words[i])
            if words[i + half] != comp:
                raise NotSelfComplementary(
                    f"word {i + half} is not the complement of word {i}")
    return m, tuple(words), bool(self_complementary)


def reference_parse_code(text):
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
    words = []
    for ln in lines[1:]:
        if len(ln) != m or any(c not in "01" for c in ln):
            raise CodeFormatError(f"bad codeword line {ln!r}")
        words.append(tuple(int(c) for c in ln))
    if len(words) != count:
        raise CodeFormatError(f"header says {count} words, file has {len(words)}")
    return reference_validate(m, words, selfcomp)


def reference_to_text(code):
    header = f"# etfkit-code m={code.m} n={code.count} selfcomp={int(code.self_complementary)}"
    lines = ["".join(str(b) for b in w) for w in code.words]
    return "\n".join([header] + lines) + "\n"


def outcome(fn, *args):
    """The returned value, or the class and message of the EtfkitError raised."""
    try:
        return fn(*args)
    except EtfkitError as e:
        return type(e), str(e)


PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)


def complement(word):
    return tuple(1 - b for b in word)


@st.composite
def half_words(draw, min_m=1, max_m=8, min_half=0, max_half=6):
    """Distinct first-half words, no one the complement of another."""
    m = draw(st.integers(min_m, max_m))
    return m, draw(st.lists(st.tuples(*[st.integers(0, 1)] * m),
                            min_size=min(min_half, 2 ** (m - 1)),
                            max_size=min(max_half, 2 ** (m - 1)),
                            unique_by=lambda w: min(w, complement(w))))


@st.composite
def code_texts(draw):
    """Code files, valid or carrying one drawn defect: a wrong line length,
    a character outside 01, a duplicate word, a broken complement, a wrong
    count or a bad header; blank lines are sprinkled in throughout."""
    m, first = draw(half_words(max_half=5))
    selfcomp = draw(st.booleans())
    words = first + [complement(w) for w in first] if selfcomp else first
    lines = ["".join(map(str, w)) for w in words]
    defect = draw(st.sampled_from(
        ["none", "length", "char", "duplicate", "complement", "count", "header"]))
    if defect == "length" and lines:
        i = draw(st.integers(0, len(lines) - 1))
        lines[i] = draw(st.sampled_from([lines[i][:-1], lines[i] + "0", lines[i] + "1"]))
    elif defect == "char" and lines:
        i, j = draw(st.integers(0, len(lines) - 1)), draw(st.integers(0, m - 1))
        bad = draw(st.sampled_from(["2", "x", " ", "\u00e9", "\t", "\u0661"]))
        lines[i] = lines[i][:j] + bad + lines[i][j + 1:]
    elif defect == "duplicate" and lines:
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(lines)))
    elif defect == "complement" and selfcomp and first:
        i, j = draw(st.integers(0, len(first) - 1)), draw(st.integers(0, m - 1))
        k = len(first) + i
        lines[k] = lines[k][:j] + "10"[int(lines[k][j])] + lines[k][j + 1:]
    fields = {"m": str(m), "n": str(len(lines)), "selfcomp": str(int(selfcomp))}
    if defect == "count":
        fields["n"] = str(len(lines) + draw(st.sampled_from([-1, 1])))
    if defect == "header":
        key = draw(st.sampled_from(sorted(fields)))
        fields[key] = draw(st.sampled_from(["-1", "2", "7", "x", "", "1.0"]))
        if draw(st.booleans()):
            del fields[key]
    tokens = [f"{k}={v}" for k, v in fields.items()]
    if defect == "header" and draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), "bogus")
    lines.insert(0, "# etfkit-code " + " ".join(tokens))
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    return draw(st.sampled_from(["\n", "\r\n"])).join(lines) + draw(st.sampled_from(["", "\n"]))


@PROPERTY
@given(code_texts())
def test_parse_code_matches_the_reference(text):
    expected = outcome(reference_parse_code, text)
    got = outcome(parse_code, text)
    if isinstance(got, BinaryCode):
        got = got.m, got.words, got.self_complementary
    assert got == expected


@PROPERTY
@given(st.integers(0, 9).flatmap(lambda m: st.tuples(
    st.just(m),
    st.lists(st.tuples(*[st.integers(0, 1)] * m), max_size=12),
    st.booleans())))
def test_constructor_matches_the_reference(case):
    m, words, selfcomp = case
    expected = outcome(reference_validate, m, tuple(words), selfcomp)
    got = outcome(BinaryCode, m, words, selfcomp)
    if isinstance(got, BinaryCode):
        got = got.m, got.words, got.self_complementary
    assert got == expected


@PROPERTY
@given(half_words(max_m=10, max_half=12), st.booleans())
def test_text_round_trip(case, selfcomp):
    m, first = case
    words = first + [complement(w) for w in first] if selfcomp else first
    code = BinaryCode(m=m, words=words, self_complementary=selfcomp)
    text = code.to_text()
    assert text == reference_to_text(code)
    assert parse_code(text) == code


def test_to_text_of_zero_length_words():
    code = BinaryCode(m=0, words=((),), self_complementary=False)
    assert code.to_text() == reference_to_text(code) == "# etfkit-code m=0 n=1 selfcomp=0\n\n"


@PROPERTY
@given(half_words(max_m=10, min_half=1, max_half=12))
def test_half_gram_distance_matches_pairwise_hamming(case):
    """The distance, and the ETF side of certify_grbe, which certifies the
    code as the frame of its first half: the verdict certify_etf gives that
    frame whenever it can be an ETF at all."""
    m, first = case
    code = BinaryCode(m=m, words=first + [complement(w) for w in first],
                      self_complementary=True)
    assert distance(code) == min(hamming(a, b) for a, b in combinations(code.words, 2))
    n = len(first)
    assert certify_grbe(code).etf_passed == (n >= max(m, 2) and certify_etf(code_to_frame(code)).passed)


@pytest.mark.parametrize("words", [((0, 1, 1),), ((0, 0, 0), (0, 1, 1)), ((0, 0), (0, 1))])
def test_half_gram_distance_on_one_and_two_half_words(words):
    m = len(words[0])
    code = BinaryCode(m=m, words=words + tuple(complement(w) for w in words),
                      self_complementary=True)
    assert distance(code) == min(hamming(a, b) for a, b in combinations(code.words, 2))

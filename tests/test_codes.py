import numpy as np
import pytest

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
    NotRealConstantAmplitude,
    NotSelfComplementary,
    TooFewWords,
)
from etfkit.flatmat import drop_row_simplex, hadamard
from etfkit.frames import Frame, kirkman_etf, steiner_etf


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

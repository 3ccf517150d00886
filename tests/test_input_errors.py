"""Malformed input, from a document or an API call, raises an EtfkitError.

The frame and design parsers read integer fields only from JSON integers,
and a frame's scale only from a JSON number, so a float where an integer
belongs, a bool or a string is refused rather than truncated or read; a
bool is refused among a frame's signs and entries too;
JSON nested past the decoder's depth is a format error, not a traceback.
Any one field of a valid document replaced by any JSON value either parses
or raises an EtfkitError, and so does any text, and any byte-mutated copy
of a canonical frame, design or code document; the CLI commands that read
such a document from stdin exit 2 with one stderr line on every input that
does not parse.  API calls outside a function's domain raise an
EtfkitError that is also a ValueError, so `except ValueError` still works.
"""

import contextlib
import io
import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from etfkit import fixtures
from etfkit.cli import main
from etfkit.codes import parse_code
from etfkit.designs import (SteinerSystem, affine_design, affine_structure, kirkman15, parse_design,
                            round_robin_design, steiner_params, validate)
from etfkit.errors import DesignFormatError, EtfkitError, FrameFormatError
from etfkit.flatmat import AbelianGroup, UnimodularMatrix, dft, drop_row_simplex, hadamard
from etfkit.frames import (DifferenceSet, Frame, frame_to_json, harmonic_etf, kirkman_etf, mcfarland_set,
                           parse_frame, steiner_etf)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)
_MCF21 = mcfarland_set(2, 1, AbelianGroup((4,)))
SIGN_DOC = json.loads(frame_to_json(fixtures.fig2()))
ENTRIES_DOC = json.loads(frame_to_json(harmonic_etf(_MCF21.group, _MCF21)))
DESIGN_DOC = json.loads(round_robin_design(4).to_json())


def _substituted(doc: dict, path: tuple, value) -> str:
    """doc as JSON text, with the field at path (keys and indices) replaced."""
    if not path:
        return json.dumps(value)
    doc = json.loads(json.dumps(doc))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize("path,value", [
    (("signs", 0, 0), 1.5), (("signs", 2, 3), -1.0), (("scale_sq_inv",), 6.9), (("scale_sq_inv",), "6"),
    (("scale_sq_inv",), 6.0), (("m",), 6.5), (("n",), 16.0),
], ids=str)
def test_a_frame_integer_field_must_be_a_json_integer(path, value):
    assert parse_frame(json.dumps(SIGN_DOC)).is_sign_matrix
    with pytest.raises(FrameFormatError):
        parse_frame(_substituted(SIGN_DOC, path, value))


@pytest.mark.parametrize("scale", ["1", "1e0", True], ids=str)
def test_an_entries_scale_must_be_a_json_number(scale):
    parse_frame(_substituted(ENTRIES_DOC, ("scale",), 1.0))
    with pytest.raises(FrameFormatError):
        parse_frame(_substituted(ENTRIES_DOC, ("scale",), scale))


@pytest.mark.parametrize("path,value", [
    (("signs", 0, 0), True), (("signs", 5, 15), True), (("signs", 2, 3), False), (("signs", 0), [True] * 16),
    (("entries", 0, 0), [True, 0]), (("entries", 3, 7), [0.5, False]), (("entries", 1, 2), [False, False]),
], ids=str)
def test_a_sign_or_entry_must_not_be_a_json_bool(path, value):
    """numpy reads true among integer signs as 1, and complex() reads it as
    1.0: the parser refuses a bool wherever a sign or an entry belongs."""
    doc = SIGN_DOC if path[0] == "signs" else ENTRIES_DOC
    parse_frame(json.dumps(doc))
    with pytest.raises(FrameFormatError):
        parse_frame(_substituted(doc, path, value))


def test_a_bool_in_the_provenance_is_no_entry():
    for doc in (SIGN_DOC, ENTRIES_DOC):
        text = _substituted(doc, ("provenance",), {"checked": True, "complement": False})
        assert parse_frame(text).provenance == {"checked": True, "complement": False}


@pytest.mark.parametrize("path,value", [
    (("v",), 4.8), (("v",), "4"), (("k",), 2.0), (("blocks", 0, 0), 0.9), (("blocks", 1, 1), True),
    (("resolution", 0, 0), 0.0),
], ids=str)
def test_a_design_integer_field_must_be_a_json_integer(path, value):
    assert parse_design(json.dumps(DESIGN_DOC)) == round_robin_design(4)
    with pytest.raises(DesignFormatError):
        parse_design(_substituted(DESIGN_DOC, path, value))


@pytest.mark.parametrize("text", ["[" * 100000, '{"m": ' * 100000, "[" * 5000 + "]" * 5000],
                         ids=["open-arrays", "open-objects", "closed-arrays"])
@pytest.mark.parametrize("parse,error", [(parse_frame, FrameFormatError), (parse_design, DesignFormatError)],
                         ids=["frame", "design"])
def test_json_nested_past_the_decoder_depth_is_a_format_error(text, parse, error):
    with pytest.raises(error):
        parse(text)


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8)
FRAME_PATHS = [(), ("m",), ("n",), ("provenance",), ("scale_sq_inv",), ("signs",), ("signs", 0), ("signs", 5, 15)]
ENTRIES_PATHS = [(), ("m",), ("n",), ("provenance",), ("scale",), ("entries",), ("entries", 0),
                 ("entries", 1, 2), ("entries", 5, 15, 0), ("entries", 3, 0, 1)]
DESIGN_PATHS = [(), ("v",), ("k",), ("blocks",), ("blocks", 0), ("blocks", 5, 1), ("resolution",),
                ("resolution", 0), ("resolution", 2, 1)]


def _parses_or_refuses(parse, text: str) -> None:
    try:
        parse(text)
    except EtfkitError:
        pass


@PROPERTY
@given(path=st.sampled_from(FRAME_PATHS), value=JSON)
def test_a_sign_document_with_any_field_replaced_parses_or_is_refused(path, value):
    _parses_or_refuses(parse_frame, _substituted(SIGN_DOC, path, value))


@PROPERTY
@given(path=st.sampled_from(ENTRIES_PATHS), value=JSON)
def test_an_entries_document_with_any_field_replaced_parses_or_is_refused(path, value):
    _parses_or_refuses(parse_frame, _substituted(ENTRIES_DOC, path, value))


@PROPERTY
@given(path=st.sampled_from(DESIGN_PATHS), value=JSON)
def test_a_design_document_with_any_field_replaced_parses_or_is_refused(path, value):
    _parses_or_refuses(parse_design, _substituted(DESIGN_DOC, path, value))


BYTES = settings(max_examples=150, deadline=None, derandomize=True, database=None)
# the canonical documents, as the package writes them
CANONICAL = {"sign-frame": (frame_to_json(fixtures.fig2()), parse_frame),
             "entries-frame": (frame_to_json(harmonic_etf(_MCF21.group, _MCF21)), parse_frame),
             "design": (round_robin_design(4).to_json(), parse_design),
             "code": (fixtures.fig3().to_text(), parse_code)}
COMMANDS = {parse_frame: ("verify", "-"), parse_design: ("design", "validate", "-"),
            parse_code: ("code", "check", "-")}
# bytes that shift a document between its cases: JSON structure, literals
# Python's decoder accepts, numbers past float64 and int64, header tokens
TOKENS = [b"{", b"}", b"[", b"]", b",", b":", b'"', b"-", b".", b"e", b"0", b"1", b"7", b" ", b"\n", b"\\",
          b"true", b"false", b"null", b"NaN", b"Infinity", b"1e999", b"e300", b"99999999999999999999", b"=", b"#",
          b"\r\n", b"\xff", b"\xc3", b"\x00"]


@st.composite
def byte_mutations(draw, text: str) -> bytes:
    """text's UTF-8 bytes after 1 to 4 edits: a byte replaced, bytes or a
    token inserted, a run deleted, or a slice of the document copied in."""
    data = bytearray(text.encode())
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["replace", "insert", "delete", "copy"]))
        if kind == "replace" and at < len(data):
            data[at] = draw(st.integers(0, 255))
        elif kind == "insert":
            data[at:at] = draw(st.sampled_from(TOKENS) | st.binary(min_size=1, max_size=6))
        elif kind == "delete":
            del data[at:at + draw(st.integers(1, 12))]
        else:
            start = draw(st.integers(0, len(data)))
            data[at:at] = data[start:start + draw(st.integers(1, 40))]
    return bytes(data)


def _stdin_text(data: bytes) -> str | None:
    """data as a UTF-8 sys.stdin reads it (universal newlines), or None when
    it is no UTF-8."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError:
        return None


def _cli_on_stdin(data: bytes, argv: tuple) -> tuple[int, str]:
    """main(argv) with data on a UTF-8 stdin: (exit code, stderr)."""
    saved, err = sys.stdin, io.StringIO()
    sys.stdin = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, err.getvalue()


def test_the_canonical_documents_parse_and_pass_the_cli():
    for text, parse in CANONICAL.values():
        parse(text)
        assert _cli_on_stdin(text.encode(), COMMANDS[parse]) == (0, "")


JSONISH = st.text(alphabet=st.sampled_from(list('{}[]",:-.eE0123456789 \nabcfilmnrstu')), max_size=60)
CODEISH = st.builds("".join, st.lists(st.sampled_from(["# etfkit-code", " m=", " n=", " selfcomp=", "0", "1", "6",
                                                       "-", "\n", "\r", "\x0b", " ", "x", "=", "\u0663"]),
                                      max_size=20))


@BYTES
@given(text=st.text() | JSONISH | CODEISH)
@pytest.mark.parametrize("parse", [parse_frame, parse_design, parse_code], ids=lambda f: f.__name__)
def test_any_text_parses_or_is_refused(parse, text):
    _parses_or_refuses(parse, text)


@BYTES
@given(data=st.data())
@pytest.mark.parametrize("name", CANONICAL)
def test_a_byte_mutated_document_parses_or_is_refused(name, data):
    """The parser, on the bytes read as text (undecodable ones kept as lone
    surrogates), and the CLI, on the bytes as stdin: a document that does
    not parse exits 2 with one stderr line."""
    text, parse = CANONICAL[name]
    raw = data.draw(byte_mutations(text))
    _parses_or_refuses(parse, raw.decode("utf-8", "surrogateescape"))
    stdin = _stdin_text(raw)
    try:
        parsed = stdin is not None and parse(stdin)
    except EtfkitError:
        parsed = False
    code, err = _cli_on_stdin(raw, COMMANDS[parse])
    if not parsed:
        assert code == 2 and err.startswith("etfkit: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert code in (0, 1, 2) and (code != 2 or err.count("\n") == 1), (code, err)


# the other commands that read a document from '-': two read a design, the
# rest a frame, the sign form and the entries form both where they apply
STDIN_COMMANDS = [
    ("design", ("frame", "steiner", "-", "--simplex", "hadamard")),
    ("design", ("frame", "kirkman", "-", "--simplex", "hadamard", "--basis", "hadamard")),
    *[(name, argv) for name in ("sign-frame", "entries-frame")
      for argv in (("frame", "naimark", "-"), ("analyze", "spark", "-"), ("analyze", "rip", "-", "--L", "2"))],
    ("sign-frame", ("code", "from-frame", "-")),
]


@pytest.mark.parametrize("name,argv", STDIN_COMMANDS, ids=lambda x: x if isinstance(x, str) else " ".join(x))
def test_the_canonical_documents_pass_every_stdin_command(name, argv):
    code, err = _cli_on_stdin(CANONICAL[name][0].encode(), argv)
    assert code in (0, 1) and err == "", (code, err)


@BYTES
@given(data=st.data())
@pytest.mark.parametrize("name,argv", STDIN_COMMANDS, ids=lambda x: x if isinstance(x, str) else " ".join(x))
def test_every_stdin_command_refuses_a_byte_mutated_document(name, argv, data):
    """frame steiner, frame kirkman, frame naimark, analyze spark, analyze
    rip and code from-frame on a byte-mutated canonical document: one that
    does not parse exits 2 with one stderr line, and one that parses exits
    0, 1 or 2, with one stderr line at most and no traceback."""
    text, parse = CANONICAL[name]
    raw = data.draw(byte_mutations(text))
    stdin = _stdin_text(raw)
    try:
        parsed = stdin is not None and parse(stdin)
    except EtfkitError:
        parsed = False
    code, err = _cli_on_stdin(raw, argv)
    if not parsed:
        assert code == 2 and err.startswith("etfkit: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert code in (0, 1, 2) and err.count("\n") == (code == 2), (code, err)


@pytest.fixture(scope="module")
def canonical_frame_files(tmp_path_factory) -> dict:
    """The canonical sign and entries frame documents, each in a file."""
    where = tmp_path_factory.mktemp("canonical")
    for name in ("sign-frame", "entries-frame"):
        (where / f"{name}.json").write_text(CANONICAL[name][0])
    return {name: str(where / f"{name}.json") for name in ("sign-frame", "entries-frame")}


@BYTES
@given(data=st.data())
@pytest.mark.parametrize("side", ["a", "b"])
@pytest.mark.parametrize("name,other", [("sign-frame", "entries-frame"), ("entries-frame", "sign-frame")])
def test_gram_equal_refuses_either_byte_mutated_document(canonical_frame_files, side, name, other, data):
    """analyze gram-equal with one byte-mutated canonical document on stdin,
    as its first or its second frame, and the other canonical one from a
    file: a mutant that does not parse exits 2 with one stderr line, and
    one that parses exits 0, 1 or 2, with one stderr line at most."""
    raw = data.draw(byte_mutations(CANONICAL[name][0]))
    stdin = _stdin_text(raw)
    try:
        parsed = stdin is not None and parse_frame(stdin)
    except EtfkitError:
        parsed = False
    pair = ["-", canonical_frame_files[other]]
    code, err = _cli_on_stdin(raw, ("analyze", "gram-equal", *(pair if side == "a" else pair[::-1])))
    if not parsed:
        assert code == 2 and err.startswith("etfkit: ") and err.count("\n") == 1 and err.endswith("\n"), err
    else:
        assert code in (0, 1, 2) and err.count("\n") == (code == 2), (code, err)


@BYTES
@given(path=st.sampled_from(DESIGN_PATHS), value=st.integers(-2, 9) | st.integers() | JSON)
@example(path=("k",), value=0).via("k = 0: V/K divides by zero")
@example(path=("k",), value=1).via("k = 1: V-1/K-1 divides by zero")
@example(path=("k",), value=3).via("blocks of 2 in classes that V/K = 1 says hold 1")
@example(path=("v",), value=2 ** 40).via("a list or a basis of V entries")
@example(path=("v",), value=10 ** 400).via("R = V-1/K-1 past float64")
@pytest.mark.parametrize("argv", [("design", "validate", "-"), *[argv for name, argv in STDIN_COMMANDS if name == "design"]],
                         ids=" ".join)
def test_every_design_command_refuses_a_document_with_any_field_replaced(argv, path, value):
    """A k below 2, a V that the blocks do not bear out (huge ones among
    them) or classes of blocks of other sizes than K: each command that
    reads a design exits 2 with one stderr line unless the document parses,
    and allocates nothing for a V that only the document claims."""
    text = _substituted(DESIGN_DOC, path, value)
    try:
        parsed = bool(parse_design(text))
    except EtfkitError:
        parsed = False
    code, err = _cli_on_stdin(text.encode(), argv)
    if not parsed:
        assert code == 2 and err.startswith("etfkit: ") and err.count("\n") == 1, err
    else:
        assert code in (0, 1, 2) and err.count("\n") == (code == 2), (code, err)


@pytest.mark.parametrize("parse,text", [
    (parse_frame, '{"m": 1, "n": 2, "entries": [[[1e300, 0], [1e300, 1e300]]]}'),
    (parse_frame, '{"m": 1, "n": 2, "entries": [[[1e-300, 0], [1, 0]]], "scale": 1e300}'),
    (parse_frame, '{"m": 1, "n": 2, "entries": [[[1e200, 0], [1, 0]]], "scale": 1e200}'),
    (parse_code, "# etfkit-code m=99999999999999999999 n=0 selfcomp=0\n"),
], ids=["norm-past-float64", "scaled-norm-past-float64", "scaled-entry-past-float64", "word-past-intp"])
def test_values_past_float64_or_an_array_size_are_refused(parse, text):
    """Norms and scaled entries that overflow float64 are inf, which fails,
    with no warning; a word length past intp fits no array, even in a code
    of no words."""
    with pytest.raises(EtfkitError):
        parse(text)
    code, err = _cli_on_stdin(text.encode(), COMMANDS[parse])
    assert code == 2 and err.startswith("etfkit: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("call", [
    lambda: dft(0),
    lambda: hadamard(0),
    lambda: drop_row_simplex(UnimodularMatrix(entries=np.ones((1, 2)), kind="simplex")),
    lambda: AbelianGroup((0, 2)),
    lambda: AbelianGroup(()),
    lambda: AbelianGroup.parse("2xa"),
    lambda: affine_structure(2, 0),
    lambda: steiner_params(3, 3),
    lambda: steiner_params(1, 1),
    lambda: steiner_params(2, 4.0),
    lambda: steiner_params(2.5, 6.25),
    lambda: steiner_params(2.0, 4),
    lambda: steiner_params(True, 4),
    lambda: steiner_params(np.int64(2), np.float64(4)),
    lambda: Frame(entries=np.eye(2, dtype=np.complex128)).gram_exact(),
], ids=["dft-0", "hadamard-0", "simplex-of-non-square", "group-factor-0", "group-empty", "group-spec",
        "affine-j-0", "steiner-params", "steiner-params-k-1", "steiner-params-float-v", "steiner-params-float-k",
        "steiner-params-float-both", "steiner-params-bool-k", "steiner-params-numpy-float-v", "gram-exact-of-float"])
def test_api_misuse_raises_an_etfkit_error_that_is_a_value_error(call):
    with pytest.raises(EtfkitError) as raised:
        call()
    assert isinstance(raised.value, ValueError)


def _values(high: int):
    """Values for a slot that holds an integer below high: in range, the
    integers just outside it, and floats, bools and numpy integers."""
    inside = st.integers(0, max(high - 1, 0))
    return st.one_of(inside, inside, inside, st.integers(-2, -1), st.integers(high, high + 2),
                     inside.map(np.int64), inside.map(np.uint8), inside.map(float), st.booleans(),
                     st.just(np.True_), st.just(np.float64(1.0)))


@st.composite
def design_fields(draw) -> dict:
    """The fields of a package design with one point, index, v or k
    replaced, or of a random design, drawn from _values."""
    design = draw(st.sampled_from([round_robin_design(4), round_robin_design(6), affine_design(2, 1),
                                   affine_design(3, 1), kirkman15(), None]))
    if design is None:
        v = draw(_values(10) | st.just(2 ** 40))
        rows = st.lists(st.lists(_values(10), max_size=4), max_size=8)
        return {"v": v, "k": draw(_values(4)), "blocks": draw(rows), "resolution": draw(st.none() | rows)}
    fields = {"v": design.v, "k": design.k, "blocks": [list(b) for b in design.blocks],
              "resolution": [list(c) for c in design.resolution]}
    name = draw(st.sampled_from(["v", "k", "blocks", "blocks", "resolution", "resolution"]))
    if name in ("v", "k"):
        fields[name] = draw(_values(design.v + 1))
    else:
        row = draw(st.sampled_from(fields[name]))
        row[draw(st.integers(0, len(row) - 1))] = draw(_values(design.v if name == "blocks" else design.b))
    return fields


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fields=design_fields())
@example(fields={"v": -3, "k": 2, "blocks": [[]], "resolution": [[0]]}).via("no point fits a negative v")
@example(fields={"v": 2 ** 40, "k": 2, "blocks": [[0, 1]], "resolution": [[0]]}).via("a V the blocks do not bear out")
def test_a_design_built_through_the_api_is_refused_or_sound(fields):
    """A design is refused with an EtfkitError when it is built, or it
    writes a document that reads back as itself, and validate, steiner_etf
    and kirkman_etf raise nothing but EtfkitErrors on it."""
    try:
        design = SteinerSystem(**fields)
    except EtfkitError:
        return
    assert parse_design(design.to_json()) == design
    classes = design.resolution or ((),)
    simplex = drop_row_simplex(dft(len(classes) + 1), 0)
    for call in (lambda: validate(design), lambda: steiner_etf(design, simplex),
                 lambda: kirkman_etf(design, simplex, dft(max(len(classes[0]), 1)))):
        with contextlib.suppress(EtfkitError):
            call()


_Z7 = AbelianGroup((7,))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_a_difference_set_built_through_the_api_is_refused_or_sound(data):
    """A difference set is refused with an EtfkitError when it is built, or
    its lam is the count that Lambda (|G| - 1) = |D| (|D| - 1) gives and
    harmonic_etf raises nothing but EtfkitErrors on it."""
    group, elements = data.draw(st.sampled_from([(_Z7, [1, 2, 4]), (_Z7, [0, 3, 5, 6]), (_MCF21.group,
                                                 list(_MCF21.elements)), (AbelianGroup((2, 3)), [0, 1])]))
    elements = list(elements)  # the sampled list is shared by every example
    for _ in range(data.draw(st.integers(0, 2))):
        elements[data.draw(st.integers(0, len(elements) - 1))] = data.draw(_values(group.order))
    try:
        dset = DifferenceSet(group, elements)
    except EtfkitError:
        return
    size = len(dset.elements)
    assert dset.lam * (group.order - 1) == size * (size - 1) and dset.elements == tuple(sorted(set(dset.elements)))
    with contextlib.suppress(EtfkitError):
        harmonic_etf(group, dset)

"""Malformed input, from a document or an API call, raises an EtfkitError.

The frame and design parsers read integer fields only from JSON integers,
and a frame's scale only from a JSON number, so a float where an integer
belongs, a bool or a string is refused rather than truncated or read; a
bool is refused among a frame's signs and entries too;
JSON nested past the decoder's depth is a format error, not a traceback.
Any one field of a valid document replaced by any JSON value either parses
or raises an EtfkitError.  API calls outside a function's domain raise an
EtfkitError that is also a ValueError, so `except ValueError` still works.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etfkit import fixtures
from etfkit.designs import affine_structure, parse_design, round_robin_design, steiner_params
from etfkit.errors import DesignFormatError, EtfkitError, FrameFormatError
from etfkit.flatmat import AbelianGroup, UnimodularMatrix, dft, drop_row_simplex, hadamard
from etfkit.frames import Frame, frame_to_json, harmonic_etf, mcfarland_set, parse_frame, real_kirkman_params

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


@pytest.mark.parametrize("call", [
    lambda: dft(0),
    lambda: hadamard(0),
    lambda: drop_row_simplex(UnimodularMatrix(entries=np.ones((1, 2)), kind="simplex")),
    lambda: AbelianGroup((0, 2)),
    lambda: AbelianGroup(()),
    lambda: AbelianGroup.parse("2xa"),
    lambda: affine_structure(2, 0),
    lambda: steiner_params(3, 3),
    lambda: real_kirkman_params(1, 1),
    lambda: Frame(entries=np.eye(2, dtype=np.complex128)).gram_exact(),
], ids=["dft-0", "hadamard-0", "simplex-of-non-square", "group-factor-0", "group-empty", "group-spec",
        "affine-j-0", "steiner-params", "real-kirkman-params", "gram-exact-of-float"])
def test_api_misuse_raises_an_etfkit_error_that_is_a_value_error(call):
    with pytest.raises(EtfkitError) as raised:
        call()
    assert isinstance(raised.value, ValueError)

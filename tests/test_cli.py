import io
import json
import os
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import etfkit
from conftest import FIG3_GRID
from etfkit.cli import main
from test_frames import _flip_kirkman_phases


@pytest.fixture(scope="module")
def schema():
    text = resources.files("etfkit").joinpath("schemas/report.schema.json").read_text()
    return json.loads(text)


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_on_stdin(capsys, monkeypatch, stdin_text, *argv) -> tuple[int, str]:
    monkeypatch.setattr(sys, "stdin", io.StringIO(stdin_text))
    return run_cli(capsys, *argv)


def check_report(schema, out: str) -> dict:
    doc = json.loads(out)
    jsonschema.validate(doc, schema)
    return doc


def test_bound_welch_prints_exact_form(capsys, schema):
    code, out = run_cli(capsys, "bound", "welch", "--m", "6", "--n", "16")
    assert code == 0
    doc = check_report(schema, out)
    assert doc["exact"] == "1/3"
    assert abs(doc["value"] - 1 / 3) < 1e-12


def test_bound_grey_rankin(capsys, schema):
    code, out = run_cli(capsys, "bound", "grey-rankin", "--m", "6", "--delta", "2")
    assert code == 0
    doc = check_report(schema, out)
    assert doc["value"] == 32


def test_fixture_verify_pipeline(capsys, monkeypatch, schema):
    code, frame_doc = run_cli(capsys, "fixtures", "emit", "--which", "fig2")
    assert code == 0
    code, out = run_on_stdin(capsys, monkeypatch, frame_doc, "verify", "-")
    assert code == 0
    doc = check_report(schema, out)
    assert doc["passed"] is True
    assert doc["coherence_exact"] == "1/3"


def test_three_stage_pipeline_matches_fixture(tmp_path):
    """`python -m etfkit` chains design -> frame -> code byte-identically.

    Each stage runs in its own process on the package this test imported, so
    the check needs no installed console script and holds from any directory.
    """
    src = str(Path(etfkit.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))

    def stage(*argv, stdin=None):
        proc = subprocess.run(
            [sys.executable, "-m", "etfkit", *argv], input=stdin, env=env,
            cwd=tmp_path, capture_output=True, text=True, check=True)
        assert proc.stderr == "", argv
        return proc.stdout

    design = stage("design", "affine", "--q", "2", "--j", "1")
    frame = stage("frame", "kirkman", "-", "--simplex", "hadamard", "--basis", "hadamard",
                  stdin=design)
    chained = stage("code", "from-frame", "-", stdin=frame)
    fixture = stage("fixtures", "emit", "--which", "fig3")
    assert chained == fixture


def test_determinism_identical_bytes(capsys):
    runs = [run_cli(capsys, "fixtures", "emit", "--which", which)[1]
            for which in ("fig1", "fig2", "fig3") for _ in (0, 1)]
    assert runs[0] == runs[1] and runs[2] == runs[3] and runs[4] == runs[5]


def test_design_validate_roundtrip(capsys, monkeypatch, schema):
    _, design_doc = run_cli(capsys, "design", "kirkman15")
    code, out = run_on_stdin(capsys, monkeypatch, design_doc, "design", "validate", "-")
    assert code == 0
    doc = check_report(schema, out)
    assert doc["passed"] is True


def test_design_validate_fails_on_broken_design(capsys, monkeypatch, schema):
    broken = json.dumps({"v": 4, "k": 2, "blocks": [[0, 1], [2, 3], [0, 2]], "resolution": None})
    code, out = run_on_stdin(capsys, monkeypatch, broken, "design", "validate", "-")
    assert code == 1
    doc = check_report(schema, out)
    assert doc["passed"] is False


def test_verify_fails_on_non_etf(capsys, monkeypatch, schema, tmp_path):
    bad = json.dumps({
        "m": 2, "n": 3, "scale": None,
        "entries": [[[1.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
                    [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0]]],
        "provenance": {},
    })
    path = tmp_path / "bad.json"
    path.write_text(bad)
    code, out = run_cli(capsys, "verify", str(path))
    assert code == 1
    assert check_report(schema, out)["passed"] is False


def test_analyze_spark_and_rip(capsys, monkeypatch, schema):
    _, frame_doc = run_cli(capsys, "fixtures", "emit", "--which", "fig1")
    code, out = run_on_stdin(capsys, monkeypatch, frame_doc, "analyze", "spark", "-")
    assert code == 0
    doc = check_report(schema, out)
    assert doc["spark"] == 4

    code, out = run_on_stdin(capsys, monkeypatch, frame_doc, "analyze", "rip", "-", "--L", "3")
    assert code == 0
    doc = check_report(schema, out)
    assert doc["delta"] < 1


def test_analyze_gram_equal(capsys, schema, tmp_path):
    _, fig1_doc = run_cli(capsys, "fixtures", "emit", "--which", "fig1")
    _, fig2_doc = run_cli(capsys, "fixtures", "emit", "--which", "fig2")
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(fig1_doc)
    b.write_text(fig2_doc)
    code, out = run_cli(capsys, "analyze", "gram-equal", str(a), str(b))
    assert code == 0
    assert check_report(schema, out)["passed"] is True


@pytest.mark.parametrize("doc", [
    {"m": 1, "n": 0, "signs": [[]], "scale_sq_inv": 1, "provenance": {}},
    {"m": 1, "n": 0, "entries": [[]], "scale": None, "provenance": {}},
], ids=["signs", "entries"])
def test_analyze_gram_equal_on_frames_with_no_columns(capsys, schema, tmp_path, doc):
    path = tmp_path / "a.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "analyze", "gram-equal", str(path), str(path))
    assert code == 0
    report = check_report(schema, out)
    assert (report["passed"], report["max_dev"], report["witness"]) == (True, 0.0, None)


def test_frame_harmonic_real_default_group(capsys):
    code, out = run_cli(capsys, "frame", "harmonic", "--q", "2", "--j", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 6 and doc["n"] == 16
    assert "signs" in doc  # q = 2 defaults to an elementary 2-group, hence real


def test_frame_mcfarland_vs_kirkman(capsys, schema):
    code, out = run_cli(capsys, "frame", "mcfarland-vs-kirkman", "--q", "3", "--j", "1")
    assert code == 0
    doc = check_report(schema, out)
    assert doc["passed"] is True
    assert doc["group"] == [5]


def test_a_broken_mcfarland_identity_exits_2_with_one_line(capsys, monkeypatch):
    _flip_kirkman_phases(monkeypatch, (2, 5))
    code = main(["frame", "mcfarland-vs-kirkman", "--q", "3", "--j", "1"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == ("etfkit: McFarland frame for q=3, j=1, G=(5,) fails the exponent identity "
                   "at Kirkman entry (2, 5)\n")


def test_a_group_with_a_factor_of_order_1_is_matched_and_verified(capsys, monkeypatch, schema):
    code, out = run_cli(capsys, "frame", "mcfarland-vs-kirkman", "--q", "3", "--j", "1", "--group", "1x5")
    assert code == 0
    doc = check_report(schema, out)
    assert doc["passed"] is True and doc["group"] == [1, 5]
    _, frame_doc = run_cli(capsys, "frame", "harmonic", "--q", "3", "--j", "1", "--group", "1x5")
    assert json.loads(frame_doc)["provenance"]["group"] == [1, 5, 3, 3]
    code, out = run_on_stdin(capsys, monkeypatch, frame_doc, "verify", "-")
    assert code == 0 and check_report(schema, out)["passed"] is True


def test_frame_naimark(capsys, monkeypatch):
    _, frame_doc = run_cli(capsys, "fixtures", "emit", "--which", "fig2")
    code, out = run_on_stdin(capsys, monkeypatch, frame_doc, "frame", "naimark", "-")
    assert code == 0
    doc = json.loads(out)
    assert doc["m"] == 10 and doc["n"] == 16


def test_the_complement_of_a_square_frame_reads_back(capsys, monkeypatch):
    """frame naimark writes the 0 x N complement of a square frame; the
    commands that read a frame take that document: spark reports its first
    column, and naimark and verify refuse it with one stderr line (naimark
    divided by zero at the parent, after the document failed to parse)."""
    square = json.dumps({"m": 2, "n": 2, "scale": None, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})
    code, empty = run_on_stdin(capsys, monkeypatch, square, "frame", "naimark", "-")
    assert code == 0 and (json.loads(empty)["m"], json.loads(empty)["n"]) == (0, 2)
    code, out = run_on_stdin(capsys, monkeypatch, empty, "analyze", "spark", "-")
    assert code == 0 and json.loads(out)["witness"] == [0]
    for argv in (("frame", "naimark", "-"), ("verify", "-")):
        monkeypatch.setattr(sys, "stdin", io.StringIO(empty))
        assert main(list(argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith("etfkit: ") and err.count("\n") == 1, err


@pytest.mark.parametrize("group,exact", [("2x2", True), ("4", False)])
def test_naimark_of_a_harmonic_frame_verifies(capsys, monkeypatch, schema, group, exact):
    # a sign frame's complement is its complementary characters, written in
    # sign form with its group and certified exactly; a complex harmonic
    # frame is parsed as floats, and its complement is the SVD's
    _, frame_doc = run_cli(capsys, "frame", "harmonic", "--q", "2", "--j", "1", "--group", group)
    code, comp_doc = run_on_stdin(capsys, monkeypatch, frame_doc, "frame", "naimark", "-")
    assert code == 0
    comp = json.loads(comp_doc)
    assert (comp["m"], comp["n"]) == (10, 16) and ("signs" in comp) is exact
    assert ("group" in comp["provenance"]) is exact
    code, out = run_on_stdin(capsys, monkeypatch, comp_doc, "verify", "-")
    doc = check_report(schema, out)
    assert code == 0 and doc["passed"] is True and doc["exact_arithmetic"] is exact


def test_code_check_report(capsys, monkeypatch, schema):
    _, code_text = run_cli(capsys, "fixtures", "emit", "--which", "fig3")
    ret, out = run_on_stdin(capsys, monkeypatch, code_text, "code", "check", "-")
    assert ret == 0
    doc = check_report(schema, out)
    assert doc["distance"] == 2
    assert doc["grbe"]["verdicts_agree"] is True


def test_code_with_fewer_half_words_than_m_is_a_verdict(capsys, monkeypatch, schema):
    text = "# etfkit-code m=3 n=4 selfcomp=1\n000\n011\n111\n100\n"
    ret, out = run_on_stdin(capsys, monkeypatch, text, "code", "check", "-")
    assert ret == 1
    grbe = check_report(schema, out)["grbe"]
    assert grbe["etf_passed"] is False and grbe["bound_equality"] is False
    assert grbe["verdicts_agree"] is (grbe["bound_equality"] == grbe["etf_passed"])


@pytest.mark.parametrize("header", ["# etfkit-code m=-1 n=0 selfcomp=1",
                                    "# etfkit-code m=2 n=2 selfcomp=7"])
def test_strict_code_header_is_input_error(capsys, monkeypatch, header):
    monkeypatch.setattr(sys, "stdin", io.StringIO(header + "\n01\n10\n"))
    code = main(["code", "check", "-"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("etfkit: bad header") and err.count("\n") == 1


def test_fig3_fixture_matches_reference_grid(capsys):
    _, out = run_cli(capsys, "fixtures", "emit", "--which", "fig3")
    lines = out.splitlines()
    assert lines[0] == "# etfkit-code m=6 n=32 selfcomp=1"
    rows = FIG3_GRID.splitlines()
    expected_words = ["".join(row[n] for row in rows) for n in range(32)]
    assert lines[1:] == expected_words


def test_text_format_grid(capsys):
    code, out = run_cli(capsys, "fixtures", "emit", "--which", "fig2", "--format", "text")
    assert code == 0
    assert out.splitlines()[0] == "# frame 6x16 scale 1/sqrt(6)"
    assert out.splitlines()[1] == "+-+-+-+-+-+-+-+-"


def test_out_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "design.json"
    code, out = run_cli(capsys, "design", "round-robin", "--v", "6", "--out", str(target))
    assert code == 0 and out == ""
    doc = json.loads(target.read_text())
    assert doc["v"] == 6 and len(doc["blocks"]) == 15


def test_missing_file_is_input_error(capsys):
    code, _ = run_cli(capsys, "verify", "/nonexistent/frame.json")
    assert code == 2


def test_non_unit_norm_frame_is_input_error(capsys, monkeypatch):
    # column norms sqrt(2) and 1
    doc = json.dumps({"m": 2, "n": 2, "scale": None,
                      "entries": [[[1.0, 0.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.0]]]})
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code = main(["verify", "-"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("etfkit: column norms deviate from 1") and err.count("\n") == 1


def test_nan_frame_is_input_error(capsys, monkeypatch):
    doc = '{"m": 1, "n": 2, "scale": null, "entries": [[[1.0, 0.0], [NaN, 0.0]]]}'
    monkeypatch.setattr(sys, "stdin", io.StringIO(doc))
    code = main(["verify", "-"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("etfkit: ") and err.count("\n") == 1


@pytest.mark.parametrize("provenance", [[1], "x", 3, False, []])
def test_non_object_provenance_is_input_error(capsys, monkeypatch, provenance):
    doc = json.loads(etfkit.frame_to_json(etfkit.fixtures.fig2()))
    doc["provenance"] = provenance
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code = main(["analyze", "spark", "-"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("etfkit: provenance must be a JSON object") and err.count("\n") == 1


def test_null_provenance_reads_as_empty(capsys, monkeypatch):
    doc = json.loads(etfkit.frame_to_json(etfkit.fixtures.fig2()))
    doc["provenance"] = None
    code, out = run_on_stdin(capsys, monkeypatch, json.dumps(doc), "analyze", "spark", "-")
    report = json.loads(out)
    assert code == 0 and report["spark"] == 4 and report["structural_witness"] is None


def test_domain_error_is_input_error(capsys):
    code, _ = run_cli(capsys, "design", "round-robin", "--v", "7")
    assert code == 2


def test_frame_from_unresolvable_design_is_input_error(capsys, monkeypatch):
    fano = json.dumps({
        "v": 7, "k": 3, "resolution": None,
        "blocks": [[0, 1, 2], [0, 3, 4], [0, 5, 6], [1, 3, 5], [1, 4, 6], [2, 3, 6], [2, 4, 5]],
    })
    code, _ = run_on_stdin(capsys, monkeypatch, fano, "frame", "steiner", "-", "--simplex", "dft")
    assert code == 2


def _assert_one_line_input_error(capsys, code):
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.startswith("etfkit: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [["verify", "FILE"], ["frame", "steiner", "FILE", "--simplex", "hadamard"]],
                         ids=["frame", "design"])
def test_json_nested_past_the_decoder_depth_is_input_error(capsys, tmp_path, argv):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code = main([str(path) if arg == "FILE" else arg for arg in argv])
    _assert_one_line_input_error(capsys, code)


def test_frame_kirkman_on_a_non_partitioning_class_is_input_error(capsys, monkeypatch):
    doc = json.loads(etfkit.round_robin_design(4).to_json())
    doc["resolution"][0].append(doc["resolution"][1][0])
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(doc)))
    code = main(["frame", "kirkman", "-", "--simplex", "hadamard", "--basis", "hadamard"])
    _assert_one_line_input_error(capsys, code)


def test_spark_over_the_subset_budget_is_input_error(capsys, monkeypatch):
    frame = etfkit.steiner_etf(etfkit.round_robin_design(8),
                               etfkit.drop_row_simplex(etfkit.hadamard(8), 0))
    monkeypatch.setattr(sys, "stdin", io.StringIO(etfkit.frame_to_json(frame)))
    code = main(["analyze", "spark", "-"])
    _assert_one_line_input_error(capsys, code)


def test_spark_with_a_negative_cap_is_input_error(capsys, monkeypatch):
    _, frame_doc = run_cli(capsys, "fixtures", "emit", "--which", "fig2")
    monkeypatch.setattr(sys, "stdin", io.StringIO(frame_doc))
    code = main(["analyze", "spark", "-", "--max", "-2"])
    _assert_one_line_input_error(capsys, code)


def test_spark_with_cap_zero_reports_lower_bound_1(capsys, monkeypatch, schema):
    _, frame_doc = run_cli(capsys, "fixtures", "emit", "--which", "fig2")
    code, out = run_on_stdin(capsys, monkeypatch, frame_doc, "analyze", "spark", "-", "--max", "0")
    assert code == 0
    doc = check_report(schema, out)
    assert doc["spark"] is None and doc["lower_bound"] == 1


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["design", "affine", "--q", "2"])  # missing --j
    assert exc.value.code == 2


def test_bad_group_spec_is_input_error(capsys):
    code, _ = run_cli(capsys, "frame", "harmonic", "--q", "2", "--j", "1", "--group", "0x2")
    assert code == 2


def test_tol_env_override(capsys, monkeypatch):
    monkeypatch.setenv("ETFKIT_TOL", "0.5")
    _, frame_doc = run_cli(capsys, "fixtures", "emit", "--which", "fig2")
    monkeypatch.setattr(sys, "stdin", io.StringIO(frame_doc))
    _, out = run_cli(capsys, "verify", "-")
    assert json.loads(out)["tol"] == 0.5


def test_malformed_tol_env_is_input_error(capsys, monkeypatch):
    monkeypatch.setenv("ETFKIT_TOL", "abc")
    code = main(["bound", "welch", "--m", "6", "--n", "16"])
    _assert_one_line_input_error(capsys, code)


@pytest.mark.parametrize("tol", ["nan", "-1"])
def test_tol_flag_that_is_not_finite_and_nonnegative_is_input_error(capsys, monkeypatch, tol):
    _, frame_doc = run_cli(capsys, "fixtures", "emit", "--which", "fig2")
    monkeypatch.setattr(sys, "stdin", io.StringIO(frame_doc))
    code = main(["verify", "-", "--tol", tol])
    _assert_one_line_input_error(capsys, code)


def test_characters_simplex_group_order_checked_before_any_table(capsys, monkeypatch):
    from etfkit import flatmat

    def no_table(g, elements):
        raise AssertionError("no character value may be gathered for a wrong-order group")

    monkeypatch.setattr(flatmat, "_character_phases", no_table)
    monkeypatch.setattr(sys, "stdin", io.StringIO(etfkit.round_robin_design(4).to_json()))
    code = main(["frame", "steiner", "-", "--simplex", "characters", "--group", "8"])
    _assert_one_line_input_error(capsys, code)

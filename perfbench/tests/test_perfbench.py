"""Tests of the benchmark itself, on the smallest catalogue inputs: a wrong
frame or a changed report byte must fail the job, and every metric that
BENCHMARK.json names must be produced with its unit."""

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import etfkit  # noqa: E402
from etfkit.frames import Frame, _numeric  # noqa: E402
from harness import Checker, end_to_end, per_layer, tail  # noqa: E402
from worker import run_job  # noqa: E402
from workloads import flat_sign_certify  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def rr8_job(tmp_path_factory):
    case = next(c for c in flat_sign_certify(tmp_path_factory.mktemp("work")) if c.name == "rr8")
    check = Checker(json.loads((HERE / "expected.json").read_text()))
    return lambda: run_job(case, 3, 0, check, [])


def test_reference_job_passes(rr8_job):
    record = rr8_job()
    assert record["ok"], record["error"]


def test_flipped_frame_sign_fails_the_job(rr8_job, monkeypatch):
    real = etfkit.kirkman_etf

    def kirkman_etf(*args):
        frame = real(*args)
        ints = frame.exact_ints.copy()
        ints[0, 0] *= -1
        return Frame(entries=_numeric(ints, frame.scale_sq), exact_ints=ints,
                     scale_sq=frame.scale_sq, provenance=frame.provenance)

    monkeypatch.setattr(etfkit, "kirkman_etf", kirkman_etf)
    record = rr8_job()
    assert not record["ok"]


def test_mutated_report_byte_fails_the_job(rr8_job, monkeypatch):
    real = etfkit.gram_equal

    def gram_equal(a, b):
        # same verdict, one changed digit in the report's stated tolerance
        return dataclasses.replace(real(a, b), tol=2e-9)

    monkeypatch.setattr(etfkit, "gram_equal", gram_equal)
    record = rr8_job()
    assert not record["ok"]
    assert "gram_equal" in record["error"]


def test_tail_keeps_ten_jobs_beyond():
    value, pct, n = tail([float(i) for i in range(100)])
    assert (value, pct, n) == (89.0, 90.0, 100)
    assert tail([1.0, 2.0])[0] == 1.0


def test_every_named_metric_is_reported_with_its_unit():
    result = {
        "rounds": [{"wall": 2.0, "traced": True}, {"wall": 1.0, "traced": False}],
        "jobs": [{"case": "a", "wall": 1.0, "traced": True, "round": 0, "ok": True},
                 {"case": "a", "wall": 1.0, "traced": False, "round": 1, "ok": True},
                 {"case": "b", "wall": 4.0, "traced": False, "round": 1, "ok": True}],
        "spans": [{"name": "metrics.spark", "start": 0.0, "end": 0.5, "ok": True}],
        "make_field_cache": [1, 1],
        "peak_rss_mb": 50.0,
        "warmup_s": 1.0,
    }
    e2e, beside = end_to_end(result, [0.3, 0.4, 0.5])
    layers = per_layer(result)
    for declared, produced in (("end_to_end", e2e), ("per_layer", layers)):
        want = {m["name"]: m["unit"] for m in BENCHMARK[declared]}
        assert {k: u for k, (_, u) in produced.items()} == want
    assert layers["metrics.share"][0] == 0.5
    assert beside["case_p50_geomean_s"] == pytest.approx(2.0)
    assert beside["slowest_case_p50_s"] == 4.0


def test_run_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "subset_search",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""

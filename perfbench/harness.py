"""Benchmark plumbing shared by the parent and the worker: spans around calls
into etfkit, output checks, the run stamp, and the reduction of job records
and spans to the reported metrics.

Spans are recorded only by the benchmark, around its own calls into each
etfkit module; nothing inside the package is instrumented.
"""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import statistics
import subprocess
from pathlib import Path
from time import perf_counter

LAYERS = ("gf", "designs", "flatmat", "frames", "metrics", "codes", "cli")


class CheckFailed(Exception):
    """A job's output differs from what the reference build produced."""


class Job:
    """One job's handle: runs calls into etfkit and, when a span list is
    given, records one span per call (name, start, end, parent, job id)."""

    def __init__(self, job_id: int, spans: list | None):
        self.job_id = job_id
        self.spans = spans
        self._last: dict | None = None

    def call(self, fn, *args, **kwargs):
        """Call fn, naming its span `<module>.<function>` after fn itself."""
        name = f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"
        return self.call_as(name, fn, *args, **kwargs)

    def call_as(self, name: str, fn, *args, **kwargs):
        if self.spans is None:
            return fn(*args, **kwargs)
        span = {"name": name, "parent": "job", "job": self.job_id, "ok": False}
        self._last = span
        span["start"] = perf_counter()
        try:
            out = fn(*args, **kwargs)
            span["ok"] = True
            return out
        finally:
            span["end"] = perf_counter()
            self.spans.append(span)

    def note(self, **counters) -> None:
        """Attach work counters to the span of the latest call."""
        if self.spans is not None:
            self._last.update(counters)


class Checker:
    """Compares job outputs with the expectations recorded from the reference
    build.  Built with expected=None it records them instead."""

    def __init__(self, expected: dict | None = None):
        self.recording = expected is None
        self.expected = {} if expected is None else expected

    def require(self, ok: bool, what: str) -> None:
        if not ok:
            raise CheckFailed(what)

    def digest(self, key: str, data: bytes) -> None:
        """Byte-stable output: its sha256 must match the recorded one."""
        self._match(key, hashlib.sha256(data).hexdigest(), 0.0)

    def value(self, key: str, x, tol: float = 0.0) -> None:
        """Numeric output: must lie within tol of the recorded value."""
        self._match(key, x, tol)

    def _match(self, key: str, x, tol: float) -> None:
        if self.recording:
            old = self.expected.setdefault(key, x)
            if old != x and not (isinstance(x, float) and abs(old - x) <= tol):
                raise CheckFailed(f"{key}: output is not reproducible ({old!r} then {x!r})")
            return
        if key not in self.expected:
            raise CheckFailed(f"{key}: no recorded expectation")
        want = self.expected[key]
        if isinstance(want, str) or tol == 0.0:
            ok = want == x
        else:
            ok = abs(want - x) <= tol
        if not ok:
            raise CheckFailed(f"{key}: got {x!r}, recorded {want!r}")


def report_bytes(report) -> bytes:
    """A report as the CLI prints it: sorted-key JSON of as_dict()."""
    return json.dumps(report.as_dict(), sort_keys=True).encode()


# -- run stamp ------------------------------------------------------------------

def _blas_threads() -> int | None:
    import numpy as np

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libdir / "*openblas*")):
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _source_digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted((root / "src" / "etfkit").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _commit(root: Path) -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def stamp(root: Path, workload: str, seed: int) -> dict:
    """What a result was measured on, so runs from different settings are
    never mixed."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": _commit(root),
        "source_sha256": _source_digest(root),
        "workload": workload,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
    }


# -- reduction to metrics ---------------------------------------------------------

def tail(walls: list[float]) -> tuple[float, float, int]:
    """Highest percentile of job wall time with at least ten jobs beyond it:
    (value, percentile, sample count)."""
    ordered = sorted(walls)
    n = len(ordered)
    k = max(0, n - 11)
    return ordered[k], 100.0 * (k + 1) / n, n


def case_medians(jobs: list[dict]) -> dict[str, float]:
    """Median job wall time of each case of the catalogue."""
    walls: dict[str, list[float]] = {}
    for j in jobs:
        walls.setdefault(j["case"], []).append(j["wall"])
    return {case: statistics.median(w) for case, w in walls.items()}


def end_to_end(result: dict, setup_samples: list[float]) -> tuple[dict, dict]:
    """Metrics a user sees, from the untraced rounds; second value holds what
    is printed beside them.

    Only throughput, memory and set-up time are bounded.  A workload's jobs
    differ in size by up to three orders of magnitude, so a median or a
    percentile over all of them falls on whichever class of jobs its rank
    reaches, and jumps between runs of the same code.  Per-case figures are
    steady within a run, but small jobs slow down more than large ones when
    the machine is loaded, so their spread across runs exceeds the bound.
    They are printed beside: the median and tail over all jobs, each case's
    median, their geometric mean (every case weighs the same) and the
    largest of them.

    setup_s is the median time from process start to ready (interpreter,
    `import etfkit`, input generation) over the set-up samples, plus the
    timed worker's one warm-up pass over the catalogue.
    """
    rounds = [r for r in result["rounds"] if not r["traced"]]
    jobs = [j for j in result["jobs"] if not j["traced"]]
    walls = [j["wall"] for j in jobs]
    medians = case_medians(jobs)
    tail_value, tail_pct, tail_n = tail(walls)
    metrics = {
        "jobs_per_s": (len(jobs) / sum(r["wall"] for r in rounds), "1/s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup_samples) + result["warmup_s"], "s"),
    }
    beside = {
        "job_p50_s": statistics.median(walls),
        "job_tail_s": tail_value,
        "job_tail_percentile": tail_pct,
        "job_tail_samples": tail_n,
        "case_p50_geomean_s": statistics.geometric_mean(medians.values()),
        "slowest_case_p50_s": max(medians.values()),
        "jobs": len(walls),
        "rounds": len(rounds),
        "case_p50_s": medians,
        "setup_samples_s": setup_samples,
        "warmup_s": result["warmup_s"],
    }
    return metrics, beside


def _busy(spans) -> float:
    return sum(s["end"] - s["start"] for s in spans)


def _rate(spans, counter: str) -> float:
    spans = [s for s in spans if counter in s]
    busy = _busy(spans)
    return sum(s[counter] for s in spans) / busy if busy else 0.0


def per_layer(result: dict) -> dict:
    """Per-module busy time, calls, failures and share of job wall time from
    the traced rounds, plus the work rates named in the benchmark's notes."""
    spans = result["spans"]
    job_wall = sum(j["wall"] for j in result["jobs"] if j["traced"])

    def named(name, **attrs):
        return [s for s in spans if s["name"] == name
                and all(s.get(k) == v for k, v in attrs.items())]

    out = {}
    layer_busy = 0.0
    for layer in LAYERS:
        mine = [s for s in spans if s["name"].split(".", 1)[0] == layer]
        busy = _busy(mine)
        layer_busy += busy
        out[f"{layer}.busy_s"] = (busy, "s")
        out[f"{layer}.calls"] = (len(mine), "count")
        out[f"{layer}.failed"] = (sum(not s["ok"] for s in mine), "count")
        out[f"{layer}.share"] = (busy / job_wall if job_wall else 0.0, "ratio")

    busy_of = {
        "metrics.certify_etf.exact": named("metrics.certify_etf", path="exact"),
        "metrics.certify_etf.float": named("metrics.certify_etf", path="float"),
    }
    for name in ("metrics.gram_equal", "metrics.spark", "metrics.rip_delta",
                 "metrics.steiner_rip_verdict", "codes.certify_grbe", "codes.is_linear",
                 "codes.frame_to_code", "codes.parse_code", "frames.kirkman_etf",
                 "frames.steiner_etf", "frames.mcfarland_set", "frames.harmonic_etf",
                 "frames.mcfarland_as_kirkman", "frames.naimark_complement",
                 "frames.parse_frame", "frames.frame_to_json", "flatmat.character_table",
                 "flatmat.hadamard", "gf.make_field", "gf.hyperplane_kernel",
                 "designs.affine_design", "designs.round_robin_design", "designs.validate",
                 "cli.design", "cli.frame", "cli.code", "cli.verify", "cli.analyze",
                 "cli.bound"):
        busy_of[name] = named(name)
    for name, mine in busy_of.items():
        out[f"{name}.busy_s"] = (_busy(mine), "s")

    rips = named("metrics.rip_delta")
    hits, misses = result["make_field_cache"]
    startups = [s["end"] - s["start"] for s in named("cli.bound")]
    cli_spans = [s for s in spans if s["name"].startswith("cli.")]
    untraced = [r["wall"] for r in result["rounds"] if not r["traced"]]
    traced = [r["wall"] for r in result["rounds"] if r["traced"]]
    out.update({
        "metrics.exact_gram.macs_per_s": (_rate(spans, "macs"), "1/s"),
        "metrics.subsets_enumerated": (sum(s.get("subsets", 0) for s in spans), "count"),
        "metrics.rip_delta.subsets_per_s": (_rate(rips, "subsets"), "1/s"),
        "codes.distance.pair_bits_per_s": (_rate(spans, "pair_bits"), "1/s"),
        "frames.kirkman_etf.entries_per_s": (_rate(spans, "entries"), "1/s"),
        "gf.make_field.cache_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                          "ratio"),
        "cli.startup_s": (statistics.median(startups) if startups else 0.0, "s"),
        "cli.bytes_in": (sum(s.get("bytes_in", 0) for s in cli_spans), "bytes"),
        "cli.bytes_out": (sum(s.get("bytes_out", 0) for s in cli_spans), "bytes"),
        "trace.coverage": (layer_busy / job_wall if job_wall else 0.0, "ratio"),
        "trace.overhead_pct": (
            100.0 * (statistics.median(traced) / statistics.median(untraced) - 1.0)
            if traced and untraced else 0.0, "%"),
    })
    return out

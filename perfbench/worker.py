"""One workload in a fresh process: set up, signal readiness, run a warm-up
pass and the timed rounds, print the job records (and spans, when tracing)
as one JSON line.

Started by run.py; not meant to be run by hand.  Protocol on stdout: the line
`ready` once set-up is done, then a single JSON document at exit.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import shutil
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import etfkit  # noqa: E402  (set-up time includes this import)

from harness import Checker, Job, stamp  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_ROUNDS = 2  # a traced run alternates traced and untraced rounds


def run_job(case, variant, job_id: int, check: Checker, spans: list | None) -> dict:
    t0 = perf_counter()
    try:
        case.run(Job(job_id, spans), check, variant)
        error = None
    except Exception as e:  # a job that raises is a failed job, not a crash
        error = f"{type(e).__name__}: {e}"
    wall = perf_counter() - t0
    if spans is not None:
        spans.append({"name": "job", "parent": None, "job": job_id, "ok": error is None,
                      "start": t0, "end": t0 + wall, "case": case.name})
    return {"case": case.name, "variant": repr(variant), "wall": wall, "ok": error is None,
            "error": error}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    outdir = HERE / "out"
    outdir.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=outdir))
    try:
        expected = json.loads((HERE / "expected.json").read_text())
        check = Checker(expected)
        cases = WORKLOADS[args.workload](workdir)
        print("ready", flush=True)
        if args.setup_only:
            return 0

        # the warm-up pass: every case once, untimed, so caches fill and the
        # allocator reaches its steady state before the first timed round
        t0 = perf_counter()
        warm = [run_job(c, c.variants[0], -1, check, None) for c in cases]
        warmup_s = perf_counter() - t0

        rng = random.Random(args.seed)
        jobs, rounds, spans = [], [], []
        start = perf_counter()
        while perf_counter() - start < args.seconds or len(rounds) < MIN_ROUNDS:
            traced = bool(args.trace) and len(rounds) % 2 == 0
            order = rng.sample(cases, len(cases))
            picks = [rng.choice(c.variants) for c in order]
            t0 = perf_counter()
            for case, variant in zip(order, picks):
                record = run_job(case, variant, len(jobs), check, spans if traced else None)
                record.update(traced=traced, round=len(rounds))
                jobs.append(record)
            rounds.append({"wall": perf_counter() - t0, "traced": traced})

        info = etfkit.make_field.cache_info()
        who = resource.RUSAGE_CHILDREN if args.workload == "cli_pipeline" else resource.RUSAGE_SELF
        result = {
            "stamp": stamp(ROOT, args.workload, args.seed),
            "warmup": warm,
            "warmup_s": warmup_s,
            "jobs": jobs,
            "rounds": rounds,
            "spans": spans,
            "make_field_cache": [info.hits, info.misses],
            # ru_maxrss is in KiB; for the CLI workload it is the largest child
            "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
        }
        print(json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())

"""etfkit benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload flat_sign_certify --seed 1 --seconds 16 --trace 0

Run from the repository root.  The workload runs in a fresh worker process
(worker.py) so its peak memory and etfkit's caches belong to it alone.  The
worker is a closed loop: one client runs jobs back to back, and BLAS keeps
its default thread count, which the stamp records.  Set-up (interpreter start,
`import etfkit`, input generation, warm-up) is timed SETUP_RUNS times in
fresh processes and reported as the median.

With --trace 0 the last line carries the end-to-end metrics of BENCHMARK.json;
with --trace 1 it carries the per-layer metrics, from rounds that alternate
with untraced ones so the tracing overhead can be reported.  Lines before it
give the stamp, the failed-job ratio, the tail percentile and sample count,
and the first failures.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from harness import end_to_end, per_layer  # noqa: E402

WORKLOADS = ("flat_sign_certify", "subset_search", "harmonic_fields", "cli_pipeline")
SETUP_RUNS = 5
WORKER_TIMEOUT_S = 150


def start_worker(argv: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its `ready` line; returns it with the set-up time."""
    t0 = perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), *argv],
                            stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker failed during set-up (exit {proc.returncode})")
    return proc, setup


def finish(proc: subprocess.Popen) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("worker did not finish in time") from None
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "etfkit" / "__init__.py").is_file():
        print(f"run.py: no etfkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    worker_args = ["--workload", args.workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = []
        for _ in range(SETUP_RUNS - 1):
            proc, setup = start_worker(worker_args + ["--setup-only"])
            finish(proc)
            setups.append(setup)
        proc, setup = start_worker(worker_args)
        setups.append(setup)
        result = json.loads(finish(proc).splitlines()[-1])
    except (RuntimeError, OSError, ValueError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 1

    records = result["warmup"] + result["jobs"]
    failures = [f"{r['case']} {r['variant']}: {r['error']}" for r in records if not r["ok"]]
    e2e, beside = end_to_end(result, setups)
    beside["failed_ratio"] = len(failures) / len(records)
    metrics = per_layer(result) if args.trace else e2e
    if args.trace:
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        with open(out / f"spans-{args.workload}-seed{args.seed}.jsonl", "w") as fh:
            fh.writelines(json.dumps(s) + "\n" for s in result["spans"])

    print(json.dumps({"stamp": result["stamp"]}))
    print(json.dumps({"workload": args.workload, **beside,
                      "end_to_end": {k: v for k, (v, _) in e2e.items()}}))
    for line in failures[:10]:
        print(f"FAILED {line}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

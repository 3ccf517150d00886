"""Record the expected outputs (expected.json) from the current build.

    python3 perfbench/record.py [workload ...]

Runs every variant of every case once and stores the sha256 of each
byte-stable output and each float-path value the jobs check.  Run it only on
a build whose outputs are known to be right: the benchmark counts every later
difference as a failed job.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from harness import Checker, Job  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def main(names: list[str]) -> int:
    path = HERE / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for name in names or WORKLOADS:
        # keys start with the workload's first word: flat/, subset/, harmonic/, cli/
        prefix = name.split("_")[0] + "/"
        expected = {k: v for k, v in expected.items() if not k.startswith(prefix)}
        check = Checker()
        with tempfile.TemporaryDirectory(dir=HERE) as workdir:
            for case in WORKLOADS[name](Path(workdir)):
                for variant in case.variants:
                    case.run(Job(0, None), check, variant)
        print(f"{name}: {len(check.expected)} expectations", file=sys.stderr)
        expected.update(check.expected)
    path.write_text(json.dumps(expected, indent=0, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Fast self-check of the benchmark at tiny sizes.

Runs every workload once untraced and once traced, with 2x2 inputs and a
one-second loop, and fails unless each run prints every metric that
BENCHMARK.json names and no op fails.  Run from the root of a checkout:

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run


def main() -> int:
    root = Path.cwd()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    run.prepare(root)
    problems = []
    for workload in spec["workloads"]:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result = run.run(workload["name"], seed=1, seconds=1.0, trace=trace,
                             root=root, tiny=True)
            where = f"{workload['name']} trace {int(trace)}"
            missing = {m["name"] for m in spec[group]} - set(result["metrics"])
            if missing:
                problems.append(f"{where}: missing metrics {sorted(missing)}")
            if result["failed"] or not result["correct"]:
                problems.append(f"{where}: error_rate "
                                f"{result['failed']} / {result['attempted']} is not 0")
    for problem in problems:
        print(f"SELF-CHECK FAIL {problem}")
    print("SELF-CHECK PASS" if not problems else "SELF-CHECK FAIL")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

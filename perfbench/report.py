"""Print every benchmark metric, by name and with its unit, for every workload.

    python3 perfbench/report.py

Runs run.py untraced (end-to-end metrics) and traced (per-layer metrics)
on each workload in turn, with seed 1 and the run length BENCHMARK.json
sets, and prints their reports without the final JSON lines. Exits 1 if
any run fails or reports an incorrect output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SEED = 1


def main():
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        seconds = json.load(fh)["run_seconds"]
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(SEED), "--seconds", str(seconds),
                 "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                status = 1
                continue
            print("\n".join(lines[:-1]) + "\n", flush=True)
            if not json.loads(lines[-1])["correct"]:
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())

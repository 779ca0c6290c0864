"""Record reference.json: the output of every candidate op of every workload.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are the contract; benchmark runs
then check every op against the file. Every workload is recorded and the
file is written fresh. Each recorded output must also pass the checks
that need no reference (bound order, MC against the closed form, oracle
against theta), or nothing is written.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import time

from worker import HERE, timed
from workloads import WORKLOADS, Runner, candidates

REFERENCE = HERE / "reference.json"


def main():
    reference = {}
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    problems = []
    try:
        runner = Runner(workdir)
        for workload in WORKLOADS:
            start = time.perf_counter()
            table = {}
            for slot in candidates(workload):
                for op in slot:
                    _, out, error = timed(runner, op)
                    error = error or runner.check(op, out, out)
                    if error is not None:
                        problems.append(f"{workload} {op.key}: {error}")
                    table[op.key] = out
            reference[workload] = table
            print(f"{workload}: {len(table)} ops in {time.perf_counter() - start:.1f} s")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

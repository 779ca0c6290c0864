"""Set-up probe: ``import anmimo`` and the workload's first op, cold.

    python3 perfbench/setup_probe.py --workload W --seed S

Only modules every interpreter has loaded at start-up (sys, os, time)
come before ``import anmimo``, so the import pays for every module the
program needs, as an ``anmimo`` command does. The host-speed loop runs
after both, so it warms nothing they use. Prints one JSON object.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

start = time.perf_counter()
import anmimo  # noqa: E402,F401

imported = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import tempfile  # noqa: E402

import hostspeed  # noqa: E402
from worker import HERE, timed  # noqa: E402

LOOPS = 5
from workloads import Runner, build_pass  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    op = build_pass(args.workload, args.seed)[0]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        first_op_s, _, error = timed(Runner(workdir), op)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    loop_s = statistics.median(hostspeed.loop_seconds() for _ in range(LOOPS))
    print(json.dumps({
        "import_s": imported - start, "first_op_s": first_op_s, "loop_s": loop_s, "error": error,
    }))


if __name__ == "__main__":
    main()

"""Host speed, measured next to the ops, to put timings on one scale.

On a shared host the CPU speed of a single-threaded process swings by up
to 2x over a few seconds and drifts over tens of minutes, with the load
other tenants put on the same cores. Run to run, that moved a workload's
throughput by 30%, far more than the program changes worth detecting.
The benchmark therefore times a fixed pure-Python loop between the ops
all through a run and scales the run's op times by ``REFERENCE_S`` over
the median loop time: timings read as they would on a host where the
loop takes ``REFERENCE_S``. The loop is benchmark code, so a change to
the program cannot move it.
Importing this module imports nothing beyond the standard library.
"""

from __future__ import annotations

import time

LOOPS = 30_000
# the loop's time on an unloaded host: roughly what it takes on the
# Xeon VMs the baseline was measured on, in their fast phases
REFERENCE_S = 2.0e-3


def loop_seconds() -> float:
    """Wall time of one run of the calibration loop."""
    start = time.perf_counter()
    total = 0
    for i in range(LOOPS):
        total += i * i
    return time.perf_counter() - start

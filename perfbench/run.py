"""anmimo benchmark: run one workload under one seed and print its metrics.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 25 --trace 0

Untraced (--trace 0) it reports the end-to-end metrics; traced (--trace 1)
the per-layer ones. Every measurement runs in a fresh process
(setup_probe.py, worker.py) with ANMIMO_WORKERS and the BLAS thread
variables cleared, so both sides of a comparison run the program's
defaults. End-to-end times are scaled to one host speed (hostspeed.py)
and also printed unscaled. The last line of standard output is one JSON
object: correct, attempted, failed, metrics.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

import hostspeed
from tracer import COUNTED, SPAN_NAMES
from workloads import MC_PROBE_SLOTS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
SETUP_PROBE = HERE / "setup_probe.py"

SETUP_REPEATS = 5
# a probe runs one op; a run runs whole passes until --seconds of op time
# have passed, and a traced pass runs every op twice
CHILD_TIMEOUT_S = 150
RUN_TIMEOUT_BASE_S = 90
# Peak RSS is measured in its own process with glibc's mmap threshold
# fixed. Under the default, dynamic threshold freed numpy buffers stay in
# the heap wherever its layout puts them: a timed MC worker peaked
# at 136 or 156 MB for the same code, depending on the checkout path and
# the size of the environment. A fixed threshold hands large buffers back
# when they are freed, so the peak follows live memory. The timed run keeps
# the default, which the fixed threshold slows by 5-10% on MC workloads.
MEMORY_ENV = {"MALLOC_MMAP_THRESHOLD_": "131072"}
THREAD_VARIABLES = (
    "ANMIMO_WORKERS",
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "GOTO_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
PER_LAYER = (
    *((f"{name}.{kind}", unit) for name in SPAN_NAMES
      for kind, unit in (("calls", "1/op"), ("self_s", "s/op"))),
    ("closed_form.omega.det_sum_share", "fraction"),
    ("closed_form.theta.coeff_cache_misses", "count"),
    *((f"{name}.calls", "1/op") for _, _, name in COUNTED),
    ("asymptotics.solve_delta.iterations", "1/op"),
    ("monte_carlo.mc_average_secrecy_rate.trials_per_s", "1/s"),
    ("monte_carlo.mc_logdet_oracle.trials_per_s", "1/s"),
    ("monte_carlo.mc_normalized_rate_sample.trials_per_s", "1/s"),
    ("monte_carlo.philox_words", "words/op"),
    ("monte_carlo.workers", "count"),
    *((f"monte_carlo.worker_speedup.{op}", "ratio") for op in MC_PROBE_SLOTS),
    ("setup.import_s", "s"),
    ("setup.first_op_s", "s"),
    ("trace.overhead_frac", "fraction"),
    ("trace.self_sum_frac", "fraction"),
    ("trace.ops", "count"),
)


class BenchError(RuntimeError):
    pass


def _nproc():
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def _child_env(workers=None):
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARIABLES}
    if workers is not None:
        # worker threads only; BLAS stays single-threaded so the process
        # never runs more threads than nproc
        env["ANMIMO_WORKERS"] = str(workers)
        for name in THREAD_VARIABLES[1:]:
            env[name] = "1"
    return env


def _child(script, argv, env, timeout=CHILD_TIMEOUT_S):
    try:
        proc = subprocess.run(
            [sys.executable, str(script), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script.name} {argv[0]} exceeded {timeout:g} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{script.name} {argv[0]} failed:\n{proc.stderr.strip()[-3000:]}")
    return json.loads(lines[-1])


def _git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _per_op(latencies, pass_len):
    """Each op's latency: the median of its executions in the run.

    A run repeats one pass of ops, so every op of the pass runs once per
    pass. Percentiles taken over the ops, not over all executions, fall
    on one op's latency instead of jumping across the gap between two
    ops' latencies as executions of neighbouring ops trade places.
    """
    return [statistics.median(latencies[slot::pass_len]) for slot in range(pass_len)]


def _p90(values):
    """The nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def measure(args):
    base_env = _child_env()
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setups = [
        _child(SETUP_PROBE, common, base_env)
        for _ in range(1 if args.short else SETUP_REPEATS)
    ]
    if args.short:
        common.append("--short")
    errors = [s["error"] for s in setups if s["error"]]

    run_argv = ["run", *common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--reference", str(args.reference)]
    spans_path = None
    if args.trace:
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"spans-{args.workload}-{args.seed}.jsonl"
        run_argv += ["--spans", str(spans_path)]
    run = _child(WORKER, run_argv, base_env, timeout=RUN_TIMEOUT_BASE_S + 3 * args.seconds)

    if not args.trace:
        memory = _child(WORKER, ["memory", *common], {**base_env, **MEMORY_ENV})
        if memory["error"]:
            errors.append(memory["error"])

    lat = run["latencies"]
    info = {
        "commit": _git_commit(),
        "nproc": _nproc(),
        "cpu": _cpu_model(),
        **run["environment"],
    }
    lines = [
        f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace}",
        "environment " + json.dumps(info),
    ]
    if args.trace:
        metrics = dict(run["layers"])
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        metrics["setup.first_op_s"] = statistics.median(s["first_op_s"] for s in setups)
        for op in MC_PROBE_SLOTS:
            seconds = {}
            for workers in (1, _nproc()):
                probe = _child(WORKER, ["probe", "--op", op]
                               + (["--short"] if args.short else []), _child_env(workers))
                if probe["error"]:
                    errors.append(probe["error"])
                seconds[workers] = probe["seconds"]
            metrics[f"monte_carlo.worker_speedup.{op}"] = seconds[1] / seconds[_nproc()]
        table = PER_LAYER
        lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        wall = _per_op(lat, run["pass_len"])
        run_loop_s = statistics.median(run["loop_s"])
        per_op = [t * hostspeed.REFERENCE_S / run_loop_s for t in wall]
        setup_wall = [s["import_s"] + s["first_op_s"] for s in setups]
        metrics = {
            "setup_s": statistics.median(
                t * hostspeed.REFERENCE_S / s["loop_s"] for t, s in zip(setup_wall, setups)
            ),
            "ops_per_s": len(per_op) / sum(per_op),
            "op_p50_ms": 1e3 * statistics.median(per_op),
            "op_tail_ms": 1e3 * _p90(per_op),
            "peak_rss_mb": memory["peak_rss_kb"] / 1024.0,
        }
        table = END_TO_END
        setup_loop_ms = 1e3 * statistics.median(s["loop_s"] for s in setups)
        lines += [
            f"op latencies are per-op medians of {len(lat) // len(per_op)} executions of each "
            f"of {len(per_op)} ops; op_tail_ms is their p90",
            f"times are scaled to a host-speed loop of {1e3 * hostspeed.REFERENCE_S:g} ms; "
            f"this run's loop took {1e3 * run_loop_s:.4g} ms (median of {len(run['loop_s'])}), "
            f"set-up's {setup_loop_ms:.4g} ms",
            f"unscaled: setup_s {statistics.median(setup_wall):.6g} s, "
            f"ops_per_s {len(wall) / sum(wall):.6g} 1/s, "
            f"op_p50_ms {1e3 * statistics.median(wall):.6g} ms, "
            f"op_tail_ms {1e3 * _p90(wall):.6g} ms",
        ]
        if run["trials"]:
            lines.append(f"mc_trials_per_s {run['trials'] / sum(lat):.6g} 1/s")
    lines += [f"{name} {metrics[name]:.6g} {unit}" for name, unit in table]
    lines.append(
        f"fail_frac {run['failed'] / run['attempted']:.6g} "
        f"({run['failed']} of {run['attempted']} ops failed)"
    )
    lines += [f"failure: {text}" for text in run["failures"] + errors]
    lines.append(f"outputs_digest {run['outputs_digest']}")
    result = {
        "correct": run["failed"] == 0 and not errors,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in table},
    }
    return lines, result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=Path, default=HERE / "reference.json",
                        help="reference outputs to check against")
    parser.add_argument("--short", action="store_true",
                        help="one set-up probe and no warm-up executions, for tests")
    args = parser.parse_args()
    if not (ROOT / "src" / "anmimo" / "__init__.py").is_file():
        print(f"perfbench: no anmimo sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        lines, result = measure(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

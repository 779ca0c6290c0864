"""One measuring process, started fresh by run.py for every run and probe.

    worker.py run --workload W --seed S --seconds T --trace 0|1 --reference F
        run whole passes of the workload until T seconds of op time have
        passed, then check every output against F
    worker.py probe --op small|large
        time one fixed op of the mc workload under the caller's
        ANMIMO_WORKERS
    worker.py memory --workload W --seed S
        run one pass of the workload, untimed, and report peak RSS

Each mode prints one JSON object on its last line of standard output.
Set-up time is measured by setup_probe.py, which imports nothing before
``import anmimo``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import hostspeed  # noqa: E402
from workloads import (  # noqa: E402
    MC_PROBE_SLOTS,
    Runner,
    build_pass,
    candidates,
    mc_trials,
    philox_words,
)

# an untraced run times the host-speed loop before an op once this much
# op time has passed since the last loop, so the loops sample the host
# speed all through the run
CALIBRATE_EVERY_S = 0.05


def timed(runner, op):
    """Latency, normalized output and error text of one execution of op."""
    fn = runner.prepare(op)
    start = time.perf_counter()
    try:
        raw = fn()
    except Exception as exc:  # a failed op is counted, never fatal
        return time.perf_counter() - start, None, f"{type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    return latency, runner.normalize(op, raw), None


def _environment():
    import mpmath
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mpmath": mpmath.__version__,
        "blas": blas_name,
    }


def _theta_cache_misses(closed_form):
    # read from the lru_cache statistics; -1 when the cache is gone
    cache_info = getattr(getattr(closed_form, "_theta_coeffs", None), "cache_info", None)
    return cache_info().misses if cache_info else -1


def cmd_probe(args):
    op = candidates("mc")[MC_PROBE_SLOTS[args.op]][0]
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        runner = Runner(workdir)
        if not args.short:
            timed(runner, op)
        seconds, _, error = timed(runner, op)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"seconds": seconds, "error": error}


def cmd_memory(args):
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        runner = Runner(workdir)
        errors = [timed(runner, op)[2] for op in build_pass(args.workload, args.seed)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "error": next((e for e in errors if e is not None), None),
    }


def _layer_metrics(tracer, traced_ops, traced_s, untraced_s, theta_misses):
    from tracer import COUNTED, SPAN_NAMES

    n = max(1, len(traced_ops))
    calls, self_s, incl_s = {}, {}, {}
    for name, inclusive, own in tracer.self_times():
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        incl_s[name] = incl_s.get(name, 0.0) + inclusive
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls.get(name, 0) / n
        out[f"{name}.self_s"] = self_s.get(name, 0.0) / n
    omega_calls = calls.get("closed_form.omega", 0)
    det_calls = tracer.counts["closed_form.omega.det_sum_calls"]
    out["closed_form.omega.det_sum_share"] = det_calls / omega_calls if omega_calls else 0.0
    out["closed_form.theta.coeff_cache_misses"] = theta_misses
    for _, _, name in COUNTED:
        out[f"{name}.calls"] = tracer.counts[name] / n
    out["asymptotics.solve_delta.iterations"] = tracer.counts["asymptotics.solve_delta.iterations"] / n
    fn_of_kind = {
        "rate": "monte_carlo.mc_average_secrecy_rate",
        "oracle": "monte_carlo.mc_logdet_oracle",
        "sample": "monte_carlo.mc_normalized_rate_sample",
    }
    for name in fn_of_kind.values():
        trials = sum(mc_trials(op) for op in traced_ops if fn_of_kind.get(op.kind) == name)
        seconds = incl_s.get(name, 0.0)
        out[f"{name}.trials_per_s"] = trials / seconds if seconds else 0.0
    out["monte_carlo.philox_words"] = sum(philox_words(op) for op in traced_ops) / n
    # the engine's setting, read as monte_carlo reads it: 1 when unset
    out["monte_carlo.workers"] = int(os.environ.get("ANMIMO_WORKERS", "1"))
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0 if untraced_s else 0.0
    out["trace.self_sum_frac"] = sum(self_s.values()) / traced_s if traced_s else 0.0
    out["trace.ops"] = len(traced_ops)
    return out


def cmd_run(args):
    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)[args.workload]
    ops = build_pass(args.workload, args.seed)
    workdir = tempfile.mkdtemp(prefix=".work-", dir=HERE)
    try:
        import anmimo

        runner = Runner(workdir)
        tracer = None
        if args.trace:
            from tracer import Tracer

            tracer = Tracer(anmimo)
        if not args.short:
            timed(runner, ops[0])  # warm-up; set-up time is measured apart

        results = []  # (op, latency, output, error) of untraced executions
        traced_ops, traced_s, untraced_s, busy = [], 0.0, 0.0, 0.0
        loop_s, since_loop = [], math.inf
        while not results or busy < args.seconds:  # whole passes only
            for op in ops:
                index = len(results)
                if tracer is None:
                    if since_loop >= CALIBRATE_EVERY_S:
                        loop_s.append(hostspeed.loop_seconds())
                        since_loop = 0.0
                    latency, out, error = timed(runner, op)
                    busy += latency
                    since_loop += latency
                    results.append((op, latency, out, error))
                    continue
                # alternate which execution comes first, so warm caches
                # favour neither side of the overhead ratio
                runs = {}
                for traced in ((False, True) if index % 2 == 0 else (True, False)):
                    if traced:
                        tracer.op = index
                        tracer.install()
                    try:
                        runs[traced] = timed(runner, op)
                    finally:
                        if traced:
                            tracer.uninstall()
                (lat_u, out_u, err_u), (lat_t, out_t, err_t) = runs[False], runs[True]
                busy += lat_u + lat_t
                untraced_s += lat_u
                traced_s += lat_t
                traced_ops.append(op)
                error = err_u or err_t
                if error is None and out_u != out_t:
                    error = "traced and untraced outputs differ"
                results.append((op, lat_u, out_u, error))
        theta_misses = _theta_cache_misses(runner.closed_form)

        failures, digests = [], set()
        for op, _, out, error in results:
            if error is None:
                error = runner.check(op, out, reference.get(op.key))
            if error is not None:
                failures.append(f"{op.key} ({op.kind}): {error}")
            digests.add(op.key + "=" + json.dumps(out, sort_keys=True))
        result = {
            "latencies": [lat for _, lat, _, _ in results],
            "pass_len": len(ops),
            "attempted": len(results),
            "failed": len(failures),
            "failures": failures[:5],
            "trials": sum(mc_trials(op) for op, _, _, _ in results),
            "outputs_digest": hashlib.sha256("\n".join(sorted(digests)).encode()).hexdigest(),
            "environment": _environment(),
        }
        if tracer is None:
            result["loop_s"] = loop_s
        else:
            result["layers"] = _layer_metrics(
                tracer, traced_ops, traced_s, untraced_s, theta_misses
            )
            if args.spans:
                tracer.write(args.spans)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("run", "probe", "memory"))
    parser.add_argument("--workload")
    parser.add_argument("--op", choices=tuple(MC_PROBE_SLOTS), help="probe: which op")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(HERE / "reference.json"))
    parser.add_argument("--spans", default=None, help="write traced spans here (JSON lines)")
    parser.add_argument("--short", action="store_true", help="skip warm-up executions")
    args = parser.parse_args()
    result = {"run": cmd_run, "probe": cmd_probe, "memory": cmd_memory}[args.mode](args)
    print(json.dumps(result))


if __name__ == "__main__":
    main()

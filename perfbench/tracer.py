"""Spans around the program's public functions, recorded in this process only.

The tracer rebinds module attributes: every anmimo module that holds a
traced function, under any name, gets the same wrapper, so calls made
between modules (``harness`` calling its own imported
``average_secrecy_rate``, ``cli`` calling ``run_point``) are seen too.
``uninstall`` puts the original objects back. Spans stay in memory as
(op, parent, name, start, end) and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter

# (module, function, span name); functions sharing a span name add up
SPANS = (
    ("cli", "main", "cli.main"),
    ("harness", "run_point", "harness.run_point"),
    ("harness", "run_sweep", "harness.run_sweep"),
    ("harness", "design_report", "harness.design_report"),
    ("harness", "parse_config_text", "harness.parse"),
    ("harness", "parse_design_text", "harness.parse"),
    ("harness", "parse_sweep_text", "harness.parse"),
    ("harness", "config_from_mapping", "harness.parse"),
    ("harness", "rows_to_csv", "harness.serialize"),
    ("harness", "rows_to_json", "harness.serialize"),
    ("harness", "point_row", "harness.serialize"),
    ("closed_form", "average_secrecy_rate", "closed_form.average_secrecy_rate"),
    ("closed_form", "average_rate_bounds", "closed_form.average_rate_bounds"),
    ("closed_form", "omega", "closed_form.omega"),
    ("closed_form", "theta", "closed_form.theta"),
    ("asymptotics", "asymptotic_average_rate", "asymptotics.asymptotic_average_rate"),
    ("asymptotics", "psi", "asymptotics.psi"),
    ("asymptotics", "solve_delta", "asymptotics.solve_delta"),
    ("asymptotics", "critical_eve_antennas", "asymptotics.critical_eve_antennas"),
    ("monte_carlo", "mc_average_secrecy_rate", "monte_carlo.mc_average_secrecy_rate"),
    ("monte_carlo", "mc_logdet_oracle", "monte_carlo.mc_logdet_oracle"),
    ("monte_carlo", "mc_normalized_rate_sample", "monte_carlo.mc_normalized_rate_sample"),
)
SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in SPANS))

# called 2 * max_eve_antennas times per design report, a few microseconds
# each: counted only, so tracing does not swamp the scan it measures
COUNTED = (("asymptotics", "delta_highsnr", "asymptotics.delta_highsnr"),)

# omega's switch to the single-group branch, as the program documents it
_BETA_DEGENERATE_TOL = 1e-6


def _omega_fact(args, kwargs, result):
    cfg = args[0] if args else kwargs["cfg"]
    det_sum = cfg.alpha != 0.0 and abs(cfg.beta - 1.0) >= _BETA_DEGENERATE_TOL
    return "closed_form.omega.det_sum_calls", int(det_sum)


def _solve_delta_fact(args, kwargs, result):
    return "asymptotics.solve_delta.iterations", result.iterations


FACTS = {
    "closed_form.omega": _omega_fact,
    "asymptotics.solve_delta": _solve_delta_fact,
}


class Tracer:
    """Records spans and counts while installed; a no-op when not."""

    def __init__(self, package):
        import anmimo.asymptotics
        import anmimo.cli
        import anmimo.closed_form
        import anmimo.harness
        import anmimo.monte_carlo

        modules = {
            "cli": anmimo.cli,
            "harness": anmimo.harness,
            "closed_form": anmimo.closed_form,
            "asymptotics": anmimo.asymptotics,
            "monte_carlo": anmimo.monte_carlo,
        }
        holders = [package, *modules.values()]
        self.spans = []
        self.counts = Counter()
        self.op = -1
        self._stack = []
        self._plan = []
        for mod, fname, name in SPANS:
            original = getattr(modules[mod], fname)
            self._rebind(holders, original, self._span_wrapper(original, name))
        for mod, fname, name in COUNTED:
            original = getattr(modules[mod], fname)
            self._rebind(holders, original, self._count_wrapper(original, name))

    def _rebind(self, holders, original, replacement):
        for holder in holders:
            for attr, value in list(vars(holder).items()):
                if value is original:
                    self._plan.append((holder, attr, original, replacement))

    def install(self):
        for holder, attr, _, replacement in self._plan:
            setattr(holder, attr, replacement)

    def uninstall(self):
        for holder, attr, original, _ in self._plan:
            setattr(holder, attr, original)

    def _span_wrapper(self, fn, name):
        spans, stack, counts = self.spans, self._stack, self.counts
        fact = FACTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (self.op, parent, name, start, end)
            if fact is not None:
                key, value = fact(args, kwargs, result)
                counts[key] += value
            return result

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self):
        """(name, inclusive seconds, self seconds) for every span."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [
            (name, end - start, end - start - child[i])
            for i, (_, _, name, start, end) in enumerate(self.spans)
        ]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (op, parent, name, start, end) in enumerate(self.spans):
                record = {"op": op, "id": sid, "parent": parent, "name": name,
                          "start": start, "end": end}
                fh.write(json.dumps(record) + "\n")

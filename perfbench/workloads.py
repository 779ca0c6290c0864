"""Seeded inputs, op execution and output checks for the three workloads.

Inputs come from a finite universe: every workload is a fixed list of
slots (one slot is one op of a pass), and every slot has candidate inputs
drawn once from a fixed generator. A run seed picks one candidate per
slot and the order of the pass, so the same seed always gives the same
inputs, and reference.json, recorded from this universe, covers every
input any seed can produce. The slots fix the work mix of a pass (array
sizes, op kinds), so runs under different seeds carry comparable work.

Closed-form slots have a single candidate, so there the seed sets only
the order. The cost of one exact evaluation swings by up to 2x with
alpha, beta and gamma at fixed dimensions (omega's working precision and
retries follow them), and with seeded points a run's throughput moved by
25% between seeds.

Importing this module imports neither numpy nor anmimo, so a setup probe
can time ``import anmimo`` from a clean interpreter.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("closed-form", "mc", "design-cli")
CANDIDATES = 8  # per slot, except closed-form

# every MC op draws 2**22 Philox words; at the current chunk rule (2**21
# words per chunk) that is two chunks for each rate op and at least two
# for each oracle op, so a worker-count change can show on every MC op
MC_WORDS_PER_OP = 1 << 22

CLOSED_FORM_OUTPUTS = ("exact", "lower", "upper", "asymptotic")
SWEEP_OUTPUTS = "asymptotic, delta_amax, delta_amin"
SWEEP_VALUES = {
    "gamma_db": [-6.0 + 1.5 * k for k in range(16)],
    "beta_db": [-8.0 + k for k in range(16)],
    "n_e": list(range(1, 17)),
}

# acceptance-criterion regimes (criteria 02, 05, 06 and 10)
REFERENCE_REGIME = (10**0.3, 10**-0.3, 10**0.3)
DESIGN_REGIME = (10**0.3, 10**0.1, 10**0.3)
LARGE_REGIME = (2.0, 1.0, 2.0)
WORKERS_REGIME = (2.0, 0.5, 2.0)


@dataclass(frozen=True)
class Op:
    """One call into the program: its reference key, kind and arguments."""

    key: str
    kind: str
    params: dict = field(hash=False)


def _rng(workload: str, slot: int) -> random.Random:
    return random.Random(f"anmimo-perfbench/{workload}/{slot}")


def _mc_seed(rng: random.Random) -> int:
    return rng.randrange(2**32)


def _rate_trials(n_a: int, n_b: int, n_e: int) -> int:
    return MC_WORDS_PER_OP // (2 * (n_b + n_e) * n_a)


# --- slots ----------------------------------------------------------------


def _closed_form_slots():
    # every n_a in 2..16 with one n_e from each third of 1..16; one slot in
    # five has beta = 1 and takes omega's single-group branch
    cells = []
    for n_a in range(2, 17):
        cells += [
            (n_a, 1 + (3 * n_a) % 5),
            (n_a, 6 + (2 * n_a) % 5),
            (n_a, 11 + (5 * n_a) % 6),
        ]
    slots = []
    for slot, (n_a, n_e) in enumerate(cells):
        rng = _rng("closed-form", slot)
        n_b = rng.randint(1, n_a - 1)
        alpha = rng.uniform(0.5, 8.0)
        gamma = rng.uniform(0.5, 8.0)
        beta = 1.0 if slot % 5 == 0 else rng.uniform(0.2, 5.0)
        params = dict(n_a=n_a, n_b=n_b, n_e=n_e, alpha=alpha, beta=beta, gamma=gamma)
        slots.append([("point", params)])
    return slots


# the first op of a closed-form run, and of its setup probe: (8, 7), a
# mid-sized cell with the determinant sum, so set-up cost barely moves
# with the seed
_CLOSED_FORM_FIRST = 3 * (8 - 2) + 1


def _mc_slots():
    # small-array ops (criteria 01, 02, 06) alternate with the two large
    # ones (criteria 10 and 05). The oracle ops and the (6, 3, 20) rate op
    # sit around the median. The (128, 64, 64) sample op and the two
    # (6, 3, 4) rate ops are the slowest, so the p90 of the ten ops falls
    # on the second slowest of them. A cheap oracle op comes first, as the
    # set-up op.
    shapes = [
        ("oracle", (1, 3)),
        ("rate", (6, 3, 4), REFERENCE_REGIME, False),
        ("oracle", (2, 4)),
        ("rate", (6, 3, 20), DESIGN_REGIME, True),
        ("oracle", (3, 6)),
        ("rate", (16, 8, 8), WORKERS_REGIME, False),
        ("oracle", (4, 8)),
        ("sample", (128, 64, 64), LARGE_REGIME),
        ("oracle", (4, 4)),
        ("rate", (6, 3, 4), REFERENCE_REGIME, False),
    ]
    slots = []
    for slot, shape in enumerate(shapes):
        rng = _rng("mc", slot)
        cands = []
        for _ in range(CANDIDATES):
            kind = shape[0]
            if kind == "oracle":
                rows, cols = shape[1]
                params = dict(
                    rows=rows, cols=cols, scale=rng.choice((0.5, 2.0, 4.0)),
                    trials=MC_WORDS_PER_OP // (2 * rows * cols), seed=_mc_seed(rng),
                )
            else:
                (n_a, n_b, n_e), (alpha, beta, gamma) = shape[1], shape[2]
                params = dict(
                    n_a=n_a, n_b=n_b, n_e=n_e, alpha=alpha, beta=beta, gamma=gamma,
                    trials=_rate_trials(n_a, n_b, n_e), seed=_mc_seed(rng),
                )
                if kind == "rate":
                    params["clamp"] = shape[3]
            cands.append((kind, params))
        slots.append(cands)
    return slots


# the fixed ops the worker speed-up probes time: a small-array rate op
# and a large-array sample op of the mc workload
MC_PROBE_SLOTS = {"small": 1, "large": 7}


def _db_line(name: str, value: float) -> str:
    return f"{name} = {value:.2f}\n"


def _design_cli_slots():
    # one design report, then two sweeps, six times; the sweeps cycle
    # through the axes. Design reports carry most of the time (ops_per_s),
    # sweeps most of the ops (op_p50_ms), and the 2:1 split keeps the
    # median away from the boundary between the two.
    slots = []
    for slot in range(18):
        rng = _rng("design-cli", slot)
        cands = []
        for _ in range(CANDIDATES):
            n_a = rng.randint(4, 16)
            n_b = rng.randint(2, n_a - 1)
            lines = {
                "n_a": f"n_a = {n_a}\n",
                "n_b": f"n_b = {n_b}\n",
                "n_e": f"n_e = {rng.randint(1, 16)}\n",
                "alpha_db": _db_line("alpha_db", rng.uniform(0.0, 9.0)),
                "beta_db": _db_line("beta_db", rng.uniform(-6.0, 3.0)),
                "gamma_db": _db_line("gamma_db", rng.uniform(0.0, 6.0)),
            }
            if slot % 3 == 0:
                del lines["n_e"]
                cands.append(("design", dict(text="".join(lines.values()))))
            else:
                axis = ("gamma_db", "beta_db", "n_e")[(slot - 1 - slot // 3) % 3]
                del lines[axis]
                values = ", ".join(f"{v:g}" for v in SWEEP_VALUES[axis])
                text = (
                    "".join(lines.values())
                    + f"axis = {axis}\nvalues = {values}\noutputs = {SWEEP_OUTPUTS}\n"
                )
                cands.append(("sweep", dict(text=text)))
        slots.append(cands)
    return slots


_SLOT_BUILDERS = {
    "closed-form": _closed_form_slots,
    "mc": _mc_slots,
    "design-cli": _design_cli_slots,
}


def candidates(workload: str):
    """Every candidate op of a workload, slot by slot: the reference universe."""
    return [
        [Op(f"{slot}:{c}", kind, params) for c, (kind, params) in enumerate(cands)]
        for slot, cands in enumerate(_SLOT_BUILDERS[workload]())
    ]


def build_pass(workload: str, seed: int):
    """The ops of one pass for a run seed, in execution order.

    The first op is fixed per workload so set-up time measures the same
    kind of op under every seed. Closed-form shuffles the other slots;
    the other workloads keep their slot pattern, which places each op
    kind at a fixed share of a pass.
    """
    rng = random.Random(f"{workload}/{seed}")
    slots = candidates(workload)
    picked = [cands[rng.randrange(len(cands))] for cands in slots]
    if workload == "closed-form":
        first = picked.pop(_CLOSED_FORM_FIRST)
        rng.shuffle(picked)
        picked.insert(0, first)
    return picked


def philox_words(op: Op) -> int:
    """Raw Philox words one MC op draws, computed from its trial shape."""
    p = op.params
    if op.kind in ("rate", "sample"):
        words = 2 * (p["n_b"] + p["n_e"]) * p["n_a"]
    elif op.kind == "oracle":
        words = 2 * p["rows"] * p["cols"]
    else:
        return 0
    return p["trials"] * 4 * ((words + 3) // 4)


def mc_trials(op: Op) -> int:
    return op.params["trials"] if op.kind in ("rate", "oracle", "sample") else 0


# --- execution -----------------------------------------------------------


class Runner:
    """Turns ops into calls on the program's public functions.

    Every call looks its function up on the module at call time, so a
    tracer that rebinds module attributes sees it. CLI ops read and
    write their files in ``workdir``.
    """

    def __init__(self, workdir: str):
        import anmimo.cli
        import anmimo.closed_form
        import anmimo.harness
        import anmimo.monte_carlo

        self.cli = anmimo.cli
        self.closed_form = anmimo.closed_form
        self.harness = anmimo.harness
        self.monte_carlo = anmimo.monte_carlo
        self.workdir = workdir
        self.out_path = os.path.join(workdir, "out.csv")
        self._exact_cache = {}

    def _config(self, p):
        return self.closed_form.SystemConfig(
            n_a=p["n_a"], n_b=p["n_b"], n_e=p["n_e"],
            alpha=p["alpha"], beta=p["beta"], gamma=p["gamma"],
        )

    def prepare(self, op: Op):
        """Return a zero-argument callable that performs op."""
        p = op.params
        if op.kind == "point":
            cfg = self._config(p)
            return lambda: self.harness.run_point(cfg, list(CLOSED_FORM_OUTPUTS))
        if op.kind == "rate":
            cfg = self._config(p)
            return lambda: self.monte_carlo.mc_average_secrecy_rate(
                cfg, p["trials"], seed=p["seed"], clamp=p["clamp"]
            )
        if op.kind == "sample":
            cfg = self._config(p)
            return lambda: self.monte_carlo.mc_normalized_rate_sample(
                cfg, p["trials"], seed=p["seed"]
            )
        if op.kind == "oracle":
            return lambda: self.monte_carlo.mc_logdet_oracle(
                p["rows"], p["cols"], p["scale"], p["trials"], seed=p["seed"]
            )
        config_path = os.path.join(self.workdir, f"{op.key.replace(':', '-')}.cfg")
        with open(config_path, "w", encoding="utf-8") as fh:
            fh.write(p["text"])
        argv = [op.kind, "--config", config_path, "--out", self.out_path]
        if os.path.exists(self.out_path):
            os.remove(self.out_path)
        return lambda: self.cli.main(argv)

    def normalize(self, op: Op, raw):
        """The op's result as JSON data: what reference.json stores."""
        if op.kind == "point":
            return {k: raw[k] for k in sorted(raw)}
        if op.kind in ("rate", "oracle"):
            return {"mean": raw.mean, "stderr": raw.stderr}
        if op.kind == "sample":
            return {"mean": math.fsum(raw) / len(raw), "n": len(raw)}
        try:
            with open(self.out_path, "r", encoding="utf-8", newline="") as fh:
                text = fh.read()
        except FileNotFoundError:
            text = None
        return {"rc": raw, "text": text}

    def _closed_form_mean(self, p):
        key = tuple(p[k] for k in ("n_a", "n_b", "n_e", "alpha", "beta", "gamma"))
        if key not in self._exact_cache:
            self._exact_cache[key] = self.closed_form.average_secrecy_rate(self._config(p))
        return self._exact_cache[key]

    def check(self, op: Op, out, ref):
        """None when out passes every check for op, else the reason."""
        if ref is None:
            return "no reference entry"
        p = op.params
        if op.kind == "point":
            for name, want in ref.items():
                got = out.get(name)
                if got is None or not math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-12):
                    return f"{name} = {got!r}, reference {want!r}"
            lower, exact, upper = out["lower"], out["exact"], out["upper"]
            if not (lower <= exact + 1e-12 and exact <= upper + 1e-12):
                return f"bounds out of order: {lower!r} {exact!r} {upper!r}"
            return None
        if op.kind == "design" or op.kind == "sweep":
            if out["rc"] != 0:
                return f"exit code {out['rc']}"
            if out["text"] != ref["text"]:
                return "output bytes differ from the reference"
            return None
        if not math.isclose(out["mean"], ref["mean"], rel_tol=1e-12, abs_tol=0.0):
            return f"mean {out['mean']!r}, reference {ref['mean']!r}"
        if op.kind == "sample":
            return None if out["n"] == ref["n"] else f"{out['n']} realizations"
        if op.kind == "oracle":
            want = self.closed_form.theta(p["rows"], p["cols"], p["scale"])
            if abs(out["mean"] - want) > 3.0 * out["stderr"] + 1e-3:
                return f"oracle mean {out['mean']!r} vs theta {want!r}"
            return None
        if not p["clamp"]:
            want = self._closed_form_mean(p)
            if abs(out["mean"] - want) > 4.0 * out["stderr"]:
                return f"MC mean {out['mean']!r} vs closed form {want!r}"
        return None

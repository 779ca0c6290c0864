"""The benchmark's points against the benchmark's recorded outputs.

perfbench/run.py accepts a closed-form output within 1e-10 relative of
perfbench/reference.json, so a last-bit drift would pass it unseen. Here
every exact, lower and upper output of run_point on the 45 closed-form
points must equal the 600-digit reference rounded once, and stay within
2 ulps of the point's largest term of the recorded double, the error
that adding doubles of the terms once allowed; exact_clamped must be
exact floored at zero, within the same bound of its recorded double; the
asymptotic output must equal the recorded double bit for bit, and a row
must hold the recorded columns. Each point must build omega's
two-level weights once beyond its single-group branch, settle in one
attempt and round T_0 once per level. Every design-cli candidate must
write the recorded bytes through the CLI. The benchmark's files are only
read.
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

from anmimo import SystemConfig, closed_form, omega, run_point, theta
from anmimo.cli import main
from closed_form_reference import rate_reference

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def reference():
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workloads():
    # executed from its source, so no bytecode cache is written there
    path = BENCH / "workloads.py"
    module = types.ModuleType("perfbench_workloads")
    module.__file__ = str(path)
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
        yield module
    finally:
        del sys.modules[module.__name__]


def largest_terms(c):
    """For the exact rate, lower and upper bound, the largest magnitude among its terms."""
    shared = (
        theta(c.n_b, c.n_a, c.alpha * c.gamma),
        theta(c.n_e, c.n_a - c.n_b, c.alpha * c.beta),
    )
    scales = (c.alpha, c.alpha * c.beta)
    hats = [theta(c.n_e, c.n_a, s) for s in (max(scales), min(scales))]
    return [max(*shared, last) for last in (omega(c), *hats)]


def test_closed_form_points_match_reference_bitwise(workloads, reference, monkeypatch):
    reference = reference["closed-form"]
    # perfbench's per-layer closed_form.theta.coeff_cache_misses reads this
    assert callable(closed_form._theta_coeffs.cache_info)
    weights, t0s, attempts = [], [], []
    for name, calls in (("_ladder_weights", weights), ("_exp_e1", t0s), ("_fold_sums", attempts)):
        real = getattr(closed_form, name)

        def counting(*args, real=real, calls=calls):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(closed_form, name, counting)
    points = [op for slot in workloads.candidates("closed-form") for op in slot]
    assert len(points) == 45
    beyond_single_group = 0
    for op in points:
        c = SystemConfig(**op.params)
        del weights[:], t0s[:], attempts[:]
        row = run_point(c, list(workloads.CLOSED_FORM_OUTPUTS))
        two_level = sum(len(args[2]) == 2 for args in weights)
        counts = (two_level, len(attempts), len(t0s))
        levels = {c.alpha * c.gamma, c.alpha, c.alpha * c.beta}
        omegas = int(c.alpha * c.beta != c.alpha)
        beyond_single_group += omegas
        assert counts == (omegas, 1, len(levels)), op.params
        assert {args[:2] for args in t0s} == {x.as_integer_ratio()[::-1] for x in levels}
        recorded = reference[op.key]
        assert set(row) == set(recorded), op.params
        assert row["asymptotic"].hex() == recorded["asymptotic"].hex(), op.params
        want = rate_reference(c)[:3]
        names = ("exact", "lower", "upper")
        assert tuple(row[name] for name in names) == want, op.params
        assert row["exact_clamped"] == max(row["exact"], 0.0), op.params
        terms = largest_terms(c)
        for name, term in zip(("exact_clamped", *names), terms[:1] + terms):
            assert abs(row[name] - recorded[name]) <= 2 * math.ulp(term), (op.params, name)
    assert beyond_single_group == 36


def test_design_cli_candidates_match_reference_bytes(workloads, reference, tmp_path):
    reference = reference["design-cli"]
    ops = [op for slot in workloads.candidates("design-cli") for op in slot]
    assert len(ops) == 144
    config, out = tmp_path / "op.cfg", tmp_path / "out.csv"
    for op in ops:
        config.write_text(op.params["text"], encoding="utf-8")
        out.unlink(missing_ok=True)
        rc = main([op.kind, "--config", str(config), "--out", str(out)])
        want = reference[op.key]
        assert rc == want["rc"] == 0, op.key
        assert out.read_bytes() == want["text"].encode("utf-8"), op.key

"""The benchmark's points against the benchmark's recorded outputs.

perfbench/run.py accepts a closed-form output within 1e-10 relative of
perfbench/reference.json, so a last-bit drift would pass it unseen. Here
every run_point output on the 45 closed-form points must equal the
recorded double bit for bit, or the new double of a declared move within
2 ulps of the recorded one. omega must build its two-level weights once
and settle in one attempt on each of the 36 points beyond its
single-group branch, and each distinct theta value must settle in one
attempt. Every design-cli candidate must write the recorded bytes through
the CLI. The benchmark's files are only read.
"""

import json
import math
import sys
import types
from pathlib import Path

import pytest

from anmimo import SystemConfig, closed_form, run_point
from anmimo.cli import main

BENCH = Path(__file__).resolve().parent.parent / "perfbench"

# closed-form outputs that moved on purpose since perfbench/reference.json
# was recorded, by op key and output name, as the new double's hex; the
# file is re-recorded only with a change of the benchmark
DECLARED_MOVES = {
    # omega reads its levels as the exact reciprocals of alpha and
    # alpha * beta, as theta does: here omega moved one ulp and the exact
    # rate two
    ("17:0", "exact"): "-0x1.1384c6bdf5b5cp+3",
}


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


def test_closed_form_points_match_reference_bitwise(workloads, reference, monkeypatch):
    reference = reference["closed-form"]
    # perfbench's per-layer closed_form.theta.coeff_cache_misses reads this
    assert callable(closed_form._theta_coeffs.cache_info)
    weights, attempts = [], []
    for name, calls in (("_ladder_weights", weights), ("_fold_sum", attempts)):
        real = getattr(closed_form, name)

        def counting(*args, real=real, calls=calls):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(closed_form, name, counting)
    memo = closed_form._theta_value
    points = [op for slot in workloads.candidates("closed-form") for op in slot]
    assert len(points) == 45
    for (key, name), moved in DECLARED_MOVES.items():
        # a declared move cannot hide a larger drift
        recorded = reference[key][name]
        assert abs(float.fromhex(moved) - recorded) <= 2 * math.ulp(recorded)
    beyond_single_group = 0
    for op in points:
        before = len(weights), len(attempts), memo.cache_info().misses
        row = run_point(SystemConfig(**op.params), list(workloads.CLOSED_FORM_OUTPUTS))
        got = {name: value.hex() for name, value in row.items()}
        want = {
            name: DECLARED_MOVES.get((op.key, name), float(value).hex())
            for name, value in reference[op.key].items()
        }
        assert got == want, op.params
        # theta's one-level weights are cached; count omega's two-level builds
        two_level = sum(len(args[2]) == 2 for args in weights[before[0]:])
        thetas = memo.cache_info().misses - before[2]
        omegas = int(op.params["beta"] != 1.0)
        beyond_single_group += omegas
        assert (two_level, len(attempts) - before[1]) == (omegas, omegas + thetas), op.params
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

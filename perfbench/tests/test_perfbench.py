"""Tests of the benchmark itself: metric emission, failure counting, tracing.

    python3 -m pytest perfbench/tests

Each benchmark run here uses the short mode: one pass, one set-up probe,
no warm-up executions.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from workloads import WORKLOADS, build_pass, candidates  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 3


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=900,
    )


def short_run(workload, trace, *extra):
    proc = run_bench("--workload", workload, "--seed", str(SEED), "--seconds", "0",
                     "--trace", str(trace), "--short", *extra)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.fixture(scope="module")
def runs():
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            cache[workload, trace] = short_run(workload, trace)
        return cache[workload, trace]

    return get


def test_benchmark_json_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_short_mode_emits_every_metric_with_its_unit(runs, workload, trace):
    lines, result = runs(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["end_to_end" if trace == 0 else "per_layer"]
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in declared}
    for name, unit in emitted.items():
        assert any(l.startswith(name + " ") and l.endswith(" " + unit) for l in lines), name
    assert any(l.startswith("fail_frac 0 ") for l in lines)
    if trace == 0:
        assert any(l.startswith("op latencies are per-op medians of ") for l in lines)
        assert any(l.startswith("times are scaled to a host-speed loop of ") for l in lines)
        assert any(l.startswith("unscaled: setup_s ") for l in lines)
        assert any(l.startswith("mc_trials_per_s ") for l in lines) == (workload == "mc")
    else:
        assert 0.95 <= result["metrics"]["trace.self_sum_frac"]["value"] <= 1.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_and_untraced_runs_produce_identical_outputs(runs, workload):
    digests = [
        [l for l in runs(workload, trace)[0] if l.startswith("outputs_digest ")]
        for trace in (0, 1)
    ]
    assert len(digests[0]) == 1 and digests[0] == digests[1]


def test_wrong_reference_value_counts_in_fail_frac(tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    first = build_pass("closed-form", SEED)[0].key.split(":")[0]
    for key, entry in reference["closed-form"].items():
        if key.split(":")[0] == first:
            entry["exact"] *= 1.0 + 1e-9  # just outside the 1e-10 tolerance
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    lines, result = short_run("closed-form", 0, "--reference", str(path))
    assert result["correct"] is False
    assert result["failed"] == 1 and result["attempted"] == len(build_pass("closed-form", SEED))
    assert any(l.startswith(f"fail_frac {1 / result['attempted']:.6g} ") for l in lines)
    assert any(l.startswith(f"failure: {first}:") and "exact" in l for l in lines)


def test_seed_fixes_the_inputs_and_the_reference_covers_them():
    reference = json.loads((BENCH / "reference.json").read_text())
    for workload in WORKLOADS:
        keys = {op.key for slot in candidates(workload) for op in slot}
        assert keys == set(reference[workload])
        assert build_pass(workload, 7) == build_pass(workload, 7)
        assert [op.key for op in build_pass(workload, 7)] != [
            op.key for op in build_pass(workload, 8)
        ]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out", ".work-*"))
    proc = run_bench("--workload", "closed-form", "--seed", "1", "--seconds", "1",
                     cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

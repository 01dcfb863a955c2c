"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest -q bench/test_bench.py

The smoke runs use one cheap task per workload and take about a minute.
"""

from __future__ import annotations

import json
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import child  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def smoke():
    """Last-line result of a smoke run, per (workload, trace), run once."""
    cache = {}

    def get(workload, trace):
        if (workload, trace) not in cache:
            res = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                 "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            assert res.returncode == 0, res.stderr
            cache[workload, trace] = json.loads(res.stdout.strip().splitlines()[-1])
        return cache[workload, trace]

    return get


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_unit(smoke, workload, trace):
    result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    for v in result["metrics"].values():
        assert isinstance(v["value"], (int, float))


def test_benchmark_json_lists_the_tracer_metrics():
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == (
        __import__("tracer").metric_units()
    )
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert run.WORKLOADS == workloads.WORKLOADS + workloads.EXTRA


@pytest.mark.parametrize("workload", workloads.WORKLOADS + workloads.EXTRA)
def test_same_seed_gives_same_inputs(workload):
    def inputs(seed):
        return [(t.name, t.inputs) for t in workloads.build(workload, seed)]

    assert inputs(5) == inputs(5)
    assert inputs(5) != inputs(6)


def test_injected_failing_check_raises_fail_frac():
    args = Namespace(trace=0)

    def summary(tasks):
        rec = child.measure(tasks)
        rec.update(setup_s=0.1, wall_setup_s=0.1, trace=False, setup_only=False)
        result, _ = run._summarise(args, [rec], len(tasks))
        return result

    clean = summary(workloads.build("model-sweep", 1, smoke=True))
    assert clean["failed"] == 0 and clean["correct"]

    tasks = workloads.build("model-sweep", 1, smoke=True)
    tasks[0].check = lambda out: "injected failure"
    bad = summary(tasks)
    assert bad["failed"] / bad["attempted"] == 1.0 and not bad["correct"]


def test_raising_task_counts_as_failed():
    tasks = workloads.build("model-sweep", 1, smoke=True)

    def boom():
        raise MemoryError("injected")

    tasks[0].run = boom
    rec = child.measure(tasks)
    assert rec["tasks"][0]["error"] == "MemoryError: injected"


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_self_times_sum_to_traced_wall_time(smoke, workload):
    m = {k: v["value"] for k, v in smoke(workload, 1)["metrics"].items()}
    wall = m["harness.run_s"]
    layers = sum(v for k, v in m.items() if k.endswith(".self_s") and k != "harness.self_s")
    assert min(v for k, v in m.items() if k.endswith(".self_s")) >= 0
    # the harness span of each task covers all of it but the timer calls
    assert layers + m["harness.self_s"] == pytest.approx(wall, rel=1e-3, abs=1e-3)
    assert abs(wall - layers) <= max(m["trace_overhead"], 0.0) * wall + 0.02 * wall + 1e-3


@pytest.mark.xfail(strict=True, reason="ContourSumEngine counts adjacent contours as "
                   "compatible; once fixed, move the task into contour-sums")
def test_known_defect_region_sum():
    tasks = workloads.build("known-defect", 1)
    assert child.measure(tasks)["tasks"][0]["error"] is None

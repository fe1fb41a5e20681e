"""Tests of the benchmark itself:

    python3 -m pytest perfbench -q

They run shrunken copies of the three workloads: the same code paths with
smaller maps and budgets, so the file takes well under a minute.
"""
from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
import run  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

SMALL = {
    "egt-single": dataclasses.replace(
        run.WORKLOADS["egt-single"], instances=2, episodes=1000, rollouts=8
    ),
    "egt-multi": dataclasses.replace(
        run.WORKLOADS["egt-multi"], width=40, height=40, goals=16, n_agents=10,
        horizon=160, instances=1, episodes=20, rollouts=2,
    ),
    "sweep-noisy": dataclasses.replace(
        run.WORKLOADS["sweep-noisy"], reps=1, egt_episodes=20, learn_episodes=20,
        eval_episodes=1,
    ),
}

# per-layer metrics that hold the self time of a traced span name
SELF_TIMES = [
    "egt.train_self_s", "egt.construct_policy_s", "metrics.rollout_s",
    "metrics.aggregate_s", "baselines.astar_plan_s", "baselines.q_train_s",
    "baselines.mc_train_s", "bench.run_experiment_self_s", "bench.sweep_self_s",
]


def short_run(name: str, trace: bool) -> dict:
    workload = SMALL[name]
    return run.run(workload, workload.default_seed, 0, trace)


@pytest.fixture(scope="module")
def results() -> dict:
    return {(name, trace): short_run(name, trace) for name in SMALL for trace in (False, True)}


def values(result: dict) -> dict:
    return {k: m["value"] for k, m in result["result"]["metrics"].items()}


def test_benchmark_json_names_the_workloads():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_declared_metric_is_emitted_with_its_unit(results, name):
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        out = results[(name, trace)]
        assert out["result"]["correct"], out["failures"]
        assert out["result"]["attempted"] >= 1 and out["result"]["failed"] == 0
        declared = {m["name"]: m["unit"] for m in SPEC[key]}
        emitted = {k: m["unit"] for k, m in out["result"]["metrics"].items()}
        assert emitted == declared
        for value in values(out).values():
            assert math.isfinite(value)
    end_to_end = values(results[(name, False)])
    assert all(v > 0 for v in end_to_end.values()), end_to_end
    assert 0 < end_to_end["success_rate"] <= 1 and end_to_end["path_stretch"] >= 1


@pytest.mark.parametrize("name", sorted(SMALL))
def test_exact_counts_repeat_across_runs(results, name):
    first = values(results[(name, True)])
    second = values(short_run(name, True))
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    if name.startswith("egt"):
        assert first["egt.policy_updates"] > 0 and first["egt.defined_counters"] > 0
    else:
        assert first["baselines.astar_expanded"] > 0 and first["bench.cells"] == 12


@pytest.mark.parametrize("name", sorted(SMALL))
def test_layer_self_times_and_glue_add_up_to_traced_run_s(results, name):
    out = results[(name, True)]
    m = values(out)
    total = sum(m[k] for k in SELF_TIMES) + m["trace.glue_s"]
    assert total == pytest.approx(m["trace.run_s"], rel=1e-9)
    assert m["trace.glue_s"] < 0.1 * m["trace.run_s"]
    spans = out["spans"]
    assert len(spans) == m["trace.spans"] and spans[0]["name"] == "job"
    for sp in spans[1:]:
        parent = spans[sp["parent"]]
        assert parent["start"] <= sp["start"] <= sp["end"] <= parent["end"]


def test_timings_take_each_part_at_its_fastest():
    jobs = [
        run.JobResult(ops=1, run_parts=[1.0, 5.0, 0.5]),
        run.JobResult(ops=1, run_parts=[2.0, 3.0, 0.25]),
    ]
    assert run.fastest(jobs, "run_parts") == 1.0 + 3.0 + 0.25


def test_seed_builds_the_inputs():
    workload = SMALL["egt-single"]
    maps = [
        [grid.obstacles for _seed, grid in workload.setup(seed)[0]] for seed in (5, 5, 6)
    ]
    assert maps[0] == maps[1] and maps[0] != maps[2]


def test_failed_output_check_is_counted_with_its_message(monkeypatch):
    train = run.egt.train

    def short_train(*args, **kwargs):
        policy, table, stats = train(*args, **kwargs)
        stats.episodes_run -= 1
        return policy, table, stats

    monkeypatch.setattr(run.egt, "train", short_train)
    out = short_run("egt-single", False)
    assert not out["result"]["correct"]
    assert out["result"]["failed"] >= SMALL["egt-single"].instances
    assert any("expected 1000" in msg for msg in out["failures"])


def test_failed_sweep_cell_is_counted(monkeypatch):
    def broken(*args, **kwargs):
        raise ValueError("q-learning unavailable")

    monkeypatch.setattr(run.bench, "q_train", broken)
    out = short_run("sweep-noisy", True)
    n_values = len(SMALL["sweep-noisy"].values)
    assert not out["result"]["correct"]
    # every qlearn cell fails, in the untraced and the traced job
    assert out["result"]["failed"] == 2 * n_values
    assert values(out)["bench.cells_failed"] == n_values
    assert any("status error:ValueError" in msg for msg in out["failures"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "egt-single",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout

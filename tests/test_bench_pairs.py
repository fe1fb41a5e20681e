"""scripts/bench_pairs.py's summary of paired benchmark runs."""
from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

CONTRACT = {
    "end_to_end": [
        {"name": "run_s", "better": "lower", "bound": 0.25},
        {"name": "train_eps_per_s", "better": "higher", "bound": 0.25},
    ],
    "per_layer": [{"name": "egt.us_per_episode", "better": "lower"}],
}


def runs(before: dict[str, list[float]], after: dict[str, list[float]]) -> list[dict]:
    n = len(next(iter(before.values())))
    return [{"before": {"metrics": {k: v[j] for k, v in before.items()}},
             "after": {"metrics": {k: v[j] for k, v in after.items()}}} for j in range(n)]


def test_summary_flags_a_worse_median_by_each_metric_direction():
    before = {"run_s": [1.0, 1.0, 1.0, 1.0], "train_eps_per_s": [100.0, 100.0, 100.0, 100.0],
              "egt.us_per_episode": [30.0, 30.0, 30.0, 30.0]}
    worse = bench_pairs.summarize(runs(before, {"run_s": [1.3, 1.3, 1.3, 1.3],
                                                "train_eps_per_s": [70.0, 70.0, 70.0, 70.0],
                                                "egt.us_per_episode": [90.0, 90.0, 90.0, 90.0]}),
                                  CONTRACT)
    assert worse["run_s"]["worse_than_bound"] and worse["train_eps_per_s"]["worse_than_bound"]
    assert worse["run_s"]["after_wins"] == worse["train_eps_per_s"]["after_wins"] == 0

    within = bench_pairs.summarize(runs(before, {"run_s": [1.2, 1.2, 1.2, 1.2],
                                                 "train_eps_per_s": [130.0, 130.0, 130.0, 100.0],
                                                 "egt.us_per_episode": [20.0, 20.0, 20.0, 20.0]}),
                                   CONTRACT)
    assert not within["run_s"]["worse_than_bound"]
    assert not within["train_eps_per_s"]["worse_than_bound"]
    assert within["train_eps_per_s"]["after_wins"] == 3
    assert within["egt.us_per_episode"]["after_wins"] == 4
    # per-layer metrics have no bound, so no bound checks
    assert "worse_than_bound" not in within["egt.us_per_episode"]
    assert "before_spread_exceeds_bound" not in within["egt.us_per_episode"]


def test_summary_flags_a_before_side_spread_wider_than_the_bound():
    # before quartiles 1.0 and 1.5 around a median of 1.25: a spread of 0.5
    # against a bound of 0.25 * 1.25
    wide = {"run_s": [1.0, 1.0, 1.5, 1.5], "train_eps_per_s": [100.0, 102.0, 104.0, 106.0]}
    got = bench_pairs.summarize(runs(wide, wide), CONTRACT)
    assert got["run_s"]["before"] == {"median": 1.25, "q1": 1.0, "q3": 1.5}
    assert got["run_s"]["before_spread_exceeds_bound"]
    assert not got["train_eps_per_s"]["before_spread_exceeds_bound"]
    assert not got["run_s"]["worse_than_bound"]

#!/usr/bin/env python3
"""evopath benchmark: three batch workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload egt-single --seed 134 --seconds 40 --trace 0

A run builds every input from --seed and sets its instances up SETUP_REPS
times, and more while that took under SETUP_MIN_S; setup_s is the median.
It then runs the workload's fixed job, one after another, while another job
still fits in --seconds (at least one). A job is a fixed sequence of short
parts (one train, rollout or aggregate call, or one sweep cell); a timing is
each part's fastest repeat over the jobs, summed, and an outcome is the
median over the jobs. --trace 0 reports the end-to-end metrics.
--trace 1 alternates untraced and traced jobs and reports the per-layer
metrics of the traced job with the median run time, plus the tracing
overhead. The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full result, stamped with the
machine and the git revision, is also written to perfbench/out/.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from collections import Counter, deque
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
if not (SRC / "evopath" / "__init__.py").is_file():
    raise SystemExit(f"perfbench: no evopath sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from evopath import bench, egt, gridworld, metrics  # noqa: E402
from evopath import EGTParams, Policy, RewardConfig, WorldConfig  # noqa: E402
from tracing import Tracer, patched  # noqa: E402

SETUP_REPS = 5
SETUP_MIN_S = 1.0
DENSITY = 0.2
REWARDS = RewardConfig()
# instance m of a workload uses map seed seed + MAP_STRIDE * m, so instance 0
# of the default seed is the documented instance
MAP_STRIDE = 1_000_003

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "train_eps_per_s": "1/s",
    "eval_eps_per_s": "1/s",
    "success_rate": "ratio",
    "path_stretch": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "egt.train_self_s": "s",
    "egt.us_per_episode": "us",
    "egt.construct_policy_s": "s",
    "egt.construct_policy_calls": "count",
    "egt.episodes": "count",
    "egt.policy_updates": "count",
    "egt.defined_counters": "count",
    "egt.accept_frac": "ratio",
    "egt.goal_reach_frac": "ratio",
    "metrics.rollout_s": "s",
    "metrics.rollouts": "count",
    "metrics.ms_per_rollout": "ms",
    "metrics.aggregate_s": "s",
    "baselines.astar_plan_s": "s",
    "baselines.astar_plans": "count",
    "baselines.astar_expanded": "count",
    "baselines.astar_expanded_per_s": "1/s",
    "baselines.astar_success_frac": "ratio",
    "baselines.q_train_s": "s",
    "baselines.q_updates": "count",
    "baselines.mc_train_s": "s",
    "baselines.mc_updates": "count",
    "bench.gen_map_s": "s",
    "bench.run_experiment_self_s": "s",
    "bench.sweep_self_s": "s",
    "bench.cells": "count",
    "bench.cells_failed": "count",
    "gridworld.tables_s": "s",
    "trace.run_s": "s",
    "trace.glue_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}


@dataclass
class JobResult:
    """Timings, outputs and failed checks of one job."""

    ops: int
    run_s: float = 0.0
    # seconds of the job's parts, in the same order in every job of a run:
    # run_parts cover the whole job, train_parts the time inside training
    # calls, eval_parts the time inside evaluation calls
    run_parts: list[float] = field(default_factory=list)
    train_parts: list[float] = field(default_factory=list)
    eval_parts: list[float] = field(default_factory=list)
    train_episodes: int = 0
    eval_episodes: int = 0
    success_rate: float = 0.0
    stretch_steps: int = 0
    stretch_bfs: int = 0
    cells: int = 0
    cells_failed: int = 0
    failures: list[str] = field(default_factory=list)
    # deterministic outputs; every job of a run must repeat them exactly
    fingerprint: tuple = ()
    completed: bool = True


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def bfs_to_goals(grid) -> dict:
    """Shortest 4-neighbour distance from every free cell to its nearest goal."""
    dist = {g: 0 for g in grid.goals}
    queue = deque(grid.goals)
    while queue:
        x, y = queue.popleft()
        for nxt in ((x, y - 1), (x, y + 1), (x - 1, y), (x + 1, y)):
            if nxt not in dist and grid.is_free(nxt):
                dist[nxt] = dist[(x, y)] + 1
                queue.append(nxt)
    return dist


def stretch_sums(grid, records) -> tuple[int, int]:
    """(steps, BFS distance) summed over the agents that reached a goal."""
    dist = bfs_to_goals(grid)
    steps = bfs = 0
    for rec in records:
        for tau in rec.trajectories:
            if tau.reached_goal and tau.steps:
                steps += len(tau.steps)
                bfs += dist[tau.steps[0][0]]
    return steps, bfs


def force_tables(grid, n_agents: int, noise: float) -> None:
    """Build the grid's first-use lookup tables through public calls."""
    rng = np.random.default_rng(0)
    starts = gridworld.sample_initial(grid, n_agents, rng)
    gridworld.permissible_actions(grid, starts[0])
    one_tick = WorldConfig(n_agents=n_agents, horizon=1, action_noise=noise)
    metrics.rollout(grid, one_tick, REWARDS, Policy.uniform(grid), rng)


def build_instance(width, height, goals, map_seed, n_agents, noise):
    """(grid, gen_map seconds, table seconds) for one generated instance."""
    t0 = time.perf_counter()
    grid = bench.gen_map(width, height, DENSITY, None, goals, map_seed)
    t1 = time.perf_counter()
    force_tables(grid, n_agents, noise)
    return grid, t1 - t0, time.perf_counter() - t1


def check_unit_interval(what: str, value: float, failures: list[str]) -> None:
    if not (math.isfinite(value) and 0.0 <= value <= 1.0):
        failures.append(f"{what} = {value!r}, expected a finite value in [0, 1]")


def check_stretch(res: JobResult) -> None:
    if res.stretch_bfs == 0:
        res.failures.append("path_stretch undefined: no agent reached a goal")
        return
    value = res.stretch_steps / res.stretch_bfs
    if not (math.isfinite(value) and value >= 1.0):
        res.failures.append(f"path_stretch = {value!r}, expected a finite value >= 1")


@dataclass(frozen=True)
class EgtWorkload:
    """Train the counter learner on generated maps, then evaluate it."""

    width: int
    height: int
    goals: int
    n_agents: int
    horizon: int
    instances: int
    episodes: int
    rollouts: int
    default_seed: int

    @property
    def ops(self) -> int:
        # per instance: one train, the rollouts, one aggregate
        return self.instances * (self.rollouts + 2)

    def setup(self, seed: int):
        built, gen_s, tables_s = [], 0.0, 0.0
        for m in range(self.instances):
            map_seed = seed + MAP_STRIDE * m
            grid, g, t = build_instance(
                self.width, self.height, self.goals, map_seed, self.n_agents, 0.0
            )
            built.append((map_seed, grid))
            gen_s += g
            tables_s += t
        return built, gen_s, tables_s

    def job(self, state, tracer: Tracer) -> JobResult:
        res = JobResult(ops=self.ops)
        world = WorldConfig(n_agents=self.n_agents, horizon=self.horizon)
        params = EGTParams(episodes=self.episodes)
        outputs = []
        with tracer.span("job"):
            for map_seed, grid in state:
                t0 = time.perf_counter()
                policy, table, stats = egt.train(
                    grid, world, params, REWARDS, np.random.default_rng([map_seed, 1])
                )
                t1 = time.perf_counter()
                res.train_parts.append(t1 - t0)
                res.run_parts.append(t1 - t0)
                rng = np.random.default_rng([map_seed, 2])
                records = []
                for _ in range(self.rollouts):
                    records.append(metrics.rollout(grid, world, REWARDS, policy, rng))
                    t2 = time.perf_counter()
                    res.eval_parts.append(t2 - t1)
                    res.run_parts.append(t2 - t1)
                    t1 = t2
                report = metrics.aggregate(records, stats, horizon=self.horizon)
                res.run_parts.append(time.perf_counter() - t1)
                outputs.append((map_seed, grid, table, stats, records, report))
        res.run_s = tracer.spans[0].duration
        res.run_parts.append(res.run_s - sum(res.run_parts))

        fingerprint = []
        for map_seed, grid, table, stats, records, report in outputs:
            label = f"map seed {map_seed}"
            if stats.episodes_run != self.episodes:
                res.failures.append(
                    f"{label}: train ran {stats.episodes_run} episodes, "
                    f"expected {self.episodes}"
                )
            check_unit_interval(f"{label}: success_rate", report.success_rate, res.failures)
            steps, bfs = stretch_sums(grid, records)
            res.stretch_steps += steps
            res.stretch_bfs += bfs
            res.train_episodes += stats.episodes_run
            res.eval_episodes += len(records)
            fingerprint.append((
                stats.policy_updates, stats.goal_reach_count, table.n_defined(),
                report.success_rate, steps, bfs,
            ))
        res.success_rate = statistics.fmean(o[5].success_rate for o in outputs)
        check_stretch(res)
        res.fingerprint = tuple(fingerprint)
        return res


@dataclass(frozen=True)
class SweepWorkload:
    """One run_sweep call over an agent-count axis with action noise."""

    width: int
    height: int
    goals: int
    noise: float
    values: tuple[int, ...]
    algorithms: tuple[str, ...]
    reps: int
    egt_episodes: int
    learn_episodes: int
    eval_episodes: int
    default_seed: int

    @property
    def ops(self) -> int:
        return len(self.values) * len(self.algorithms) * self.reps

    def config_text(self, seed: int) -> str:
        return "\n".join([
            f"seed = {seed}",
            "timing = wall",
            "sweep.axis = n_agents",
            f"sweep.values = {', '.join(map(str, self.values))}",
            f"sweep.algorithms = {', '.join(self.algorithms)}",
            f"sweep.reps = {self.reps}",
            f"map.width = {self.width}",
            f"map.height = {self.height}",
            f"map.density = {DENSITY}",
            f"map.goals = {self.goals}",
            f"world.noise = {self.noise}",
            f"egt.episodes = {self.egt_episodes}",
            f"learn.episodes = {self.learn_episodes}",
            f"eval.episodes = {self.eval_episodes}",
        ]) + "\n"

    def setup(self, seed: int):
        """Resolve the sweep config and build one instance of the sweep's shape."""
        base = bench.parse_config_text(self.config_text(seed))
        spec = bench.sweep_from_config(base)
        _grid, gen_s, tables_s = build_instance(
            self.width, self.height, self.goals, seed, max(self.values), self.noise
        )
        return (spec, base), gen_s, tables_s

    def job(self, state, tracer: Tracer) -> JobResult:
        spec, base = state
        res = JobResult(ops=self.ops)
        # Per-agent paths are needed for path_stretch; the sweep hands each
        # cell's records to aggregate, so keep them (with the cell's grid).
        cells: list[list] = []
        run_experiment, aggregate = bench.run_experiment, bench.aggregate

        def keep_grid(cfg, rng=None):
            cells.append([cfg.grid, None, None])
            t0 = time.perf_counter()
            try:
                return run_experiment(cfg, rng)
            finally:
                res.run_parts.append(time.perf_counter() - t0)

        def keep_records(records, stats=None, timers=None, **kwargs):
            cells[-1][1:] = [records, stats]
            return aggregate(records, stats, timers, **kwargs)

        with patched([(bench, "run_experiment", keep_grid), (bench, "aggregate", keep_records)]):
            with tracer.span("job"):
                data, summary = bench.run_sweep(spec, base)
        res.run_s = tracer.spans[0].duration
        res.run_parts.append(res.run_s - sum(res.run_parts))

        header, *rows = [line.split(",") for line in data.splitlines()]
        if len(rows) != self.ops:
            res.failures.append(f"sweep wrote {len(rows)} rows, expected {self.ops}")
        col = {name: i for i, name in enumerate(header)}
        successes = []
        for row in rows:
            label = f"cell {'/'.join(row[:4])}"
            if len(row) != len(header):
                res.failures.append(f"{label}: {len(row)} columns, expected {len(header)}")
                continue
            res.cells += 1
            if row[col["status"]] != "ok":
                res.cells_failed += 1
                res.failures.append(f"{label}: status {row[col['status']]}")
                continue
            success = float(row[col["success_rate"]])
            check_unit_interval(f"{label}: success_rate", success, res.failures)
            successes.append(success)
            res.train_parts.append(float(row[col["train_time_s"]]))
            res.eval_parts.append(float(row[col["run_time_s"]]))
        s_header, *s_rows = [line.split(",") for line in summary.splitlines()]
        want = len(self.values) * len(self.algorithms)
        if len(s_rows) != want or any(len(r) != len(s_header) for r in s_rows):
            res.failures.append(
                f"summary has {len(s_rows)} rows of widths "
                f"{sorted({len(r) for r in s_rows})}, expected {want} of {len(s_header)}"
            )
        if len(cells) != len(rows):
            res.failures.append(f"{len(cells)} cells evaluated, {len(rows)} rows written")
        for grid, records, stats in cells:
            if records is None:  # the cell raised; its row says why
                continue
            steps, bfs = stretch_sums(grid, records)
            res.stretch_steps += steps
            res.stretch_bfs += bfs
            res.train_episodes += stats.episodes_run
            res.eval_episodes += len(records)
        res.success_rate = statistics.fmean(successes) if successes else 0.0
        check_stretch(res)
        timing = {col["train_time_s"], col["run_time_s"]}
        res.fingerprint = tuple(
            tuple(v for i, v in enumerate(row) if i not in timing) for row in rows
        )
        return res


WORKLOADS = {
    # criterion 4's instance family: one agent, 20x20, horizon 80
    "egt-single": EgtWorkload(
        width=20, height=20, goals=4, n_agents=1, horizon=80,
        instances=32, episodes=3_000, rollouts=32, default_seed=134,
    ),
    # criterion 9's 50-agent cell shape: 100x100, 100 goals, horizon 400
    "egt-multi": EgtWorkload(
        width=100, height=100, goals=100, n_agents=50, horizon=400,
        instances=4, episodes=20, rollouts=2, default_seed=11,
    ),
    # agent_sweep.cfg's family with action noise and all four algorithms
    "sweep-noisy": SweepWorkload(
        width=30, height=30, goals=9, noise=0.1, values=(2, 5, 10),
        algorithms=("astar", "egt", "mc", "qlearn"), reps=6,
        egt_episodes=25, learn_episodes=40, eval_episodes=2, default_seed=11,
    ),
}


# -- traced pass -----------------------------------------------------------


def _train_counts(args, kwargs, result):
    _policy, table, stats = result
    world = args[1]
    return {
        "episodes": stats.episodes_run,
        "agent_episodes": stats.episodes_run * world.n_agents,
        "updates": stats.policy_updates,
        "goal_reach": stats.goal_reach_count,
        "defined": table.n_defined(),
    }


def _plan_counts(args, kwargs, plan):
    return {"expanded": plan.expanded, "agents": len(plan.success),
            "succeeded": sum(plan.success)}


def _learn_counts(args, kwargs, result):
    return {"updates": result[2].policy_updates}


def traced_functions(tracer: Tracer) -> list:
    """Timing wrappers for each layer's public functions, where callers look them up."""
    targets = [
        (egt, "train", "egt.train", _train_counts),
        (egt, "construct_policy", "egt.construct_policy", None),
        (bench, "astar_plan", "baselines.astar_plan", _plan_counts),
        (bench, "q_train", "baselines.q_train", _learn_counts),
        (bench, "mc_train", "baselines.mc_train", _learn_counts),
        (bench, "rollout", "metrics.rollout", None),
        (metrics, "rollout", "metrics.rollout", None),
        (bench, "aggregate", "metrics.aggregate", None),
        (metrics, "aggregate", "metrics.aggregate", None),
        (bench, "run_experiment", "bench.run_experiment", None),
        (bench, "run_sweep", "bench.run_sweep", None),
    ]
    return [
        (mod, attr, tracer.wrap(getattr(mod, attr), name, count))
        for mod, attr, name, count in targets
    ]


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer self times and counts of one traced job (span 0 is the job)."""
    own = tracer.self_times()
    self_s: Counter = Counter()
    calls: Counter = Counter()
    counts: Counter = Counter()
    for sp, s in zip(tracer.spans, own):
        self_s[sp.name] += s
        calls[sp.name] += 1
        for key, value in sp.counts.items():
            counts[f"{sp.name}.{key}"] += value
    episodes = counts["egt.train.episodes"]
    agent_episodes = counts["egt.train.agent_episodes"]
    return {
        "egt.train_self_s": self_s["egt.train"],
        "egt.us_per_episode": 1e6 * _ratio(self_s["egt.train"], episodes),
        "egt.construct_policy_s": self_s["egt.construct_policy"],
        "egt.construct_policy_calls": calls["egt.construct_policy"],
        "egt.episodes": episodes,
        "egt.policy_updates": counts["egt.train.updates"],
        "egt.defined_counters": counts["egt.train.defined"],
        "egt.accept_frac": _ratio(counts["egt.train.updates"], agent_episodes),
        "egt.goal_reach_frac": _ratio(counts["egt.train.goal_reach"], agent_episodes),
        "metrics.rollout_s": self_s["metrics.rollout"],
        "metrics.rollouts": calls["metrics.rollout"],
        "metrics.ms_per_rollout": 1e3 * _ratio(self_s["metrics.rollout"], calls["metrics.rollout"]),
        "metrics.aggregate_s": self_s["metrics.aggregate"],
        "baselines.astar_plan_s": self_s["baselines.astar_plan"],
        "baselines.astar_plans": calls["baselines.astar_plan"],
        "baselines.astar_expanded": counts["baselines.astar_plan.expanded"],
        "baselines.astar_expanded_per_s": _ratio(
            counts["baselines.astar_plan.expanded"], self_s["baselines.astar_plan"]
        ),
        "baselines.astar_success_frac": _ratio(
            counts["baselines.astar_plan.succeeded"], counts["baselines.astar_plan.agents"]
        ),
        "baselines.q_train_s": self_s["baselines.q_train"],
        "baselines.q_updates": counts["baselines.q_train.updates"],
        "baselines.mc_train_s": self_s["baselines.mc_train"],
        "baselines.mc_updates": counts["baselines.mc_train.updates"],
        "bench.run_experiment_self_s": self_s["bench.run_experiment"],
        "bench.sweep_self_s": self_s["bench.run_sweep"],
        "trace.run_s": tracer.spans[0].duration,
        "trace.glue_s": own[0],
        "trace.spans": len(tracer.spans),
    }


# -- running ---------------------------------------------------------------


def attempt(workload, state, traced: bool) -> tuple[JobResult, Tracer]:
    """Run one job; a raised exception becomes a failed job, with its message."""
    tracer = Tracer()
    wrappers = traced_functions(tracer) if traced else []
    try:
        with patched(wrappers):
            return workload.job(state, tracer), tracer
    except Exception as exc:  # the run goes on and reports the failure
        res = JobResult(ops=workload.ops, completed=False)
        res.failures.append(f"job raised {type(exc).__name__}: {exc}")
        return res, tracer


def fastest(jobs: list[JobResult], parts: str) -> float:
    """Seconds of the fixed work: each part at its fastest over the jobs, summed.

    The host slows runs down in bursts and never speeds them up, so a part's
    fastest repeat is its least disturbed one; the sum over many short parts
    varies far less from run to run than a whole job's median does.
    """
    return sum(min(times) for times in zip(*(getattr(r, parts) for r in jobs)))


def git_revision() -> str:
    """HEAD of the repository holding the benchmark, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_revision": git_revision(),
        "machine": platform.machine(),
    }


def run(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns the full result (see the module docstring)."""
    setups = []
    while len(setups) < SETUP_REPS or sum(s[0] for s in setups) < SETUP_MIN_S:
        t0 = time.perf_counter()
        state, gen_s, tables_s = workload.setup(seed)
        setups.append((time.perf_counter() - t0, gen_s, tables_s))

    plain: list[JobResult] = []
    traced: list[tuple[JobResult, Tracer]] = []
    start = time.perf_counter()
    while True:
        plain.append(attempt(workload, state, False)[0])
        if len(plain) == 1:
            # the high-water mark after one job, so it does not grow with the job count
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if trace:
            traced.append(attempt(workload, state, True))
        elapsed = time.perf_counter() - start
        per_round = elapsed / len(plain)
        if elapsed + per_round > seconds:
            break

    results = plain + [res for res, _ in traced]
    failures = [msg for res in results for msg in res.failures]
    failed = sum(min(res.ops, len(res.failures)) if res.completed else res.ops for res in results)
    done = [res for res in results if res.completed]
    for i, res in enumerate(done[1:], start=1):
        if res.fingerprint != done[0].fingerprint:
            failures.append(f"job {i} outputs differ from job 0 on the same inputs")
            failed += 1

    ok = [res for res in plain if res.completed]
    metrics_out: dict[str, float] = {}
    if ok and not trace:
        metrics_out = {
            "setup_s": statistics.median(s[0] for s in setups),
            "run_s": fastest(ok, "run_parts"),
            "train_eps_per_s": _ratio(ok[0].train_episodes, fastest(ok, "train_parts")),
            "eval_eps_per_s": _ratio(ok[0].eval_episodes, fastest(ok, "eval_parts")),
            "success_rate": statistics.median(r.success_rate for r in ok),
            "path_stretch": statistics.median(_ratio(r.stretch_steps, r.stretch_bfs) for r in ok),
            "peak_rss_mb": peak_rss_mb,
        }
    traced_ok = [(res, tr) for res, tr in traced if res.completed]
    spans = []
    if ok and traced_ok:
        traced_ok.sort(key=lambda rt: rt[0].run_s)
        res, tracer = traced_ok[(len(traced_ok) - 1) // 2]
        metrics_out = layer_metrics(tracer)
        metrics_out.update({
            "bench.gen_map_s": statistics.median(s[1] for s in setups),
            "gridworld.tables_s": statistics.median(s[2] for s in setups),
            "bench.cells": res.cells,
            "bench.cells_failed": res.cells_failed,
            "trace.overhead_s": statistics.median(r.run_s for r, _ in traced_ok)
            - statistics.median(r.run_s for r in ok),
        })
        spans = tracer.to_json()
    units = PER_LAYER if trace else END_TO_END
    return {
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "env": environment(),
        "jobs": len(plain),
        "traced_jobs": len(traced),
        "failures": failures,
        "result": {
            "correct": failed == 0,
            "attempted": sum(res.ops for res in results),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics_out.items()},
        },
        "spans": spans,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's frozen seed)")
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    seed = WORKLOADS[args.workload].default_seed if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be >= 0")

    out = {"workload": args.workload}
    out.update(run(WORKLOADS[args.workload], seed, args.seconds, bool(args.trace)))
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{seed}-trace{args.trace}.json"
    path.write_text(json.dumps(out, indent=1) + "\n")
    print(f"# env {json.dumps(out['env'], sort_keys=True)}")
    print(f"# {args.workload} seed {seed}: {out['jobs']} jobs, "
          f"{out['traced_jobs']} traced; full result in {path.relative_to(ROOT)}")
    for msg in out["failures"]:
        print(f"# FAILED {msg}")
    for key, m in out["result"]["metrics"].items():
        print(f"{key} {m['value']:.6g} {m['unit']}")
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

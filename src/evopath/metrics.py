"""Policy evaluation rollouts and the measurement suite.

rollout() simulates one multi-agent episode under a shared policy and records
trajectories, per-agent returns, and obstacle proximity; _plan_record records
an astar plan alike, through the same builder. aggregate() folds many
episode records into a report: mean path length over successful agents,
success rates (overall and worst-start), expected minimum obstacle distance,
update counts, and timings.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .baselines import PlanResult
from .egt import Policy, TrainingStats, Trajectory
from .gridworld import (
    ACTIONS,
    Action,
    Cell,
    GridMap,
    N_ACTIONS,
    RewardConfig,
    StepEvent,
    WorldConfig,
    _episode_draws,
    _play,
    _prices,
    manhattan,
)


@dataclass(frozen=True)
class EpisodeRecord:
    """One simulated episode: per-agent trajectories and measurements.

    returns[i] is agent i's summed reward over its acting steps; the
    cumulative return is their sum. min_obstacle_distances[i] is the smallest
    distance agent i ever had to an obstacle, the boundary, or another agent.
    """

    trajectories: tuple[Trajectory, ...]
    returns: tuple[float, ...]
    cumulative_return: float
    min_obstacle_distances: tuple[int, ...]


def min_obstacle_distance(
    tau: Trajectory,
    grid: GridMap,
    others: Sequence[Sequence[Cell]] | None = None,
) -> int:
    """Smallest hazard distance over the trajectory's timesteps.

    At each tick t = 0 .. len(tau.steps) the hazard distance is the Manhattan
    distance to the nearest obstacle cell or out-of-bounds cell (the boundary
    ring counts), or to another agent's co-temporal cell when others[t] is
    given. Returns the minimum over ticks.
    """
    positions = [s for s, _ in tau.steps] + [tau.final]
    if others is not None and len(others) < len(positions):
        raise ValueError(
            f"others must cover {len(positions)} ticks, got {len(others)}"
        )
    best = min(grid.obstacle_clearance(cell) for cell in positions)
    for cell, row in zip(positions, () if others is None else others):
        for other in row:
            best = min(best, manhattan(cell, other))
    return int(best)


def _min_hazard_distances(grid: GridMap, paths: Sequence[Sequence[int]]) -> list[int]:
    """Per agent, the smallest hazard distance along its path of cell ids.

    paths[i][t] is agent i's cell at tick t; an agent whose path has ended
    counts as staying on its last cell. At each tick of its own path, an
    agent's hazard distance is its clearance (obstacles and the boundary
    ring) or its Manhattan distance to another agent's cell at that tick,
    whichever is smaller.
    """
    T = max(len(p) for p in paths)
    ids = np.array([list(p) + [p[-1]] * (T - len(p)) for p in paths], dtype=np.int64)
    xs, ys = ids % grid.width, ids // grid.width
    clear = grid._clearance[ids]
    out = []
    for i, p in enumerate(paths):
        L = len(p)
        near = np.abs(xs[:, :L] - xs[i, :L]) + np.abs(ys[:, :L] - ys[i, :L])
        near[i] = clear[i, :L]
        out.append(int(near.min()))
    return out


def _episode_record(grid: GridMap, paths: Sequence[Sequence[int]], actions: Sequence[Sequence[int]],
                    returns: Sequence[float], reached: Sequence[bool]) -> EpisodeRecord:
    """The one builder of EpisodeRecords, for rollouts and astar's plans alike.

    Per agent i: paths[i] lists its cell id at each tick, its final cell
    last; actions[i] holds its turns' executed actions; returns[i] is the
    running total of `gridworld._prices` over its turns' StepEvent flags;
    reached[i] is its reached_goal.
    """
    w = grid.width
    trajectories = tuple(
        Trajectory([((s % w, s // w), ACTIONS[a]) for s, a in zip(path, acts)],
                   (path[-1] % w, path[-1] // w), ok)
        for path, acts, ok in zip(paths, actions, reached)
    )
    return EpisodeRecord(trajectories, tuple(returns), float(sum(returns)),
                         tuple(_min_hazard_distances(grid, paths)))


def rollout(
    grid: GridMap,
    world: WorldConfig,
    reward_cfg: RewardConfig,
    policy: Policy,
    rng: np.random.Generator,
) -> EpisodeRecord:
    """Simulate one episode of N agents sharing one policy for up to T steps.

    rng draws the episode by `gridworld._episode_draws` with one behaviour
    row, as an episode of egt's batched kernel does, so on the same
    generator the two play the same episode; run_experiment passes its
    evaluation episode e child e of its generator, from
    `gridworld._each_child`. rng is not kept after the call. The tick rule
    is `gridworld._play`'s, and each turn is priced by the flags it reports.
    Agents that start on a goal never act. Trajectories record the action
    actually executed (after any action noise).
    """
    N = world.n_agents
    goal = grid._goal_list
    # a flat zero-copy view; tolist() would rebuild the table on every call
    cdf = memoryview(policy._cdf.reshape(-1))

    ids, block = _episode_draws(grid, N, world.horizon, 1, world.action_noise, rng)
    draws = memoryview(block.reshape(-1))
    prices = _prices(reward_cfg)
    paths = [[c] for c in ids]
    actions: list[list[int]] = [[] for _ in ids]
    ret = [0.0] * N

    def choose(_i: int, cur: int, k: int) -> int:
        u = draws[k]
        c = N_ACTIONS * cur
        return (cdf[c] < u) + (cdf[c + 1] < u) + (cdf[c + 2] < u) + (cdf[c + 3] < u)

    def record(i: int, _cur: int, a: int, nxt: int, event: int) -> None:
        paths[i].append(nxt)
        actions[i].append(a)
        ret[i] += prices[event]

    _play(grid, ids, [not goal[c] for c in ids], world.horizon, world.action_noise,
          draws, choose, record)
    return _episode_record(grid, paths, actions, ret, [goal[c] for c in ids])


def _plan_record(plan: PlanResult, grid: GridMap, rewards: RewardConfig) -> EpisodeRecord:
    """An astar_plan result as an EpisodeRecord, for shared aggregation.

    A step's action is the one whose `GridMap._perm_target` target is the
    next cell, Stay for a wait, and its flags, which `gridworld._prices`
    prices, are `gridworld._play`'s for such a turn. reached_goal is the
    plan's success flag.
    """
    prices = _prices(rewards)
    target, goal = grid._target_list, grid._goal_list
    moved, reached = int(StepEvent.MOVED), int(StepEvent.REACHED_GOAL)
    paths = [[grid.cell_id(c) for c in path] for path in plan.paths]
    actions, returns = [], []
    for path in paths:
        steps = list(zip(path, path[1:]))
        actions.append([Action.STAY if b == a else target[a].index(b) for a, b in steps])
        total = 0.0
        for a, b in steps:
            total += prices[moved * (b != a) | reached * goal[b]]
        returns.append(total)
    return _episode_record(grid, paths, actions, returns, plan.success)


@dataclass(frozen=True)
class MetricsReport:
    """Aggregated evaluation measurements.

    mean_path_length averages moves over goal-reaching agent-episodes only;
    when no agent-episode succeeded it falls back to the horizon and
    mean_path_length_is_fallback is set. min_agent_success_rate is the worst
    per-start-cell success fraction.
    """

    mean_path_length: float
    mean_path_length_is_fallback: bool
    success_rate: float
    min_agent_success_rate: float
    expected_min_obstacle_distance: float
    policy_updates: int
    train_time: float
    run_time: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.success_rate <= 1.0:
            raise ValueError("success_rate must lie in [0, 1]")
        if not 0.0 <= self.min_agent_success_rate <= 1.0:
            raise ValueError("min_agent_success_rate must lie in [0, 1]")


def aggregate(
    records: Sequence[EpisodeRecord],
    stats: TrainingStats | None = None,
    timers: Mapping[str, float] | None = None,
    *,
    horizon: int | None = None,
) -> MetricsReport:
    """Fold episode records into a MetricsReport.

    timers may carry "train_time" and "run_time" (train_time defaults to
    stats.wall_time). horizon feeds the no-success fallback path length; when
    omitted it falls back to the longest observed trajectory.
    """
    if not records:
        raise ValueError("aggregate requires at least one record")
    lengths = []
    successes = 0
    total = 0
    by_start: dict[Cell, list[int]] = {}
    dist_sum = 0.0
    max_len = 0
    for rec in records:
        for tau, dmin in zip(rec.trajectories, rec.min_obstacle_distances):
            total += 1
            L = len(tau.steps)
            max_len = max(max_len, L)
            start = tau.steps[0][0] if tau.steps else tau.final
            ok = tau.reached_goal
            if ok:
                successes += 1
                lengths.append(L)
            by_start.setdefault(start, []).append(1 if ok else 0)
            dist_sum += dmin
    if lengths:
        mean_len = sum(lengths) / len(lengths)
        fallback = False
    else:
        mean_len = float(horizon if horizon is not None else max_len)
        fallback = True
    timers = timers or {}
    train_time = timers.get("train_time", stats.wall_time if stats else 0.0)
    run_time = timers.get("run_time", 0.0)
    return MetricsReport(
        mean_path_length=mean_len,
        mean_path_length_is_fallback=fallback,
        success_rate=successes / total,
        min_agent_success_rate=min(sum(v) / len(v) for v in by_start.values()),
        expected_min_obstacle_distance=dist_sum / total,
        policy_updates=stats.policy_updates if stats else 0,
        train_time=float(train_time),
        run_time=float(run_time),
    )

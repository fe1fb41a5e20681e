"""Experiment configuration, instance generation, and sweep orchestration.

Configs are flat key=value files (one per line, # comments); nested settings
use dotted prefixes such as egt.eta or map.width. Sweeps run one experiment
per (algorithm, axis value, repetition) cell, derive every cell's seeds from
the master seed so cells never perturb each other, and emit a data CSV plus a
companion per-cell summary CSV.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from . import egt as _egt
from .baselines import LearnParams, astar_plan, mc_train, q_train
from .egt import EGTParams, Policy, TrainingStats, Trajectory
from .gridworld import (
    Action,
    GridMap,
    RewardConfig,
    WorldConfig,
    manhattan,
    parse_map,
    sample_initial,
)
from .metrics import EpisodeRecord, MetricsReport, aggregate, rollout

ALGORITHMS = ("astar", "egt", "mc", "qlearn")

CSV_HEADER = (
    "algorithm,axis,axis_value,rep,seed,mean_path_length,success_rate,"
    "min_agent_success_rate,expected_min_obstacle_distance,policy_updates,"
    "train_time_s,run_time_s,status"
)

SUMMARY_HEADER = (
    "algorithm,axis,axis_value,n_ok,mean_path_length,success_rate,"
    "min_agent_success_rate,expected_min_obstacle_distance,policy_updates,"
    "train_time_s,run_time_s"
)


class ConfigError(ValueError):
    """Bad key, value, or combination in a configuration."""


class GenerationError(RuntimeError):
    """Random map generation failed within the retry budget."""


def default_episode_budget(width: int, height: int, n_agents: int = 1) -> int:
    """Episode schedule for "auto": 50 trajectories per cell, clamped.

    Every episode contributes n_agents trajectories to the learner, so the
    episode count divides by the agent count to hold the trajectory budget
    roughly constant. Clamped to [2000, 40000].
    """
    return min(max(50 * width * height // max(n_agents, 1), 2000), 40000)


def default_horizon(width: int, height: int) -> int:
    """Horizon schedule for "auto": four times the longer grid side."""
    return 4 * max(width, height)


# -- map generation ------------------------------------------------------------

_GEN_RETRIES = 64


def gen_map(
    width: int,
    height: int,
    density: float,
    n_starts: int | None,
    n_goals: int,
    seed,
) -> GridMap:
    """Generate a random instance; deterministic given the seed.

    Each cell becomes an obstacle independently with probability density.
    Goals are drawn uniformly from the free cells; starts (uniform weights)
    are drawn from the free cells connected to some goal, or are all such
    cells when n_starts is None. Retries a fresh layout when placement is
    infeasible and raises GenerationError once the retry budget is spent.
    """
    if not 0.0 <= density < 1.0:
        raise ValueError("density must lie in [0, 1)")
    if width < 1 or height < 1:
        raise ValueError("width and height must be positive")
    if n_goals < 1:
        raise ValueError("n_goals must be >= 1")
    if n_starts is not None and n_starts < 1:
        raise ValueError("n_starts must be >= 1 or None for all connected cells")
    rng = np.random.default_rng(seed)
    for _attempt in range(_GEN_RETRIES):
        blocked = rng.random((height, width)) < density
        free = [(x, y) for y in range(height) for x in range(width) if not blocked[y, x]]
        need = n_goals + (1 if n_starts is None else n_starts)
        if len(free) < need:
            continue
        order = rng.permutation(len(free))
        goals = {free[i] for i in order[:n_goals]}

        # flood outward from the goals through free cells
        free_set = set(free)
        reach = set(goals)
        queue = list(goals)
        while queue:
            x, y = queue.pop()
            for nxt in ((x, y - 1), (x, y + 1), (x - 1, y), (x + 1, y)):
                if nxt in free_set and nxt not in reach:
                    reach.add(nxt)
                    queue.append(nxt)
        candidates = sorted(reach - goals)
        if n_starts is None:
            if not candidates:
                continue
            starts = candidates
        else:
            if len(candidates) < n_starts:
                continue
            pick = rng.permutation(len(candidates))[:n_starts]
            starts = [candidates[i] for i in pick]
        obstacles = [(x, y) for y in range(height) for x in range(width) if blocked[y, x]]
        return GridMap(width, height, obstacles=obstacles, goals=goals, starts=starts)
    raise GenerationError(
        f"could not generate a feasible {width}x{height} map at density {density} "
        f"within {_GEN_RETRIES} attempts"
    )


# -- configuration -------------------------------------------------------------


def parse_config_text(text: str) -> dict[str, str]:
    """Parse key=value lines; # starts a comment, duplicates are rejected."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"config line {lineno}: empty key or value")
        if key in out:
            raise ConfigError(f"config line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


def parse_config(path: str) -> dict[str, str]:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


_KNOWN_KEYS = frozenset(
    [
        "algorithm", "seed", "timing",
        "eval.episodes",
        "map.file", "map.width", "map.height", "map.density",
        "map.starts", "map.goals", "map.seed",
        "world.agents", "world.horizon", "world.noise",
        "reward.delta1", "reward.delta2", "reward.delta3",
        "egt.eta", "egt.alpha", "egt.beta", "egt.nu", "egt.mu",
        "egt.epsilon", "egt.episodes", "egt.reconstruct_interval", "egt.mode",
        "learn.rate", "learn.discount", "learn.explore", "learn.explore_end",
        "learn.explore_decay", "learn.episodes", "learn.time_budget_s",
        "sweep.axis", "sweep.values", "sweep.algorithms", "sweep.reps", "sweep.out",
        "ess.p_new", "ess.extra_fraction", "ess.eval_episodes",
        "ess.agreement_threshold", "ess.fitness_tolerance",
    ]
)

_GENERATOR_KEYS = (
    "map.width", "map.height", "map.density", "map.starts", "map.goals", "map.seed",
)


def _check_keys(kv: Mapping[str, str]) -> None:
    unknown = sorted(set(kv) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")


def _get(kv: Mapping[str, str], key: str, parse: Callable, default):
    raw = kv.get(key)
    if raw is None:
        return default
    try:
        return parse(raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None


def _int(raw: str) -> int:
    return int(raw)


def _float(raw: str) -> float:
    return float(raw)


@dataclass(frozen=True)
class ExperimentConfig:
    """One fully resolved experiment: instance, world, rewards, and knobs."""

    algorithm: str
    grid: GridMap
    world: WorldConfig
    rewards: RewardConfig
    params: EGTParams | LearnParams | None
    eval_episodes: int = 100
    seed: int = 0
    timing: str = "wall"

    def __post_init__(self) -> None:
        if self.algorithm not in ALGORITHMS:
            raise ConfigError(f"algorithm must be one of {ALGORITHMS}")
        if self.eval_episodes < 0:
            raise ConfigError("eval.episodes must be >= 0")
        if self.timing not in ("wall", "off"):
            raise ConfigError("timing must be 'wall' or 'off'")
        want = {"egt": EGTParams, "mc": LearnParams, "qlearn": LearnParams}.get(self.algorithm)
        if want is None:
            if self.params is not None:
                raise ConfigError("astar takes no parameter block")
        elif not isinstance(self.params, want):
            raise ConfigError(
                f"algorithm {self.algorithm} needs a {want.__name__} parameter block"
            )


def _resolve_map(kv: Mapping[str, str], default_seed: int) -> GridMap:
    map_file = kv.get("map.file")
    if map_file is not None:
        used = [k for k in _GENERATOR_KEYS if k in kv]
        if used:
            raise ConfigError(f"map.file excludes generator keys: {', '.join(used)}")
        with open(map_file, "r", encoding="utf-8") as fh:
            return parse_map(fh.read())
    if "map.width" not in kv or "map.height" not in kv:
        raise ConfigError("map.file or map.width+map.height is required")
    width = _get(kv, "map.width", _int, None)
    height = _get(kv, "map.height", _int, None)
    density = _get(kv, "map.density", _float, 0.2)
    area = width * height
    goals = _get(kv, "map.goals", _int, max(1, math.ceil(0.01 * area)))
    raw_starts = kv.get("map.starts", "all")
    starts = None if raw_starts == "all" else int(raw_starts)
    map_seed = _get(kv, "map.seed", _int, default_seed)
    return gen_map(width, height, density, starts, goals, map_seed)


def _resolve_world(kv: Mapping[str, str], grid: GridMap) -> WorldConfig:
    agents = _get(kv, "world.agents", _int, 1)
    raw_h = kv.get("world.horizon", "auto")
    if raw_h == "auto":
        horizon = default_horizon(grid.width, grid.height)
    else:
        horizon = _get(kv, "world.horizon", _int, None)
    noise = _get(kv, "world.noise", _float, 0.0)
    return WorldConfig(n_agents=agents, horizon=horizon, action_noise=noise)


def _resolve_episodes(
    kv: Mapping[str, str], key: str, grid: GridMap, world: WorldConfig, fallback: int
) -> int:
    raw = kv.get(key)
    if raw is None:
        return fallback
    if raw == "auto":
        return default_episode_budget(grid.width, grid.height, world.n_agents)
    return _get(kv, key, _int, None)


def _resolve_params(
    kv: Mapping[str, str], algorithm: str, grid: GridMap, world: WorldConfig
) -> EGTParams | LearnParams | None:
    if algorithm == "egt":
        return EGTParams(
            eta=_get(kv, "egt.eta", _float, 1.5),
            alpha=_get(kv, "egt.alpha", _float, 2.0),
            beta=_get(kv, "egt.beta", _float, 2.0),
            nu=_get(kv, "egt.nu", _int, 1),
            mu=_get(kv, "egt.mu", _int, 1),
            epsilon=_get(kv, "egt.epsilon", _float, 0.05),
            episodes=_resolve_episodes(kv, "egt.episodes", grid, world, 2000),
            reconstruct_interval=_get(kv, "egt.reconstruct_interval", _int, 100),
            behavior_mode=kv.get("egt.mode", "iterative"),
        )
    if algorithm in ("mc", "qlearn"):
        decay = kv.get("learn.explore_decay")
        budget = kv.get("learn.time_budget_s")
        return LearnParams(
            learning_rate=_get(kv, "learn.rate", _float, 0.5),
            discount=_get(kv, "learn.discount", _float, 0.95),
            explore=_get(kv, "learn.explore", _float, 1.0),
            explore_end=_get(kv, "learn.explore_end", _float, 0.05),
            explore_decay_episodes=int(decay) if decay is not None else None,
            episodes=_resolve_episodes(kv, "learn.episodes", grid, world, 10000),
            time_budget_s=float(budget) if budget is not None else None,
        )
    return None


def experiment_from_config(kv: Mapping[str, str]) -> ExperimentConfig:
    """Resolve a parsed key=value mapping into an ExperimentConfig."""
    _check_keys(kv)
    algorithm = kv.get("algorithm")
    if algorithm is None:
        raise ConfigError("algorithm is required")
    seed = _get(kv, "seed", _int, 0)
    try:
        grid = _resolve_map(kv, seed)
        world = _resolve_world(kv, grid)
        rewards = RewardConfig(
            delta1=_get(kv, "reward.delta1", _float, -1.0),
            delta2=_get(kv, "reward.delta2", _float, -5.0),
            delta3=_get(kv, "reward.delta3", _float, 100.0),
        )
        params = _resolve_params(kv, algorithm, grid, world)
    except ConfigError:
        raise
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from exc
    return ExperimentConfig(
        algorithm=algorithm,
        grid=grid,
        world=world,
        rewards=rewards,
        params=params,
        eval_episodes=_get(kv, "eval.episodes", _int, 100),
        seed=seed,
        timing=kv.get("timing", "wall"),
    )


@dataclass(frozen=True)
class SweepSpec:
    """Axis, axis values, algorithms, and repetitions for one sweep."""

    axis: str
    values: tuple[int, ...]
    algorithms: tuple[str, ...]
    reps: int = 1
    out: str | None = None

    def __post_init__(self) -> None:
        if self.axis not in ("grid_size", "n_agents"):
            raise ConfigError("sweep.axis must be grid_size or n_agents")
        if not self.values:
            raise ConfigError("sweep.values must be non-empty")
        if any(b <= a for a, b in zip(self.values, self.values[1:])):
            raise ConfigError("sweep.values must be strictly increasing")
        if any(v < 1 for v in self.values):
            raise ConfigError("sweep.values must be positive")
        bad = sorted(set(self.algorithms) - set(ALGORITHMS))
        if bad or not self.algorithms:
            raise ConfigError(f"sweep.algorithms must be drawn from {ALGORITHMS}")
        if self.reps < 1:
            raise ConfigError("sweep.reps must be >= 1")


def sweep_from_config(kv: Mapping[str, str], axis: str | None = None) -> SweepSpec:
    """Extract the sweep block; axis (from the CLI subcommand) must not clash."""
    _check_keys(kv)
    cfg_axis = kv.get("sweep.axis")
    if axis is not None and cfg_axis is not None and axis != cfg_axis:
        raise ConfigError(f"sweep.axis={cfg_axis} clashes with the {axis} subcommand")
    resolved = axis or cfg_axis
    if resolved is None:
        raise ConfigError("sweep.axis is required")
    raw_values = kv.get("sweep.values")
    if raw_values is None:
        raise ConfigError("sweep.values is required")
    try:
        values = tuple(int(v.strip()) for v in raw_values.split(","))
    except ValueError:
        raise ConfigError(f"bad sweep.values: {raw_values!r}") from None
    raw_algos = kv.get("sweep.algorithms")
    if raw_algos is None:
        raise ConfigError("sweep.algorithms is required")
    algos = tuple(a.strip() for a in raw_algos.split(","))
    return SweepSpec(
        axis=resolved,
        values=values,
        algorithms=algos,
        reps=_get(kv, "sweep.reps", _int, 1),
        out=kv.get("sweep.out"),
    )


# -- running -------------------------------------------------------------------


def _plan_record(plan, grid: GridMap, rewards: RewardConfig) -> EpisodeRecord:
    """Convert a PlanResult into an EpisodeRecord for shared aggregation."""
    n = len(plan.paths)
    finals = [path[-1] for path in plan.paths]
    trajectories = []
    returns = []
    distances = []
    for i, path in enumerate(plan.paths):
        steps = []
        total = 0.0
        for t in range(len(path) - 1):
            cur, nxt = path[t], path[t + 1]
            dx, dy = nxt[0] - cur[0], nxt[1] - cur[1]
            action = {
                (0, -1): Action.UP, (0, 1): Action.DOWN,
                (-1, 0): Action.LEFT, (1, 0): Action.RIGHT,
                (0, 0): Action.STAY,
            }[(dx, dy)]
            steps.append((cur, action))
            total += rewards.delta3 if nxt in grid.goals else rewards.delta1
        trajectories.append(
            Trajectory(steps=steps, final=path[-1], reached_goal=plan.success[i])
        )
        returns.append(total)
        best = None
        for t in range(len(path)):
            d = grid.obstacle_clearance(path[t])
            for j in range(n):
                if j == i:
                    continue
                other = plan.paths[j][t] if t < len(plan.paths[j]) else finals[j]
                dd = manhattan(path[t], other)
                if dd < d:
                    d = dd
            if best is None or d < best:
                best = d
        distances.append(best)
    return EpisodeRecord(
        trajectories=tuple(trajectories),
        returns=tuple(returns),
        cumulative_return=float(sum(returns)),
        min_obstacle_distances=tuple(distances),
    )


def run_experiment(
    cfg: ExperimentConfig, rng: np.random.Generator | None = None
) -> MetricsReport:
    """Train (or plan) and evaluate one configured experiment."""
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    timing = cfg.timing == "wall"
    grid, world, rewards = cfg.grid, cfg.world, cfg.rewards

    policy: Policy | None = None
    stats = TrainingStats()
    if cfg.algorithm == "egt":
        policy, _table, stats = _egt.train(grid, world, cfg.params, rewards, rng)
    elif cfg.algorithm == "qlearn":
        _table, policy, stats = q_train(grid, world, rewards, cfg.params, rng)
    elif cfg.algorithm == "mc":
        _table, policy, stats = mc_train(grid, world, rewards, cfg.params, rng)

    t0 = time.perf_counter()
    records = []
    for _ in range(cfg.eval_episodes):
        child = rng.spawn(1)[0]
        if cfg.algorithm == "astar":
            starts = sample_initial(grid, world.n_agents, child)
            plan = astar_plan(grid, starts, world.horizon)
            records.append(_plan_record(plan, grid, rewards))
        else:
            records.append(rollout(grid, world, rewards, policy, child))
    run_time = time.perf_counter() - t0

    timers = {
        "train_time": stats.wall_time if timing else 0.0,
        "run_time": run_time if timing else 0.0,
    }
    return aggregate(records, stats, timers, horizon=world.horizon)


_ALGO_CODE = {"astar": 1, "egt": 2, "mc": 3, "qlearn": 4}
_AXIS_CODE = {"grid_size": 1, "n_agents": 2}
_MAP_CODE = 7


def _derive_seed(*parts: int) -> int:
    """Stable integer from mixed parts (pure integer arithmetic)."""
    h = 0
    for p in parts:
        h = (h * 1000003 + int(p)) % (2**63)
    return h


def _cell_kv(base: Mapping[str, str], spec: SweepSpec, algo: str, value: int, rep: int) -> dict[str, str]:
    kv = dict(base)
    kv.pop("sweep.axis", None)
    kv.pop("sweep.values", None)
    kv.pop("sweep.algorithms", None)
    kv.pop("sweep.reps", None)
    kv.pop("sweep.out", None)
    kv["algorithm"] = algo
    master = int(kv.get("seed", "0"))
    if spec.axis == "grid_size":
        if "map.file" in kv:
            raise ConfigError("grid_size sweeps generate maps; map.file is not allowed")
        kv["map.width"] = str(value)
        kv["map.height"] = str(value)
    else:
        kv["world.agents"] = str(value)
    if "map.file" not in kv:
        if "map.seed" in kv:
            raise ConfigError("map.seed is derived per sweep cell; remove it")
        map_value = value if spec.axis == "grid_size" else 0
        kv["map.seed"] = str(
            _derive_seed(master, _MAP_CODE, _AXIS_CODE[spec.axis], map_value, rep)
        )
    return kv


def _format_report(rep: MetricsReport) -> list[str]:
    return [
        f"{rep.mean_path_length:.6f}",
        f"{rep.success_rate:.6f}",
        f"{rep.min_agent_success_rate:.6f}",
        f"{rep.expected_min_obstacle_distance:.6f}",
        str(rep.policy_updates),
        f"{rep.train_time:.6f}",
        f"{rep.run_time:.6f}",
    ]


def _run_cell(
    base: Mapping[str, str], spec: SweepSpec, algo: str, value: int, rep: int
) -> tuple[list[str], MetricsReport | None]:
    master = int(base.get("seed", "0"))
    run_seed = _derive_seed(master, _ALGO_CODE[algo], _AXIS_CODE[spec.axis], value, rep)
    head = [algo, spec.axis, str(value), str(rep), str(run_seed)]
    try:
        cfg = experiment_from_config(_cell_kv(base, spec, algo, value, rep))
        report = run_experiment(cfg, np.random.default_rng(run_seed))
    except Exception as exc:
        return head + [""] * 7 + [f"error:{type(exc).__name__}"], None
    return head + _format_report(report) + ["ok"], report


def run_sweep(
    spec: SweepSpec,
    base: Mapping[str, str],
) -> tuple[str, str]:
    """Run every sweep cell; returns (data CSV text, summary CSV text).

    Cell failures become rows with an error status; the sweep keeps going.
    With a fixed master seed and timing off the output is byte-stable.
    """
    _check_keys(base)
    jobs = [
        (algo, value, rep)
        for algo in spec.algorithms
        for value in spec.values
        for rep in range(spec.reps)
    ]
    outcomes = [_run_cell(base, spec, a, v, r) for a, v, r in jobs]

    paired = sorted(
        zip(jobs, outcomes), key=lambda jr: (jr[0][0], jr[0][1], jr[0][2])
    )
    lines = [CSV_HEADER] + [",".join(row) for (_, (row, _)) in paired]

    summary_lines = [SUMMARY_HEADER]
    cells: dict[tuple[str, int], list[MetricsReport]] = {}
    for (algo, value, _rep), (_row, report) in paired:
        cells.setdefault((algo, value), [])
        if report is not None:
            cells[(algo, value)].append(report)
    for (algo, value) in sorted(cells):
        reports = cells[(algo, value)]
        n_ok = len(reports)
        if n_ok == 0:
            summary_lines.append(f"{algo},{spec.axis},{value},0,,,,,,,")
            continue
        means = [
            sum(r.mean_path_length for r in reports) / n_ok,
            sum(r.success_rate for r in reports) / n_ok,
            sum(r.min_agent_success_rate for r in reports) / n_ok,
            sum(r.expected_min_obstacle_distance for r in reports) / n_ok,
            sum(r.policy_updates for r in reports) / n_ok,
            sum(r.train_time for r in reports) / n_ok,
            sum(r.run_time for r in reports) / n_ok,
        ]
        summary_lines.append(
            f"{algo},{spec.axis},{value},{n_ok},"
            + ",".join(f"{m:.6f}" for m in means)
        )
    return "\n".join(lines) + "\n", "\n".join(summary_lines) + "\n"

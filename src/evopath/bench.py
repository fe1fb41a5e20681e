"""Experiment configuration, instance generation, and sweep orchestration.

Configs are flat key=value files (one per line, # comments); nested settings
use dotted prefixes such as egt.eta or map.width. Sweeps run one experiment
per (algorithm, axis value, repetition) cell, derive every cell's seeds from
the master seed so cells never perturb each other, and emit a data CSV plus a
companion per-cell summary CSV.
"""
from __future__ import annotations

import math
import re
import time
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Mapping

import numpy as np
from scipy import ndimage

from . import egt as _egt
from .baselines import LearnParams, astar_plan, mc_train, q_train
from .egt import EGTParams, Policy, TrainingStats, Trajectory
from .gridworld import (
    Action,
    GridMap,
    RewardConfig,
    WorldConfig,
    _each_child,
    _goal_reach,
    action_delta,
    parse_map,
    sample_initial,
)
from .metrics import EpisodeRecord, MetricsReport, _min_hazard_distances, aggregate, rollout

ALGORITHMS = ("astar", "egt", "mc", "qlearn")

# CSV column -> (MetricsReport field, format), in column order
_REPORT_COLUMNS = {
    "mean_path_length": ("mean_path_length", ".6f"),
    "success_rate": ("success_rate", ".6f"),
    "min_agent_success_rate": ("min_agent_success_rate", ".6f"),
    "expected_min_obstacle_distance": ("expected_min_obstacle_distance", ".6f"),
    "policy_updates": ("policy_updates", "d"),
    "train_time_s": ("train_time", ".6f"),
    "run_time_s": ("run_time", ".6f"),
}

CSV_HEADER = ",".join(
    ["algorithm", "axis", "axis_value", "rep", "seed", *_REPORT_COLUMNS, "status"]
)

SUMMARY_HEADER = ",".join(["algorithm", "axis", "axis_value", "n_ok", *_REPORT_COLUMNS])


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
        # free cells in row-major order
        ys, xs = np.nonzero(~blocked)
        need = n_goals + (1 if n_starts is None else n_starts)
        if xs.size < need:
            continue
        drawn = rng.permutation(xs.size)[:n_goals]
        goals = set(zip(xs[drawn].tolist(), ys[drawn].tolist()))
        goal_mask = np.zeros_like(blocked)
        goal_mask[ys[drawn], xs[drawn]] = True
        reach = _goal_reach(ndimage.label(~blocked)[0], goal_mask) & ~goal_mask
        # transposed, so the cells come out sorted by (x, y)
        cx, cy = np.nonzero(reach.T)
        candidates = list(zip(cx.tolist(), cy.tolist()))
        if n_starts is None:
            if not candidates:
                continue
            starts = candidates
        else:
            if len(candidates) < n_starts:
                continue
            pick = rng.permutation(len(candidates))[:n_starts]
            starts = [candidates[i] for i in pick]
        oy, ox = np.nonzero(blocked)
        obstacles = zip(ox.tolist(), oy.tolist())
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


def _or(word: str, parse: Callable) -> Callable:
    """A parser that passes `word` through and parses any other value."""
    return lambda raw: raw if raw == word else parse(raw)


# Each table maps a config key to the keyword it sets and the keyword's parser.
# A key left out of the config leaves its keyword out, so the target's own
# default applies.
_WORLD_KEYS = {
    "world.agents": ("n_agents", int),
    "world.horizon": ("horizon", _or("auto", int)),
    "world.noise": ("action_noise", float),
}
_REWARD_KEYS = {f"reward.delta{i}": (f"delta{i}", float) for i in (1, 2, 3)}
_RUN_KEYS = {"eval.episodes": ("eval_episodes", int), "timing": ("timing", str)}
_EGT_KEYS = {
    "egt.eta": ("eta", float),
    "egt.alpha": ("alpha", float),
    "egt.beta": ("beta", float),
    "egt.nu": ("nu", int),
    "egt.mu": ("mu", int),
    "egt.epsilon": ("epsilon", float),
    "egt.reconstruct_interval": ("reconstruct_interval", int),
    "egt.mode": ("behavior_mode", str),
    "egt.episodes": ("episodes", _or("auto", int)),
}
_LEARN_KEYS = {
    "learn.rate": ("learning_rate", float),
    "learn.discount": ("discount", float),
    "learn.explore": ("explore", float),
    "learn.explore_end": ("explore_end", float),
    "learn.explore_decay": ("explore_decay_episodes", int),
    "learn.time_budget_s": ("time_budget_s", float),
    "learn.episodes": ("episodes", _or("auto", int)),
}
_ESS_KEYS = {
    "ess.p_new": ("p_new", float),
    "ess.extra_fraction": ("extra_episode_fraction", float),
    "ess.eval_episodes": ("eval_episodes", int),
    "ess.agreement_threshold": ("agreement_threshold", float),
    "ess.fitness_tolerance": ("fitness_tolerance", float),
}

# algorithm -> (parameter class, key table); astar has no entry
_LEARNERS = {
    "egt": (EGTParams, _EGT_KEYS),
    "mc": (LearnParams, _LEARN_KEYS),
    "qlearn": (LearnParams, _LEARN_KEYS),
}

_GENERATOR_KEYS = {
    "map.width": ("width", int),
    "map.height": ("height", int),
    "map.density": ("density", float),
    "map.starts": ("n_starts", lambda raw: None if raw == "all" else int(raw)),
    "map.goals": ("n_goals", int),
    "map.seed": ("seed", int),
}

# every known key and its value's parser
_PARSERS = {
    **{key: parse for table in (_WORLD_KEYS, _REWARD_KEYS, _RUN_KEYS, _EGT_KEYS, _LEARN_KEYS,
                                _ESS_KEYS, _GENERATOR_KEYS) for key, (_, parse) in table.items()},
    "algorithm": str, "seed": int, "map.file": str,
    "sweep.axis": str, "sweep.values": lambda raw: tuple(int(v) for v in raw.split(",")),
    "sweep.algorithms": str, "sweep.reps": int, "sweep.out": str,
}

_KNOWN_KEYS = frozenset(_PARSERS)


def _check_keys(kv: Mapping[str, str]) -> None:
    """Reject unknown keys, then any value its key's parser rejects."""
    unknown = sorted(set(kv) - _KNOWN_KEYS)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    for key in kv:
        _get(kv, key)


def _get(kv: Mapping[str, str], key: str, default=None):
    """The key's value parsed, or default when kv leaves the key out."""
    raw = kv.get(key)
    if raw is None:
        return default
    try:
        return _PARSERS[key](raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None


def _kwargs(kv: Mapping[str, str], table: Mapping[str, tuple[str, Callable]]) -> dict:
    """Keyword arguments for the table's keys that kv sets, parsed."""
    return {name: _get(kv, key) for key, (name, _) in table.items() if key in kv}


def _build(fn: Callable, table: Mapping[str, tuple[str, Callable]], kwargs: dict):
    """fn(**kwargs); a failing check names the config key of each parameter it mentions."""
    try:
        return fn(**kwargs)
    except ValueError as exc:
        keys = {name: key for key, (name, _) in table.items()}
        raise ConfigError(re.sub(r"\w+", lambda m: keys.get(m[0], m[0]), str(exc))) from None


def _seed(kv: Mapping[str, str]) -> int:
    return _get(kv, "seed", ExperimentConfig.seed)


def _ess_kwargs(kv: Mapping[str, str]) -> dict:
    """ess_test's keyword arguments from the ess.* keys.

    ess.p_new and ess.extra_fraction default to 0.1; the other keys default
    to ess_test's own keyword defaults.
    """
    return {"p_new": 0.1, "extra_episode_fraction": 0.1, **_kwargs(kv, _ESS_KEYS)}


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
        learner = _LEARNERS.get(self.algorithm)
        if learner is None:
            if self.params is not None:
                raise ConfigError("astar takes no parameter block")
        elif not isinstance(self.params, learner[0]):
            raise ConfigError(
                f"algorithm {self.algorithm} needs a {learner[0].__name__} parameter block"
            )


def _resolve_map(kv: Mapping[str, str], default_seed: int, maps: dict | None = None) -> GridMap:
    """The config's map; maps, when given, caches generated maps by gen_map's arguments."""
    map_file = kv.get("map.file")
    if map_file is not None:
        used = [k for k in _GENERATOR_KEYS if k in kv]
        if used:
            raise ConfigError(f"map.file excludes generator keys: {', '.join(used)}")
        with open(map_file, "r", encoding="utf-8") as fh:
            return parse_map(fh.read())
    if "map.width" not in kv or "map.height" not in kv:
        raise ConfigError("map.file or map.width+map.height is required")
    kwargs = {"density": 0.2, "n_starts": None, "seed": default_seed,
              **_kwargs(kv, _GENERATOR_KEYS)}
    kwargs.setdefault("n_goals", max(1, math.ceil(0.01 * kwargs["width"] * kwargs["height"])))
    if kwargs["n_starts"] is not None and kwargs["n_starts"] < 1:
        # gen_map's own check names None, which configs spell all
        raise ConfigError("map.starts must be >= 1 or all")
    maps = {} if maps is None else maps
    key = tuple(sorted(kwargs.items()))
    if key not in maps:
        maps[key] = _build(gen_map, _GENERATOR_KEYS, kwargs)
    return maps[key]


def _resolve_world(kv: Mapping[str, str], grid: GridMap) -> WorldConfig:
    kwargs = _kwargs(kv, _WORLD_KEYS)
    if kwargs.get("horizon", "auto") == "auto":
        kwargs["horizon"] = default_horizon(grid.width, grid.height)
    return _build(WorldConfig, _WORLD_KEYS, kwargs)


def _resolve_params(
    kv: Mapping[str, str], algorithm: str, grid: GridMap, world: WorldConfig
) -> EGTParams | LearnParams | None:
    if algorithm not in _LEARNERS:
        return None
    cls, table = _LEARNERS[algorithm]
    kwargs = _kwargs(kv, table)
    if kwargs.get("episodes") == "auto":
        kwargs["episodes"] = default_episode_budget(grid.width, grid.height, world.n_agents)
    return _build(cls, table, kwargs)


def experiment_from_config(kv: Mapping[str, str], maps: dict | None = None) -> ExperimentConfig:
    """Resolve a parsed key=value mapping into an ExperimentConfig.

    A key the config leaves out takes the default of the field it sets, in
    WorldConfig, RewardConfig, EGTParams, LearnParams or ExperimentConfig.
    world.horizon (default auto), egt.episodes and learn.episodes also accept
    "auto", which resolves through default_horizon and default_episode_budget.
    maps, when given, is a cache of generated maps keyed by gen_map's
    arguments; configs that share it share one GridMap per distinct map.
    """
    _check_keys(kv)
    algorithm = kv.get("algorithm")
    if algorithm is None:
        raise ConfigError("algorithm is required")
    seed = _seed(kv)
    try:
        grid = _resolve_map(kv, seed, maps)
        world = _resolve_world(kv, grid)
        rewards = _build(RewardConfig, _REWARD_KEYS, _kwargs(kv, _REWARD_KEYS))
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
        seed=seed,
        **_kwargs(kv, _RUN_KEYS),
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
    values = _get(kv, "sweep.values")
    if values is None:
        raise ConfigError("sweep.values is required")
    raw_algos = kv.get("sweep.algorithms")
    if raw_algos is None:
        raise ConfigError("sweep.algorithms is required")
    algos = tuple(a.strip() for a in raw_algos.split(","))
    return SweepSpec(
        axis=resolved,
        values=values,
        algorithms=algos,
        reps=_get(kv, "sweep.reps", SweepSpec.reps),
        out=kv.get("sweep.out"),
    )


# -- running -------------------------------------------------------------------


_STEP_ACTIONS = {action_delta(a): a for a in Action}


def _plan_record(plan, grid: GridMap, rewards: RewardConfig) -> EpisodeRecord:
    """Convert a PlanResult into an EpisodeRecord for shared aggregation."""
    trajectories = []
    returns = []
    for path, ok in zip(plan.paths, plan.success):
        steps = [
            (cur, _STEP_ACTIONS[(nxt[0] - cur[0], nxt[1] - cur[1])])
            for cur, nxt in zip(path, path[1:])
        ]
        total = 0.0
        for nxt in path[1:]:
            total += rewards.delta3 if nxt in grid.goals else rewards.delta1
        trajectories.append(Trajectory(steps=steps, final=path[-1], reached_goal=ok))
        returns.append(total)
    paths = [[grid.cell_id(c) for c in path] for path in plan.paths]
    return EpisodeRecord(
        trajectories=tuple(trajectories),
        returns=tuple(returns),
        cumulative_return=float(sum(returns)),
        min_obstacle_distances=tuple(_min_hazard_distances(grid, paths)),
    )


def _train_learner(
    cfg: ExperimentConfig, rng: np.random.Generator
) -> tuple[Policy, TrainingStats]:
    """Train cfg's learner (egt, qlearn or mc); astar has nothing to train."""
    if cfg.algorithm == "egt":
        policy, _table, stats = _egt.train(cfg.grid, cfg.world, cfg.params, cfg.rewards, rng)
    elif cfg.algorithm == "qlearn":
        _table, policy, stats = q_train(cfg.grid, cfg.world, cfg.rewards, cfg.params, rng)
    elif cfg.algorithm == "mc":
        _table, policy, stats = mc_train(cfg.grid, cfg.world, cfg.rewards, cfg.params, rng)
    else:
        raise ConfigError("train does not apply to astar (nothing to train)")
    return policy, stats


def run_experiment(
    cfg: ExperimentConfig, rng: np.random.Generator | None = None
) -> MetricsReport:
    """Train (or plan) and evaluate one configured experiment.

    Training consumes rng (default_rng(cfg.seed) when None) first. Then
    evaluation episode e draws from child e of what is left of rng, taken
    from `gridworld._each_child`: astar samples its starts from it, a
    learner's rollout draws its whole episode from it.
    """
    if cfg.eval_episodes < 1:
        raise ConfigError("eval.episodes must be >= 1")
    if rng is None:
        rng = np.random.default_rng(cfg.seed)
    timing = cfg.timing == "wall"
    grid, world, rewards = cfg.grid, cfg.world, cfg.rewards

    policy: Policy | None = None
    stats = TrainingStats()
    if cfg.algorithm != "astar":
        policy, stats = _train_learner(cfg, rng)

    t0 = time.perf_counter()
    records = []
    for child in _each_child(rng, cfg.eval_episodes):
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
    kv = {k: v for k, v in base.items() if not k.startswith("sweep.")}
    kv["algorithm"] = algo
    master = _seed(kv)
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


def _format_report(rep: MetricsReport) -> dict[str, str]:
    """Report column -> formatted value, in column order."""
    return {
        column: format(getattr(rep, field), spec)
        for column, (field, spec) in _REPORT_COLUMNS.items()
    }


def _run_cell(
    base: Mapping[str, str], spec: SweepSpec, algo: str, value: int, rep: int, maps: dict
) -> tuple[list[str], MetricsReport | None]:
    master = _seed(base)
    run_seed = _derive_seed(master, _ALGO_CODE[algo], _AXIS_CODE[spec.axis], value, rep)
    head = [algo, spec.axis, str(value), str(rep), str(run_seed)]
    try:
        cfg = experiment_from_config(_cell_kv(base, spec, algo, value, rep), maps)
        report = run_experiment(cfg, np.random.default_rng(run_seed))
    except Exception as exc:
        return head + [""] * len(_REPORT_COLUMNS) + [f"error:{type(exc).__name__}"], None
    return head + list(_format_report(report).values()) + ["ok"], report


def run_sweep(
    spec: SweepSpec,
    base: Mapping[str, str],
) -> tuple[str, str]:
    """Run every sweep cell; returns (data CSV text, summary CSV text).

    Cell failures become rows with an error status; the sweep keeps going.
    With a fixed master seed and timing off the output is byte-stable. Each
    distinct generated map is built once and shared by the cells that use it.
    """
    _check_keys(base)
    jobs = [
        (algo, value, rep)
        for algo in spec.algorithms
        for value in spec.values
        for rep in range(spec.reps)
    ]
    # cells that differ only in algorithm (or agent count) share their map
    maps: dict = {}
    outcomes = [_run_cell(base, spec, a, v, r, maps) for a, v, r in jobs]

    paired = sorted(zip(jobs, outcomes), key=lambda jr: jr[0])
    lines = [CSV_HEADER] + [",".join(row) for (_, (row, _)) in paired]

    summary_lines = [SUMMARY_HEADER]
    for (algo, value), cell in groupby(paired, key=lambda jr: jr[0][:2]):
        reports = [report for _job, (_row, report) in cell if report is not None]
        n_ok = len(reports)
        means = [
            f"{sum(getattr(r, field) for r in reports) / n_ok:.6f}" if n_ok else ""
            for field, _spec in _REPORT_COLUMNS.values()
        ]
        summary_lines.append(",".join([algo, spec.axis, str(value), str(n_ok), *means]))
    return "\n".join(lines) + "\n", "\n".join(summary_lines) + "\n"

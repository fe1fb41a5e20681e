"""Config resolution, instance generation, and sweep orchestration."""
import math
import re
from pathlib import Path

import pytest

import numpy as np

from evopath import bench, cli, egt
from evopath.baselines import LearnParams, astar_plan
from evopath.bench import (
    CSV_HEADER,
    SUMMARY_HEADER,
    _EGT_KEYS,
    _ESS_KEYS,
    _KNOWN_KEYS,
    _LEARN_KEYS,
    _REWARD_KEYS,
    _RUN_KEYS,
    _WORLD_KEYS,
    ConfigError,
    ExperimentConfig,
    GenerationError,
    SweepSpec,
    _ess_kwargs,
    default_episode_budget,
    default_horizon,
    experiment_from_config,
    gen_map,
    parse_config,
    parse_config_text,
    run_experiment,
    run_sweep,
    sweep_from_config,
)
from evopath.egt import EGTParams
from evopath.gridworld import RewardConfig, WorldConfig, parse_map, sample_initial
from evopath.metrics import _plan_record
from oracles import bfs_distance, min_hazard_distance, reference_gen_map, transition

ROOT = Path(__file__).resolve().parent.parent

BASE_SWEEP = (
    "algorithm=egt\nseed=9\ntiming=off\nmap.density=0.1\nmap.goals=1\n"
    "world.horizon=12\negt.episodes=30\neval.episodes=2\n"
)


def kv(text):
    return parse_config_text(text)


# -- schedules -------------------------------------------------------------------


def test_episode_budget_schedule():
    assert default_episode_budget(5, 5, 1) == 2000      # clamped up from 1250
    assert default_episode_budget(20, 20, 1) == 20000
    assert default_episode_budget(40, 40, 1) == 40000   # clamped down from 80000
    assert default_episode_budget(20, 20, 4) == 5000


def test_horizon_schedule_is_four_times_the_longer_side():
    assert default_horizon(20, 20) == 80
    assert default_horizon(3, 7) == 28


# -- gen_map ---------------------------------------------------------------------


def test_density_zero_generates_no_obstacles():
    grid = gen_map(6, 5, 0.0, None, 2, seed=0)
    assert grid.obstacles == frozenset()
    assert len(grid.goals) == 2


def test_same_seed_gives_byte_identical_maps():
    a = gen_map(20, 20, 0.2, None, 4, seed=3)
    b = gen_map(20, 20, 0.2, None, 4, seed=3)
    assert a.to_text() == b.to_text()
    assert gen_map(20, 20, 0.2, None, 4, seed=0).to_text() != a.to_text()


def test_obstacle_count_tracks_the_density():
    # 400 cells at 0.2: binomial mean 80, 3 sigma = 24
    grid = gen_map(20, 20, 0.2, None, 4, seed=0)
    assert 56 <= len(grid.obstacles) <= 104


def test_every_start_is_connected_to_a_goal():
    grid = gen_map(10, 10, 0.3, None, 2, seed=5)
    reach = bfs_distance(10, 10, grid.obstacles, grid.goals)
    assert all(start in reach for start in grid.starts)
    assert not set(grid.starts) & grid.goals


def test_gen_map_matches_the_plain_flood_on_fuzzed_maps():
    # 1-wide and 1-high strips among small boxes; dense maps leave pockets no
    # goal reaches, and some shapes spend every retry
    rng = np.random.default_rng(1414)
    built = failed = 0
    for k in range(300):
        width, height = (int(v) for v in rng.integers(1, 13, 2))
        if k % 3 == 0:
            width = 1
        elif k % 3 == 1:
            height = 1
        density = float(rng.choice([0.0, 0.1, 0.3, 0.45, 0.6]))
        n_goals = int(rng.integers(1, 4))
        n_starts = None if k % 2 else int(rng.integers(1, 6))
        want = reference_gen_map(width, height, density, n_starts, n_goals, 5000 + k)
        if want is None:
            with pytest.raises(GenerationError):
                gen_map(width, height, density, n_starts, n_goals, 5000 + k)
            failed += 1
            continue
        grid = gen_map(width, height, density, n_starts, n_goals, 5000 + k)
        assert (set(grid.obstacles), set(grid.goals), set(grid.starts)) == want
        built += 1
    assert built >= 150 and failed >= 20


def test_explicit_start_count_is_respected():
    grid = gen_map(5, 5, 0.0, 3, 2, seed=11)
    assert len(grid.starts) == 3
    assert len(grid.goals) == 2


def test_infeasible_generation_raises_after_retries():
    # 4 goals plus a start never fit in a 2x2 room
    with pytest.raises(GenerationError):
        gen_map(2, 2, 0.9, None, 4, seed=0)


@pytest.mark.parametrize(
    "args",
    [
        (5, 5, 1.0, None, 1),
        (5, 5, -0.1, None, 1),
        (0, 5, 0.2, None, 1),
        (5, 0, 0.2, None, 1),
        (5, 5, 0.2, None, 0),
        (5, 5, 0.2, 0, 1),
    ],
)
def test_gen_map_rejects_bad_arguments(args):
    with pytest.raises(ValueError):
        gen_map(*args, seed=0)


# -- config parsing --------------------------------------------------------------


def test_parse_skips_comments_and_blank_lines():
    assert kv("# note\n\n a = 1 # tail\nb=x=y\n") == {"a": "1", "b": "x=y"}


@pytest.mark.parametrize("text", ["novalue\n", "=x\n", "k=\n", "a=1\na=2\n"])
def test_parse_rejects_malformed_lines(text):
    with pytest.raises(ConfigError):
        parse_config_text(text)


def test_parse_config_reads_a_file(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("algorithm=egt\nmap.width=4\nmap.height=4\n")
    assert parse_config(str(path))["algorithm"] == "egt"


def test_minimal_config_fills_documented_defaults():
    cfg = experiment_from_config(kv("algorithm=egt\nmap.width=6\nmap.height=5\n"))
    assert cfg.grid.width == 6 and cfg.grid.height == 5
    assert len(cfg.grid.goals) == max(1, math.ceil(0.01 * 30))
    assert cfg.world.n_agents == 1
    assert cfg.world.horizon == default_horizon(6, 5)
    assert cfg.rewards == RewardConfig()
    assert cfg.params == EGTParams(episodes=2000)
    assert cfg.eval_episodes == 100
    assert cfg.seed == 0 and cfg.timing == "wall"


def test_auto_episode_budget_resolves_from_the_grid():
    cfg = experiment_from_config(
        kv("algorithm=egt\nmap.width=20\nmap.height=20\negt.episodes=auto\n")
    )
    assert cfg.params.episodes == 20000


def test_learner_block_resolves_for_qlearn():
    cfg = experiment_from_config(
        kv(
            "algorithm=qlearn\nmap.width=4\nmap.height=4\n"
            "learn.rate=0.3\nlearn.discount=0.9\nlearn.explore=0.8\n"
            "learn.explore_end=0.1\nlearn.explore_decay=500\n"
            "learn.episodes=123\nlearn.time_budget_s=2.5\n"
        )
    )
    assert cfg.params == LearnParams(
        learning_rate=0.3,
        discount=0.9,
        explore=0.8,
        explore_end=0.1,
        explore_decay_episodes=500,
        episodes=123,
        time_budget_s=2.5,
    )


def test_world_and_reward_keys_resolve():
    cfg = experiment_from_config(
        kv(
            "algorithm=astar\nmap.width=4\nmap.height=4\nworld.agents=2\n"
            "world.horizon=9\nworld.noise=0.25\nreward.delta1=-2\n"
        )
    )
    assert cfg.world == WorldConfig(n_agents=2, horizon=9, action_noise=0.25)
    assert cfg.rewards.delta1 == -2.0
    assert cfg.params is None


def test_map_file_loads_the_map_text(tmp_path):
    path = tmp_path / "lane.map"
    path.write_text("G...S\n")
    cfg = experiment_from_config(kv(f"algorithm=astar\nmap.file={path}\n"))
    assert cfg.grid.width == 5 and cfg.grid.height == 1
    assert cfg.world.horizon == default_horizon(5, 1)


@pytest.mark.parametrize(
    "text",
    [
        "map.width=4\nmap.height=4\n",                         # no algorithm
        "algorithm=egt\n",                                     # no map
        "algorithm=egt\nmap.width=4\n",                        # half a generator spec
        "algorithm=egt\nmap.width=4\nmap.height=4\nbogus.key=1\n",
        "algorithm=egt\nmap.width=abc\nmap.height=4\n",
        "algorithm=nope\nmap.width=4\nmap.height=4\n",
        "algorithm=egt\nmap.file=x.map\nmap.width=4\n",
        "algorithm=egt\nmap.width=4\nmap.height=4\neval.episodes=-1\n",
        "algorithm=egt\nmap.width=4\nmap.height=4\nthreads=0\n",
        "algorithm=egt\nmap.width=4\nmap.height=4\ntiming=sometimes\n",
    ],
)
def test_bad_experiment_configs_are_rejected(text):
    with pytest.raises(ConfigError):
        experiment_from_config(kv(text))



def test_known_keys_are_pinned():
    assert _KNOWN_KEYS == {
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
    }


# every int and float key of the key tables, with a value its parser rejects
_TABLE_BAD_VALUES = [
    (key, "2.5" if parse is int else "abc", "qlearn" if table is _LEARN_KEYS else "egt")
    for table in (_WORLD_KEYS, _REWARD_KEYS, _RUN_KEYS, _EGT_KEYS, _LEARN_KEYS, _ESS_KEYS)
    for key, (_name, parse) in table.items()
    if parse in (int, float)
]


@pytest.mark.parametrize(
    "key, value, algorithm",
    [
        ("map.starts", "many", "egt"),
        ("learn.explore_decay", "abc", "qlearn"),
        ("learn.time_budget_s", "soon", "mc"),
        ("seed", "abc", "egt"),
        ("world.horizon", "2.5", "egt"),
        ("egt.episodes", "2.5", "egt"),
        ("learn.episodes", "2.5", "mc"),
        *_TABLE_BAD_VALUES,
    ],
)
def test_bad_values_are_reported_with_their_key(key, value, algorithm):
    kv = parse_config_text(f"algorithm={algorithm}\nmap.width=4\nmap.height=4\n{key}={value}\n")
    with pytest.raises(ConfigError, match=f"^bad value for {key}: '{value}'"):
        experiment_from_config(kv)
        _ess_kwargs(kv)  # the ess.* keys are read by the ess-test command


def test_missing_map_file_reports_a_config_error(tmp_path):
    with pytest.raises(ConfigError):
        experiment_from_config(kv(f"algorithm=egt\nmap.file={tmp_path}/absent.map\n"))


@pytest.mark.parametrize("name", ["ess.cfg", "quickstart.cfg", "rooms.cfg"])
def test_shipped_experiment_configs_resolve(name, monkeypatch):
    # rooms.cfg's map.file is relative to the repository root
    monkeypatch.chdir(ROOT)
    kv = parse_config(f"configs/{name}")
    cfg = experiment_from_config(kv)
    assert cfg.algorithm == kv["algorithm"]
    if name == "ess.cfg":
        assert _ess_kwargs(kv) == {"p_new": 0.1, "extra_episode_fraction": 0.1,
                                   "eval_episodes": 200, "agreement_threshold": 0.95,
                                   "fitness_tolerance": 0.05}


@pytest.mark.parametrize("name", ["agent_sweep.cfg", "grid_sweep.cfg"])
def test_shipped_sweep_configs_resolve_in_every_cell(name, monkeypatch):
    monkeypatch.chdir(ROOT)
    text = (ROOT / "configs" / name).read_text()
    # the header names the subcommand that runs the file, which fixes the axis
    command = re.search(r"evopath (sweep-\S+)", text).group(1)
    axis = {n: handler for n, _help, handler in cli._COMMANDS}[command].keywords["axis"]
    base = parse_config_text(text)
    spec = sweep_from_config(base, axis)
    maps: dict = {}
    for algo in spec.algorithms:
        for value in spec.values:
            for rep in range(spec.reps):
                cfg = experiment_from_config(bench._cell_kv(base, spec, algo, value, rep), maps)
                assert cfg.algorithm == algo
                if axis == "grid_size":
                    assert (cfg.grid.width, cfg.grid.height) == (value, value)
                else:
                    assert cfg.world.n_agents == value


@pytest.mark.parametrize(
    "algorithm,params",
    [
        ("astar", EGTParams()),
        ("egt", None),
        ("egt", LearnParams()),
        ("qlearn", EGTParams()),
    ],
)
def test_parameter_block_must_match_the_algorithm(algorithm, params):
    grid = parse_map("SG")
    with pytest.raises(ConfigError):
        ExperimentConfig(
            algorithm=algorithm,
            grid=grid,
            world=WorldConfig(),
            rewards=RewardConfig(),
            params=params,
        )


# -- sweep spec ------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"axis": "diagonal"},
        {"values": ()},
        {"values": (3, 3)},
        {"values": (5, 2)},
        {"values": (0, 2)},
        {"algorithms": ("bogus",)},
        {"algorithms": ()},
        {"reps": 0},
    ],
)
def test_sweep_spec_validation(kwargs):
    base = dict(axis="grid_size", values=(2, 4), algorithms=("egt",), reps=1)
    base.update(kwargs)
    with pytest.raises(ConfigError):
        SweepSpec(**base)


def test_sweep_from_config_parses_lists():
    spec = sweep_from_config(
        kv("sweep.values=10, 20\nsweep.algorithms=egt , astar\nsweep.reps=3\n"),
        axis="grid_size",
    )
    assert spec.values == (10, 20)
    assert spec.algorithms == ("egt", "astar")
    assert spec.reps == 3


@pytest.mark.parametrize(
    "text,axis",
    [
        ("sweep.values=10\nsweep.algorithms=egt\nsweep.axis=grid_size\n", "n_agents"),
        ("sweep.values=10\nsweep.algorithms=egt\n", None),
        ("sweep.algorithms=egt\n", "grid_size"),
        ("sweep.values=10\n", "grid_size"),
        ("sweep.values=10,x\nsweep.algorithms=egt\n", "grid_size"),
    ],
)
def test_sweep_from_config_rejects_bad_blocks(text, axis):
    with pytest.raises(ConfigError):
        sweep_from_config(kv(text), axis=axis)


# -- run_experiment --------------------------------------------------------------


def test_astar_reports_zero_policy_updates(tmp_path):
    path = tmp_path / "lane.map"
    path.write_text("G...S\n")
    cfg = experiment_from_config(
        kv(f"algorithm=astar\nmap.file={path}\neval.episodes=3\ntiming=off\n")
    )
    report = run_experiment(cfg)
    assert report.policy_updates == 0
    assert report.mean_path_length == 4.0
    assert report.success_rate == 1.0


def test_zero_evaluation_episodes_is_an_error(monkeypatch):
    cfg = experiment_from_config(
        kv("algorithm=egt\nmap.width=4\nmap.height=4\negt.episodes=20\neval.episodes=0\n")
    )
    trained = []
    monkeypatch.setattr(egt, "train", lambda *args: trained.append(args))
    with pytest.raises(ValueError):
        run_experiment(cfg)
    assert trained == []


def test_run_experiment_is_deterministic_with_timing_off():
    text = (
        "algorithm=egt\nmap.width=5\nmap.height=5\nmap.density=0.1\nseed=4\n"
        "egt.episodes=50\neval.episodes=5\ntiming=off\n"
    )
    cfg = experiment_from_config(kv(text))
    rng = np.random.default_rng(4)
    a = run_experiment(cfg, rng)
    b = run_experiment(experiment_from_config(kv(text)))
    assert a == b
    # training consumes the generator, then evaluation spawns one child per episode
    twin = np.random.default_rng(4)
    egt.train(cfg.grid, cfg.world, cfg.params, cfg.rewards, twin)
    twin.spawn(cfg.eval_episodes)
    assert rng.spawn(1)[0].random() == twin.spawn(1)[0].random()



def test_plan_records_match_oracles_on_fuzzed_plans():
    # crowded boards, so some agents fail and their paths end early; an
    # ended path holds its last cell for the other agents' distances
    rng = np.random.default_rng(99)
    checked = failed = 0
    while checked < 60:
        w, h = (int(v) for v in rng.integers(3, 9, size=2))
        try:
            grid = gen_map(w, h, 0.15, None, int(rng.integers(1, 3)), int(rng.integers(1 << 30)))
        except GenerationError:
            continue
        n_agents = int(rng.integers(1, min(7, len(grid.starts)) + 1))
        plan = astar_plan(grid, sample_initial(grid, n_agents, rng), int(rng.integers(1, 2 * (w + h))))
        # the default levels, and others that a rule reading the defaults would miss
        for rewards in (RewardConfig(), RewardConfig(delta1=-0.25, delta2=-3.5, delta3=7.0)):
            rec = _plan_record(plan, grid, rewards)
            for i, (path, tau) in enumerate(zip(plan.paths, rec.trajectories)):
                hand = 0.0
                for cell in path[1:]:
                    hand += rewards.delta3 if cell in grid.goals else rewards.delta1
                assert rec.returns[i] == hand
                others = [
                    [p[t] if t < len(p) else p[-1] for j, p in enumerate(plan.paths) if j != i]
                    for t in range(len(path))
                ]
                assert rec.min_obstacle_distances[i] == min_hazard_distance(
                    path, w, h, grid.obstacles, others
                )
                assert [c for c, _ in tau.steps] + [tau.final] == list(path)
                for (cell, action), nxt in zip(tau.steps, path[1:]):
                    assert transition(cell, int(action), w, h, grid.obstacles) == (nxt, False)
                assert tau.reached_goal == plan.success[i]
            assert rec.cumulative_return == sum(rec.returns)
        failed += not all(plan.success)
        checked += 1
    assert failed > 0


# -- run_sweep -------------------------------------------------------------------


def test_sweep_emits_one_sorted_row_per_cell():
    spec = SweepSpec(axis="grid_size", values=(4, 6), algorithms=("egt", "astar"))
    data, summary = run_sweep(spec, kv(BASE_SWEEP))
    lines = data.strip().splitlines()
    assert lines[0] == CSV_HEADER
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 4
    assert [(r[0], r[2]) for r in rows] == [
        ("astar", "4"), ("astar", "6"), ("egt", "4"), ("egt", "6"),
    ]
    assert all(r[-1] == "ok" for r in rows)
    assert summary.splitlines()[0] == SUMMARY_HEADER


def test_csv_header_is_pinned():
    assert CSV_HEADER == (
        "algorithm,axis,axis_value,rep,seed,mean_path_length,success_rate,"
        "min_agent_success_rate,expected_min_obstacle_distance,policy_updates,"
        "train_time_s,run_time_s,status"
    )


def test_sweep_is_byte_identical_across_runs():
    spec = SweepSpec(axis="grid_size", values=(4, 6), algorithms=("egt", "astar"))
    base = kv(BASE_SWEEP)
    first = run_sweep(spec, base)
    second = run_sweep(spec, base)
    assert first == second


def test_extra_cells_do_not_perturb_existing_ones():
    base = kv(BASE_SWEEP)
    small, _ = run_sweep(SweepSpec(axis="grid_size", values=(4,), algorithms=("egt",)), base)
    wide, _ = run_sweep(SweepSpec(axis="grid_size", values=(4, 6), algorithms=("egt",)), base)
    deep, _ = run_sweep(
        SweepSpec(axis="grid_size", values=(4,), algorithms=("egt",), reps=2), base
    )
    row4 = small.splitlines()[1]
    assert row4 in wide.splitlines()
    assert row4 in deep.splitlines()


def test_failed_cells_become_error_rows_and_the_sweep_continues():
    # a 1x1 room cannot hold a goal and a start; generation fails every retry
    spec = SweepSpec(axis="grid_size", values=(1, 4), algorithms=("egt",))
    data, summary = run_sweep(spec, kv(BASE_SWEEP))
    rows = [line.split(",") for line in data.strip().splitlines()[1:]]
    assert rows[0][2] == "1" and rows[0][-1] == "error:GenerationError"
    assert rows[0][5:12] == [""] * 7
    assert rows[1][2] == "4" and rows[1][-1] == "ok"
    failed_summary = summary.strip().splitlines()[1]
    assert failed_summary.startswith("egt,grid_size,1,0,")


def test_summary_rows_average_the_repetitions():
    spec = SweepSpec(axis="grid_size", values=(4,), algorithms=("egt",), reps=2)
    data, summary = run_sweep(spec, kv(BASE_SWEEP))
    rows = [line.split(",") for line in data.strip().splitlines()[1:]]
    srow = summary.strip().splitlines()[1].split(",")
    assert srow[3] == "2"
    for col, scol in [(5, 4), (6, 5), (9, 8)]:
        expected = (float(rows[0][col]) + float(rows[1][col])) / 2
        assert float(srow[scol]) == pytest.approx(expected, abs=1e-6)


def test_agent_axis_sweeps_run():
    base = kv(
        "algorithm=astar\nseed=2\ntiming=off\nmap.width=5\nmap.height=5\n"
        "map.density=0.1\nmap.goals=2\neval.episodes=2\n"
    )
    spec = SweepSpec(axis="n_agents", values=(1, 2), algorithms=("astar",))
    data, _ = run_sweep(spec, base)
    rows = [line.split(",") for line in data.strip().splitlines()[1:]]
    assert [r[2] for r in rows] == ["1", "2"]
    assert all(r[-1] == "ok" for r in rows)


@pytest.mark.parametrize("axis, values, n_maps", [
    ("n_agents", (1, 2, 3), 2),   # one map per repetition, whatever the agent count
    ("grid_size", (4, 6), 4),     # one map per size and repetition
])
def test_sweep_builds_each_distinct_map_once(monkeypatch, axis, values, n_maps):
    seeds = []

    def counting_gen_map(**kwargs):
        seeds.append(kwargs["seed"])
        return gen_map(**kwargs)

    monkeypatch.setattr(bench, "gen_map", counting_gen_map)
    spec = SweepSpec(axis=axis, values=values, algorithms=("astar", "egt"), reps=2)
    data, _ = run_sweep(spec, kv(BASE_SWEEP + "map.width=6\nmap.height=6\n"))
    assert all(line.endswith(",ok") for line in data.splitlines()[1:])
    assert len(seeds) == len(set(seeds)) == n_maps


def test_grid_size_sweeps_refuse_fixed_maps(tmp_path):
    path = tmp_path / "m.map"
    path.write_text("G...S\n")
    base = kv(f"algorithm=egt\nmap.file={path}\negt.episodes=10\neval.episodes=1\n")
    spec = SweepSpec(axis="grid_size", values=(4,), algorithms=("egt",))
    data, _ = run_sweep(spec, base)
    assert data.strip().splitlines()[1].endswith("error:ConfigError")


def test_sweeps_refuse_a_pinned_map_seed():
    base = kv(BASE_SWEEP + "map.seed=13\n")
    spec = SweepSpec(axis="grid_size", values=(4,), algorithms=("egt",))
    data, _ = run_sweep(spec, base)
    assert data.strip().splitlines()[1].endswith("error:ConfigError")


def test_sweep_rejects_unknown_base_keys():
    with pytest.raises(ConfigError):
        run_sweep(
            SweepSpec(axis="grid_size", values=(4,), algorithms=("egt",)),
            {"algorithm": "egt", "bogus": "1"},
        )

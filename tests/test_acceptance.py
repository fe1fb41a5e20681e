"""Acceptance gate. One test per shipped criterion; each prints a single
pass/fail line with the measured numbers before asserting.

The heavyweight entries (4, 6, 9) retrain from scratch on every run; the whole
module takes a few minutes. Frozen instance and training seeds are recorded
next to each test.
"""
import math
import time

import numpy as np
import pytest

from evopath.baselines import LearnParams, astar_plan, mc_train, q_train
from evopath.bench import SweepSpec, default_horizon, gen_map, parse_config_text, run_sweep
from evopath.cli import main as cli_main
from evopath.egt import (
    CounterTable,
    EGTParams,
    Policy,
    Trajectory,
    construct_policy,
    ess_test,
    fitness,
    success_update_probability,
    train,
)
from evopath.gridworld import Action, GridMap, RewardConfig, WorldConfig, parse_map, reward
from evopath.metrics import aggregate, min_obstacle_distance, rollout
from oracles import (
    bfs_distance,
    chain_success_probability,
    greedy_path_length,
    min_hazard_distance,
    plan_conflicts,
    transition,
)

RCFG = RewardConfig()


def _verdict(n: int, ok: bool, detail: str) -> bool:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def test_criterion_1_single_agent_planner_is_bfs_optimal():
    t0 = time.perf_counter()
    mismatches = 0
    for i in range(200):
        size = 10 + (i % 21)
        grid = gen_map(size, size, 0.2, 1, 1, seed=i)
        start = next(iter(grid.starts))
        plan = astar_plan(grid, [start], default_horizon(size, size))
        dist = bfs_distance(size, size, grid.obstacles, grid.goals)[start]
        if not plan.success[0] or len(plan.paths[0]) - 1 != dist:
            mismatches += 1
    dt = time.perf_counter() - t0
    ok = mismatches == 0 and dt < 5.0
    assert _verdict(1, ok, f"{200 - mismatches}/200 instances BFS-optimal in {dt:.2f}s (budget 5s)")


def test_criterion_2_multi_agent_plans_are_conflict_free():
    checked = 0
    conflicted = 0
    seed = 0
    while checked < 100:
        size = 6 + (seed % 7)
        n_agents = 2 + (seed % 4)
        try:
            grid = gen_map(size, size, 0.2, n_agents, 2, seed=1000 + seed)
        except Exception:
            seed += 1
            continue
        horizon = default_horizon(size, size)
        plan = astar_plan(grid, list(grid.starts), horizon)
        if plan_conflicts(plan.paths, plan.success, horizon):
            conflicted += 1
        checked += 1
        seed += 1
    ok = conflicted == 0
    assert _verdict(2, ok, f"{100 - conflicted}/100 fuzzed 2-5 agent plans conflict-free")


def test_criterion_3_tabular_learners_reach_oracle_optima():
    grid = parse_map("SSSSS\nSSSSS\nSSSSS\nSSSSS\nSSSSG\n")
    world = WorldConfig(n_agents=1, horizon=20)
    dist = bfs_distance(5, 5, set(), {(4, 4)})
    cells = [c for c in grid.free_cells() if c != (4, 4)]

    t0 = time.perf_counter()
    qt, _, _ = q_train(grid, world, RCFG, LearnParams(episodes=10000), np.random.default_rng(0))
    t_q = time.perf_counter() - t0
    q_ok = sum(
        greedy_path_length(5, 5, set(), {(4, 4)}, qt.greedy_action, c, 25) == dist[c]
        for c in cells
    )

    t0 = time.perf_counter()
    mt, _, _ = mc_train(grid, world, RCFG, LearnParams(episodes=10000), np.random.default_rng(0))
    t_m = time.perf_counter() - t0
    m_ok = sum(
        greedy_path_length(5, 5, set(), {(4, 4)}, mt.greedy_action, c, 25) == dist[c]
        for c in cells
    )

    need_mc = math.ceil(0.95 * len(cells))
    ok = q_ok == len(cells) and m_ok >= need_mc and t_q < 30.0 and t_m < 30.0
    assert _verdict(
        3,
        ok,
        f"q-learning {q_ok}/{len(cells)} optimal in {t_q:.1f}s; "
        f"mc {m_ok}/{len(cells)} (need {need_mc}) in {t_m:.1f}s (budget 30s each)",
    )


# counter-learner instance frozen after screening for goal spread: seed 134
C4_GRID_ARGS = (20, 20, 0.2, None, 4, 134)
C4_EPISODES = 640_000


@pytest.mark.slow
def test_criterion_4_counter_learner_reaches_goals_near_optimally():
    grid = gen_map(*C4_GRID_ARGS)
    world = WorldConfig(n_agents=1, horizon=default_horizon(20, 20))
    t0 = time.perf_counter()
    policy, _, _ = train(grid, world, EGTParams(episodes=C4_EPISODES), RCFG, np.random.default_rng(0))
    t_train = time.perf_counter() - t0

    rng = np.random.default_rng(1234)
    records = [rollout(grid, world, RCFG, policy, rng) for _ in range(1000)]
    report = aggregate(records, horizon=world.horizon)

    dist = bfs_distance(20, 20, grid.obstacles, grid.goals)
    starts = [tau.steps[0][0] for rec in records for tau in rec.trajectories]
    mean_bfs = sum(dist[s] for s in starts) / len(starts)
    ratio = report.mean_path_length / mean_bfs

    ok = ratio <= 1.5 and report.success_rate >= 0.95 and t_train < 60.0
    assert _verdict(
        4,
        ok,
        f"success {report.success_rate:.3f} (need 0.95), length ratio {ratio:.2f}x bfs "
        f"(need 1.5), trained in {t_train:.1f}s (budget 60s)",
    )


@pytest.mark.slow
def test_criterion_5_counter_updates_undercut_mc_by_an_order_of_magnitude():
    grid = gen_map(50, 50, 0.2, None, 25, 7)
    world = WorldConfig(n_agents=1, horizon=default_horizon(50, 50))
    _, _, egt_stats = train(grid, world, EGTParams(episodes=10000), RCFG, np.random.default_rng(3))
    _, _, mc_stats = mc_train(grid, world, RCFG, LearnParams(episodes=10000), np.random.default_rng(3))
    ok = egt_stats.policy_updates <= 0.1 * mc_stats.policy_updates
    assert _verdict(
        5,
        ok,
        f"matched 10k-episode budgets: counter updates {egt_stats.policy_updates} vs "
        f"mc {mc_stats.policy_updates} ({mc_stats.policy_updates / max(egt_stats.policy_updates, 1):.0f}x)",
    )


@pytest.mark.slow
def test_criterion_6_trained_policy_resists_invasion():
    grid = gen_map(*C4_GRID_ARGS)
    world = WorldConfig(n_agents=1, horizon=default_horizon(20, 20))
    report = ess_test(
        grid, world, EGTParams(episodes=C4_EPISODES), RCFG, 0.1, 0.1, np.random.default_rng(0)
    )

    # self-invasion control: the incumbent invades itself, no extra training
    params20 = EGTParams(episodes=20_000)
    incumbent, _, _ = train(grid, world, params20, RCFG, np.random.default_rng(5))
    control = ess_test(
        grid, world, params20, RCFG, 0.1, 0.0, np.random.default_rng(5), invader=incumbent
    )

    ok = (
        report.argmax_agreement >= 0.95
        and report.fitness_after >= report.fitness_before - 0.05
        and control.argmax_agreement == 1.0
        and control.extra_episodes == 0
    )
    assert _verdict(
        6,
        ok,
        f"invasion agreement {report.argmax_agreement:.3f} (need 0.95), fitness "
        f"{report.fitness_before:.4f} -> {report.fitness_after:.4f} (tolerance 0.05); "
        f"control agreement {control.argmax_agreement:.3f} with {control.extra_episodes} extra episodes",
    )


def test_criterion_7_invariant_suites():
    grid = parse_map("GSSSS\nS#SSS\nSSSSS\nSSS#S\nSSSSG\n")
    rng = np.random.default_rng(77)

    # policy rows stay normalized for random counter tables
    worst_row_error = 0.0
    for _ in range(200):
        table = CounterTable(grid)
        for cell in grid.free_cells():
            for a in range(5):
                if rng.random() < 0.6:
                    table.add(cell, Action(a), int(rng.integers(-5, 6)))
        policy = construct_policy(table, float(rng.choice([0.0, 0.05, 0.3])), grid)
        for cell in grid.free_cells():
            worst_row_error = max(worst_row_error, abs(sum(policy.probs_at(cell)) - 1.0))
    norm_ok = worst_row_error <= 1e-9

    # acceptance probabilities live in [0, 1] across 1e5 parameter draws
    us = 1.0 + rng.exponential(2.0, 100_000)
    etas = rng.uniform(1.0, 2.0, 100_000)
    alphas = rng.uniform(1.000001, 8.0, 100_000)
    prob_ok = all(
        0.0 <= success_update_probability(u, eta, alpha) <= 1.0
        for u, eta, alpha in zip(us.tolist(), etas.tolist(), alphas.tolist())
    )

    # goal-reaching trajectories never beat the Manhattan bound
    world = WorldConfig(n_agents=1, horizon=24)
    uniform = Policy.uniform(grid)
    reached = []
    while len(reached) < 500:
        rec = rollout(grid, world, RCFG, uniform, rng)
        reached.extend(t for t in rec.trajectories if t.reached_goal)
    fitness_ok = all(fitness(t) >= 1.0 for t in reached)

    # reward is positive exactly on goal arrivals
    sign_ok = True
    for fixture in ("GSSSS\nS#SSS\nSSSSS\nSSS#S\nSSSSG\n", "G...S\n", "GS\n..\n"):
        g = parse_map(fixture)
        for cell in g.free_cells():
            for a in range(5):
                tgt, blocked = transition(cell, a, g.width, g.height, g.obstacles)
                nxt = cell if blocked else tgt
                r = reward(cell, Action(a), nxt, g, blocked, RCFG)
                sign_ok = sign_ok and ((r > 0) == (nxt in g.goals))
                # agent-level block: stays put without the map penalty
                r_held = reward(cell, Action(a), cell, g, False, RCFG)
                sign_ok = sign_ok and ((r_held > 0) == (cell in g.goals))

    # trajectory hazard distance equals the brute-force double loop
    dist_ok = True
    for _ in range(1000):
        w = int(rng.integers(2, 7))
        h = int(rng.integers(2, 7))
        cells = [(x, y) for y in range(h) for x in range(w)]
        obstacles = {c for c in cells if rng.random() < 0.25}
        free = [c for c in cells if c not in obstacles]
        if not free:
            continue
        goal = free[int(rng.integers(len(free)))]
        reach = bfs_distance(w, h, obstacles, {goal})
        starts = [c for c in free if c in reach and c != goal]
        if not starts:
            continue
        rows = [
            "".join(
                "#" if (x, y) in obstacles
                else "G" if (x, y) == goal
                else "S" if (x, y) == starts[0]
                else "."
                for x in range(w)
            )
            for y in range(h)
        ]
        g = parse_map("\n".join(rows) + "\n")
        n_ticks = int(rng.integers(1, 6))
        positions = [free[int(rng.integers(len(free)))] for _ in range(n_ticks)]
        others = [
            [free[int(rng.integers(len(free)))] for _ in range(int(rng.integers(0, 3)))]
            for _ in range(n_ticks)
        ]
        tau = Trajectory(steps=[(c, Action.STAY) for c in positions[:-1]], final=positions[-1], reached_goal=False)
        got = min_obstacle_distance(tau, g, others=others)
        dist_ok = dist_ok and got == min_hazard_distance(positions, w, h, obstacles, others)

    ok = norm_ok and prob_ok and fitness_ok and sign_ok and dist_ok
    assert _verdict(
        7,
        ok,
        f"normalization max row error {worst_row_error:.1e} (cap 1e-9); update probabilities "
        f"in [0,1]: {prob_ok}; fitness >= 1 on {len(reached)} goal runs: {fitness_ok}; "
        f"reward sign: {sign_ok}; hazard distance vs brute force: {dist_ok}",
    )


def test_criterion_8_grid_sweep_is_byte_deterministic(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "algorithm=egt\nseed=5\ntiming=off\nmap.density=0.2\nmap.goals=1\n"
        "egt.episodes=200\neval.episodes=10\n"
        "sweep.values=10,20\nsweep.algorithms=astar,egt\n"
    )
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = cli_main(["sweep-grid", "--config", str(cfg), "--out", str(a)])
    code_b = cli_main(["sweep-grid", "--config", str(cfg), "--out", str(b)])
    same = a.read_bytes() == b.read_bytes()
    same_summary = (tmp_path / "a_summary.csv").read_bytes() == (tmp_path / "b_summary.csv").read_bytes()
    ok = code_a == 0 and code_b == 0 and same and same_summary
    assert _verdict(
        8, ok, f"sweep-grid sizes 10,20 run twice: data identical {same}, summary identical {same_summary}"
    )


def _summary_cells(summary: str):
    cells = {}
    for line in summary.strip().splitlines()[1:]:
        parts = line.split(",")
        cells[(parts[0], int(parts[2]))] = parts
    return cells


@pytest.mark.slow
def test_criterion_9_scaling_trends():
    base_grid = parse_config_text(
        "algorithm=egt\nseed=11\ntiming=off\nmap.density=0.2\nmap.goals=1\n"
        "egt.episodes=auto\neval.episodes=25\n"
    )
    spec = SweepSpec(axis="grid_size", values=(20, 50, 100), algorithms=("astar", "egt"))
    _, summary = run_sweep(spec, base_grid)
    cells = _summary_cells(summary)
    monotone = all(
        float(cells[(algo, 20)][4]) <= float(cells[(algo, 50)][4]) <= float(cells[(algo, 100)][4])
        for algo in ("astar", "egt")
    )
    lengths = {a: [float(cells[(a, v)][4]) for v in (20, 50, 100)] for a in ("astar", "egt")}

    base_agents = parse_config_text(
        "algorithm=egt\nseed=11\ntiming=wall\nmap.width=100\nmap.height=100\n"
        "map.density=0.2\nmap.goals=100\negt.episodes=auto\neval.episodes=25\n"
    )
    spec_a = SweepSpec(axis="n_agents", values=(2, 10, 50), algorithms=("astar", "egt"))
    _, summary_a = run_sweep(spec_a, base_agents)
    cells_a = _summary_cells(summary_a)

    def total_time(algo, value):
        parts = cells_a[(algo, value)]
        return float(parts[9]) + float(parts[10])

    egt_ratio = total_time("egt", 50) / total_time("egt", 2)
    astar_ratio = total_time("astar", 50) / total_time("astar", 2)
    sublinear = egt_ratio < astar_ratio

    ok = monotone and sublinear
    assert _verdict(
        9,
        ok,
        f"mean path lengths over sizes 20/50/100: astar {lengths['astar']}, egt {lengths['egt']} "
        f"(nondecreasing {monotone}); 2->50 agent total-time growth: egt {egt_ratio:.2f}x vs "
        f"astar {astar_ratio:.2f}x (sublinear {sublinear})",
    )

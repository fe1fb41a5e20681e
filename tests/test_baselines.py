"""Planner and tabular learners checked against BFS / value-iteration oracles."""
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evopath import baselines
from evopath.baselines import (
    LearnParams,
    PlanResult,
    QTable,
    astar_plan,
    epsilon_greedy_policy,
    mc_train,
    q_train,
)
from evopath.bench import GenerationError, gen_map
from evopath.gridworld import (
    Action,
    GridMap,
    InvalidJointStateError,
    InvalidStateError,
    RewardConfig,
    StepEvent,
    WorldConfig,
    parse_map,
    reward,
    step,
)
from oracles import (
    bfs_distance,
    joint_makespan_two,
    plan_conflicts,
    reference_astar_plan,
    reference_tabular,
    survival_end,
    value_iteration,
)

UP, DOWN, LEFT, RIGHT, STAY = Action

GOAL_BR = "SSSSS\nSSSSS\nSSSSS\nSSSSS\nSSSSG\n"
DETOUR = "SSSSS\nS###S\nSSSSS\nSS#SS\nSSSSG\n"
DETOUR_OBSTACLES = {(1, 1), (2, 1), (3, 1), (2, 3)}
# one-lane corridor, both goals on the left; the second agent convoys behind
CONVOY = "GSSSS\n.G###\n"


def vi_tables(width, height, obstacles, goals, gamma=0.95):
    q, v = value_iteration(width, height, obstacles, goals, -1.0, -5.0, 100.0, gamma)
    return q, v


def vi_optimal(q, cell, action):
    return q[(cell, int(action))] >= max(q[(cell, a)] for a in range(5)) - 1e-9


# -- params --------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"learning_rate": 1.5},
        {"discount": -0.1},
        {"discount": 1.1},
        {"explore": 1.2},
        {"explore": 0.1, "explore_end": 0.2},
        {"explore_decay_episodes": -1},
        {"episodes": -1},
        {"time_budget_s": 0.0},
    ],
)
def test_learn_params_validation(kwargs):
    with pytest.raises(ValueError):
        LearnParams(**kwargs)


def test_epsilon_schedule_linear_decay():
    p = LearnParams(explore=1.0, explore_end=0.05, episodes=100)
    assert p.epsilon_at(0) == 1.0
    assert p.epsilon_at(50) == pytest.approx(0.525)
    assert p.epsilon_at(100) == pytest.approx(0.05)
    assert p.epsilon_at(500) == pytest.approx(0.05)


def test_epsilon_schedule_explicit_and_immediate():
    p = LearnParams(explore=0.8, explore_end=0.2, explore_decay_episodes=10, episodes=1000)
    assert p.epsilon_at(5) == pytest.approx(0.5)
    assert p.epsilon_at(10) == pytest.approx(0.2)
    immediate = LearnParams(explore=0.8, explore_end=0.2, explore_decay_episodes=0)
    assert immediate.epsilon_at(0) == pytest.approx(0.2)


# -- q table -------------------------------------------------------------------


def test_qtable_defaults_to_zero_and_stores_values():
    table = QTable(parse_map(GOAL_BR))
    assert table.get((2, 2), UP) == 0.0
    table.set((2, 2), UP, -3.25)
    assert table.get((2, 2), UP) == -3.25


def test_qtable_rejects_non_finite_and_non_free():
    grid = parse_map(DETOUR)
    table = QTable(grid)
    with pytest.raises(ValueError):
        table.set((0, 0), UP, math.nan)
    with pytest.raises(InvalidStateError):
        table.get((1, 1), UP)
    bad = np.zeros((grid.n_cells, 5))
    bad[grid.cell_id((0, 0)), 0] = math.inf
    with pytest.raises(ValueError):
        QTable(grid, bad)


def test_qtable_greedy_ties_prefer_lower_action_index():
    table = QTable(parse_map(GOAL_BR))
    assert table.greedy_action((1, 1)) == UP
    table.set((1, 1), STAY, 2.0)
    table.set((1, 1), LEFT, 2.0)
    assert table.greedy_action((1, 1)) == LEFT


def test_qtable_snapshot_round_trip():
    grid = parse_map(GOAL_BR)
    table = QTable(grid)
    table.set((3, 1), RIGHT, 1.5)
    table.set((0, 4), STAY, -0.125)
    text = table.to_text()
    assert "3 1 right 1.500000" in text.splitlines()
    back = QTable.from_text(grid, text)
    assert back.to_text() == text
    with pytest.raises(ValueError):
        QTable.from_text(grid, "0 0 up\n")


def test_qtable_copy_is_independent():
    table = QTable(parse_map(GOAL_BR))
    dup = table.copy()
    dup.set((0, 0), UP, 9.0)
    assert table.get((0, 0), UP) == 0.0


# -- epsilon-greedy extraction ---------------------------------------------------


def test_epsilon_greedy_policy_mass():
    grid = parse_map(GOAL_BR)
    table = QTable(grid)
    table.set((2, 3), DOWN, 1.0)
    pol = epsilon_greedy_policy(table, 0.1)
    assert pol.probs_at((2, 3)) == pytest.approx([0.02, 0.92, 0.02, 0.02, 0.02])
    # all-zero rows fall to the lowest action index
    assert pol.probs_at((1, 1)) == pytest.approx([0.92, 0.02, 0.02, 0.02, 0.02])
    with pytest.raises(ValueError):
        epsilon_greedy_policy(table, -0.1)


# -- planner ---------------------------------------------------------------------


def test_plan_empty_room_takes_manhattan_optimum():
    res = astar_plan(parse_map(GOAL_BR), [(0, 0)], 20)
    assert res.success == (True,)
    assert len(res.paths[0]) == 9
    assert res.makespan == 8
    assert res.paths[0][0] == (0, 0) and res.paths[0][-1] == (4, 4)


@pytest.mark.parametrize("start", [(0, 0), (2, 0), (0, 2), (4, 0), (0, 4)])
def test_plan_detour_matches_bfs_oracle(start):
    dist = bfs_distance(5, 5, DETOUR_OBSTACLES, {(4, 4)})
    res = astar_plan(parse_map(DETOUR), [start], 30)
    assert res.success[0]
    assert len(res.paths[0]) - 1 == dist[start]


def test_plan_corridor_convoy_matches_joint_oracle():
    grid = parse_map(CONVOY)
    res = astar_plan(grid, [(3, 0), (4, 0)], 12)
    assert res.success == (True, True)
    assert plan_conflicts(res.paths, res.success, 12) == []
    oracle = joint_makespan_two(
        5, 2, {(2, 1), (3, 1), (4, 1)}, [(3, 0), (4, 0)], {(0, 0), (1, 1)}, 12
    )
    assert res.makespan == oracle == 4


def test_plan_unreachable_goal_reports_failure_with_survival_path():
    # planning from a free pocket sealed away from the goal: survive, not arrive
    grid = parse_map("GS#.\nSS#.\n")
    res = astar_plan(grid, [(3, 0)], 8)
    assert res.success == (False,)
    assert all(grid.is_free(c) for c in res.paths[0])
    assert res.paths[0][0] == (3, 0)
    assert set(res.paths[0]) <= {(3, 0), (3, 1)}


def test_plan_single_goal_two_agents_second_fails_without_colliding():
    grid = parse_map("GSS\n")
    res = astar_plan(grid, [(1, 0), (2, 0)], 6)
    assert res.success == (True, False)
    assert plan_conflicts(res.paths, res.success, 6) == []
    assert (0, 0) not in res.paths[1]


def test_plan_zero_horizon():
    grid = parse_map("GS\n")
    on_goal = astar_plan(parse_map("GS\n"), [(1, 0)], 0)
    assert on_goal.success == (False,)
    assert on_goal.paths == (((1, 0),),)
    del grid


def test_plan_argument_validation():
    grid = parse_map(DETOUR)
    with pytest.raises(ValueError):
        astar_plan(grid, [(0, 0)], -1)
    with pytest.raises(ValueError):
        astar_plan(grid, [], 5)
    with pytest.raises(InvalidStateError):
        astar_plan(grid, [(1, 1)], 5)
    with pytest.raises(InvalidJointStateError):
        astar_plan(grid, [(0, 0), (0, 0)], 5)


def test_plan_result_export_lines():
    res = PlanResult(paths=(((0, 0), (1, 0)),), success=(True,), expanded=3)
    assert res.to_text() == "0 0 0 0\n0 1 1 0\n"


@st.composite
def random_instances(draw):
    # starts are restricted to goal-reaching cells so the map validates
    width = draw(st.integers(3, 6))
    height = draw(st.integers(3, 6))
    cells = [(x, y) for y in range(height) for x in range(width)]
    obstacles = {
        c for c in cells if c != (width - 1, height - 1) and draw(st.booleans())
    }
    free = [c for c in cells if c not in obstacles]
    goals = {(width - 1, height - 1)}
    extra_goal = draw(st.sampled_from(free))
    goals.add(extra_goal)
    reachable = bfs_distance(width, height, obstacles, goals)
    candidates = sorted(c for c in reachable if c not in goals)
    assume(candidates)
    n_agents = draw(st.integers(1, min(3, len(candidates))))
    starts = draw(
        st.lists(
            st.sampled_from(candidates),
            min_size=n_agents,
            max_size=n_agents,
            unique=True,
        )
    )
    rows = []
    for y in range(height):
        row = ""
        for x in range(width):
            if (x, y) in obstacles:
                row += "#"
            elif (x, y) in goals:
                row += "G"
            elif (x, y) in reachable:
                row += "S"
            else:
                row += "."
        rows.append(row)
    return "\n".join(rows) + "\n", obstacles, goals, starts, width, height


def check_plan(grid, starts, horizon):
    """Plan, then check conflicts, moves, goals and where failed agents end."""
    res = astar_plan(grid, starts, horizon)
    assert plan_conflicts(res.paths, res.success, horizon) == []
    for i, (path, ok, start) in enumerate(zip(res.paths, res.success, starts)):
        assert path[0] == start
        assert len(path) <= horizon + 1
        for a, b in zip(path, path[1:]):
            assert abs(a[0] - b[0]) + abs(a[1] - b[1]) <= 1
            assert grid.is_free(b)
        if ok:
            assert path[-1] in grid.goals
        else:
            end = survival_end(res.paths, i, horizon, grid.width, grid.height, grid.obstacles)
            assert (path[-1], len(path) - 1) == end
    return res


@settings(max_examples=80, deadline=None)
@given(random_instances())
def test_plan_fuzz_respects_invariants(instance):
    text, obstacles, goals, starts, width, height = instance
    grid = parse_map(text)
    horizon = 3 * (width + height)
    res = check_plan(grid, starts, horizon)
    dist = bfs_distance(width, height, obstacles, goals)
    # a lone agent on a connected instance is exactly BFS-optimal
    if len(starts) == 1 and starts[0] in dist:
        assert res.success[0]
        assert len(res.paths[0]) - 1 == dist[starts[0]]


def test_crowded_plan_fuzz_ends_failed_agents_where_the_survival_rule_says():
    # more agents than goals, so every plan has failed agents
    rng = np.random.default_rng(2024)
    failed = 0
    for k in range(40):
        width, height = (int(v) for v in rng.integers(5, 10, 2))
        n_goals = int(rng.integers(1, 4))
        grid = gen_map(width, height, float(rng.choice([0.1, 0.2, 0.3])), None, n_goals, 7100 + k)
        cells = list(grid.starts)
        n_agents = min(len(cells), n_goals + int(rng.integers(1, 6)))
        starts = [cells[j] for j in rng.permutation(len(cells))[:n_agents]]
        res = check_plan(grid, starts, 2 * (width + height))
        failed += res.success.count(False)
    assert failed >= 40


def count_sweeps(monkeypatch):
    """Wrap the planner's layered sweep; the returned list grows by one per sweep."""
    calls = []
    inner = baselines._exhaust

    def counted(*args):
        calls.append(args[1])
        return inner(*args)

    monkeypatch.setattr(baselines, "_exhaust", counted)
    return calls


def test_plan_matches_the_reference_planner_exactly(monkeypatch):
    # starts from every free cell: some sit on goals, some in pockets no goal
    # reaches; up to 11 agents on 1-5 goals, so many plans have failed agents
    sweeps = count_sweeps(monkeypatch)
    rng = np.random.default_rng(2212)
    failed = short = 0
    for k in range(240):
        side = int(rng.integers(4, 17))
        n_goals = int(rng.integers(1, 6))
        grid = gen_map(side, side, float(rng.choice([0.1, 0.2, 0.3])), None, n_goals, 8200 + k)
        cells = grid.free_cells()
        n_agents = min(len(cells), int(rng.integers(1, 12)))
        starts = [cells[j] for j in rng.permutation(len(cells))[:n_agents]]
        horizon = int(rng.choice([0, 1, side, 4 * side]))
        res = astar_plan(grid, starts, horizon)
        assert (res.paths, res.success, res.expanded) == reference_astar_plan(grid, starts, horizon)
        if horizon <= 1:
            short += 1
        else:
            failed += res.success.count(False)
    assert short >= 60
    assert failed >= 200  # agents that fail with time to spare, not for want of ticks
    assert len(sweeps) >= 300  # agents whose result the layered sweep computed


def test_crowded_plan_sweep_matches_the_reference_planner(monkeypatch):
    # more agents than goals and a long horizon: later agents find every goal
    # parked on, and earlier agents' moves fill eres with swaps to respect
    sweeps = count_sweeps(monkeypatch)
    rng = np.random.default_rng(1402)
    for k in range(12):
        side = int(rng.integers(20, 41))
        n_goals = int(rng.integers(1, 4))
        grid = gen_map(side, side, float(rng.choice([0.1, 0.2, 0.3])), None, n_goals, 9400 + k)
        cells = list(grid.starts)
        n_agents = n_goals + int(rng.integers(2, 5))
        starts = [cells[j] for j in rng.permutation(len(cells))[:n_agents]]
        horizon = 4 * side
        res = astar_plan(grid, starts, horizon)
        assert (res.paths, res.success, res.expanded) == reference_astar_plan(grid, starts, horizon)
    assert len(sweeps) >= 24


# -- q-learning ------------------------------------------------------------------


def test_q_single_update_hand_value():
    # one step up from the lone start, non-goal landing: 0 + 0.5 * (-1 + 0.9 * 0)
    grid = parse_map("G....\n.....\nS....\n")
    world = WorldConfig(n_agents=1, horizon=1)
    params = LearnParams(
        learning_rate=0.5, discount=0.9, explore=0.0, explore_end=0.0, episodes=1
    )
    table, _, stats = q_train(grid, world, RewardConfig(), params, np.random.default_rng(0))
    assert table.get((0, 2), UP) == pytest.approx(-0.5)
    assert stats.policy_updates == 1
    assert stats.goal_reach_count == 0


def test_q_terminal_update_hand_value():
    # goal arrival bootstraps as zero: alpha=1 writes the raw reward
    grid = parse_map("G\nS\n")
    world = WorldConfig(n_agents=1, horizon=4)
    params = LearnParams(
        learning_rate=1.0, discount=0.7, explore=0.0, explore_end=0.0, episodes=1
    )
    table, _, stats = q_train(grid, world, RewardConfig(), params, np.random.default_rng(0))
    assert table.get((0, 1), UP) == pytest.approx(100.0)
    assert stats.policy_updates == 1
    assert stats.goal_reach_count == 1


def test_q_blocked_update_hand_value():
    # up from the top row hits the boundary: 0.5 * (-5 + 0.9 * 0)
    grid = parse_map("GS\n")
    world = WorldConfig(n_agents=1, horizon=1)
    params = LearnParams(
        learning_rate=0.5, discount=0.9, explore=0.0, explore_end=0.0, episodes=1
    )
    table, _, stats = q_train(grid, world, RewardConfig(), params, np.random.default_rng(0))
    assert table.get((1, 0), UP) == pytest.approx(-2.5)
    assert stats.policy_updates == 1


def test_q_learns_vi_optimal_policy_on_open_room():
    q_vi, _ = vi_tables(5, 5, set(), {(4, 4)})
    grid = parse_map(GOAL_BR)
    world = WorldConfig(n_agents=1, horizon=20)
    table, policy, stats = q_train(
        grid, world, RewardConfig(), LearnParams(), np.random.default_rng(0)
    )
    for cell in grid.free_cells():
        if cell == (4, 4):
            continue
        assert vi_optimal(q_vi, cell, table.greedy_action(cell)), cell
    assert stats.episodes_run == 10000
    assert stats.policy_updates <= stats.episodes_run * world.horizon


def test_q_fixed_point_has_zero_residual():
    # the value-iteration table is stationary under the product's own
    # transition and reward conventions
    gamma = 0.95
    q_vi, _ = vi_tables(5, 5, DETOUR_OBSTACLES, {(4, 4)}, gamma)
    grid = parse_map(DETOUR)
    arr = np.zeros((grid.n_cells, 5))
    for (cell, a), v in q_vi.items():
        arr[grid.cell_id(cell), a] = v
    table = QTable(grid, arr)
    cfg = RewardConfig()
    for cell in grid.free_cells():
        if cell == (4, 4):
            continue
        for a in range(5):
            out = step(grid, [cell], [Action(a)])
            nxt = out.next_cells[0]
            blocked = bool(out.events[0] & StepEvent.BLOCKED_BY_MAP)
            r = reward(cell, Action(a), nxt, grid, blocked, cfg)
            boot = 0.0 if nxt in grid.goals else max(table.get(nxt, Action(b)) for b in range(5))
            residual = r + gamma * boot - table.get(cell, Action(a))
            assert abs(residual) < 1e-6, (cell, a, residual)


# -- monte carlo -----------------------------------------------------------------


def test_mc_single_episode_records_discounted_returns():
    # forced two-step path: returns 100 at the last step, -1 + 0.5 * 100 before
    grid = parse_map("G\n.\nS\n")
    world = WorldConfig(n_agents=1, horizon=5)
    params = LearnParams(discount=0.5, explore=0.0, explore_end=0.0, episodes=1)
    table, _, stats = mc_train(grid, world, RewardConfig(), params, np.random.default_rng(0))
    assert table.get((0, 2), UP) == pytest.approx(49.0)
    assert table.get((0, 1), UP) == pytest.approx(100.0)
    assert stats.policy_updates == 2
    assert stats.goal_reach_count == 1


def test_mc_two_episodes_average_first_visit_returns():
    grid = parse_map("G\nS\n")
    world = WorldConfig(n_agents=1, horizon=3)
    params = LearnParams(discount=1.0, explore=0.0, explore_end=0.0, episodes=2)
    table, _, stats = mc_train(grid, world, RewardConfig(), params, np.random.default_rng(0))
    # both episodes take the same single step, so the average stays at 100
    assert table.get((0, 1), UP) == pytest.approx(100.0)
    assert stats.policy_updates == 2


def test_mc_learns_vi_optimal_policy_on_open_room():
    q_vi, _ = vi_tables(5, 5, set(), {(4, 4)})
    grid = parse_map(GOAL_BR)
    world = WorldConfig(n_agents=1, horizon=20)
    table, policy, stats = mc_train(
        grid, world, RewardConfig(), LearnParams(episodes=20000), np.random.default_rng(0)
    )
    free = [c for c in grid.free_cells() if c != (4, 4)]
    optimal = sum(vi_optimal(q_vi, c, table.greedy_action(c)) for c in free)
    assert optimal >= math.ceil(0.95 * len(free))
    assert stats.episodes_run == 20000


# -- shared learner behavior -------------------------------------------------------


@pytest.mark.parametrize("trainer", [q_train, mc_train])
def test_learners_are_seed_deterministic(trainer):
    grid = parse_map(DETOUR)
    world = WorldConfig(n_agents=2, horizon=15)
    params = LearnParams(episodes=300)
    runs = []
    for _ in range(2):
        table, policy, stats = trainer(
            grid, world, RewardConfig(), params, np.random.default_rng(11)
        )
        runs.append((table.to_text(), policy.to_text(),
                     stats.episodes_run, stats.policy_updates, stats.goal_reach_count))
    assert runs[0] == runs[1]


@pytest.mark.parametrize("method, trainer", [("q", q_train), ("mc", mc_train)])
def test_tabular_learners_match_the_scalar_reference(method, trainer):
    # small crowded boards whose goals are starts too, so some agents start
    # parked; epsilon 1 makes every turn draw its random action
    rng = np.random.default_rng(777)
    for noise in (0.0, 0.3, 1.0):
        checked = 0
        while checked < 8:
            w, h = (int(v) for v in rng.integers(3, 8, size=2))
            try:
                base = gen_map(w, h, 0.15, None, int(rng.integers(1, 3)), int(rng.integers(1 << 30)))
            except GenerationError:
                continue
            grid = GridMap(w, h, base.obstacles, base.goals, [*base.starts, *sorted(base.goals)])
            n_agents = int(rng.integers(1, min(8, len(grid.starts)) + 1))
            world = WorldConfig(n_agents=n_agents, horizon=int(rng.integers(1, 2 * (w + h))),
                                action_noise=noise)
            explore_end = 1.0 if checked % 2 else 0.05
            params = LearnParams(explore_end=explore_end, episodes=int(rng.integers(1, 25)))
            seed = int(rng.integers(1 << 30))
            # the default levels, and others that a rule reading the defaults would miss
            for rewards in (RewardConfig(), RewardConfig(delta1=-0.25, delta2=-3.5, delta3=7.0)):
                run, twin = np.random.default_rng(seed), np.random.default_rng(seed)
                table, _policy, _stats = trainer(grid, world, rewards, params, run)
                ref = reference_tabular(grid, world, rewards, params, twin, method)
                assert table._values.tolist() == ref.tolist(), (
                    f"{w}x{h}, {n_agents} agents, noise {noise}, explore_end {explore_end}, "
                    f"{rewards}:\n{grid.to_text()}"
                )
                # the reference spawned params.episodes children, one per episode
                assert run.spawn(1)[0].random() == twin.spawn(1)[0].random()
            checked += 1


@pytest.mark.parametrize("trainer", [q_train, mc_train])
def test_learners_stop_on_time_budget(trainer):
    grid = parse_map(GOAL_BR)
    world = WorldConfig(n_agents=1, horizon=20)
    params = LearnParams(episodes=10**6, time_budget_s=0.05)
    table, policy, stats = trainer(
        grid, world, RewardConfig(), params, np.random.default_rng(0)
    )
    assert 0 < stats.episodes_run < 10**6
    assert stats.wall_time < 5.0


@pytest.mark.parametrize("trainer", [q_train, mc_train])
def test_learners_handle_zero_episodes(trainer):
    grid = parse_map(GOAL_BR)
    world = WorldConfig(n_agents=1, horizon=20)
    params = LearnParams(episodes=0)
    table, policy, stats = trainer(
        grid, world, RewardConfig(), params, np.random.default_rng(0)
    )
    assert stats.episodes_run == 0 and stats.policy_updates == 0
    assert table.get((0, 0), UP) == 0.0

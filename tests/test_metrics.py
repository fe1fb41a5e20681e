"""Rollout and measurement suite checked against brute-force distance and
exact absorbing-chain oracles."""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from evopath.bench import GenerationError, gen_map
from evopath.egt import (
    Policy, TrainingStats, Trajectory, _draw_batch, _evaluate_fitness, _run_episodes, fitness,
)
from evopath.gridworld import (
    Action, GridMap, RewardConfig, WorldConfig, _play, parse_map, sample_initial, step,
)
from evopath.metrics import (
    EpisodeRecord,
    MetricsReport,
    aggregate,
    min_obstacle_distance,
    rollout,
)
from oracles import (
    bfs_distance,
    chain_success_probability,
    min_hazard_distance,
    reference_rollout,
    reference_step,
    transition,
)

UP, DOWN, LEFT, RIGHT, STAY = Action

EMPTY5 = "G....\n.....\n.....\n.....\n....S\n"
# 2x2 room, the only start one move from the goal
TWO_BY_TWO = "GS\n..\n"
# single goal in the middle; whoever arrives first parks on it
CONTESTED = "SGS"
# one-lane corridor, both agents pushing right
LANE = "SSG"

RCFG = RewardConfig()
D1, D2, D3 = RCFG.delta1, RCFG.delta2, RCFG.delta3


def point_mass(grid, action_of):
    rows = {}
    for cell in grid.free_cells():
        probs = [0.0] * 5
        probs[int(action_of(cell))] = 1.0
        rows[cell] = tuple(probs)
    return Policy.from_mapping(grid, rows)


def stay_tau(cell, n_steps, reached=False):
    return Trajectory(steps=[(cell, STAY)] * n_steps, final=cell, reached_goal=reached)


def make_record(specs, dmins=None):
    # specs: (start, n_steps, reached) per agent-episode
    taus = tuple(stay_tau(c, n, ok) for c, n, ok in specs)
    if dmins is None:
        dmins = tuple(0 for _ in specs)
    zeros = tuple(0.0 for _ in specs)
    return EpisodeRecord(
        trajectories=taus,
        returns=zeros,
        cumulative_return=0.0,
        min_obstacle_distances=tuple(dmins),
    )


def position_at(tau, t):
    return tau.steps[t][0] if t < len(tau.steps) else tau.final


# -- min_obstacle_distance -------------------------------------------------------


def test_stationary_center_of_empty_room_is_ring_distance():
    grid = parse_map(EMPTY5)
    tau = Trajectory(steps=[], final=(2, 2), reached_goal=False)
    assert min_obstacle_distance(tau, grid) == 3


def test_corner_cell_is_distance_one_from_the_ring():
    grid = parse_map(EMPTY5)
    assert min_obstacle_distance(stay_tau((4, 4), 2), grid) == 1


def test_adjacent_obstacle_gives_distance_one():
    grid = parse_map("G....\n.....\n..#..\n.....\n....S\n")
    tau = Trajectory(steps=[], final=(2, 1), reached_goal=False)
    assert min_obstacle_distance(tau, grid) == 1


def test_minimum_is_taken_over_all_ticks():
    grid = parse_map(EMPTY5)
    # walks from the center to the edge; only the last tick is close
    tau = Trajectory(
        steps=[((2, 2), UP), ((2, 1), UP)], final=(2, 0), reached_goal=False
    )
    assert min_obstacle_distance(tau, grid) == 1


def test_co_temporal_agent_lowers_the_distance():
    grid = parse_map(EMPTY5)
    tau = Trajectory(steps=[], final=(2, 2), reached_goal=False)
    assert min_obstacle_distance(tau, grid, others=[[(2, 3)]]) == 1


def test_distant_agent_leaves_ring_distance():
    grid = parse_map(EMPTY5)
    tau = Trajectory(steps=[], final=(2, 2), reached_goal=False)
    assert min_obstacle_distance(tau, grid, others=[[(4, 4)], [(4, 4)]]) == 3


def test_others_must_cover_every_tick():
    grid = parse_map(EMPTY5)
    tau = stay_tau((2, 2), 3)
    with pytest.raises(ValueError):
        min_obstacle_distance(tau, grid, others=[[(0, 0)]] * 3)


@st.composite
def distance_cases(draw):
    width = draw(st.integers(2, 6))
    height = draw(st.integers(2, 6))
    cells = [(x, y) for y in range(height) for x in range(width)]
    obstacles = {c for c in cells if c != (0, 0) and draw(st.booleans())}
    free = [c for c in cells if c not in obstacles]
    n_ticks = draw(st.integers(1, 5))
    positions = [draw(st.sampled_from(free)) for _ in range(n_ticks)]
    others = [
        [draw(st.sampled_from(free)) for _ in range(draw(st.integers(0, 2)))]
        for _ in range(n_ticks)
    ]
    return width, height, obstacles, positions, others


@given(distance_cases())
@settings(max_examples=120)
def test_distance_matches_brute_force(case):
    width, height, obstacles, positions, others = case
    rows = [
        "".join(
            "#" if (x, y) in obstacles else ("G" if (x, y) == (0, 0) else ".")
            for x in range(width)
        )
        for y in range(height)
    ]
    rows[-1] = rows[-1][:-1] + ("S" if (width - 1, height - 1) not in obstacles else rows[-1][-1])
    assume((width - 1, height - 1) not in obstacles)
    assume((width - 1, height - 1) in bfs_distance(width, height, obstacles, {(0, 0)}))
    grid = parse_map("\n".join(rows) + "\n")
    steps = [(c, STAY) for c in positions[:-1]]
    tau = Trajectory(steps=steps, final=positions[-1], reached_goal=False)
    got = min_obstacle_distance(tau, grid, others=others)
    assert got == min_hazard_distance(positions, width, height, obstacles, others)
    assert got >= 0


# -- rollout ---------------------------------------------------------------------


def test_stay_forever_runs_the_full_horizon_without_success():
    grid = parse_map("GS\nSS\n")
    world = WorldConfig(n_agents=2, horizon=6)
    rec = rollout(grid, world, RCFG, point_mass(grid, lambda c: STAY), np.random.default_rng(3))
    for tau, ret in zip(rec.trajectories, rec.returns):
        assert not tau.reached_goal
        assert len(tau.steps) == 6
        assert all(a == STAY for _, a in tau.steps)
        assert ret == 6 * D1


def test_greedy_policy_walks_the_manhattan_distance():
    grid = parse_map(EMPTY5)
    policy = point_mass(grid, lambda c: LEFT if c[0] > 0 else UP)
    world = WorldConfig(n_agents=1, horizon=20)
    rec = rollout(grid, world, RCFG, policy, np.random.default_rng(0))
    tau = rec.trajectories[0]
    assert tau.reached_goal
    assert len(tau.steps) == 8
    assert tau.final == (0, 0)


def test_corridor_returns_counted_by_hand():
    grid = parse_map("G...S")
    world = WorldConfig(n_agents=1, horizon=8)
    rec = rollout(grid, world, RCFG, point_mass(grid, lambda c: LEFT), np.random.default_rng(1))
    assert rec.returns == (3 * D1 + D3,)
    assert rec.cumulative_return == 97.0
    assert len(rec.trajectories[0].steps) == 4


def test_map_blocked_steps_cost_the_blocked_penalty():
    grid = parse_map("G...S")
    world = WorldConfig(n_agents=1, horizon=3)
    rec = rollout(grid, world, RCFG, point_mass(grid, lambda c: UP), np.random.default_rng(1))
    tau = rec.trajectories[0]
    assert rec.returns == (3 * D2,)
    assert tau.steps == [((4, 0), UP)] * 3
    assert tau.final == (4, 0)
    assert not tau.reached_goal


def test_uniform_policy_matches_exact_chain_probability():
    # absorbing-chain enumeration over the 2x2 room gives 51/125 in 3 steps
    grid = parse_map(TWO_BY_TWO)
    exact = chain_success_probability(2, 2, [], {(0, 0)}, (1, 0), 3)
    assert exact == Fraction(51, 125)
    world = WorldConfig(n_agents=1, horizon=3)
    policy = Policy.uniform(grid)
    rng = np.random.default_rng(0)
    n = 30000
    wins = sum(
        rollout(grid, world, RCFG, policy, rng).trajectories[0].reached_goal
        for _ in range(n)
    )
    sigma = math.sqrt(float(exact) * (1 - float(exact)) / n)
    assert abs(wins / n - float(exact)) <= 4 * sigma


def test_goal_parked_agent_keeps_blocking_the_goal():
    grid = parse_map(CONTESTED)
    world = WorldConfig(n_agents=2, horizon=3)
    policy = point_mass(grid, lambda c: RIGHT if c[0] == 0 else LEFT)
    rec = rollout(grid, world, RCFG, policy, np.random.default_rng(0))
    reached = [tau.reached_goal for tau in rec.trajectories]
    assert sorted(reached) == [False, True]
    loser = rec.trajectories[reached.index(False)]
    # the loser bounces off the parked winner for the whole episode
    start = loser.steps[0][0]
    assert len(loser.steps) == 3
    assert all(cell == start for cell, _ in loser.steps)
    assert loser.final == start
    assert rec.returns[reached.index(False)] == 3 * D1


def test_cell_vacated_earlier_in_the_tick_is_enterable():
    # seed 1 assigns agent 0 to the front cell, which moves away first
    grid = parse_map(LANE)
    world = WorldConfig(n_agents=2, horizon=1)
    rec = rollout(grid, world, RCFG, point_mass(grid, lambda c: RIGHT), np.random.default_rng(1))
    assert [t.steps[0][0] for t in rec.trajectories] == [(1, 0), (0, 0)]
    assert [t.final for t in rec.trajectories] == [(2, 0), (1, 0)]
    assert rec.returns == (D3, D1)


def test_agents_resolve_moves_in_index_order():
    # seed 0 assigns agent 0 to the rear cell; it moves before the front
    # agent vacates and is collision-blocked at the agent level (no penalty)
    grid = parse_map(LANE)
    world = WorldConfig(n_agents=2, horizon=1)
    rec = rollout(grid, world, RCFG, point_mass(grid, lambda c: RIGHT), np.random.default_rng(0))
    assert [t.steps[0][0] for t in rec.trajectories] == [(0, 0), (1, 0)]
    assert [t.final for t in rec.trajectories] == [(0, 0), (2, 0)]
    assert rec.returns == (D1, D3)


def test_full_noise_resamples_only_map_permitted_actions():
    grid = parse_map("G.\nS#\n")
    policy = point_mass(grid, lambda c: RIGHT)
    rng = np.random.default_rng(5)
    rec = rollout(grid, WorldConfig(n_agents=1, horizon=8, action_noise=1.0), RCFG, policy, rng)
    for cell, action in rec.trajectories[0].steps:
        _, blocked = transition(cell, int(action), 2, 2, {(1, 1)})
        assert not blocked
    # the same policy without noise rams the wall every tick
    rec0 = rollout(grid, WorldConfig(n_agents=1, horizon=8), RCFG, policy, np.random.default_rng(5))
    assert rec0.returns == (8 * D2,)


def test_rollout_is_deterministic_given_the_seed():
    grid = parse_map("G....\nS.#..\n..#..\nS....\n")
    world = WorldConfig(n_agents=2, horizon=12, action_noise=0.2)
    policy = Policy.uniform(grid)
    a = rollout(grid, world, RCFG, policy, np.random.default_rng(42))
    b = rollout(grid, world, RCFG, policy, np.random.default_rng(42))
    assert a == b


def test_more_agents_than_starts_is_rejected():
    grid = parse_map("SG")
    with pytest.raises(ValueError):
        rollout(grid, WorldConfig(n_agents=2, horizon=2), RCFG, Policy.uniform(grid), np.random.default_rng(0))


@st.composite
def rollout_cases(draw):
    width = draw(st.integers(2, 5))
    height = draw(st.integers(2, 5))
    goal = (width - 1, height - 1)
    cells = [(x, y) for y in range(height) for x in range(width)]
    obstacles = {c for c in cells if c != goal and draw(st.booleans())}
    reachable = bfs_distance(width, height, obstacles, {goal})
    candidates = [c for c in cells if c in reachable and c != goal]
    starts = {c for c in candidates if draw(st.booleans())}
    assume(starts)
    rows = []
    for y in range(height):
        row = ""
        for x in range(width):
            if (x, y) == goal:
                row += "G"
            elif (x, y) in obstacles:
                row += "#"
            elif (x, y) in starts:
                row += "S"
            else:
                row += "."
        rows.append(row)
    grid = parse_map("\n".join(rows) + "\n")
    world = WorldConfig(
        n_agents=draw(st.integers(1, min(3, len(starts)))),
        horizon=draw(st.integers(1, 8)),
        action_noise=draw(st.sampled_from([0.0, 0.3])),
    )
    seed = draw(st.integers(0, 2**32 - 1))
    return grid, world, seed


@given(rollout_cases())
@settings(max_examples=80, deadline=None)
def test_rollout_records_obey_return_and_shape_invariants(case):
    grid, world, seed = case
    rec = rollout(grid, world, RCFG, Policy.uniform(grid), np.random.default_rng(seed))
    assert rec.cumulative_return == sum(rec.returns)
    for tau, ret in zip(rec.trajectories, rec.returns):
        L = len(tau.steps)
        if tau.reached_goal:
            assert tau.final in grid.goals
            assert 1 <= L <= world.horizon
            # one goal arrival plus L-1 per-move penalties
            assert D3 + (L - 1) * D2 <= ret <= D3 + (L - 1) * D1
        else:
            assert tau.final not in grid.goals
            assert L == world.horizon
        if ret > 0:
            assert tau.reached_goal
        positions = [position_at(tau, t) for t in range(L + 1)]
        assert positions[-1] == tau.final
        for (cell, action), nxt in zip(tau.steps, positions[1:]):
            tgt, blocked = transition(cell, int(action), grid.width, grid.height, grid.obstacles)
            assert nxt == cell if blocked else nxt in (cell, tgt)


@given(rollout_cases())
@settings(max_examples=80, deadline=None)
def test_rollout_distances_match_the_brute_force_loop(case):
    grid, world, seed = case
    rec = rollout(grid, world, RCFG, Policy.uniform(grid), np.random.default_rng(seed))
    n = len(rec.trajectories)
    for i, tau in enumerate(rec.trajectories):
        ticks = len(tau.steps) + 1
        positions = [position_at(tau, t) for t in range(ticks)]
        others = [
            [position_at(rec.trajectories[j], t) for j in range(n) if j != i]
            for t in range(ticks)
        ]
        expected = min_hazard_distance(positions, grid.width, grid.height, grid.obstacles, others)
        assert rec.min_obstacle_distances[i] == expected
        assert expected >= 0



def test_rollout_matches_reference_on_crowded_fuzzed_maps():
    # small boards packed with up to 8 agents under skewed random policies,
    # so chains of moves, swaps and frozen blockers all occur
    rng = np.random.default_rng(4242)
    for noise in (0.0, 0.3, 1.0):
        checked = 0
        while checked < 25:
            w, h = (int(v) for v in rng.integers(3, 9, size=2))
            try:
                grid = gen_map(w, h, 0.15, None, int(rng.integers(1, 3)), int(rng.integers(1 << 30)))
            except GenerationError:
                continue
            n_agents = int(rng.integers(1, min(8, len(grid.starts)) + 1))
            world = WorldConfig(n_agents=n_agents, horizon=int(rng.integers(1, 3 * (w + h))),
                                action_noise=noise)
            policy = Policy(grid, rng.dirichlet(np.full(5, 0.5), grid.n_cells))
            seed = int(rng.integers(1 << 30))
            run, ref_run = np.random.default_rng(seed), np.random.default_rng(seed)
            rec = rollout(grid, world, RCFG, policy, run)
            ref = reference_rollout(grid, world, RCFG, policy, ref_run)
            got = (
                [([(c, int(a)) for c, a in tau.steps], tau.final, tau.reached_goal)
                 for tau in rec.trajectories],
                list(rec.returns),
                list(rec.min_obstacle_distances),
            )
            assert got == ref, f"{w}x{h}, {n_agents} agents, noise {noise}:\n{grid.to_text()}"
            assert rec.cumulative_return == sum(rec.returns)
            assert run.random() == ref_run.random()
            checked += 1


@pytest.mark.parametrize("bit_generator", [np.random.MT19937, np.random.Philox, np.random.SFC64])
def test_rollout_and_step_leave_any_bit_generator_after_their_block(bit_generator):
    def triplets(seed):
        return tuple(np.random.Generator(bit_generator(seed)) for _ in range(3))

    rng = np.random.default_rng(99)
    checked = 0
    while checked < 12:
        w, h = (int(v) for v in rng.integers(3, 9, size=2))
        try:
            grid = gen_map(w, h, 0.15, None, int(rng.integers(1, 3)), int(rng.integers(1 << 30)))
        except GenerationError:
            continue
        noise = (0.0, 0.3, 1.0)[checked % 3]
        rows = 3 if noise > 0.0 else 1
        n_agents = int(rng.integers(1, min(8, len(grid.starts)) + 1))
        world = WorldConfig(n_agents=n_agents, horizon=int(rng.integers(1, 3 * (w + h))),
                            action_noise=noise)
        policy = Policy(grid, rng.dirichlet(np.full(5, 0.5), grid.n_cells))
        run, ref_run, layout = triplets(int(rng.integers(1 << 30)))
        rec = rollout(grid, world, RCFG, policy, run)
        ref = reference_rollout(grid, world, RCFG, policy, ref_run)
        assert [(tau.steps, tau.final, tau.reached_goal) for tau in rec.trajectories] == ref[0]
        # the episode's draws: start cells, then the whole (rows, T, N) block
        sample_initial(grid, n_agents, layout)
        layout.random((rows, world.horizon, n_agents))
        assert run.random() == ref_run.random() == layout.random()

        cells = grid.free_cells()
        cells = [cells[j] for j in rng.permutation(len(cells))[:n_agents]]
        actions = rng.integers(0, 5, n_agents).tolist()
        frozen = (rng.random(n_agents) < 0.3).tolist()
        out = step(grid, cells, actions, run, action_noise=noise, frozen=frozen)
        assert out.next_cells == reference_step(grid, cells, actions, ref_run, noise, frozen)
        # a noisy step draws a coin row and a pick row, frozen agents included
        layout.random((rows - 1, 1, n_agents))
        assert run.random() == ref_run.random() == layout.random()
        checked += 1

    # agents parked from the start still draw their block; calls without
    # noise or without ticks read nothing
    parked = GridMap(3, 1, goals=[(0, 0), (2, 0)], starts=[(0, 0), (2, 0)])
    run, ref_run, layout = triplets(7)
    world = WorldConfig(n_agents=2, horizon=5, action_noise=1.0)
    rec = rollout(parked, world, RCFG, Policy.uniform(parked), run)
    assert rec.trajectories[0].steps == rec.trajectories[1].steps == []
    reference_rollout(parked, world, RCFG, Policy.uniform(parked), ref_run)
    sample_initial(parked, 2, layout)
    layout.random((3, 5, 2))
    assert run.random() == ref_run.random() == layout.random()
    step(parked, [(1, 0)], [RIGHT], run, action_noise=0.0)
    assert run.random() == ref_run.random() == layout.random()
    # a zero-tick episode reads no draw (its block is empty) and plays no turn
    turns = []
    assert _play(parked, [1], [True], 0, 1.0, (), lambda _i, _cur, k: int(()[k] * 5),
                 lambda *turn: turns.append(turn)) == 0
    assert turns == []


def test_rollout_reproduces_the_batched_kernel_episode():
    # the scalar driver and egt's kernel read one draw layout, so on the same
    # generator they must play the same episode, whatever N, noise and horizon
    rng = np.random.default_rng(2024)
    for noise in (0.0, 0.3, 1.0):
        checked = 0
        while checked < 30:
            w, h = (int(v) for v in rng.integers(3, 9, size=2))
            try:
                grid = gen_map(w, h, 0.15, None, int(rng.integers(1, 3)), int(rng.integers(1 << 30)))
            except GenerationError:
                continue
            n_agents = int(rng.integers(1, min(8, len(grid.starts)) + 1))
            horizon = 1 if checked % 5 == 0 else int(rng.integers(2, 3 * (w + h)))
            world = WorldConfig(n_agents=n_agents, horizon=horizon, action_noise=noise)
            policy = Policy(grid, rng.dirichlet(np.full(5, 0.5), grid.n_cells))
            seed = int(rng.integers(1 << 30))
            run, kernel_run = np.random.default_rng(seed), np.random.default_rng(seed)
            rec = rollout(grid, world, RCFG, policy, run)
            first, draws, accept, _ = _draw_batch(grid, world, 1, [kernel_run])
            ep = _run_episodes(grid, world, policy._cdf[None], np.zeros(n_agents, dtype=np.intp),
                               first, draws)
            got = [([(grid.cell_id(c), int(a)) for c, a in tau.steps],
                    grid.cell_id(tau.final), tau.reached_goal) for tau in rec.trajectories]
            want = [(list(zip(ep.S[i, :ep.steps[i]].tolist(), ep.A[i, :ep.steps[i]].tolist())),
                     int(ep.cells[i]), bool(grid._goal_mask[ep.cells[i]])) for i in range(n_agents)]
            assert got == want, f"{w}x{h}, {n_agents} agents, noise {noise}:\n{grid.to_text()}"
            assert ep.stretches(grid.width).tolist() == [fitness(t) for t in rec.trajectories]
            # the kernel's read-ahead acceptance uniforms, then the stream after them
            assert run.random(n_agents).tolist() == accept[0].tolist()
            assert run.random() == kernel_run.random()

            # the kernel's fitness evaluation, recomputed from rollouts on its children
            episodes = int(rng.integers(1, 6))
            total = 0.0
            for child in np.random.default_rng(seed).spawn(episodes):
                for tau in rollout(grid, world, RCFG, policy, child).trajectories:
                    total += -min(fitness(tau), float(horizon))
            assert _evaluate_fitness(grid, world, policy, np.random.default_rng(seed), episodes) \
                == total / (episodes * n_agents)
            checked += 1


# -- aggregate -------------------------------------------------------------------


def test_mean_path_length_averages_goal_reachers_only():
    rec = make_record([((0, 0), 3, True), ((1, 1), 5, True), ((1, 1), 7, False)])
    report = aggregate([rec], horizon=7)
    assert report.mean_path_length == 4.0
    assert not report.mean_path_length_is_fallback


def test_success_rate_counts_agent_episodes():
    recs = [
        make_record([((0, 0), 2, True), ((1, 1), 2, True)]),
        make_record([((0, 0), 2, True), ((1, 1), 2, False)]),
    ]
    assert aggregate(recs).success_rate == 0.75


def test_worst_start_success_rate_hits_zero_on_an_always_failing_start():
    recs = [
        make_record([((0, 0), 2, False), ((1, 1), 2, True)]),
        make_record([((0, 0), 2, False), ((1, 1), 2, True)]),
    ]
    report = aggregate(recs)
    assert report.min_agent_success_rate == 0.0
    assert report.success_rate == 0.5


def test_no_success_falls_back_to_the_horizon_with_a_flag():
    rec = make_record([((0, 0), 4, False)])
    report = aggregate([rec], horizon=9)
    assert report.mean_path_length == 9.0
    assert report.mean_path_length_is_fallback


def test_no_success_without_horizon_reports_longest_observed():
    rec = make_record([((0, 0), 4, False), ((1, 1), 6, False)])
    report = aggregate([rec])
    assert report.mean_path_length == 6.0
    assert report.mean_path_length_is_fallback


def test_empty_record_list_is_rejected():
    with pytest.raises(ValueError):
        aggregate([])


def test_expected_distance_is_the_mean_over_agent_episodes():
    recs = [
        make_record([((0, 0), 1, True)], dmins=(1,)),
        make_record([((0, 0), 1, True)], dmins=(4,)),
    ]
    assert aggregate(recs).expected_min_obstacle_distance == 2.5


def test_update_count_and_train_time_come_from_training_stats():
    stats = TrainingStats(episodes_run=10, policy_updates=17, goal_reach_count=4, wall_time=2.5)
    report = aggregate([make_record([((0, 0), 1, True)])], stats=stats)
    assert report.policy_updates == 17
    assert report.train_time == 2.5
    assert report.run_time == 0.0


def test_explicit_timers_override_stats():
    stats = TrainingStats(episodes_run=10, policy_updates=17, goal_reach_count=4, wall_time=2.5)
    report = aggregate(
        [make_record([((0, 0), 1, True)])],
        stats=stats,
        timers={"train_time": 1.25, "run_time": 0.5},
    )
    assert report.train_time == 1.25
    assert report.run_time == 0.5


@pytest.mark.parametrize("field", ["success_rate", "min_agent_success_rate"])
@pytest.mark.parametrize("bad", [-0.1, 1.5])
def test_report_rejects_rates_outside_unit_interval(field, bad):
    kwargs = dict(
        mean_path_length=1.0,
        mean_path_length_is_fallback=False,
        success_rate=1.0,
        min_agent_success_rate=1.0,
        expected_min_obstacle_distance=0.0,
        policy_updates=0,
        train_time=0.0,
        run_time=0.0,
    )
    kwargs[field] = bad
    with pytest.raises(ValueError):
        MetricsReport(**kwargs)


def test_aggregate_matches_a_hand_recount_over_real_rollouts():
    grid = parse_map("G....\nS.#..\n..#..\nS...G\n")
    world = WorldConfig(n_agents=2, horizon=10)
    policy = Policy.uniform(grid)
    rng = np.random.default_rng(8)
    records = [rollout(grid, world, RCFG, policy, rng) for _ in range(50)]
    report = aggregate(records, horizon=world.horizon)

    flat = [(tau, d) for r in records for tau, d in zip(r.trajectories, r.min_obstacle_distances)]
    wins = [len(tau.steps) for tau, _ in flat if tau.reached_goal]
    assert report.success_rate == len(wins) / len(flat)
    assert report.mean_path_length == sum(wins) / len(wins)
    assert report.expected_min_obstacle_distance == sum(d for _, d in flat) / len(flat)
    assert report.mean_path_length <= world.horizon + 1
    by_start = {}
    for tau, _ in flat:
        by_start.setdefault(tau.steps[0][0], []).append(tau.reached_goal)
    assert report.min_agent_success_rate == min(
        sum(v) / len(v) for v in by_start.values()
    )

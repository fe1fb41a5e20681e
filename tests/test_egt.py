"""Counter-table learner: fitness, updates, policy construction, training, invasion."""
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evopath import egt
from evopath.egt import (
    CounterTable,
    EGTParams,
    Policy,
    Trajectory,
    TrainingStats,
    WORST_FITNESS,
    apply_update,
    construct_policy,
    ess_test,
    fitness,
    greedy_action_map,
    success_update_probability,
    train,
    _batches,
    _draw_batch,
    _evaluate_fitness,
    _invade,
    _learn,
    _run_episodes,
)
from evopath.gridworld import (
    Action,
    GridMap,
    InvalidStateError,
    RewardConfig,
    WorldConfig,
    _children,
    parse_map,
)
from evopath.bench import GenerationError, gen_map
from oracles import (
    bfs_distance,
    greedy_path_length,
    reference_episode,
    reference_fitness,
    reference_train,
)

UP, DOWN, LEFT, RIGHT, STAY = Action

# goal in the top-left corner, every other cell a start
GOAL_TL = "GSSSS\nSSSSS\nSSSSS\nSSSSS\nSSSSS\n"
# goal in the bottom-right corner, the layout used by the training checks
GOAL_BR = "SSSSS\nSSSSS\nSSSSS\nSSSSS\nSSSSG\n"
WALLED = "GSSSS\nS#SSS\nSSSSS\nSSS#S\nSSSSG\n"


class AlwaysAccept:
    # stands in for a Generator so acceptance draws never fail
    def random(self, size=None):
        return 0.0 if size is None else np.zeros(size)


def up_run(x, y_from, y_to):
    return [((x, y), UP) for y in range(y_from, y_to, -1)]


# -- fitness -------------------------------------------------------------------


def test_fitness_straight_path_is_one():
    tau = Trajectory([((0, 0), DOWN), ((0, 1), DOWN), ((0, 2), DOWN)], (0, 3), True)
    assert fitness(tau) == 1.0


def test_fitness_five_steps_over_three():
    steps = [((0, 0), DOWN), ((0, 1), UP), ((0, 0), DOWN), ((0, 1), DOWN), ((0, 2), DOWN)]
    tau = Trajectory(steps, (0, 3), True)
    assert fitness(tau) == pytest.approx(5 / 3)


def test_fitness_empty_trajectory_is_one():
    assert fitness(Trajectory([], (2, 2), True)) == 1.0


def test_fitness_loop_back_to_start_is_worst():
    tau = Trajectory([((2, 2), UP), ((2, 1), DOWN)], (2, 2), False)
    assert fitness(tau) == WORST_FITNESS
    assert math.isinf(WORST_FITNESS)


@given(st.integers(1, 40), st.integers(1, 40))
def test_fitness_at_least_one_when_displacement_bounded(steps, d):
    # a grid move changes Manhattan distance by at most 1 per step
    if d > steps:
        d = steps
    path = [((0, y), DOWN) for y in range(steps)]
    tau = Trajectory(path, (0, d), True)
    assert fitness(tau) >= 1.0


# -- acceptance probability ----------------------------------------------------


def test_success_probability_optimal_path():
    assert success_update_probability(1.0, 1.5, 2.0) == 1.0


def test_success_probability_at_threshold():
    assert success_update_probability(1.5, 1.5, 2.0) == pytest.approx(0.75)


def test_success_probability_long_path_reciprocal():
    assert success_update_probability(4.0, 1.5, 2.0) == pytest.approx(0.25)


def test_success_probability_rejects_sub_one_stretch():
    with pytest.raises(ValueError):
        success_update_probability(0.5, 1.5, 2.0)


@settings(max_examples=200)
@given(
    st.floats(1.0, 1e6, allow_nan=False),
    st.floats(1.0, 2.0),
    st.floats(1.001, 8.0),
)
def test_success_probability_always_in_unit_interval(u, eta, alpha):
    p = success_update_probability(u, eta, alpha)
    assert 0.0 <= p <= 1.0


# -- counter table -------------------------------------------------------------


def test_counter_starts_undefined_and_zero_is_distinct():
    table = CounterTable(parse_map(GOAL_TL))
    assert table.get((2, 2), UP) is None
    assert table.n_defined() == 0
    table.add((2, 2), UP, 0)
    assert table.get((2, 2), UP) == 0
    assert table.n_defined() == 1


def test_counter_add_accumulates():
    table = CounterTable(parse_map(GOAL_TL))
    assert table.add((1, 1), RIGHT, 3) == 3
    assert table.add((1, 1), RIGHT, -5) == -2
    assert table.get((1, 1), RIGHT) == -2


def test_counter_rejects_non_free_cells():
    table = CounterTable(parse_map(WALLED))
    with pytest.raises(InvalidStateError):
        table.get((1, 1), UP)
    with pytest.raises(InvalidStateError):
        table.add((5, 0), UP, 1)


def test_counter_items_sorted_by_cell_then_action():
    table = CounterTable(parse_map(GOAL_TL))
    table.add((2, 0), STAY, 4)
    table.add((0, 3), UP, -1)
    table.add((0, 3), DOWN, 2)
    assert table.items() == [
        (((0, 3), UP), -1),
        (((0, 3), DOWN), 2),
        (((2, 0), STAY), 4),
    ]


def test_counter_snapshot_round_trip():
    grid = parse_map(WALLED)
    table = CounterTable(grid)
    table.add((0, 0), UP, -7)
    table.add((4, 4), STAY, 12)
    table.add((2, 1), LEFT, 0)
    text = table.to_text()
    assert "2 1 left 0" in text.splitlines()
    back = CounterTable.from_text(grid, text)
    assert back.items() == table.items()
    assert back.get((2, 1), LEFT) == 0


def test_counter_from_text_rejects_bad_lines():
    grid = parse_map(WALLED)
    with pytest.raises(ValueError):
        CounterTable.from_text(grid, "0 0 up\n")
    with pytest.raises(InvalidStateError):
        CounterTable.from_text(grid, "1 1 up 3\n")


def test_counter_copy_is_independent():
    table = CounterTable(parse_map(GOAL_TL))
    table.add((1, 2), UP, 5)
    dup = table.copy()
    dup.add((1, 2), UP, 1)
    assert table.get((1, 2), UP) == 5
    assert dup.get((1, 2), UP) == 6


# -- child generators ----------------------------------------------------------


def _pcg(seed, **kwargs):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, **kwargs)))


def _spawned(rng, n):
    rng.spawn(n)
    return rng


# (parent factory, whether _children seeds it in numpy)
CHILDREN_PARENTS = {
    "seed 0": (lambda: np.random.default_rng(0), True),
    "seed 134": (lambda: np.random.default_rng(134), True),
    "seed 2^63-25": (lambda: np.random.default_rng(2**63 - 25), True),
    "list entropy": (lambda: np.random.default_rng([5000149, 1]), True),
    "10-word entropy": (lambda: np.random.default_rng([0xFFFFFFFF - 3 * k for k in range(10)]),
                        True),
    "pool size 8": (lambda: _pcg(134, pool_size=8), True),
    # entropy and keys whose words outnumber their entries
    "key (2^35, 1)": (lambda: _pcg(134, spawn_key=(2**35, 1)), True),
    "[2^40, 3, 7] entropy": (lambda: np.random.default_rng([2**40, 3, 7]), True),
    "20-word entropy, key (5,)": (lambda: _pcg([0xFFFFFFFF - 3 * k for k in range(20)],
                                                spawn_key=(5,)), True),
    "uint32-array entropy": (lambda: _pcg(np.array([7, 0, 2**31, 5, 1], dtype=np.uint32)),
                             True),
    # SeedSequence parses the string; _children leaves the parent to rng.spawn
    '["17", 3] entropy': (lambda: _pcg(["17", 3]), False),
    "after spawns": (lambda: _spawned(np.random.default_rng(134), 7), True),
    "nested child": (lambda: np.random.default_rng(7).spawn(3)[2].spawn(2)[1], True),
    "MT19937": (lambda: np.random.Generator(np.random.MT19937(5)), False),
    "SFC64": (lambda: np.random.Generator(np.random.SFC64(5)), False),
}


@pytest.mark.parametrize("B", [1, 6, 33])
@pytest.mark.parametrize("parent", list(CHILDREN_PARENTS))
def test_children_equal_rng_spawn(parent, B):
    make, banked = CHILDREN_PARENTS[parent]
    rng, twin = make(), make()
    lo = rng.bit_generator.seed_seq.n_children_spawned
    seen = set()
    for got, want in zip(_children(rng, B), twin.spawn(B), strict=True):
        assert type(got.bit_generator) is type(want.bit_generator)
        if banked:
            assert got.bit_generator.state == want.bit_generator.state
        assert got.random(100).tolist() == want.random(100).tolist()
        seen.add(id(got))
    assert rng.bit_generator.seed_seq.n_children_spawned == lo + B
    assert rng.spawn(1)[0].random() == twin.spawn(1)[0].random()
    # the numpy seeding reuses one generator; rng.spawn's children are distinct
    assert len(seen) == (1 if banked else B)


def test_children_at_the_last_one_word_index():
    # children that end at index 2^32 - 2 still equal rng.spawn's, banked
    # (PCG64) or not (MT19937)
    for bit_generator in (np.random.PCG64, np.random.MT19937):
        rng, twin = (np.random.Generator(bit_generator(np.random.SeedSequence(
            5, n_children_spawned=2**32 - 3))) for _ in range(2))
        for got, want in zip(_children(rng, 2), twin.spawn(2), strict=True):
            # MT19937's state holds an array: compare it as a list
            assert (json.dumps(got.bit_generator.state, default=np.ndarray.tolist)
                    == json.dumps(want.bit_generator.state, default=np.ndarray.tolist))
        assert rng.bit_generator.seed_seq.n_children_spawned == 2**32 - 1

    # numpy 2.4's own spawn, with its 32-bit spawn count, does not return once
    # it reaches index 2^32 - 1, so a batch that would reach that index raises
    # before the parent is touched. spawn is stood in for by one that fails at
    # once, so a guard that lets such a batch through fails fast, not hangs.
    class Parent(np.random.Generator):
        def spawn(self, n_children):
            raise AssertionError(f"spawn({n_children}) was called")

    for bit_generator in (np.random.PCG64, np.random.MT19937):
        for lo, B in ((2**32 - 3, 3), (2**32 - 3, 6), (2**32 - 1, 1), (2**32 - 2, 512)):
            parent = Parent(bit_generator(np.random.SeedSequence(5, n_children_spawned=lo)))
            with pytest.raises(OverflowError, match=r"would reach child index 2\^32 - 1"):
                _children(parent, B)
            assert parent.bit_generator.seed_seq.n_children_spawned == lo


def test_children_of_a_seedless_parent_raise_as_rng_spawn_does():
    rng = np.random.Generator(np.random.RandomState(5)._bit_generator)
    assert rng.bit_generator.seed_seq is None
    with pytest.raises(TypeError, match="does not implement spawning"):
        rng.spawn(2)
    with pytest.raises(TypeError, match="does not implement spawning"):
        _children(rng, 2)


# -- apply_update --------------------------------------------------------------


def test_update_optimal_success_always_accepted():
    table = CounterTable(parse_map(GOAL_TL))
    tau = Trajectory(up_run(0, 4, 0), (0, 0), True)
    modified, touched = apply_update(table, tau, EGTParams(nu=2), np.random.default_rng(0))
    assert modified and touched == 4
    for y in range(1, 5):
        assert table.get((0, y), UP) == 2


def test_update_failed_short_trajectory_leaves_table_alone():
    table = CounterTable(parse_map(GOAL_TL))
    tau = Trajectory(up_run(4, 4, 1), (4, 1), False)
    modified, touched = apply_update(table, tau, EGTParams(), np.random.default_rng(0))
    assert not modified and touched == 0
    assert table.n_defined() == 0


def test_update_failed_long_trajectory_decrements():
    table = CounterTable(parse_map(GOAL_TL))
    steps = [((4, 4), STAY)] * 5 + [((4, 4), UP)]
    tau = Trajectory(steps, (4, 3), False)
    modified, touched = apply_update(table, tau, EGTParams(mu=3), np.random.default_rng(0))
    assert modified and touched == 2
    assert table.get((4, 4), STAY) == -3
    assert table.get((4, 4), UP) == -3


def test_update_loop_counts_as_worst_and_decrements():
    table = CounterTable(parse_map(GOAL_TL))
    tau = Trajectory([((2, 2), UP), ((2, 1), DOWN)], (2, 2), False)
    modified, touched = apply_update(table, tau, EGTParams(), np.random.default_rng(0))
    assert modified and touched == 2
    assert table.get((2, 2), UP) == -1
    assert table.get((2, 1), DOWN) == -1


def test_update_writes_each_distinct_pair_once():
    table = CounterTable(parse_map(GOAL_TL))
    steps = [((0, 1), STAY)] * 3 + [((0, 1), UP)]
    tau = Trajectory(steps, (0, 0), True)
    modified, touched = apply_update(table, tau, EGTParams(nu=3), AlwaysAccept())
    assert modified and touched == 2
    assert table.get((0, 1), STAY) == 3
    assert table.get((0, 1), UP) == 3


def test_update_empty_success_draws_once_and_touches_nothing():
    table = CounterTable(parse_map(GOAL_TL))
    rng, twin = np.random.default_rng(11), np.random.default_rng(11)
    twin.random()
    assert apply_update(table, Trajectory([], (2, 2), True), EGTParams(), rng) == (False, 0)
    assert table.n_defined() == 0
    assert rng.bit_generator.state == twin.bit_generator.state


def test_update_sub_one_stretch_raises_and_changes_nothing():
    # one step cannot cover a displacement of two
    table = CounterTable(parse_map(GOAL_TL))
    table.add((0, 2), UP, 4)
    before = table.to_text()
    rng, twin = np.random.default_rng(12), np.random.default_rng(12)
    with pytest.raises(ValueError, match="stretch factor must be >= 1, got 0.5"):
        apply_update(table, Trajectory([((0, 2), UP)], (0, 0), True), EGTParams(), rng)
    assert table.to_text() == before
    assert rng.bit_generator.state == twin.bit_generator.state


def test_update_success_then_failure_restores_prior_values():
    # same distinct pairs both ways: the failure retries Up against a parked agent
    table = CounterTable(parse_map(GOAL_TL))
    table.add((0, 3), UP, 7)
    win = Trajectory(up_run(0, 4, 0), (0, 0), True)
    lose = Trajectory(up_run(0, 4, 0) + [((0, 1), UP)] * 2, (0, 1), False)
    assert fitness(lose) == 2.0
    apply_update(table, win, EGTParams(), np.random.default_rng(0))
    apply_update(table, lose, EGTParams(), np.random.default_rng(0))
    assert table.get((0, 3), UP) == 7
    assert table.get((0, 4), UP) == 0
    assert table.get((0, 2), UP) == 0
    assert table.get((0, 1), UP) == 0


def test_update_acceptance_rate_matches_probability():
    # u = 4 so p = 0.25; binomial 3-sigma band around 20000 * 0.25
    table = CounterTable(parse_map(GOAL_TL))
    steps = [((0, 1), STAY)] * 3 + [((0, 1), UP)]
    tau = Trajectory(steps, (0, 0), True)
    params = EGTParams()
    rng = np.random.default_rng(99)
    n = 20_000
    accepted = sum(apply_update(table, tau, params, rng)[0] for _ in range(n))
    assert abs(accepted - n * 0.25) <= 3 * math.sqrt(n * 0.25 * 0.75)
    assert table.get((0, 1), UP) == accepted
    assert table.get((0, 1), STAY) == accepted


# -- construct_policy ----------------------------------------------------------


def test_policy_construction_uniform_when_all_undefined():
    grid = parse_map(GOAL_TL)
    pol = construct_policy(CounterTable(grid), 0.3, grid)
    assert pol.probs_at((1, 1)) == pytest.approx([0.2] * 5)


def test_policy_construction_normalizes_positive_counters():
    grid = parse_map(GOAL_TL)
    table = CounterTable(grid)
    table.add((2, 2), UP, 3)
    table.add((2, 2), RIGHT, 1)
    pol = construct_policy(table, 0.0, grid)
    assert pol.probs_at((2, 2)) == pytest.approx([0.75, 0.0, 0.0, 0.25, 0.0])


def test_policy_construction_ignores_negative_counters_and_mixes_epsilon():
    grid = parse_map(GOAL_TL)
    table = CounterTable(grid)
    table.add((2, 2), UP, 3)
    table.add((2, 2), RIGHT, -2)
    pol = construct_policy(table, 0.1, grid)
    assert pol.probs_at((2, 2)) == pytest.approx([0.92, 0.02, 0.02, 0.02, 0.02])


def test_policy_construction_uniform_when_nothing_positive():
    grid = parse_map(GOAL_TL)
    table = CounterTable(grid)
    table.add((3, 3), UP, -4)
    table.add((3, 3), DOWN, 0)
    pol = construct_policy(table, 0.0, grid)
    assert pol.probs_at((3, 3)) == pytest.approx([0.2] * 5)


def test_policy_construction_rejects_bad_epsilon():
    grid = parse_map(GOAL_TL)
    with pytest.raises(ValueError):
        construct_policy(CounterTable(grid), 1.5, grid)


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4), st.integers(-9, 9)),
        max_size=30,
    ),
    st.floats(0.0, 1.0),
)
def test_policy_construction_invariants(entries, epsilon):
    grid = parse_map(GOAL_TL)
    table = CounterTable(grid)
    for x, y, a, v in entries:
        table.add((x, y), Action(a), v)
    pol = construct_policy(table, epsilon, grid)
    for cell in grid.free_cells():
        row = pol.probs_at(cell)
        assert row.sum() == pytest.approx(1.0, abs=1e-9)
        assert (row >= epsilon / 5 - 1e-12).all()


# -- policy object -------------------------------------------------------------


def test_policy_rejects_invalid_rows():
    grid = parse_map(GOAL_TL)
    bad = np.full((grid.n_cells, 5), 0.25)
    with pytest.raises(ValueError):
        Policy(grid, bad)
    neg = np.full((grid.n_cells, 5), 0.2)
    neg[0, 0] = -0.2
    neg[0, 1] = 0.6
    with pytest.raises(ValueError):
        Policy(grid, neg)
    with pytest.raises(ValueError):
        Policy(grid, np.full((3, 5), 0.2))


def test_policy_sampling_follows_point_mass():
    grid = parse_map(GOAL_TL)
    pol = Policy.from_mapping(grid, {(1, 1): [0, 0, 0, 1, 0]})
    rng = np.random.default_rng(1)
    assert all(pol.sample((1, 1), rng) == RIGHT for _ in range(50))
    assert pol.probs_at((0, 2)) == pytest.approx([0.2] * 5)


def test_policy_snapshot_round_trip():
    grid = parse_map(WALLED)
    pol = Policy.from_mapping(grid, {(2, 2): [0.5, 0.25, 0.125, 0.125, 0.0]})
    text = pol.to_text()
    assert "2 2 0.500000 0.250000 0.125000 0.125000 0.000000" in text.splitlines()
    back = Policy.from_text(grid, text)
    assert back.to_text() == text


def test_policy_from_text_renormalizes_within_band():
    grid = parse_map(GOAL_TL)
    back = Policy.from_text(grid, "1 1 0.2005 0.2 0.2 0.2 0.2\n")
    assert back.probs_at((1, 1)).sum() == pytest.approx(1.0)


def test_policy_from_text_rejects_bad_rows():
    grid = parse_map(WALLED)
    with pytest.raises(ValueError):
        Policy.from_text(grid, "0 0 0.5 0.5\n")
    with pytest.raises(ValueError):
        Policy.from_text(grid, "0 0 0.9 0.2 0.2 0.2 0.2\n")
    with pytest.raises(InvalidStateError):
        Policy.from_text(grid, "1 1 0.2 0.2 0.2 0.2 0.2\n")


# -- greedy map ----------------------------------------------------------------


def test_greedy_picks_largest_counter():
    grid = parse_map(GOAL_TL)
    table = CounterTable(grid)
    table.add((2, 2), UP, 3)
    table.add((2, 2), RIGHT, 1)
    assert greedy_action_map(table) == {(2, 2): UP}


def test_greedy_ties_break_by_action_order():
    grid = parse_map(GOAL_TL)
    table = CounterTable(grid)
    table.add((1, 3), DOWN, 2)
    table.add((1, 3), UP, 2)
    table.add((4, 4), STAY, 1)
    table.add((4, 4), RIGHT, 1)
    gmap = greedy_action_map(table)
    assert gmap[(1, 3)] == UP
    assert gmap[(4, 4)] == RIGHT


def test_greedy_omits_untouched_cells():
    grid = parse_map(GOAL_TL)
    assert greedy_action_map(CounterTable(grid)) == {}


# -- params --------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"eta": 0.9},
        {"eta": 2.5},
        {"alpha": 1.0},
        {"beta": 0.5},
        {"nu": 0},
        {"mu": -1},
        {"epsilon": 1.2},
        {"episodes": -5},
        {"reconstruct_interval": 0},
        {"behavior_mode": "greedy"},
    ],
)
def test_params_validation(kwargs):
    with pytest.raises(ValueError):
        EGTParams(**kwargs)


# -- training ------------------------------------------------------------------


def test_train_zero_episodes_yields_uniform_policy():
    grid = parse_map(GOAL_BR)
    world = WorldConfig(n_agents=1, horizon=50)
    policy, table, stats = train(
        grid, world, EGTParams(episodes=0), RewardConfig(), np.random.default_rng(0)
    )
    assert policy.to_text() == Policy.uniform(grid).to_text()
    assert table.n_defined() == 0
    assert stats.episodes_run == 0 and stats.policy_updates == 0


def test_train_learns_short_greedy_paths_on_open_room():
    # oracle distances fixed before training; greedy must stay within 2x
    dist = bfs_distance(5, 5, set(), {(4, 4)})
    grid = parse_map(GOAL_BR)
    world = WorldConfig(n_agents=1, horizon=50)
    params = EGTParams(episodes=2000)
    policy, table, stats = train(grid, world, params, RewardConfig(), np.random.default_rng(7))
    gmap = greedy_action_map(table)
    for cell, d in dist.items():
        if cell == (4, 4):
            continue
        steps = greedy_path_length(5, 5, set(), {(4, 4)}, lambda c: gmap.get(c), cell, 50)
        assert steps is not None, f"greedy policy never reaches the goal from {cell}"
        assert steps <= 2 * d, f"{cell}: {steps} > 2x BFS {d}"
    assert stats.episodes_run == 2000
    assert stats.policy_updates <= stats.episodes_run
    assert 0 < stats.goal_reach_count <= stats.episodes_run


def test_train_is_bit_deterministic():
    grid = parse_map(WALLED)
    world = WorldConfig(n_agents=2, horizon=30)
    params = EGTParams(episodes=300)
    runs = []
    for _ in range(2):
        policy, table, stats = train(
            grid, world, params, RewardConfig(), np.random.default_rng(42)
        )
        runs.append((policy.to_text(), table.to_text(),
                     stats.episodes_run, stats.policy_updates, stats.goal_reach_count))
    assert runs[0] == runs[1]


def test_faithful_mode_differs_from_iterative():
    grid = parse_map(GOAL_BR)
    world = WorldConfig(n_agents=1, horizon=50)
    out = {}
    for mode in ("faithful", "iterative"):
        _, table, _ = train(
            grid, world, EGTParams(episodes=600, behavior_mode=mode),
            RewardConfig(), np.random.default_rng(3),
        )
        out[mode] = table.to_text()
    assert out["faithful"] != out["iterative"]


def _kernel_vs_reference(grid, world, n_episodes, seed, behavior=None, params=EGTParams()):
    behavior = behavior or Policy.uniform(grid)
    table = CounterTable(grid)
    stats = TrainingStats()
    _learn(table, params, _batches(grid, world, np.random.default_rng(seed), n_episodes,
                                   behavior._cdf[None]), stats)
    ref_table = CounterTable(grid)
    ref = reference_train(grid, world, params, ref_table, behavior,
                          np.random.default_rng(seed).spawn(n_episodes))
    got = (stats.episodes_run, stats.policy_updates, stats.goal_reach_count)
    return (table.to_text(), got), (ref_table.to_text(), ref)


def test_batched_single_agent_path_matches_reference_loop():
    grid = parse_map(WALLED)
    world = WorldConfig(n_agents=1, horizon=30)
    got, ref = _kernel_vs_reference(grid, world, 100, 3)
    assert got == ref


def test_batched_path_matches_reference_loop_under_noise():
    grid = parse_map(WALLED)
    world = WorldConfig(n_agents=1, horizon=30, action_noise=0.25)
    got, ref = _kernel_vs_reference(grid, world, 100, 3)
    assert got == ref


def test_multi_agent_path_matches_reference_loop():
    grid = parse_map(WALLED)
    for n_agents, noise in ((3, 0.0), (4, 0.3)):
        world = WorldConfig(n_agents=n_agents, horizon=30, action_noise=noise)
        got, ref = _kernel_vs_reference(grid, world, 100, 3)
        assert got == ref


def test_submit_matches_reference_across_slices(monkeypatch):
    # a slice of 1, 3 or 7 trajectories: every pair moved, in many slices and
    # a short last one, each trajectory's distinct (cell, action) pairs once
    grid = parse_map(WALLED)
    world = WorldConfig(n_agents=4, horizon=30, action_noise=0.3)
    for rows in (1, 3, 7):
        monkeypatch.setattr(egt, "_SUBMIT_CELLS", rows * world.horizon)
        got, ref = _kernel_vs_reference(grid, world, 100, 3)
        assert got == ref, f"{rows} rows per slice"
        # every moved pair reached a goal or ran long, so it touched a pair
        moved = got[1][1]
        assert moved > rows
    assert moved % rows != 0
    # an empty accepted trajectory has no ticks: it is moved, in a slice of
    # no columns, and touches nothing
    table = CounterTable(grid)
    assert apply_update(table, Trajectory([], (2, 2), True), EGTParams(), AlwaysAccept()) \
        == (False, 0)
    assert table.n_defined() == 0


def test_kernel_matches_reference_on_crowded_fuzzed_maps():
    # small boards packed with up to 16 agents under skewed random behaviors,
    # so chains of moves, swaps and frozen blockers all occur
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 50:
        w, h = (int(v) for v in rng.integers(3, 9, size=2))
        try:
            grid = gen_map(w, h, 0.15, None, int(rng.integers(1, 3)), int(rng.integers(1 << 30)))
        except GenerationError:
            continue
        n_agents = int(rng.integers(2, min(16, len(grid.starts)) + 1))
        noise = float(rng.choice([0.0, 0.3, 1.0]))
        world = WorldConfig(n_agents=n_agents, horizon=int(rng.integers(1, 3 * (w + h))),
                            action_noise=noise)
        behavior = Policy(grid, rng.dirichlet(np.full(5, 0.5), grid.n_cells))
        params = EGTParams(beta=float(rng.choice([1.0, 2.0])))
        got, ref = _kernel_vs_reference(grid, world, 8, int(rng.integers(1 << 30)), behavior, params)
        assert got == ref, f"{w}x{h}, {n_agents} agents, noise {noise}:\n{grid.to_text()}"
        checked += 1


def test_kernel_matches_reference_when_agents_start_on_goals():
    # goals are starts too, so some agents start parked: they record no
    # step, submit nothing and score a stretch of 1
    rng = np.random.default_rng(2026)
    parked = checked = 0
    while checked < 20:
        w, h = (int(v) for v in rng.integers(3, 8, size=2))
        try:
            base = gen_map(w, h, 0.15, None, int(rng.integers(1, 4)), int(rng.integers(1 << 30)))
        except GenerationError:
            continue
        grid = GridMap(w, h, base.obstacles, base.goals, [*base.starts, *sorted(base.goals)])
        n_agents = int(rng.integers(1, min(8, len(grid.starts)) + 1))
        world = WorldConfig(n_agents=n_agents, horizon=int(rng.integers(1, 3 * (w + h))),
                            action_noise=float(rng.choice([0.0, 0.3])))
        behavior = Policy(grid, rng.dirichlet(np.full(5, 0.5), grid.n_cells))
        seed = int(rng.integers(1 << 30))
        got, ref = _kernel_vs_reference(grid, world, 8, seed, behavior)
        assert got == ref, f"{w}x{h}, {n_agents} agents:\n{grid.to_text()}"
        assert _evaluate_fitness(grid, world, behavior, np.random.default_rng(seed), 8) \
            == reference_fitness(grid, world, behavior, np.random.default_rng(seed), 8)
        parked += sum(reference_episode(grid, world, behavior, r)[0][i][0] == []
                      for r in np.random.default_rng(seed).spawn(8) for i in range(n_agents))
        checked += 1
    assert parked > 0


def test_kernel_runs_a_policy_stack_as_each_policy_alone():
    # one call mixing K = 3 policies by a random index per episode plays every
    # pair as a call with its policy alone on the same draws
    rng = np.random.default_rng(2025)
    for noise in (0.0, 0.3, 1.0):
        checked = 0
        while checked < 12:
            w, h = (int(v) for v in rng.integers(3, 9, size=2))
            try:
                grid = gen_map(w, h, 0.15, None, int(rng.integers(1, 3)), int(rng.integers(1 << 30)))
            except GenerationError:
                continue
            n_agents = int(rng.integers(1, min(8, len(grid.starts)) + 1))
            world = WorldConfig(n_agents=n_agents, horizon=int(rng.integers(1, 3 * (w + h))),
                                action_noise=noise)
            cdfs = np.stack([Policy(grid, rng.dirichlet(np.full(5, 0.5), grid.n_cells))._cdf
                             for _ in range(3)])
            children = np.random.default_rng(int(rng.integers(1 << 30))).spawn(10)
            first, draws, _, _ = _draw_batch(grid, world, len(children), children)
            k = rng.integers(0, 3, size=len(children))
            mixed = _run_episodes(grid, world, cdfs, np.repeat(k, n_agents), first, draws)
            for j in range(3):
                pairs = np.flatnonzero(np.repeat(k == j, n_agents))
                alone = _run_episodes(grid, world, cdfs[j:j + 1], np.zeros(len(pairs), dtype=np.intp),
                                      first[pairs], draws[:, :, pairs])
                for name in ("S", "A", "steps", "arrival", "cells"):
                    assert np.array_equal(getattr(mixed, name)[pairs], getattr(alone, name)), \
                        f"{name}, policy {j}, {w}x{h}, {n_agents} agents, noise {noise}"
            checked += 1


def test_evaluate_fitness_matches_reference():
    grid = parse_map(WALLED)
    for n_agents, noise in ((1, 0.0), (3, 0.25)):
        world = WorldConfig(n_agents=n_agents, horizon=30, action_noise=noise)
        policy = Policy(grid, np.random.default_rng(n_agents).dirichlet(np.ones(5), grid.n_cells))
        got = _evaluate_fitness(grid, world, policy, np.random.default_rng(6), 40)
        assert got == reference_fitness(grid, world, policy, np.random.default_rng(6), 40)


# -- invasion test -------------------------------------------------------------


def test_ess_rejects_bad_arguments():
    grid = parse_map(GOAL_BR)
    world = WorldConfig(n_agents=1, horizon=50)
    with pytest.raises(ValueError):
        ess_test(grid, world, EGTParams(episodes=10), RewardConfig(), 1.5, 0.1,
                 np.random.default_rng(0))
    with pytest.raises(ValueError):
        ess_test(grid, world, EGTParams(episodes=10), RewardConfig(), 0.1, -0.1,
                 np.random.default_rng(0))
    for eval_episodes in (0, -3):
        with pytest.raises(ValueError):
            ess_test(grid, world, EGTParams(episodes=10), RewardConfig(), 0.1, 0.1,
                     np.random.default_rng(0), eval_episodes=eval_episodes)


def test_ess_with_invader_matches_reference():
    # the same invasion replayed with the reference episode loop: each extra
    # episode's child draws its invader coin, then runs its episode
    grid = parse_map(WALLED)
    world = WorldConfig(n_agents=2, horizon=30, action_noise=0.1)
    params = EGTParams(episodes=200, reconstruct_interval=50)
    invader = Policy(grid, np.random.default_rng(8).dirichlet(np.ones(5), grid.n_cells))
    report = ess_test(grid, world, params, RewardConfig(), 0.5, 0.5,
                      np.random.default_rng(4), eval_episodes=20, invader=invader)

    rng = np.random.default_rng(4)
    policy, table, _ = train(grid, world, params, RewardConfig(), rng)
    before = greedy_action_map(table)
    fit_before = reference_fitness(grid, world, policy, rng, 20)
    for r in rng.spawn(100):
        behavior = invader if r.random() < 0.5 else policy
        reference_train(grid, world, params, table, behavior, [r])
    after = greedy_action_map(table)
    fit_after = reference_fitness(grid, world, construct_policy(table, params.epsilon, grid), rng, 20)
    common = sorted(set(before) & set(after))
    agreement = sum(before[c] == after[c] for c in common) / len(common)
    assert report.extra_episodes == 100
    assert (report.fitness_before, report.fitness_after) == (fit_before, fit_after)
    assert (report.argmax_agreement, report.states_compared) == (agreement, len(common))

    # the invasion step alone, on the incumbent train() returned and on the
    # generator it consumed, gives the same report and leaves the table as it was
    rng = np.random.default_rng(4)
    policy, table, _ = train(grid, world, params, RewardConfig(), rng)
    held = table.to_text()
    assert _invade(grid, world, params, policy, table, 0.5, 0.5, rng, eval_episodes=20,
                   agreement_threshold=0.95, fitness_tolerance=0.05, invader=invader) == report
    assert table.to_text() == held


# starts ringed by goals: episodes end within a few ticks, so a long horizon
# costs little, while its size drives _batches to its floor of 8 episodes
RINGED = "GGGGG\nGSSSG\nGSSSG\nGSSSG\nGGGGG\n"


def test_training_and_invasion_across_batches_match_reference(monkeypatch):
    grid = parse_map(RINGED)
    world = WorldConfig(n_agents=4, horizon=46_100, action_noise=0.1)
    params = EGTParams(episodes=17, behavior_mode="faithful")
    seeded = []
    children = egt._children
    monkeypatch.setattr(egt, "_children", lambda rng, B: seeded.append(B) or children(rng, B))
    rng, twin = np.random.default_rng(12), np.random.default_rng(12)

    policy, table, stats = train(grid, world, params, RewardConfig(), rng)
    assert seeded == [8, 8, 1]
    ref_table = CounterTable(grid)
    ref = reference_train(grid, world, params, ref_table, Policy.uniform(grid), twin.spawn(17))
    assert table.to_text() == ref_table.to_text()
    assert (stats.episodes_run, stats.policy_updates, stats.goal_reach_count) == ref

    # the invasion step: fitness, the extra episodes with each child's
    # invader coin first, then fitness again, each over three batches
    invader = Policy(grid, np.random.default_rng(8).dirichlet(np.ones(5), grid.n_cells))
    seeded.clear()
    report = _invade(grid, world, params, policy, table, 0.5, 1.0, rng, eval_episodes=17,
                     agreement_threshold=0.95, fitness_tolerance=0.05, invader=invader)
    assert seeded == [8, 8, 1] * 3
    before = greedy_action_map(ref_table)
    fit_before = reference_fitness(grid, world, policy, twin, 17)
    for r in twin.spawn(17):
        behavior = invader if r.random() < 0.5 else policy
        reference_train(grid, world, params, ref_table, behavior, [r])
    after = greedy_action_map(ref_table)
    fit_after = reference_fitness(grid, world, construct_policy(ref_table, params.epsilon, grid),
                                  twin, 17)
    common = sorted(set(before) & set(after))
    assert report.extra_episodes == 17
    assert (report.fitness_before, report.fitness_after) == (fit_before, fit_after)
    assert report.argmax_agreement == sum(before[c] == after[c] for c in common) / len(common)
    assert report.states_compared == len(common)
    assert rng.spawn(1)[0].random() == twin.spawn(1)[0].random()


def test_ess_without_perturbation_keeps_greedy_map():
    grid = parse_map(GOAL_BR)
    world = WorldConfig(n_agents=1, horizon=50)
    report = ess_test(
        grid, world, EGTParams(episodes=400), RewardConfig(), 0.0, 0.0,
        np.random.default_rng(5),
    )
    assert report.argmax_agreement == 1.0
    assert report.extra_episodes == 0
    assert report.states_compared > 0


def test_ess_self_invasion_is_neutral():
    grid = parse_map(GOAL_BR)
    world = WorldConfig(n_agents=1, horizon=50)
    params = EGTParams(episodes=2000)
    trained, _, _ = train(grid, world, params, RewardConfig(), np.random.default_rng(7))
    report = ess_test(
        grid, world, params, RewardConfig(), 0.5, 0.1,
        np.random.default_rng(7), invader=trained,
    )
    assert report.argmax_agreement == 1.0
    assert abs(report.fitness_after - report.fitness_before) <= 0.05
    assert report.is_ess


def test_ess_converged_policy_resists_uniform_invader():
    grid = parse_map(GOAL_BR)
    world = WorldConfig(n_agents=1, horizon=50)
    report = ess_test(
        grid, world, EGTParams(episodes=2000), RewardConfig(), 0.1, 0.1,
        np.random.default_rng(7),
    )
    assert report.p_new == 0.1
    assert report.extra_episodes == 200
    assert report.states_compared == 24
    assert report.argmax_agreement >= 0.95
    assert report.fitness_after >= report.fitness_before - 0.05
    assert report.is_ess

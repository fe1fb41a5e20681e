"""Map parsing, stepping and reward semantics."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evopath import (
    Action,
    CapacityError,
    DisconnectedMapError,
    GridMap,
    InvalidJointStateError,
    InvalidStateError,
    MapError,
    MissingEndpointError,
    NonRectangularMapError,
    RewardConfig,
    StepEvent,
    UnknownCharacterError,
    WorldConfig,
    action_delta,
    action_from_name,
    action_name,
    manhattan,
    parse_map,
    permissible_actions,
    reward,
    sample_initial,
    step,
)

from evopath.bench import GenerationError, gen_map
from evopath.gridworld import _BATCH, _each_child, _goal_reach

import oracles


MAP_TEXT = """\
; small fixture with one wall
S..G
.#..
S...
"""


def small():
    return parse_map(MAP_TEXT)


# -- parsing ------------------------------------------------------------------


def test_parse_dimensions_and_sets():
    g = small()
    assert (g.width, g.height) == (4, 3)
    assert g.obstacles == {(1, 1)}
    assert g.goals == {(3, 0)}
    assert set(g.starts) == {(0, 0), (0, 2)}
    # uniform start weights
    assert g.starts[(0, 0)] == pytest.approx(0.5)


def test_parse_comment_lines_are_skipped():
    g = parse_map("; comment\nSG\n; another\n")
    assert (g.width, g.height) == (2, 1)


def test_parse_ragged_rows():
    with pytest.raises(NonRectangularMapError):
        parse_map("SG\n...\n")


def test_parse_unknown_character():
    with pytest.raises(UnknownCharacterError):
        parse_map("SG\n.x\n")


def test_parse_missing_endpoints():
    with pytest.raises(MissingEndpointError):
        parse_map("S.\n..\n")
    with pytest.raises(MissingEndpointError):
        parse_map("G.\n..\n")
    with pytest.raises(MapError):
        parse_map("; nothing\n")


def test_parse_disconnected_start():
    with pytest.raises(DisconnectedMapError):
        parse_map("S#G\n###\nS#.\n")


def test_text_round_trip():
    g = small()
    g2 = parse_map(g.to_text())
    assert g2.obstacles == g.obstacles
    assert g2.goals == g.goals
    assert set(g2.starts) == set(g.starts)
    assert g2.to_text() == g.to_text()


def test_gridmap_reach_matches_the_plain_flood_on_fuzzed_maps():
    # random walls up to density 0.6 cut pockets off; starts drawn from every
    # free cell, so some sit where no goal reaches
    rng = np.random.default_rng(1415)
    built = disconnected = 0
    for k in range(300):
        width, height = (int(v) for v in rng.integers(1, 13, 2))
        if k % 3 == 0:
            width = 1
        elif k % 3 == 1:
            height = 1
        blocked = rng.random((height, width)) < float(rng.choice([0.0, 0.2, 0.4, 0.6]))
        free = [(x, y) for y in range(height) for x in range(width) if not blocked[y, x]]
        if len(free) < 2:
            continue
        order = [free[i] for i in rng.permutation(len(free))]
        n_goals = int(rng.integers(1, max(2, len(free) // 4)))
        goals, starts = order[:n_goals], order[n_goals:n_goals + int(rng.integers(1, 6))]
        if not starts:
            continue
        obstacles = [(x, y) for y in range(height) for x in range(width) if blocked[y, x]]
        reach = oracles.reference_reach(goals, set(free).__contains__)
        cut = sorted(c for c in starts if c not in reach)
        if cut:
            with pytest.raises(DisconnectedMapError, match=rf"^start \({cut[0][0]}, {cut[0][1]}\) "):
                GridMap(width, height, obstacles, goals, starts)
            disconnected += 1
            continue
        grid = GridMap(width, height, obstacles, goals, starts)
        assert (set(grid.obstacles), set(grid.goals), set(grid.starts)) == (
            set(obstacles), set(goals), set(starts))
        got = np.flatnonzero(_goal_reach(grid._labels, grid._goal_mask))
        assert {grid.id_to_cell(int(i)) for i in got} == reach
        built += 1
    assert built >= 100 and disconnected >= 50


def test_gridmap_rejects_overlap():
    with pytest.raises(MapError):
        GridMap(2, 2, obstacles=[(0, 0)], goals=[(0, 0)], starts=[(1, 1)])


@pytest.mark.parametrize("label, kwargs", [
    ("obstacle", dict(obstacles=[(0, 1), (3, 0)], goals=[(1, 1)], starts=[(0, 0)])),
    ("obstacle", dict(obstacles=[(0, -1)], goals=[(1, 1)], starts=[(0, 0)])),
    ("goal", dict(goals=[(1, 1), (1, 2)], starts=[(0, 0)])),
    ("goal", dict(goals=[(-1, 0)], starts=[(0, 0)])),
    ("start", dict(goals=[(1, 1)], starts=[(0, 0), (3, 1)])),
    ("start", dict(goals=[(1, 1)], starts={(0, 0): 0.5, (0, -3): 0.5})),
])
def test_gridmap_rejects_out_of_bounds_cells_by_name(label, kwargs):
    # a 3 x 2 board: x in 0..2, y in 0..1; the message names the offending cell
    bad = [c for c in kwargs[label + "s"] if not (0 <= c[0] < 3 and 0 <= c[1] < 2)]
    with pytest.raises(MapError, match=rf"^{label} cell \({bad[0][0]}, {bad[0][1]}\) is out of bounds$"):
        GridMap(3, 2, **kwargs)


def test_gridmap_rejects_bad_start_weights():
    with pytest.raises(MapError):
        GridMap(2, 2, goals=[(1, 1)], starts={(0, 0): 0.4, (0, 1): 0.4})
    with pytest.raises(MapError):
        GridMap(2, 2, goals=[(1, 1)], starts={(0, 0): -1.0, (0, 1): 2.0})


# -- actions ------------------------------------------------------------------


def test_action_order_and_deltas():
    assert [int(a) for a in Action] == [0, 1, 2, 3, 4]
    assert action_delta(Action.UP) == (0, -1)
    assert action_delta(Action.DOWN) == (0, 1)
    assert action_delta(Action.LEFT) == (-1, 0)
    assert action_delta(Action.RIGHT) == (1, 0)
    assert action_delta(Action.STAY) == (0, 0)


def test_action_names_round_trip():
    for a in Action:
        assert action_from_name(action_name(a)) is a
    with pytest.raises(ValueError):
        action_from_name("diagonal")


def test_manhattan():
    assert manhattan((0, 0), (3, 4)) == 7
    assert manhattan((2, 2), (2, 2)) == 0


# -- permissible actions --------------------------------------------------------


def test_permissible_corner_and_interior():
    g = small()
    assert permissible_actions(g, (0, 0)) == {Action.DOWN, Action.RIGHT, Action.STAY}
    # (2, 1) sits right of the wall
    assert permissible_actions(g, (2, 1)) == {
        Action.UP,
        Action.DOWN,
        Action.RIGHT,
        Action.STAY,
    }


def test_permissible_tables_match_plain_loops_on_fuzzed_maps():
    rng = np.random.default_rng(31)
    for k in range(120):
        w, h = (int(v) for v in rng.integers(1, 13, size=2))
        if k % 4 == 0:
            w = 1
        elif k % 4 == 1:
            h = 1
        try:
            grid = gen_map(w, h, float(rng.choice([0.0, 0.2, 0.4])), None, 1, k)
        except GenerationError:
            continue
        perm, target = grid._perm_target
        padded, counts = grid._perm_choices
        ref = oracles.permissible_tables(w, h, grid.obstacles)
        for got, want, dtype in zip((perm, target, padded, counts), ref,
                                    (bool, np.int32, np.int8, np.int64)):
            assert got.dtype == dtype
            assert got.tolist() == want, f"{w}x{h}:\n{grid.to_text()}"


def test_permissible_rejects_non_free():
    g = small()
    with pytest.raises(InvalidStateError):
        permissible_actions(g, (1, 1))
    with pytest.raises(InvalidStateError):
        permissible_actions(g, (9, 9))


# -- stepping -----------------------------------------------------------------


def test_step_plain_move():
    g = small()
    out = step(g, [(0, 0)], [Action.RIGHT])
    assert out.next_cells == ((1, 0),)
    assert out.events[0] == StepEvent.MOVED


def test_step_blocked_by_map():
    g = small()
    out = step(g, [(0, 0)], [Action.UP])
    assert out.next_cells == ((0, 0),)
    assert out.events[0] == StepEvent.BLOCKED_BY_MAP
    out = step(g, [(0, 1)], [Action.RIGHT])  # into the wall
    assert out.next_cells == ((0, 1),)
    assert out.events[0] == StepEvent.BLOCKED_BY_MAP


def test_step_reaches_goal():
    g = small()
    out = step(g, [(2, 0)], [Action.RIGHT])
    assert out.next_cells == ((3, 0),)
    assert out.events[0] & StepEvent.REACHED_GOAL
    assert out.events[0] & StepEvent.MOVED


def test_step_same_target_conflict():
    g = parse_map("S.S\n.G.\n")
    # both try to enter (1, 0); the lower index wins
    out = step(g, [(0, 0), (2, 0)], [Action.RIGHT, Action.LEFT])
    assert out.next_cells == ((1, 0), (2, 0))
    assert out.events[0] == StepEvent.MOVED
    assert out.events[1] == StepEvent.BLOCKED_BY_AGENT


def test_step_swap_blocks_both():
    g = parse_map("SS\nG.\n")
    out = step(g, [(0, 0), (1, 0)], [Action.RIGHT, Action.LEFT])
    assert out.next_cells == ((0, 0), (1, 0))
    assert out.events[0] == StepEvent.BLOCKED_BY_AGENT
    assert out.events[1] == StepEvent.BLOCKED_BY_AGENT


def test_step_chain_follow():
    g = parse_map("SS.\nG..\n")
    # agent 0 vacates (0,0) first, so agent 1 may enter it this tick
    out = step(g, [(0, 0), (1, 0)], [Action.DOWN, Action.LEFT])
    assert out.next_cells == ((0, 1), (0, 0))
    assert out.events[0] & StepEvent.MOVED
    assert out.events[1] == StepEvent.MOVED


def test_step_stay_is_not_a_block():
    g = small()
    out = step(g, [(0, 0)], [Action.STAY])
    assert out.next_cells == ((0, 0),)
    assert out.events[0] == StepEvent(0)


def test_step_input_validation():
    g = small()
    with pytest.raises(InvalidJointStateError):
        step(g, [(0, 0), (0, 0)], [Action.STAY, Action.STAY])
    with pytest.raises(InvalidStateError):
        step(g, [(1, 1)], [Action.STAY])
    with pytest.raises(ValueError):
        step(g, [(0, 0)], [7])
    with pytest.raises(ValueError):
        step(g, [(0, 0)], [Action.STAY], action_noise=0.5)
    with pytest.raises(ValueError):
        step(g, [(0, 0)], [Action.STAY, Action.STAY])


def test_step_frozen_agent_holds_and_blocks():
    g = parse_map("SS.\nG..\n")
    out = step(
        g,
        [(0, 0), (1, 0)],
        [Action.DOWN, Action.LEFT],
        frozen=[True, False],
    )
    # frozen agent 0 keeps (0,0), so agent 1 is blocked this time
    assert out.next_cells == ((0, 0), (1, 0))
    assert out.events[1] == StepEvent.BLOCKED_BY_AGENT


def test_step_freezing_an_agent_changes_no_other_agents_draws():
    # agent 0 sits far from the others, so only the draws could couple them:
    # every agent owns a fixed column of the coin and pick rows, frozen or not
    g = GridMap(9, 9, goals=[(8, 8)], starts=[(0, 0)])
    cells = [(0, 0), (5, 5), (6, 3)]
    actions = [Action.STAY, Action.RIGHT, Action.UP]
    for seed in range(40):
        r1 = np.random.default_rng(seed)
        frozen_out = step(g, cells, actions, rng=r1, action_noise=1.0,
                          frozen=[True, False, False])
        r2 = np.random.default_rng(seed)
        free_out = step(g, cells, actions, rng=r2, action_noise=1.0)
        assert frozen_out.next_cells[0] == (0, 0)
        assert frozen_out.next_cells[1:] == free_out.next_cells[1:]
        assert frozen_out.events[1:] == free_out.events[1:]
        # either way the step drew one coin row and one pick row for all agents
        r3 = np.random.default_rng(seed)
        r3.random((2, 1, len(cells)))
        assert r1.random() == r2.random() == r3.random()


@pytest.mark.parametrize("frozen", [[True], [False, False, True]])
def test_step_rejects_frozen_flags_of_another_length(frozen):
    g = small()
    with pytest.raises(ValueError, match="frozen"):
        step(g, [(0, 0), (0, 2)], [Action.STAY, Action.RIGHT], frozen=frozen)


def test_step_noise_uses_permissible_actions_only():
    g = small()
    rng = np.random.default_rng(0)
    perm_targets = {(0, 1), (1, 0), (0, 0)}
    for _ in range(50):
        out = step(g, [(0, 0)], [Action.UP], rng=rng, action_noise=1.0)
        assert out.next_cells[0] in perm_targets
        # resampled actions are always permissible, so never a map block
        assert not out.events[0] & StepEvent.BLOCKED_BY_MAP


def test_step_noise_deterministic_per_seed():
    g = small()
    seq1 = [
        step(g, [(0, 2)], [Action.RIGHT], rng=np.random.default_rng(9),
             action_noise=0.7).next_cells
        for _ in range(1)
    ]
    seq2 = [
        step(g, [(0, 2)], [Action.RIGHT], rng=np.random.default_rng(9),
             action_noise=0.7).next_cells
        for _ in range(1)
    ]
    assert seq1 == seq2


# -- reward --------------------------------------------------------------------


def test_reward_levels():
    g = small()
    cfg = RewardConfig()
    assert reward((2, 0), Action.RIGHT, (3, 0), g, False, cfg) == 100.0
    assert reward((0, 0), Action.UP, (0, 0), g, True, cfg) == -5.0
    assert reward((0, 0), Action.RIGHT, (1, 0), g, False, cfg) == -1.0


def test_reward_config_validation():
    with pytest.raises(ValueError):
        RewardConfig(delta1=-5.0, delta2=-1.0)
    with pytest.raises(ValueError):
        RewardConfig(delta3=-1.0)


def test_world_config_validation():
    with pytest.raises(ValueError):
        WorldConfig(n_agents=0, horizon=5)
    with pytest.raises(ValueError):
        WorldConfig(n_agents=1, horizon=0)
    with pytest.raises(ValueError):
        WorldConfig(n_agents=1, horizon=5, action_noise=1.5)


@given(st.integers(0, 4), st.integers(0, 2), st.integers(0, 4))
def test_reward_positive_iff_goal(x, y, a):
    # exhaustive-ish: a positive reward happens exactly on goal arrival
    g = small()
    if not g.is_free((x, y)):
        return
    out = step(g, [(x, y)], [Action(a)])
    blocked = bool(out.events[0] & StepEvent.BLOCKED_BY_MAP)
    r = reward((x, y), Action(a), out.next_cells[0], g, blocked, RewardConfig())
    assert (r > 0) == (out.next_cells[0] in g.goals)
    assert (r > 0) == bool(out.events[0] & StepEvent.REACHED_GOAL)


# -- clearance ------------------------------------------------------------------


def test_clearance_examples():
    g = parse_map("S....\n.....\n..G..\n.....\n.....\n")
    assert g.obstacle_clearance((2, 2)) == 3
    assert g.obstacle_clearance((0, 0)) == 1
    g2 = parse_map("S....\n.#G..\n.....\n")
    assert g2.obstacle_clearance((0, 1)) == 1
    with pytest.raises(InvalidStateError):
        g2.obstacle_clearance((1, 1))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_clearance_matches_brute_force(data):
    w = data.draw(st.integers(2, 7), label="w")
    h = data.draw(st.integers(2, 7), label="h")
    cells = [(x, y) for x in range(w) for y in range(h)]
    obstacles = {
        c for c in cells if data.draw(st.booleans(), label=f"obs{c}")
    }
    free = [c for c in cells if c not in obstacles]
    if len(free) < 2:
        return
    g = GridMap(w, h, obstacles=obstacles, goals=[free[0]], starts=[free[0]])
    for c in free:
        assert g.obstacle_clearance(c) == oracles.min_hazard_distance(
            [c], w, h, obstacles
        )


# -- initial sampling ------------------------------------------------------------


def test_sample_initial_distinct_and_in_starts():
    g = small()
    rng = np.random.default_rng(3)
    cells = sample_initial(g, 2, rng)
    assert len(set(cells)) == 2
    assert set(cells) <= set(g.starts)


def test_sample_initial_capacity():
    g = small()
    with pytest.raises(CapacityError):
        sample_initial(g, 3, np.random.default_rng(0))


def test_sample_initial_deterministic():
    g = parse_map("SSSS\nSSSS\nG...\n")
    a = sample_initial(g, 3, np.random.default_rng(11))
    b = sample_initial(g, 3, np.random.default_rng(11))
    assert a == b


def test_sample_initial_exhausts_start_set():
    g = parse_map("SSS\nG..\n")
    cells = sample_initial(g, 3, np.random.default_rng(0))
    assert sorted(cells) == sorted(g.starts)


def test_sample_initial_respects_weights():
    g = GridMap(
        3, 1,
        goals=[(2, 0)],
        starts={(0, 0): 0.9, (1, 0): 0.1},
    )
    rng = np.random.default_rng(42)
    hits = sum(sample_initial(g, 1, rng)[0] == (0, 0) for _ in range(2000))
    # binomial(2000, 0.9): 4 sigma is about 54
    assert abs(hits - 1800) < 54


# -- episode generators ----------------------------------------------------------


@pytest.mark.parametrize("make", [np.random.default_rng,
                                  lambda seed: np.random.Generator(np.random.MT19937(seed))])
def test_each_child_equals_rng_spawn_a_batch_at_a_time(make):
    n = 2 * _BATCH + 3
    rng, twin = make(3), make(3)
    children = _each_child(rng, n)
    # lazy: nothing is seeded before the first child is taken
    assert rng.bit_generator.seed_seq.n_children_spawned == 0
    for e, want in enumerate(twin.spawn(n)):
        assert next(children).random(3).tolist() == want.random(3).tolist()
        # the parent advances by the whole batch when its first child is taken
        assert rng.bit_generator.seed_seq.n_children_spawned == min(n, (e // _BATCH + 1) * _BATCH)
    assert next(children, None) is None
    assert rng.spawn(1)[0].random() == twin.spawn(1)[0].random()


# -- step stays on free cells (fuzz) ---------------------------------------------


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_step_lands_on_free_cells(data):
    g = small()
    free = g.free_cells()
    cell = data.draw(st.sampled_from(free), label="cell")
    a = data.draw(st.integers(0, 4), label="action")
    out = step(g, [cell], [Action(a)])
    nxt = out.next_cells[0]
    assert g.is_free(nxt)
    if out.events[0] & StepEvent.BLOCKED_BY_MAP:
        assert nxt == cell
    elif out.events[0] & StepEvent.MOVED:
        dx, dy = action_delta(Action(a))
        assert nxt == (cell[0] + dx, cell[1] + dy)

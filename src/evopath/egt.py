"""Evolutionary counter learning over (cell, action) pairs.

A population table holds an integer counter per (cell, action). Counters start
undefined; trajectories that reach a goal are probabilistically accepted and
increment every visited pair, while sufficiently bad failed trajectories
decrement them. Normalizing the positive counters per cell yields a policy.
Training can either keep a uniform random behavior policy throughout
("faithful" mode) or periodically rebuild the behavior policy from the
counters ("iterative" mode, the default).

Training, the invasion test's extra episodes and its fitness evaluation all
run on one batched kernel that advances every live (episode, agent) pair one
tick at a time under a fixed behavior policy; train() documents its
per-episode draw layout and its tick rule.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, Mapping, Sequence

import numpy as np

from .gridworld import (
    Action,
    Cell,
    GridMap,
    InvalidStateError,
    N_ACTIONS,
    RewardConfig,
    WorldConfig,
    _sample_initial_ids,
    action_from_name,
    action_name,
    manhattan,
)

WORST_FITNESS = math.inf


@dataclass
class Trajectory:
    """One agent-episode: visited (state, action) pairs, final state, goal flag."""

    steps: list[tuple[Cell, Action]]
    final: Cell
    reached_goal: bool


def _stretch(n_steps: int, displacement: int) -> float:
    if n_steps == 0:
        return 1.0
    if displacement == 0:
        return WORST_FITNESS
    return n_steps / displacement


def fitness(tau: Trajectory) -> float:
    """Stretch factor: steps taken over Manhattan displacement (lower is fitter).

    An empty trajectory scores 1.0. A non-empty trajectory that ends on its
    own first cell has no meaningful stretch and scores WORST_FITNESS, which
    compares as +inf everywhere.
    """
    if not tau.steps:
        return 1.0
    return _stretch(len(tau.steps), manhattan(tau.steps[0][0], tau.final))


def success_update_probability(u: float, eta: float, alpha: float) -> float:
    """Acceptance probability for a goal-reaching trajectory of stretch u.

    1 - (u - 1)^alpha while u <= eta, then 1/u. Requires u >= 1 (goal-reaching
    trajectories cannot beat the Manhattan distance).
    """
    if u < 1.0:
        raise ValueError(f"stretch factor must be >= 1, got {u}")
    if u <= eta:
        return 1.0 - (u - 1.0) ** alpha
    return 1.0 / u


class CounterTable:
    """Integer counters per (cell, action); never-updated entries are undefined.

    Undefined is distinct from zero: an entry becomes defined on its first
    add() and stays defined. Entries exist only for free in-bounds cells.
    """

    def __init__(self, grid: GridMap) -> None:
        self.grid = grid
        self._values = np.zeros((grid.n_cells, N_ACTIONS), dtype=np.int64)
        self._defined = np.zeros((grid.n_cells, N_ACTIONS), dtype=bool)

    def get(self, cell: Cell, action: Action) -> int | None:
        """Counter value, or None while the entry is undefined."""
        cid = self._checked_id(cell)
        if not self._defined[cid, int(action)]:
            return None
        return int(self._values[cid, int(action)])

    def add(self, cell: Cell, action: Action, delta: int) -> int:
        """Add delta to the entry (defining it if needed); returns the new value."""
        cid = self._checked_id(cell)
        a = int(action)
        self._defined[cid, a] = True
        self._values[cid, a] += int(delta)
        return int(self._values[cid, a])

    def _checked_id(self, cell: Cell) -> int:
        if not self.grid.is_free(cell):
            raise InvalidStateError(f"cell {cell} is not a free in-bounds cell")
        return self.grid.cell_id(cell)

    def n_defined(self) -> int:
        return int(self._defined.sum())

    def items(self) -> list[tuple[tuple[Cell, Action], int]]:
        """Defined entries sorted by (x, y, action)."""
        out = []
        for cid, a in zip(*np.nonzero(self._defined)):
            cell = self.grid.id_to_cell(int(cid))
            out.append(((cell, Action(int(a))), int(self._values[cid, a])))
        out.sort(key=lambda kv: (kv[0][0], int(kv[0][1])))
        return out

    def copy(self) -> "CounterTable":
        dup = CounterTable(self.grid)
        dup._values = self._values.copy()
        dup._defined = self._defined.copy()
        return dup

    def to_text(self) -> str:
        """Snapshot lines "x y action counter" sorted by (x, y, action)."""
        lines = [
            f"{cell[0]} {cell[1]} {action_name(a)} {v}"
            for (cell, a), v in self.items()
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, grid: GridMap, text: str) -> "CounterTable":
        table = cls(grid)
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"counter snapshot line {lineno}: expected 4 fields")
            x, y, name, value = parts
            cell = (int(x), int(y))
            cid = table._checked_id(cell)
            a = int(action_from_name(name))
            table._defined[cid, a] = True
            table._values[cid, a] = int(value)
        return table


class Policy:
    """Per-cell probability vectors over the five actions (canonical order)."""

    def __init__(self, grid: GridMap, probs: np.ndarray) -> None:
        probs = np.asarray(probs, dtype=np.float64)
        if probs.shape != (grid.n_cells, N_ACTIONS):
            raise ValueError(f"policy array must have shape ({grid.n_cells}, {N_ACTIONS})")
        if (probs < 0).any():
            raise ValueError("policy probabilities must be non-negative")
        free = grid._free_mask
        sums = probs[free].sum(axis=1)
        if len(sums) and np.abs(sums - 1.0).max() > 1e-9:
            raise ValueError("policy rows must sum to 1 within 1e-9")
        self.grid = grid
        self._probs = probs.copy()

    @classmethod
    def uniform(cls, grid: GridMap) -> "Policy":
        return cls(grid, np.full((grid.n_cells, N_ACTIONS), 1.0 / N_ACTIONS))

    @classmethod
    def from_mapping(
        cls, grid: GridMap, cell_probs: Mapping[Cell, Sequence[float]]
    ) -> "Policy":
        """Build from a cell -> vector mapping; unmentioned cells are uniform."""
        probs = np.full((grid.n_cells, N_ACTIONS), 1.0 / N_ACTIONS)
        for cell, vec in cell_probs.items():
            probs[grid.cell_id(cell)] = np.asarray(vec, dtype=np.float64)
        return cls(grid, probs)

    @cached_property
    def _cdf(self) -> np.ndarray:
        return np.cumsum(self._probs, axis=1)

    def probs_at(self, cell: Cell) -> np.ndarray:
        """Probability vector for a cell (uniform for cells never assigned)."""
        return self._probs[self.grid.cell_id(cell)].copy()

    def sample(self, cell: Cell, rng: np.random.Generator) -> Action:
        return Action(self._sample_id(self.grid.cell_id(cell), rng.random()))

    def _sample_id(self, cid: int, u: float) -> int:
        # count of cumulative entries below u; identical rule in all samplers
        # (int() each term: numpy bool scalars OR under + instead of adding)
        row = self._cdf[cid]
        return int(row[0] < u) + int(row[1] < u) + int(row[2] < u) + int(row[3] < u)

    def to_text(self) -> str:
        """Snapshot lines "x y p_up p_down p_left p_right p_stay", free cells by (x, y)."""
        lines = []
        for cell in self.grid.free_cells():
            row = self._probs[self.grid.cell_id(cell)]
            vals = " ".join(f"{p:.6f}" for p in row)
            lines.append(f"{cell[0]} {cell[1]} {vals}")
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, grid: GridMap, text: str) -> "Policy":
        """Parse a snapshot; missing free cells become uniform, rows are renormalized."""
        probs = np.full((grid.n_cells, N_ACTIONS), 1.0 / N_ACTIONS)
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2 + N_ACTIONS:
                raise ValueError(f"policy snapshot line {lineno}: expected 7 fields")
            cell = (int(parts[0]), int(parts[1]))
            if not grid.is_free(cell):
                raise InvalidStateError(f"policy snapshot line {lineno}: cell {cell} not free")
            vec = np.array([float(v) for v in parts[2:]])
            total = vec.sum()
            if not 0.999 <= total <= 1.001:
                raise ValueError(f"policy snapshot line {lineno}: row sums to {total}")
            probs[grid.cell_id(cell)] = vec / total
        return cls(grid, probs)


def construct_policy(table: CounterTable, epsilon: float, grid: GridMap) -> Policy:
    """Normalize strictly positive counters per cell, then mix in epsilon-uniform.

    Cells whose counters are all undefined or all non-positive act uniformly.
    """
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    v = table._values
    pos = table._defined & (v > 0)
    w = np.where(pos, v, 0).astype(np.float64)
    sums = w.sum(axis=1)
    has = sums > 0
    probs = np.full((grid.n_cells, N_ACTIONS), 1.0 / N_ACTIONS)
    probs[has] = w[has] / sums[has, None]
    probs = (1.0 - epsilon) * probs + epsilon / N_ACTIONS
    return Policy(grid, probs)


def greedy_action_map(table: CounterTable) -> dict[Cell, Action]:
    """Per cell with any defined counter: the largest-counter action.

    Ties break toward the smaller action index (Up < Down < Left < Right < Stay).
    Cells with no defined counters are omitted.
    """
    vals = np.where(table._defined, table._values.astype(np.float64), -np.inf)
    rows = np.flatnonzero(table._defined.any(axis=1))
    best = np.argmax(vals[rows], axis=1)
    return {
        table.grid.id_to_cell(int(cid)): Action(int(a))
        for cid, a in zip(rows, best)
    }


@dataclass(frozen=True)
class EGTParams:
    """Evolution parameters; defaults follow the workbench-wide conventions."""

    eta: float = 1.5
    alpha: float = 2.0
    beta: float = 2.0
    nu: int = 1
    mu: int = 1
    epsilon: float = 0.05
    episodes: int = 2000
    reconstruct_interval: int = 100
    behavior_mode: str = "iterative"

    def __post_init__(self) -> None:
        if not 1.0 <= self.eta <= 2.0:
            raise ValueError("eta must lie in [1, 2]")
        if not self.alpha > 1.0:
            raise ValueError("alpha must be > 1")
        if not self.beta >= 1.0:
            raise ValueError("beta must be >= 1")
        if self.nu < 1 or self.mu < 1:
            raise ValueError("nu and mu must be positive integers")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if self.reconstruct_interval < 1:
            raise ValueError("reconstruct_interval must be >= 1")
        if self.behavior_mode not in ("faithful", "iterative"):
            raise ValueError("behavior_mode must be 'faithful' or 'iterative'")


@dataclass
class TrainingStats:
    """Counters produced by a training run."""

    episodes_run: int = 0
    policy_updates: int = 0
    goal_reach_count: int = 0
    wall_time: float = 0.0


def _apply_update_ids(
    table: CounterTable,
    s_ids: Sequence[int],
    a_ids: Sequence[int],
    final_id: int,
    reached: bool,
    params: EGTParams,
    rng: np.random.Generator,
    stats: TrainingStats,
) -> int:
    """Core update on integer ids; returns the number of distinct pairs touched."""
    n_steps = len(s_ids)
    w = table.grid.width
    if n_steps:
        first = int(s_ids[0])
        d = abs(first % w - final_id % w) + abs(first // w - final_id // w)
    else:
        d = 0
    u = _stretch(n_steps, d)
    if reached:
        p = success_update_probability(u, params.eta, params.alpha)
        if not rng.random() < p:
            return 0
        delta = params.nu
    else:
        if not u >= params.beta:
            return 0
        delta = -params.mu
    if n_steps == 0:
        return 0
    s = np.asarray(s_ids, dtype=np.int64)
    a = np.asarray(a_ids, dtype=np.int64)
    flat = np.unique(s * N_ACTIONS + a)
    table._values[flat // N_ACTIONS, flat % N_ACTIONS] += delta
    table._defined[flat // N_ACTIONS, flat % N_ACTIONS] = True
    stats.policy_updates += 1
    return int(flat.size)


def apply_update(
    table: CounterTable,
    tau: Trajectory,
    params: EGTParams,
    rng: np.random.Generator,
) -> tuple[bool, int]:
    """Submit one trajectory to the table.

    Goal-reaching trajectories increment every visited (state, action) pair by
    nu when an acceptance draw passes (probability from
    success_update_probability); failed trajectories with stretch >= beta
    decrement by mu. Returns (modified, distinct pairs touched). Each distinct
    pair moves once per submission no matter how often the trajectory repeats
    it.
    """
    s_ids = []
    a_ids = []
    for cell, action in tau.steps:
        s_ids.append(table._checked_id(cell))
        a_ids.append(int(action))
    stats = TrainingStats()
    touched = _apply_update_ids(
        table, s_ids, a_ids, table.grid.cell_id(tau.final),
        tau.reached_goal, params, rng, stats,
    )
    return touched > 0, touched


# -- training ----------------------------------------------------------------

_BATCH = 512
# bound on a batch's draw, trajectory and occupancy buffers
_BATCH_BYTES = 48_000_000


def _spawn_batches(
    rng: np.random.Generator, n_episodes: int, world: WorldConfig, grid: GridMap
) -> Iterator[list[np.random.Generator]]:
    """Yield per-episode child generators, spawned from rng in episode order."""
    # per agent-tick: an 8-byte action uniform, a 4-byte cell and a 1-byte
    # action, plus two 8-byte noise draws; per episode a 4-byte owner grid
    per_episode = world.n_agents * world.horizon * 13 + 4 * grid.n_cells
    if world.action_noise > 0.0:
        per_episode += world.n_agents * world.horizon * 16
    size = max(8, min(_BATCH, _BATCH_BYTES // per_episode))
    done = 0
    while done < n_episodes:
        B = min(size, n_episodes - done)
        yield rng.spawn(B)
        done += B


@dataclass
class _Episodes:
    """A batch of finished episodes, one entry per (episode, agent) pair.

    Pair p = b * n_agents + i is agent i of episode b. Per pair: start and
    final cell, ticks recorded, and the tick it reached a goal (the horizon
    if it never did). S and A hold the cell and action of every recorded
    tick, shape (pairs, horizon).
    """

    first: np.ndarray
    cells: np.ndarray
    steps: np.ndarray
    arrival: np.ndarray
    S: np.ndarray
    A: np.ndarray


def _run_episodes(
    grid: GridMap,
    world: WorldConfig,
    behavior: Policy,
    children: Sequence[np.random.Generator],
) -> _Episodes:
    """Run one episode per child generator under a fixed behavior policy.

    Draws each child's block up front and then advances every live
    (episode, agent) pair one tick at a time; the draw layout and the tick
    rule are the ones documented in train().
    """
    T = world.horizon
    N = world.n_agents
    noise = world.action_noise
    B = len(children)
    P = B * N
    # an impermissible move targets the agent's own cell
    _, target = grid._perm_target
    padded, counts = grid._perm_choices
    goal = grid._goal_mask
    cdf4 = behavior._cdf[:, :4]

    # (T, N) blocks per child: action uniforms, then with noise coins and picks
    first = np.empty(P, dtype=np.int64)
    draws = np.empty((3 if noise > 0.0 else 1, T, B, N))
    for j, r in enumerate(children):
        first[j * N:(j + 1) * N] = _sample_initial_ids(grid, N, r)
        draws[:, :, j] = r.random((len(draws), T, N))
    U = draws[0].reshape(T, P)
    if noise > 0.0:
        UN = draws[1].reshape(T, P)
        UP = draws[2].reshape(T, P)

    cells = first.copy()
    S = np.zeros((P, T), dtype=np.int32)
    A = np.zeros((P, T), dtype=np.int8)
    steps = np.zeros(P, dtype=np.int64)
    arrival = np.full(P, T, dtype=np.int64)
    live = np.flatnonzero(~goal[cells])
    if N > 1:
        # owner[b * n_cells + cell]: index of the agent on that cell, or -1
        agent = np.tile(np.arange(N), B)
        offset = np.repeat(np.arange(B) * grid.n_cells, N)
        owner = np.full(B * grid.n_cells, -1, dtype=np.int32)
        owner[offset + first] = agent
    for t in range(T):
        if live.size == 0:
            break
        c = cells[live]
        u = U[t, live]
        a = (cdf4[c] < u[:, None]).sum(axis=1)
        if noise > 0.0:
            fire = UN[t, live] < noise
            if fire.any():
                cf = c[fire]
                k = (UP[t, live][fire] * counts[cf]).astype(np.int64)
                a[fire] = padded[cf, k]
        S[live, t] = c
        A[live, t] = a
        steps[live] = t + 1
        tgt = target[c, a]
        if N > 1:
            i = agent[live]
            off = offset[live]
            dest = off + tgt
            occ = owner[dest]
            # eligible: a real move into an empty cell or one held by a
            # lower-index agent; only the lowest eligible claimant of a cell
            # can enter it
            elig = np.flatnonzero((tgt != c) & (occ < i))
            _, lowest = np.unique(dest[elig], return_index=True)
            win = elig[lowest]
            go = occ[win] < 0
            # a held target frees up only if its occupant moves; occupants
            # have lower indices, so this settles within N rounds
            wait = np.flatnonzero(~go)
            if wait.size:
                moved = np.zeros(P, dtype=bool)
                moved[live[win[go]]] = True
                dep = live[win[wait]] - i[win[wait]] + occ[win[wait]]
                while wait.size:
                    hit = moved[dep]
                    if not hit.any():
                        break
                    go[wait[hit]] = True
                    moved[live[win[wait[hit]]]] = True
                    wait, dep = wait[~hit], dep[~hit]
            mv = win[go]
            owner[off[mv] + c[mv]] = -1
            owner[dest[mv]] = i[mv]
            nxt = c.copy()
            nxt[mv] = tgt[mv]
            tgt = nxt
        cells[live] = tgt
        arrived = goal[tgt]
        if arrived.any():
            arrival[live[arrived]] = t
            live = live[~arrived]
    return _Episodes(first, cells, steps, arrival, S, A)


def _train_episodes(
    grid: GridMap,
    world: WorldConfig,
    params: EGTParams,
    table: CounterTable,
    behavior: Policy,
    children: Sequence[np.random.Generator],
    stats: TrainingStats,
) -> None:
    """Run a batch of training episodes and submit every trajectory.

    Submissions go in (episode, arrival tick, agent) order; pairs that never
    arrive count as arriving at the horizon, and pairs with no steps (started
    on a goal) submit nothing.
    """
    N = world.n_agents
    T = world.horizon
    ep = _run_episodes(grid, world, behavior, children)
    p = np.flatnonzero(ep.steps > 0)
    p = p[np.argsort(p // N * (T + 1) + ep.arrival[p], kind="stable")]
    reached = grid._goal_mask[ep.cells]
    for q in p.tolist():
        L = int(ep.steps[q])
        _apply_update_ids(
            table, ep.S[q, :L], ep.A[q, :L], int(ep.cells[q]),
            bool(reached[q]), params, children[q // N], stats,
        )
    stats.episodes_run += len(children)
    stats.goal_reach_count += int(reached.sum())


def train(
    grid: GridMap,
    world: WorldConfig,
    params: EGTParams,
    reward_cfg: RewardConfig,
    rng: np.random.Generator,
) -> tuple[Policy, CounterTable, TrainingStats]:
    """Evolve a counter table over episodes and return (policy, table, stats).

    The learner is reward-free; reward_cfg is accepted for interface parity
    with the tabular learners and is not consulted.

    Draw layout. Each episode owns a child generator spawned from rng in
    episode order, so a fixed seed reproduces the run exactly. A child draws,
    in this order: the start cells of all N agents; a (T, N) block of action
    uniforms; with action noise, a (T, N) block of noise coins and then a
    (T, N) block of noise picks; then one acceptance draw per submitted
    goal-reaching trajectory, in submission order. In ess_test's extra
    episodes every child first draws its invader coin.

    Tick rule. Agent i samples its action from the behavior row of its cell
    at the start of the tick (noise coin below action_noise: a uniform pick
    among the cell's permissible actions instead). Agents then move in
    ascending index order: a move into a cell that is occupied at the
    agent's turn is blocked, which also blocks both ends of a swap. An agent
    that reaches a goal freezes there and keeps blocking its cell. Within an
    episode trajectories are submitted by arrival tick, ties by agent index;
    agents still out at the horizon submit last, in index order, and agents
    that start on a goal submit nothing.
    """
    del reward_cfg
    t0 = time.perf_counter()
    table = CounterTable(grid)
    stats = TrainingStats()
    uniform = Policy.uniform(grid)
    e = 0
    while e < params.episodes:
        if params.behavior_mode == "iterative":
            behavior = construct_policy(table, params.epsilon, grid)
            chunk = min(params.reconstruct_interval, params.episodes - e)
        else:
            behavior = uniform
            chunk = params.episodes - e
        for children in _spawn_batches(rng, chunk, world, grid):
            _train_episodes(grid, world, params, table, behavior, children, stats)
        e += chunk
    policy = construct_policy(table, params.epsilon, grid)
    stats.wall_time = time.perf_counter() - t0
    return policy, table, stats


# -- invasion test ------------------------------------------------------------


def _evaluate_fitness(
    grid: GridMap,
    world: WorldConfig,
    policy: Policy,
    rng: np.random.Generator,
    episodes: int,
) -> float:
    """Mean signed fitness (negative stretch, higher is better) over rollouts.

    The WORST sentinel is clamped to the horizon, the largest finite stretch
    any trajectory can attain, so degenerate loops cannot drag the mean to
    -inf.
    """
    T = world.horizon
    w = grid.width
    total = 0.0
    for children in _spawn_batches(rng, episodes, world, grid):
        ep = _run_episodes(grid, world, policy, children)
        d = np.abs(ep.first % w - ep.cells % w) + np.abs(ep.first // w - ep.cells // w)
        for n_steps, dist in zip(ep.steps.tolist(), d.tolist()):
            total += -min(_stretch(n_steps, dist), float(T))
    return total / (episodes * world.n_agents)


@dataclass(frozen=True)
class ESSReport:
    """Invasion-test outcome.

    fitness_before/fitness_after are the negative mean stretch (higher is
    better, -1.0 is optimal). argmax_agreement is the fraction of states,
    among those with a greedy action both before and after the invasion,
    whose greedy action is unchanged.
    """

    p_new: float
    argmax_agreement: float
    fitness_before: float
    fitness_after: float
    is_ess: bool
    states_compared: int
    extra_episodes: int


def ess_test(
    grid: GridMap,
    world: WorldConfig,
    params: EGTParams,
    reward_cfg: RewardConfig,
    p_new: float,
    extra_episode_fraction: float,
    rng: np.random.Generator,
    *,
    eval_episodes: int = 200,
    agreement_threshold: float = 0.95,
    fitness_tolerance: float = 0.05,
    invader: Policy | None = None,
) -> ESSReport:
    """Train, then continue training under an invading behavior policy.

    During the extra episodes each episode's behavior is the invader
    (uniform random unless one is supplied) with probability p_new, decided
    by the first draw of the episode's generator, else the trained policy;
    counter updates keep flowing. Fitness is evaluated over eval_episodes
    (at least 1) episodes of the same kernel, without updates. The trained policy is an
    equilibrium for the report when its greedy map barely changes and the
    re-evaluated fitness did not drop by more than fitness_tolerance.
    """
    if not 0.0 <= p_new <= 1.0:
        raise ValueError("p_new must lie in [0, 1]")
    if extra_episode_fraction < 0.0:
        raise ValueError("extra_episode_fraction must be >= 0")
    if eval_episodes < 1:
        raise ValueError("eval_episodes must be >= 1")
    policy, table, _ = train(grid, world, params, reward_cfg, rng)
    before = greedy_action_map(table)
    fit_before = _evaluate_fitness(grid, world, policy, rng, eval_episodes)

    extra = int(round(extra_episode_fraction * params.episodes))
    stats = TrainingStats()
    inv = invader if invader is not None else Policy.uniform(grid)
    for children in _spawn_batches(rng, extra, world, grid):
        invaded = [r.random() < p_new for r in children]
        for behavior, flag in ((inv, True), (policy, False)):
            group = [r for r, f in zip(children, invaded) if f == flag]
            if group:
                _train_episodes(grid, world, params, table, behavior, group, stats)

    final_policy = construct_policy(table, params.epsilon, grid)
    after = greedy_action_map(table)
    fit_after = _evaluate_fitness(grid, world, final_policy, rng, eval_episodes)

    common = sorted(set(before) & set(after))
    if common:
        agreement = sum(before[c] == after[c] for c in common) / len(common)
    else:
        agreement = 1.0
    is_ess = bool(
        agreement >= agreement_threshold
        and fit_after >= fit_before - fitness_tolerance
    )
    return ESSReport(
        p_new=p_new,
        argmax_agreement=agreement,
        fitness_before=fit_before,
        fitness_after=fit_after,
        is_ess=is_ess,
        states_compared=len(common),
        extra_episodes=extra,
    )

"""Evolutionary counter learning over (cell, action) pairs.

A population table holds an integer counter per (cell, action). Counters start
undefined; trajectories that reach a goal are probabilistically accepted and
increment every visited pair, while sufficiently bad failed trajectories
decrement them. Normalizing the positive counters per cell yields a policy.
Training can either keep a uniform random behavior policy throughout
("faithful" mode) or periodically rebuild the behavior policy from the
counters ("iterative" mode, the default).

Training, the invasion test's extra episodes and its fitness evaluation all
run through _batches. Per batch it seeds the episodes' generators by
gridworld._children, draws the batch by _draw_batch, and plays it on one
batched kernel, _run_episodes. The kernel draws nothing: it advances every
live (episode, agent) pair one tick at a time under a stack of fixed
behavior policies with a policy index per pair. Training and fitness
evaluation pass one policy; the invasion test passes the invader and the
incumbent. train() documents the per-episode draw layout and the
submission rule.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .gridworld import (
    Action,
    Cell,
    GridMap,
    InvalidStateError,
    N_ACTIONS,
    RewardConfig,
    WorldConfig,
    _BATCH,
    _children,
    _episode_draws,
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


def _stretches(n_steps, displacement) -> np.ndarray:
    """fitness, elementwise, from step counts and Manhattan displacements."""
    n = np.asarray(n_steps, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(n == 0, 1.0, n / displacement)


def fitness(tau: Trajectory) -> float:
    """Stretch factor: steps taken over Manhattan displacement (lower is fitter).

    An empty trajectory scores 1.0. A non-empty trajectory that ends on its
    own first cell has no meaningful stretch and scores WORST_FITNESS, which
    compares as +inf everywhere.
    """
    d = manhattan(tau.steps[0][0], tau.final) if tau.steps else 0
    return float(_stretches(len(tau.steps), d))


def success_update_probability(u, eta: float, alpha: float):
    """Acceptance probability for a goal-reaching trajectory of stretch u.

    1 - (u - 1)^alpha while u <= eta, then 1/u, elementwise for an array u.
    Requires u >= 1 (goal-reaching trajectories cannot beat the Manhattan
    distance).
    """
    arr = np.array(u, dtype=np.float64, ndmin=1)
    if (arr < 1.0).any():
        raise ValueError(f"stretch factor must be >= 1, got {float(arr[arr < 1.0][0])}")
    p = 1.0 / arr
    near = arr <= eta
    # Python's float power, not np.power: numpy's SIMD power can differ from
    # the C library's pow in the last bit, which would flip acceptance draws
    p[near] = [1.0 - (x - 1.0) ** alpha for x in arr[near].tolist()]
    return float(p[0]) if np.ndim(u) == 0 else p.reshape(np.shape(u))


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
        cid = self.grid._free_id(cell)
        if not self._defined[cid, int(action)]:
            return None
        return int(self._values[cid, int(action)])

    def add(self, cell: Cell, action: Action, delta: int) -> int:
        """Add delta to the entry (defining it if needed); returns the new value."""
        cid = self.grid._free_id(cell)
        a = int(action)
        self._defined[cid, a] = True
        self._values[cid, a] += int(delta)
        return int(self._values[cid, a])

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
            cid = table.grid._free_id(cell)
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


def apply_update(
    table: CounterTable,
    tau: Trajectory,
    params: EGTParams,
    rng: np.random.Generator,
) -> tuple[bool, int]:
    """Submit one trajectory to the table, as a batch of one (see train).

    Returns (modified, distinct pairs touched).
    """
    ids = [table.grid._free_id(cell) for cell, _ in tau.steps]
    final = table.grid.cell_id(tau.final)
    ep = _Episodes(np.array(ids[:1] or [final]), np.array([final]), np.array([len(ids)]),
                   np.zeros(1, dtype=np.int64), np.array([ids], dtype=np.int64),
                   np.array([[a for _, a in tau.steps]], dtype=np.int64))
    won = np.array([tau.reached_goal])
    # a stretch below 1 raises before the acceptance draw
    success_update_probability(ep.stretches(table.grid.width)[won], params.eta, params.alpha)
    touched = int(_submit(table, params, ep, won, rng.random((1, int(tau.reached_goal))))[0])
    return touched > 0, touched


# -- training ----------------------------------------------------------------

# bound on a batch's draw, trajectory and occupancy buffers
_BATCH_BYTES = 48_000_000
# bound on the (trajectories, horizon) temporaries of one _submit slice
_SUBMIT_CELLS = 1 << 16


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

    def stretches(self, width: int) -> np.ndarray:
        """Per pair: its trajectory's stretch factor (see fitness)."""
        f, c = self.first, self.cells
        return _stretches(self.steps, np.abs(f % width - c % width) + np.abs(f // width - c // width))


def _run_starts(s: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in the sorted array s."""
    first = np.empty(len(s), dtype=bool)
    first[:1] = True
    np.not_equal(s[1:], s[:-1], out=first[1:])
    return first


def _draw_batch(grid: GridMap, world: WorldConfig, B: int, children: Iterable[np.random.Generator],
                p_new: float | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Draw B episodes, one per child generator, by gridworld._episode_draws.

    In child order, each child first draws its invader coin when p_new is
    given, then its start cells and its uniform block, with one behaviour
    row, then reads ahead its n_agents acceptance uniforms: the most its
    episode can submit. No child draws again, so the uniforms its episode
    leaves unused are discarded. Returns the start cells, shape (pairs,),
    the block, shape (rows, T, pairs), the acceptance uniforms, shape
    (B, n_agents), and the policy index per pair: 0 without p_new, else 0
    (the invader) where the episode's coin fell below p_new and 1 (the
    incumbent) elsewhere. Pair p = b * n_agents + i is agent i of child b's
    episode.
    """
    T, N, noise = world.horizon, world.n_agents, world.action_noise
    first = np.empty(B * N, dtype=np.int64)
    draws = np.empty((3 if noise > 0.0 else 1, T, B, N))
    accept = np.empty((B, N))
    index = np.zeros((B, N), dtype=np.intp)
    for j, r in enumerate(children):
        if p_new is not None:
            index[j] = r.random() >= p_new
        first[j * N:(j + 1) * N], draws[:, :, j] = _episode_draws(grid, N, T, 1, noise, r)
        r.random(out=accept[j])
    return first, draws.reshape(len(draws), T, B * N), accept, index.reshape(-1)


def _run_episodes(
    grid: GridMap,
    world: WorldConfig,
    cdfs: np.ndarray,
    index: np.ndarray,
    first: np.ndarray,
    draws: np.ndarray,
) -> _Episodes:
    """Run a batch of episodes from their draws under a stack of fixed policies.

    A pure function of its draws and its policy stack: it draws nothing.
    first and draws are the start cells and the (rows, T, pairs) uniform
    block that _draw_batch returns. cdfs stacks the CDF rows of K behavior
    policies, shape (K, n_cells, 5), and pair p acts by policy index[p].
    Every live (episode, agent) pair advances one tick at a time under
    gridworld._play's tick rule, restated over arrays, and samples its action
    by Policy._sample_id's rule: the count of its CDF row's first four entries
    below its uniform. The live pairs' cells, agent indices and policy rows
    are kept as compact arrays, filtered only on a tick where a pair arrives.
    """
    T = world.horizon
    N = world.n_agents
    noise = world.action_noise
    P = len(first)
    B = P // N
    # an impermissible move targets the agent's own cell; action a's target
    # from cell c is target[c * 5 + a]
    target = grid._perm_target[1].reshape(-1)
    padded, counts = grid._perm_choices
    goal = grid._goal_mask
    # pair p's behavior row for cell c is column j's entry row[p] + c
    cols = np.ascontiguousarray(cdfs.reshape(-1, N_ACTIONS)[:, :4].T)
    U = draws[0]
    if noise > 0.0:
        UN, UP = draws[1], draws[2]

    cells = first.copy()
    S = np.zeros((P, T), dtype=np.int32)
    A = np.zeros((P, T), dtype=np.int8)
    arrival = np.full(P, T, dtype=np.int64)
    live = np.flatnonzero(~goal[cells])
    # per live pair: its cell and its policy's first row
    c = first[live]
    row = index[live] * grid.n_cells
    if N > 1:
        # owner[b * n_cells + cell]: index of the agent on that cell, or -1
        owner = np.full(B * grid.n_cells, -1, dtype=np.int32)
        owner[np.arange(B).repeat(N) * grid.n_cells + first] = np.tile(np.arange(N), B)
        # per live pair: its agent index and its episode's owner offset
        i = live % N
        off = live // N * grid.n_cells
    for t in range(T):
        if live.size == 0:
            break
        u = U[t, live]
        r = row + c
        # astype: a sum of bool arrays would OR them
        a = (cols[0][r] < u).astype(np.int64)
        a += cols[1][r] < u
        a += cols[2][r] < u
        a += cols[3][r] < u
        if noise > 0.0:
            fire = UN[t, live] < noise
            if fire.any():
                cf = c[fire]
                k = (UP[t, live[fire]] * counts[cf]).astype(np.int64)
                a[fire] = padded[cf, k]
        S[live, t] = c
        A[live, t] = a
        tgt = target[c * N_ACTIONS + a]
        if N > 1:
            dest = off + tgt
            occ = owner[dest]
            # eligible: a move into an empty cell or one held by a lower-index
            # agent (a Stay or impermissible move targets the agent's own cell,
            # held by itself); only the lowest eligible claimant can enter:
            # the stable sort keeps claimants of one cell in index order
            # (nonzero()[0]: flatnonzero's Python wrapper outcosts it here)
            elig = (occ < i).nonzero()[0]
            d = dest[elig]
            by_dest = np.argsort(d, kind="stable")
            win = elig[by_dest[_run_starts(d[by_dest])]]
            go = occ[win] < 0
            # a held target frees up only if its occupant moves; occupants
            # have lower indices, so this settles within N rounds
            wait = (~go).nonzero()[0]
            if wait.size:
                moved = np.zeros(P, dtype=bool)
                moved[live[win[go]]] = True
                held = win[wait]
                dep = live[held] - i[held] + occ[held]
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
            c[mv] = tgt[mv]
        else:
            c = tgt
        arrived = goal[c]
        if arrived.any():
            done = live[arrived]
            arrival[done] = t
            cells[done] = c[arrived]
            stay = ~arrived
            live, c, row = live[stay], c[stay], row[stay]
            if N > 1:
                i, off = i[stay], off[stay]
    cells[live] = c
    # a pair records every tick until it arrives; one that starts on a goal records none
    steps = np.where(goal[first], 0, np.minimum(arrival + 1, T))
    return _Episodes(first, cells, steps, arrival, S, A)


def _batches(grid: GridMap, world: WorldConfig, rng: np.random.Generator, n_episodes: int,
             cdfs: np.ndarray, p_new: float | None = None) -> Iterator[tuple[_Episodes, np.ndarray]]:
    """Play n_episodes episodes on children of rng, a batch at a time.

    Per batch, _children seeds the batch's children, _draw_batch draws
    their episodes (with p_new, each child's invader coin first) and
    _run_episodes plays them under the policy stack cdfs. Yields each
    batch's episodes and acceptance uniforms.
    """
    # per agent-tick: an 8-byte action uniform, a 4-byte cell and a 1-byte
    # action, plus two 8-byte noise draws; per episode a 4-byte owner grid
    per_episode = world.n_agents * world.horizon * 13 + 4 * grid.n_cells
    if world.action_noise > 0.0:
        per_episode += world.n_agents * world.horizon * 16
    size = max(8, min(_BATCH, _BATCH_BYTES // per_episode))
    for lo in range(0, n_episodes, size):
        B = min(size, n_episodes - lo)
        first, block, accept, index = _draw_batch(grid, world, B, _children(rng, B), p_new)
        episodes = _run_episodes(grid, world, cdfs, index, first, block)
        # a suspended generator keeps its locals alive: free the block, the
        # batch's largest array, while the caller submits, and the episodes
        # while the next batch is drawn and run
        del block
        yield episodes, accept
        del episodes


def _submit(
    table: CounterTable,
    params: EGTParams,
    ep: _Episodes,
    won: np.ndarray,
    accept: np.ndarray,
) -> np.ndarray:
    """Submit every pair of ep by train's submission rule; returns distinct pairs moved per pair.

    won marks the goal-reaching pairs. accept holds one row of acceptance
    uniforms per episode, at least as many as it has goal-reaching pairs,
    which take them from the row's start in submission order. A
    goal-reaching stretch below 1 raises ValueError before anything is
    moved.
    """
    N = len(ep.first) // len(accept)
    u = ep.stretches(table.grid.width)
    p = success_update_probability(u[won], params.eta, params.alpha)
    # submission order: per episode (so b is sorted), by arrival tick, then by agent
    q = np.flatnonzero(won)
    order = np.lexsort((q, ep.arrival[q], q // N))
    b = q[order] // N
    rank = np.arange(len(b)) - np.searchsorted(b, b)
    delta = np.where(~won & (u >= params.beta), -params.mu, 0)
    delta[q[order[accept[b, rank] < p[order]]]] = params.nu

    touched = np.zeros(len(u), dtype=np.int64)
    moved = np.flatnonzero(delta)
    T = ep.S.shape[1]
    K = table._values.size
    values, defined = table._values.reshape(-1), table._defined.reshape(-1)
    rows = max(1, _SUBMIT_CELLS // max(T, 1))
    for lo in range(0, len(moved), rows):
        j = moved[lo:lo + rows]
        L = ep.steps[j]
        keys = (ep.S[j] * N_ACTIONS + ep.A[j])[np.arange(T) < L[:, None]]
        # (trajectory, cell * 5 + action) keys, sorted, each distinct one once
        tk = np.sort(np.repeat(np.arange(len(j)) * K, L) + keys)
        tk = tk[_run_starts(tk)]
        t, key = np.divmod(tk, K)
        np.add.at(values, key, delta[j][t])
        defined[key] = True
        touched[j] = np.bincount(t, minlength=len(j))
    return touched


def _learn(table: CounterTable, params: EGTParams,
           batches: Iterable[tuple[_Episodes, np.ndarray]], stats: TrainingStats) -> None:
    """Submit each batch of _batches to table and count it in stats.

    Pairs that start on a goal have no steps and take no acceptance uniform:
    they submit as failed, which moves nothing.
    """
    for ep, accept in batches:
        reached = table.grid._goal_mask[ep.cells]
        touched = _submit(table, params, ep, reached & (ep.steps > 0), accept)
        stats.policy_updates += int(np.count_nonzero(touched))
        stats.episodes_run += len(accept)
        stats.goal_reach_count += int(reached.sum())
        # free the batch's trajectories before the next batch is drawn and run
        del ep


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

    Draw layout. Episode e draws from child e of rng, as every driver's
    episodes do (see gridworld._episode_draws), so a fixed seed reproduces
    the run exactly. A child first draws the episode's start cells and
    uniform block as gridworld._episode_draws lays them out, with one
    behaviour row; then n_agents acceptance uniforms, read ahead before the
    kernel runs. The episode's submitted goal-reaching trajectories take
    them in submission order: by arrival tick, ties by agent index. The
    uniforms left unused are discarded with the child, so a child's stream
    is the same as if it drew one uniform per submission. In ess_test's
    extra episodes every child draws its invader coin before anything else.
    The tick rule is gridworld._play's.

    Submission rule. A goal-reaching trajectory of stretch u (fitness) is
    accepted when its draw is below success_update_probability(u) and then
    adds nu to each distinct (cell, action) pair it visited; a failed one
    with u >= beta adds -mu to each. Agents that start on a goal submit
    nothing. A batch's trajectories are submitted together once it has run:
    its behavior policy is fixed, acceptance depends only on the stretch and
    the trajectory's own draw, and deltas add, so the order of the updates
    cannot change the table. apply_update submits a batch of one.
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
        _learn(table, params, _batches(grid, world, rng, chunk, behavior._cdf[None]), stats)
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
    u = np.concatenate([ep.stretches(grid.width)
                        for ep, _ in _batches(grid, world, rng, episodes, policy._cdf[None])])
    # cumsum adds in (episode, agent) order, as a running total would
    return float(np.cumsum(-np.minimum(u, float(world.horizon)))[-1]) / (episodes * world.n_agents)


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

    train() runs on rng first, then _invade tests the trained incumbent on
    what is left of rng. During the extra episodes each episode's behavior
    is the invader (uniform random unless one is supplied) with probability
    p_new, decided by the first draw of the episode's generator, else the
    trained policy; counter updates keep flowing. Each batch of extra
    episodes is one kernel call over the stack (invader, incumbent), with a
    policy index per pair. Fitness is evaluated over eval_episodes (at least
    1) episodes of the same kernel, without updates. The trained policy is
    an equilibrium for the report when its greedy map barely changes and the
    re-evaluated fitness did not drop by more than fitness_tolerance. A bad
    argument raises ValueError before any training.
    """
    _check_invasion(p_new, extra_episode_fraction, eval_episodes)
    policy, table, _ = train(grid, world, params, reward_cfg, rng)
    return _invade(grid, world, params, policy, table, p_new, extra_episode_fraction, rng,
                   eval_episodes=eval_episodes, agreement_threshold=agreement_threshold,
                   fitness_tolerance=fitness_tolerance, invader=invader)


def _check_invasion(p_new: float, extra_episode_fraction: float, eval_episodes: int) -> None:
    if not 0.0 <= p_new <= 1.0:
        raise ValueError("p_new must lie in [0, 1]")
    if extra_episode_fraction < 0.0:
        raise ValueError("extra_episode_fraction must be >= 0")
    if eval_episodes < 1:
        raise ValueError("eval_episodes must be >= 1")


def _invade(
    grid: GridMap,
    world: WorldConfig,
    params: EGTParams,
    policy: Policy,
    table: CounterTable,
    p_new: float,
    extra_episode_fraction: float,
    rng: np.random.Generator,
    *,
    eval_episodes: int,
    agreement_threshold: float,
    fitness_tolerance: float,
    invader: Policy | None,
) -> ESSReport:
    """ess_test's invasion step on a held incumbent, without retraining it.

    policy and table are the incumbent as train() returned them, and rng is
    the generator train() consumed: passing that same object, not a copy of
    its bit_generator state (which lacks SeedSequence's spawn count), gives
    ess_test's report. Training continues on a copy of table, so the held
    table is unchanged; the extra episodes number extra_episode_fraction *
    params.episodes, rounded.
    """
    _check_invasion(p_new, extra_episode_fraction, eval_episodes)
    before = greedy_action_map(table)
    fit_before = _evaluate_fitness(grid, world, policy, rng, eval_episodes)

    table = table.copy()
    extra = int(round(extra_episode_fraction * params.episodes))
    stats = TrainingStats()
    inv = invader if invader is not None else Policy.uniform(grid)
    cdfs = np.stack([inv._cdf, policy._cdf])
    _learn(table, params, _batches(grid, world, rng, extra, cdfs, p_new), stats)

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

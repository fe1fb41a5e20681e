"""Reference competitors: space-time A*, Q-learning, first-visit Monte Carlo.

All three consume the same gridworld and reward configuration as the counter
learner. The planner is prioritized: agents are routed one at a time in index
order over the (cell, timestep) graph, with reservations keeping later agents
off earlier agents' cells and traversed edges. The tabular learners share one
table across homogeneous agents and are single threaded per run.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .egt import Policy, TrainingStats
from .gridworld import (
    Action,
    Cell,
    GridMap,
    InvalidJointStateError,
    InvalidStateError,
    N_ACTIONS,
    RewardConfig,
    StepEvent,
    WorldConfig,
    _each_child,
    _episode_draws,
    _play,
    _prices,
    action_from_name,
    action_name,
)


@dataclass(frozen=True)
class LearnParams:
    """Shared knobs for the tabular learners.

    Exploration decays linearly from explore to explore_end over
    explore_decay_episodes (the full run when left as None, immediate when 0).
    time_budget_s, when set, stops training after the episode during which the
    wall-clock budget is exceeded. The run's generator is then left at the
    end of the batch of children (see `gridworld._each_child`) that held the
    last episode run, not after that episode's child.
    """

    learning_rate: float = 0.5
    discount: float = 0.95
    explore: float = 1.0
    explore_end: float = 0.05
    explore_decay_episodes: int | None = None
    episodes: int = 10000
    time_budget_s: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError("learning_rate must lie in (0, 1]")
        if not 0.0 <= self.discount <= 1.0:
            raise ValueError("discount must lie in [0, 1]")
        if not 0.0 <= self.explore <= 1.0:
            raise ValueError("explore must lie in [0, 1]")
        if not 0.0 <= self.explore_end <= self.explore:
            raise ValueError("explore_end must lie in [0, explore]")
        if self.explore_decay_episodes is not None and self.explore_decay_episodes < 0:
            raise ValueError("explore_decay_episodes must be >= 0")
        if self.episodes < 0:
            raise ValueError("episodes must be >= 0")
        if self.time_budget_s is not None and not self.time_budget_s > 0:
            raise ValueError("time_budget_s must be positive")

    def epsilon_at(self, episode: int) -> float:
        """Exploration rate for a 0-indexed episode."""
        decay = self.explore_decay_episodes
        if decay is None:
            decay = self.episodes
        if decay <= 0:
            return self.explore_end
        frac = min(episode / decay, 1.0)
        return self.explore + (self.explore_end - self.explore) * frac


class QTable:
    """Dense action-value estimates per free (cell, action), default 0."""

    def __init__(self, grid: GridMap, values: np.ndarray | None = None) -> None:
        self.grid = grid
        if values is None:
            values = np.zeros((grid.n_cells, N_ACTIONS))
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (grid.n_cells, N_ACTIONS):
            raise ValueError(f"values must have shape ({grid.n_cells}, {N_ACTIONS})")
        if not np.isfinite(values[grid._free_mask]).all():
            raise ValueError("Q values must be finite")
        self._values = values.copy()

    def get(self, cell: Cell, action: Action) -> float:
        return float(self._values[self.grid._free_id(cell), int(action)])

    def set(self, cell: Cell, action: Action, value: float) -> None:
        if not math.isfinite(value):
            raise ValueError("Q values must be finite")
        self._values[self.grid._free_id(cell), int(action)] = value

    def greedy_action(self, cell: Cell) -> Action:
        """Largest-estimate action; ties break toward the smaller action index."""
        return Action(int(np.argmax(self._values[self.grid._free_id(cell)])))

    def copy(self) -> "QTable":
        return QTable(self.grid, self._values)

    def to_text(self) -> str:
        """Snapshot lines "x y action value", every free cell, 6-decimal."""
        lines = []
        for cell in self.grid.free_cells():
            cid = self.grid.cell_id(cell)
            for a in range(N_ACTIONS):
                lines.append(
                    f"{cell[0]} {cell[1]} {action_name(Action(a))} "
                    f"{self._values[cid, a]:.6f}"
                )
        return "\n".join(lines) + ("\n" if lines else "")

    @classmethod
    def from_text(cls, grid: GridMap, text: str) -> "QTable":
        table = cls(grid)
        for lineno, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 4:
                raise ValueError(f"Q snapshot line {lineno}: expected 4 fields")
            cell = (int(parts[0]), int(parts[1]))
            table.set(cell, action_from_name(parts[2]), float(parts[3]))
        return table


@dataclass(frozen=True)
class PlanResult:
    """Planned paths, one per agent, timestep-indexed from t=0 (waits included).

    A successful path ends on a goal cell; the agent is assumed to hold its
    final cell afterwards (the planner reserves that tail). A failed path
    survives as long as it can: it ends at the deepest timestep reachable
    around earlier agents' reservations, on that timestep's lowest cell id,
    which is before the horizon when the agent is cornered. It is
    conflict-free over the timesteps it covers, and its last cell is still
    reserved onward so later agents keep clear. expanded counts the states
    the search pops, summed over agents; where `_plan_one` computes a failed
    agent's result by a layered sweep instead, the sweep counts the same
    states.
    """

    paths: tuple[tuple[Cell, ...], ...]
    success: tuple[bool, ...]
    expanded: int

    @property
    def makespan(self) -> int:
        """Largest arrival time over successful agents (0 when none)."""
        times = [len(p) - 1 for p, ok in zip(self.paths, self.success) if ok]
        return max(times) if times else 0

    def to_text(self) -> str:
        """Export lines "agent t x y" in agent order."""
        lines = []
        for i, path in enumerate(self.paths):
            for t, (x, y) in enumerate(path):
                lines.append(f"{i} {t} {x} {y}")
        return "\n".join(lines) + ("\n" if lines else "")


def _reconstruct(parents: dict[int, int], state: int, n_cells: int) -> list[int]:
    path = []
    while state >= 0:
        path.append(state % n_cells)
        state = parents[state]
    path.reverse()
    return path


def _by_tick(ticks: np.ndarray, horizon: int, *columns: np.ndarray) -> tuple[np.ndarray, ...]:
    """(bounds, *columns sorted by tick); tick t's rows are bounds[t]:bounds[t + 1]."""
    order = np.argsort(ticks, kind="stable")
    return np.searchsorted(ticks[order], np.arange(horizon + 2)), *(c[order] for c in columns)


def _exhaust(
    grid: GridMap,
    start_id: int,
    horizon: int,
    vres: set[int],
    eres: set[int],
) -> tuple[list[int], bool, int]:
    """What `_plan_one`'s A* returns when no pop can succeed, without the heap.

    The Manhattan heuristic is consistent, so A* pops states in strictly
    increasing (f, t, cell) order and an exhausted search pops every
    reachable state. Layer t + 1 therefore holds each cell c whose
    predecessor p (c itself for Stay and blocked moves, else a free
    4-neighbour) is in layer t, where (c, t + 1) is not in vres and the move
    p -> c at t does not reverse an earlier agent's move in eres. A parent is
    set on first push, so c's parent is its valid predecessor popped first:
    the one with the smallest (h[p], p). The sweep works on the start's
    component only and keeps one int8 predecessor column per cell per layer.
    Returns (survival path of cell ids, False, number of states), the
    number of states being the pops A* would have made.
    """
    n = grid.n_cells
    labels = grid._labels
    comp = np.flatnonzero(labels == labels[start_id])
    m = comp.size
    # global id -> local index; m marks cells outside the component
    local = np.full(n, m, dtype=np.int64)
    local[comp] = np.arange(m)
    perm, target = grid._perm_target
    pred = np.where(perm[comp], local[target[comp]], m)
    # order each cell's predecessors by A*'s pop order, so the parent is the first valid one
    key = np.append(np.asarray(grid._goal_distance_list)[comp] * n + comp, np.iinfo(np.int64).max)
    pred = np.take_along_axis(pred, np.argsort(key[pred], axis=1), axis=1)

    v = np.fromiter(vres, dtype=np.int64, count=len(vres))
    vt, vc = np.divmod(v, n)
    inside = local[vc] < m
    vb, vl = _by_tick(vt[inside], horizon, local[vc[inside]])
    e = np.fromiter(eres, dtype=np.int64, count=len(eres))
    tb, a = np.divmod(e, n)
    et, b = np.divmod(tb, n)
    inside = (local[a] < m) & (a != b)
    el = local[a[inside]]
    # an earlier move a -> b at t bars b -> a at t: b's column among a's predecessors
    ecol = np.argmax(pred[el] == local[b[inside]][:, None], axis=1)
    eb, el, ecol = _by_tick(et[inside], horizon, el, ecol)

    reach = np.zeros(m + 1, dtype=bool)
    reach[local[start_id]] = True
    cols = []
    expanded = 1
    for t in range(horizon):
        cand = reach[pred]
        cand[el[eb[t]:eb[t + 1]], ecol[eb[t]:eb[t + 1]]] = False
        nxt = cand.any(axis=1)
        nxt[vl[vb[t + 1]:vb[t + 2]]] = False
        size = int(np.count_nonzero(nxt))
        if not size:
            break
        expanded += size
        cols.append(cand.argmax(axis=1).astype(np.int8))
        reach[:m] = nxt

    c = int(np.argmax(reach))
    path = [c]
    for col in reversed(cols):
        c = pred[c, col[c]]
        path.append(c)
    return comp[path[::-1]].tolist(), False, expanded


def _plan_one(
    grid: GridMap,
    start_id: int,
    horizon: int,
    vres: set[int],
    eres: set[int],
    last: list[int],
) -> tuple[list[int], bool, int]:
    """Route one agent around existing reservations.

    Searches the time-layered graph for a minimum-time path to a goal cell at
    which the agent can park until the horizon without hitting a reservation.
    A search that finds none has put every reachable (cell, t) state into
    parents, so the agent instead survives as long as it can: the path ends
    at the deepest reachable timestep, on that timestep's lowest cell id,
    along the parent links A* recorded (success False). Returns (path of
    cell ids, success, expanded), where expanded counts the states the
    search pops.

    When every goal in the start's free component is parked on through the
    horizon (or the component holds none), no pop can succeed, and
    `_exhaust` computes the exhausted search's path and pop count layer by
    layer instead of running the heap.

    A state (cell, t) is the int t * n_cells + cell. vres holds reserved
    states, eres holds (t * n_cells + b) * n_cells + a for every move a -> b
    an earlier agent made from t to t + 1 (a later agent may not take b -> a
    then; a wait a -> a also reserves (a, t + 1), so vres rejects it first),
    and last[cell] is the latest reserved tick on the cell (-1 when none).
    Each heap entry is the int f * (horizon + 1) * n_cells + state, which
    orders as (f, t, cell).
    """
    if all(last[g] == horizon for g in grid._component_goals[grid._labels[start_id]]):
        return _exhaust(grid, start_id, horizon, vres, eres)
    n = grid.n_cells
    succ = grid._succ_list
    goal = grid._goal_list
    h = grid._goal_distance_list
    scale = (horizon + 1) * n
    push, pop = heapq.heappush, heapq.heappop
    expanded = 0

    heap = [h[start_id] * scale + start_id]
    # filled on push, so each state enters the heap once; maps to the parent state
    parents = {start_id: -1}
    while heap:
        state = pop(heap) % scale
        expanded += 1
        t = state // n
        cid = state - t * n
        # every reservation lies at or before the horizon, so the agent can
        # park on cid from t on exactly when nothing is reserved there after t
        if goal[cid] and last[cid] <= t:
            return _reconstruct(parents, state, n), True, expanded
        if t == horizon:
            continue
        base = (t + 1) * n
        f_base = (t + 1) * scale + base
        swap = state * n
        # an impermissible action targets its own cell, as Stay does
        for nxt in succ[cid]:
            nstate = base + nxt
            if nstate in parents or nstate in vres or swap + nxt in eres:
                continue
            parents[nstate] = state
            push(heap, f_base + h[nxt] * scale + nxt)

    deepest = max(parents) // n
    end = min(s for s in parents if s >= deepest * n)
    return _reconstruct(parents, end, n), False, expanded


def astar_plan(grid: GridMap, starts: list[Cell], horizon: int) -> PlanResult:
    """Plan all agents with prioritized space-time A*.

    Agents are planned in ascending index order. Each finished plan reserves
    its vertices (cell, t), its traversed edges, and a parked tail on its
    final cell through the horizon, so later agents cannot collide or swap
    with earlier ones. h = Manhattan distance to the nearest goal cell. An
    agent with no goal it can park on gets the survival path `_plan_one`
    describes and success False. expanded counts the states the search
    pops; the layered sweep `_plan_one` runs for an agent whose goals are
    all parked on counts the same states.
    """
    if horizon < 0:
        raise ValueError("horizon must be >= 0")
    if not starts:
        raise ValueError("at least one start is required")
    ids = []
    for cell in starts:
        if not grid.is_free(cell):
            raise InvalidStateError(f"start {cell} is not a free in-bounds cell")
        ids.append(grid.cell_id(cell))
    if len(set(ids)) != len(ids):
        raise InvalidJointStateError("agent starts must be distinct")

    n = grid.n_cells
    vres: set[int] = set()
    eres: set[int] = set()
    last = [-1] * n
    paths = []
    success = []
    expanded = 0
    for start_id in ids:
        path, ok, k = _plan_one(grid, start_id, horizon, vres, eres, last)
        expanded += k
        for t, cid in enumerate(path):
            vres.add(t * n + cid)
            last[cid] = max(last[cid], t)
        # the parked tail, through the horizon
        end = path[-1]
        for t in range(len(path), horizon + 1):
            vres.add(t * n + end)
        if len(path) <= horizon:
            last[end] = horizon
        for t, (a, b) in enumerate(zip(path, path[1:])):
            eres.add((t * n + b) * n + a)
        paths.append(tuple(grid.id_to_cell(cid) for cid in path))
        success.append(ok)
    return PlanResult(paths=tuple(paths), success=tuple(success), expanded=expanded)


def epsilon_greedy_policy(q: QTable, epsilon: float) -> Policy:
    """Policy that plays the greedy action with probability 1 - epsilon."""
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError("epsilon must lie in [0, 1]")
    n = q.grid.n_cells
    probs = np.full((n, N_ACTIONS), epsilon / N_ACTIONS)
    best = np.argmax(q._values, axis=1)
    probs[np.arange(n), best] += 1.0 - epsilon
    return Policy(q.grid, probs)


def _train_tabular(
    grid: GridMap,
    world: WorldConfig,
    params: LearnParams,
    rng: np.random.Generator,
    values: list[list[float]],
    record: Callable[[int, int, int, int, int], None],
    fold: Callable[[], int] | None = None,
) -> tuple[QTable, Policy, TrainingStats]:
    """Episode loop shared by q_train and mc_train.

    Episode e draws from child e of rng, taken from `gridworld._each_child`,
    by `gridworld._episode_draws` with two behaviour rows, and runs on
    `gridworld._play` with epsilon-greedy behavior on values: an acting
    agent whose first-row uniform is below the episode's epsilon plays
    int(5 * u) for its second-row uniform u, otherwise the first largest
    value of its cell's row. record(i, cell, action, next_cell, event) sees
    every turn, with the StepEvent flags _play reports for it. fold(), when
    given, runs after each episode and returns its update count; without it
    every turn counts as one update.
    """
    t0 = time.perf_counter()
    stats = TrainingStats()
    goal = grid._goal_list
    row2 = world.horizon * world.n_agents  # start of a block's second row
    children = _each_child(rng, params.episodes)
    for e in range(params.episodes):
        if params.time_budget_s is not None and time.perf_counter() - t0 > params.time_budget_s:
            break
        eps = params.epsilon_at(e)
        ids, block = _episode_draws(grid, world.n_agents, world.horizon, 2,
                                    world.action_noise, next(children))
        draws = memoryview(block.reshape(-1))

        def choose(_i: int, cur: int, k: int) -> int:
            if draws[k] < eps:
                return min(int(draws[row2 + k] * N_ACTIONS), N_ACTIONS - 1)
            row = values[cur]
            return row.index(max(row))

        turns = _play(grid, ids, [not goal[c] for c in ids], world.horizon,
                      world.action_noise, draws, choose, record)
        stats.policy_updates += turns if fold is None else fold()
        stats.episodes_run += 1
        stats.goal_reach_count += sum(goal[c] for c in ids)

    table = QTable(grid, np.array(values))
    policy = epsilon_greedy_policy(table, params.explore_end)
    stats.wall_time = time.perf_counter() - t0
    return table, policy, stats


def q_train(
    grid: GridMap,
    world: WorldConfig,
    reward_cfg: RewardConfig,
    params: LearnParams,
    rng: np.random.Generator,
) -> tuple[QTable, Policy, TrainingStats]:
    """Tabular Q-learning with epsilon-greedy behavior.

    One shared table; every active agent's transition applies one update in
    agent index order (policy_updates counts them). Goal states are absorbing
    and bootstrap as 0. The returned Policy is the epsilon-greedy extraction
    at explore_end. The update targets the executed action (after any action
    noise), matching what the trajectory records elsewhere in the package,
    and its reward is `gridworld._prices`' for the turn's flags. Episodes and
    draws follow `_train_tabular`.
    """
    lr = params.learning_rate
    gamma = params.discount
    prices = _prices(reward_cfg)
    reached = int(StepEvent.REACHED_GOAL)
    ql: list[list[float]] = [[0.0] * N_ACTIONS for _ in range(grid.n_cells)]

    def record(_i: int, cur: int, a: int, nxt: int, event: int) -> None:
        boot = 0.0 if event & reached else max(ql[nxt])
        row = ql[cur]
        row[a] += lr * (prices[event] + gamma * boot - row[a])

    return _train_tabular(grid, world, params, rng, ql, record)


def mc_train(
    grid: GridMap,
    world: WorldConfig,
    reward_cfg: RewardConfig,
    params: LearnParams,
    rng: np.random.Generator,
) -> tuple[QTable, Policy, TrainingStats]:
    """On-policy first-visit Monte Carlo control over (cell, action) pairs.

    Per episode, the discounted return following the first occurrence of each
    pair is folded into a running average; behavior is epsilon-greedy on the
    current averages. policy_updates counts accumulator writes. The returned
    QTable holds the averages; the Policy is the epsilon-greedy extraction at
    explore_end. Rewards are `gridworld._prices`' for each turn's flags.
    Episodes and draws follow `_train_tabular`.
    """
    N = world.n_agents
    gamma = params.discount
    prices = _prices(reward_cfg)
    n = grid.n_cells
    sums: list[list[float]] = [[0.0] * N_ACTIONS for _ in range(n)]
    cnts: list[list[int]] = [[0] * N_ACTIONS for _ in range(n)]
    est: list[list[float]] = [[0.0] * N_ACTIONS for _ in range(n)]
    turns: list[list[tuple[int, int, float]]] = [[] for _ in range(N)]

    def record(i: int, cur: int, a: int, _nxt: int, event: int) -> None:
        turns[i].append((cur, a, prices[event]))

    def fold() -> int:
        updates = 0
        for steps in turns:
            # backward, so the earliest visit of a pair writes its return last
            first: dict[tuple[int, int], float] = {}
            G = 0.0
            for s, a, r_val in reversed(steps):
                G = r_val + gamma * G
                first[s, a] = G
            for (s, a), ret in first.items():
                sums[s][a] += ret
                cnts[s][a] += 1
                est[s][a] = sums[s][a] / cnts[s][a]
            updates += len(first)
            steps.clear()
        return updates

    return _train_tabular(grid, world, params, rng, est, record, fold)

"""Grid world for multi-agent path finding.

Cells are (x, y) tuples where x is the column (growing rightward) and y is
the row (growing downward), so Up decreases y and Down increases it. Agents
have five actions: the four grid moves plus Stay. A move whose target is
outside the grid or an obstacle is impermissible; taking it leaves the agent
in place. Multiple agents are resolved sequentially in ascending index order,
which makes same-cell and swap conflicts block the later (or both) movers.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import IntEnum, IntFlag
from functools import cached_property
from itertools import chain
from typing import Callable, Collection, Iterable, Iterator, Mapping, Sequence

import numpy as np
from scipy import ndimage

Cell = tuple[int, int]


class Action(IntEnum):
    """The five actions in canonical order (also the tie-breaking order)."""

    UP = 0
    DOWN = 1
    LEFT = 2
    RIGHT = 3
    STAY = 4


ACTIONS: tuple[Action, ...] = tuple(Action)
N_ACTIONS = len(ACTIONS)

_DELTAS: dict[Action, Cell] = {
    Action.UP: (0, -1),
    Action.DOWN: (0, 1),
    Action.LEFT: (-1, 0),
    Action.RIGHT: (1, 0),
    Action.STAY: (0, 0),
}


def action_delta(action: Action) -> Cell:
    """(dx, dy) displacement of an action."""
    return _DELTAS[Action(action)]


def action_name(action: Action) -> str:
    return Action(action).name.lower()


def action_from_name(name: str) -> Action:
    try:
        return Action[name.strip().upper()]
    except KeyError:
        raise ValueError(f"unknown action name: {name!r}") from None


class StepEvent(IntFlag):
    """Per-agent outcome flags for one step."""

    MOVED = 1
    BLOCKED_BY_MAP = 2
    BLOCKED_BY_AGENT = 4
    REACHED_GOAL = 8


class MapError(ValueError):
    """Malformed map description."""


class NonRectangularMapError(MapError):
    """Grid rows do not all have the same width."""


class UnknownCharacterError(MapError):
    """Map text contains a character outside . # S G."""


class MissingEndpointError(MapError):
    """The start set or the goal set is empty."""


class DisconnectedMapError(MapError):
    """Some start cell cannot reach any goal cell."""


class InvalidStateError(ValueError):
    """A queried state is out of bounds or an obstacle."""


class InvalidJointStateError(ValueError):
    """A joint state places two agents on the same cell."""


class CapacityError(ValueError):
    """More agents requested than distinct start cells available."""


@dataclass(frozen=True)
class RewardConfig:
    """Reward levels: step penalty, impermissible-action penalty, goal bonus.

    Requires delta2 < delta1 < 0 < delta3 so that a positive reward is
    attainable only by entering a goal cell.
    """

    delta1: float = -1.0
    delta2: float = -5.0
    delta3: float = 100.0

    def __post_init__(self) -> None:
        if not (self.delta2 < self.delta1 < 0.0 < self.delta3):
            raise ValueError(
                "reward levels must satisfy delta2 < delta1 < 0 < delta3, "
                f"got {self.delta1}, {self.delta2}, {self.delta3}"
            )


def _prices(cfg: RewardConfig) -> tuple[float, ...]:
    """The package's one reward rule: a turn's reward, indexed by its StepEvent flags.

    delta3 with REACHED_GOAL (8), else delta2 with BLOCKED_BY_MAP (2), else delta1.
    """
    d1, d2 = cfg.delta1, cfg.delta2
    return (d1, d1, d2, d2, d1, d1, d2, d2) + (cfg.delta3,) * 8


@dataclass(frozen=True)
class WorldConfig:
    """Episode shape: how many agents, how many steps, action noise level."""

    n_agents: int = 1
    horizon: int = 1
    action_noise: float = 0.0

    def __post_init__(self) -> None:
        if self.n_agents < 1:
            raise ValueError("n_agents must be at least 1")
        if self.horizon < 1:
            raise ValueError("horizon must be at least 1")
        if not 0.0 <= self.action_noise <= 1.0:
            raise ValueError("action_noise must lie in [0, 1]")


def manhattan(a: Cell, b: Cell) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


def _goal_reach(labels: np.ndarray, goal_mask: np.ndarray) -> np.ndarray:
    """Per cell, whether its 4-connected free component holds a goal.

    labels numbers the free components as `scipy.ndimage.label` does (0 on
    obstacles); goal_mask has labels' shape and marks free cells only.
    """
    held = np.zeros(int(labels.max()) + 1, dtype=bool)
    held[labels[goal_mask]] = True
    return held[labels]


class GridMap:
    """Immutable rectangular grid with obstacles, goals and a start distribution.

    `starts` is either a mapping from cell to initial-state probability or an
    iterable of cells (uniform). Construction validates bounds, disjointness,
    that the probability mass sums to 1 within 1e-9, and that every start can
    reach at least one goal through free cells. Treat instances as immutable;
    derived lookup tables are cached on first use.
    """

    def __init__(
        self,
        width: int,
        height: int,
        obstacles: Iterable[Cell] = (),
        goals: Iterable[Cell] = (),
        starts: Mapping[Cell, float] | Iterable[Cell] = (),
    ) -> None:
        self.width = int(width)
        self.height = int(height)
        if self.width < 1 or self.height < 1:
            raise ValueError("grid dimensions must be positive")
        self.obstacles = frozenset((int(x), int(y)) for x, y in obstacles)
        self.goals = frozenset((int(x), int(y)) for x, y in goals)
        if isinstance(starts, Mapping):
            start_items = {(int(x), int(y)): float(p) for (x, y), p in starts.items()}
        else:
            cells = [(int(x), int(y)) for x, y in starts]
            if len(set(cells)) != len(cells):
                raise MapError("duplicate start cells")
            start_items = {c: 1.0 / len(cells) for c in cells} if cells else {}
        self.starts: dict[Cell, float] = dict(sorted(start_items.items()))
        self._validate()

    def _validate(self) -> None:
        for label, cells in (("obstacle", self.obstacles), ("goal", self.goals),
                             ("start", self.starts)):
            if not cells:
                continue
            xs, ys = zip(*cells)
            if min(xs) < 0 or max(xs) >= self.width or min(ys) < 0 or max(ys) >= self.height:
                bad = next(c for c in cells if not self.in_bounds(c))
                raise MapError(f"{label} cell {bad} is out of bounds")
        if self.obstacles & self.goals:
            raise MapError("obstacles and goals overlap")
        if self.obstacles & set(self.starts):
            raise MapError("obstacles and starts overlap")
        if not self.goals:
            raise MissingEndpointError("goal set is empty")
        if not self.starts:
            raise MissingEndpointError("start set is empty")
        ids, probs, _ = self._start_arrays
        if (probs <= 0.0).any():
            raise MapError("start probabilities must be positive")
        total = sum(self.starts.values())
        if abs(total - 1.0) > 1e-9:
            raise MapError(f"start probabilities sum to {total!r}, not 1")
        cut = ~_goal_reach(self._labels, self._goal_mask)[ids]
        if cut.any():
            # starts are sorted by (x, y), so this names the first cut-off start
            bad = list(self.starts)[int(cut.argmax())]
            raise DisconnectedMapError(f"start {bad} cannot reach any goal")

    # -- basic queries ------------------------------------------------------

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.width and 0 <= cell[1] < self.height

    def is_free(self, cell: Cell) -> bool:
        return self.in_bounds(cell) and cell not in self.obstacles

    @property
    def n_cells(self) -> int:
        return self.width * self.height

    def cell_id(self, cell: Cell) -> int:
        return cell[1] * self.width + cell[0]

    def _cell_ids(self, cells: Collection[Cell]) -> np.ndarray:
        """cell_id of each cell, in iteration order, over arrays."""
        xy = np.fromiter(chain.from_iterable(cells), dtype=np.int64, count=2 * len(cells))
        return xy[1::2] * self.width + xy[0::2]

    def id_to_cell(self, cid: int) -> Cell:
        return (cid % self.width, cid // self.width)

    def free_cells(self) -> list[Cell]:
        """All non-obstacle cells, sorted by (x, y)."""
        xs, ys = np.nonzero(self._free_mask.reshape(self.height, self.width).T)
        return list(zip(xs.tolist(), ys.tolist()))

    def _free_id(self, cell: Cell) -> int:
        """Id of a free in-bounds cell; InvalidStateError for any other cell."""
        if not self.is_free(cell):
            raise InvalidStateError(f"cell {cell} is not a free in-bounds cell")
        return self.cell_id(cell)

    def obstacle_clearance(self, cell: Cell) -> int:
        """Manhattan distance to the nearest obstacle or out-of-bounds cell."""
        return int(self._clearance[self._free_id(cell)])

    # -- cached lookup tables -----------------------------------------------

    @cached_property
    def _free_mask(self) -> np.ndarray:
        mask = np.ones(self.n_cells, dtype=bool)
        mask[self._cell_ids(self.obstacles)] = False
        return mask

    @cached_property
    def _goal_mask(self) -> np.ndarray:
        mask = np.zeros(self.n_cells, dtype=bool)
        mask[self._cell_ids(self.goals)] = True
        return mask

    @cached_property
    def _labels(self) -> np.ndarray:
        """Per cell id, the label of its 4-connected free component (0 on obstacles)."""
        labels, _ = ndimage.label(self._free_mask.reshape(self.height, self.width))
        return labels.reshape(-1)

    @cached_property
    def _component_goals(self) -> list[list[int]]:
        """Per component label, the ids of the component's goal cells, ascending."""
        goals = np.flatnonzero(self._goal_mask)
        out: list[list[int]] = [[] for _ in range(int(self._labels.max()) + 1)]
        for g, label in zip(goals.tolist(), self._labels[goals].tolist()):
            out[label].append(g)
        return out

    @cached_property
    def _perm_target(self) -> tuple[np.ndarray, np.ndarray]:
        """(permissible (n,5) bool, target id (n,5) int32); Stay always allowed."""
        ids = np.arange(self.n_cells)
        dx, dy = np.array([_DELTAS[a] for a in ACTIONS]).T
        x = ids[:, None] % self.width + dx
        y = ids[:, None] // self.width + dy
        inside = (0 <= x) & (x < self.width) & (0 <= y) & (y < self.height)
        nxt = np.where(inside, y * self.width + x, 0)
        perm = inside & self._free_mask[nxt]
        perm[:, Action.STAY] = True
        return perm, np.where(perm, nxt, ids[:, None]).astype(np.int32)

    @cached_property
    def _perm_choices(self) -> tuple[np.ndarray, np.ndarray]:
        """Per cell: permissible actions ascending, zero-padded to width 5, and their count."""
        perm, _ = self._perm_target
        counts = perm.sum(axis=1).astype(np.int64)
        # a stable sort moves the permissible actions to the front, in order
        first = np.argsort(~perm, axis=1, kind="stable")
        return np.where(np.arange(N_ACTIONS) < counts[:, None], first, 0).astype(np.int8), counts

    @cached_property
    def _clearance(self) -> np.ndarray:
        # pad with a boundary ring of obstacles, then exact taxicab transform
        occ = np.zeros((self.height + 2, self.width + 2), dtype=np.uint8)
        occ[1:-1, 1:-1] = self._free_mask.reshape(self.height, self.width)
        dist = ndimage.distance_transform_cdt(occ, metric="taxicab")
        return np.asarray(dist)[1:-1, 1:-1].reshape(-1).astype(np.int64)

    @cached_property
    def _start_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(start ids, probabilities, cumulative probabilities), sorted by cell."""
        ids = self._cell_ids(self.starts)
        probs = np.fromiter(self.starts.values(), dtype=np.float64, count=len(self.starts))
        return ids, probs, np.cumsum(probs)

    @cached_property
    def _start_cdf_view(self) -> memoryview:
        """The start CDF as a zero-copy view that bisect can search.

        Not a list mirror: on 100x100 maps a list of the CDF took about
        0.6 MB of peak RSS per map.
        """
        return memoryview(self._start_arrays[2])

    # python-list mirrors for tight sequential loops
    @cached_property
    def _target_list(self) -> list[list[int]]:
        return self._perm_target[1].tolist()

    @cached_property
    def _goal_list(self) -> list[bool]:
        return self._goal_mask.tolist()

    @cached_property
    def _succ_list(self) -> list[list[int]]:
        """Per cell id, the distinct target ids of its actions, in action order."""
        return [list(dict.fromkeys(row)) for row in self._target_list]

    @cached_property
    def _goal_distance_list(self) -> list[int]:
        """Per cell id, the Manhattan distance to the nearest goal cell (A*'s heuristic)."""
        ids = np.arange(self.n_cells)
        goals = np.array(sorted(self.goals))
        dx = np.abs(ids[:, None] % self.width - goals[None, :, 0])
        dy = np.abs(ids[:, None] // self.width - goals[None, :, 1])
        return (dx + dy).min(axis=1).tolist()

    @cached_property
    def _pick_bytes(self) -> tuple[bytes, bytes]:
        """_perm_choices as flat bytes for noisy scalar episodes.

        Bytes, not list mirrors: lists take about 100 kB per 900-cell grid,
        and a sweep that keeps its grids alive would pay that for each.
        """
        padded, counts = self._perm_choices
        return padded.tobytes(), counts.astype(np.int8).tobytes()

    # -- text format ---------------------------------------------------------

    def to_text(self) -> str:
        """Map text: '#' obstacle, 'G' goal, 'S' start, '.' free. No trailing blanks.

        A cell that is both start and goal is written as 'G' (the text format
        cannot express the overlap, nor non-uniform start weights).
        """
        chars = np.full(self.n_cells, ".")
        chars[self._cell_ids(self.starts)] = "S"
        chars[self._goal_mask] = "G"
        chars[~self._free_mask] = "#"
        return "".join("".join(row) + "\n" for row in chars.reshape(self.height, self.width))


def parse_map(text: str) -> GridMap:
    """Parse map text: ';' comment lines, '.' free, '#' obstacle, 'S' start, 'G' goal.

    Start cells get a uniform initial distribution. Raises a distinct error for
    ragged rows, unknown characters, missing starts/goals, and starts that
    cannot reach any goal.
    """
    rows = [ln for ln in text.splitlines() if not ln.startswith(";")]
    rows = [ln for ln in rows if ln != ""]
    if not rows:
        raise MapError("map text contains no grid rows")
    width = len(rows[0])
    obstacles: list[Cell] = []
    goals: list[Cell] = []
    starts: list[Cell] = []
    for y, row in enumerate(rows):
        if len(row) != width:
            raise NonRectangularMapError(
                f"row {y} has width {len(row)}, expected {width}"
            )
        for x, ch in enumerate(row):
            if ch == "#":
                obstacles.append((x, y))
            elif ch == "G":
                goals.append((x, y))
            elif ch == "S":
                starts.append((x, y))
            elif ch != ".":
                raise UnknownCharacterError(
                    f"unknown character {ch!r} at column {x}, row {y}"
                )
    return GridMap(width, len(rows), obstacles, goals, starts)


def permissible_actions(grid: GridMap, cell: Cell) -> set[Action]:
    """Actions whose target cell is free (Stay is always included)."""
    perm, _ = grid._perm_target
    return {Action(a) for a in np.flatnonzero(perm[grid._free_id(cell)])}


# -- episode generators and draws ---------------------------------------------


# SeedSequence's hashing constants and PCG64's multiplier, as numpy seeds them
# (numpy/random/bit_generator.pyx, numpy/random/src/pcg64/pcg64.h)
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _n_words(x) -> int | None:
    """How many 32-bit words SeedSequence coerces x to.

    x is an int, which takes max(1, ceil(bits / 32)) words, or a (nested)
    sequence of them; None where x holds a string, which SeedSequence parses
    and this does not.
    """
    if isinstance(x, (int, np.integer)):
        return max(1, -(-int(x).bit_length() // 32))
    if isinstance(x, str):
        return None
    counts = [_n_words(v) for v in x]
    return None if None in counts else sum(counts)


def _hashmix(value, h, mult: int = _MULT_A):
    """SeedSequence's hashmix of uint32 words value under the hash constants h."""
    value = (value ^ h) * (h * mult & _MASK32) & _MASK32
    return value ^ value >> 16


def _hash_consts(h: int, mult: int, n: int) -> np.ndarray:
    """h and the n - 1 hash constants after it, as a uint32 column."""
    consts = [h * pow(mult, k, 1 << 32) & _MASK32 for k in range(n)]
    return np.array(consts, dtype=np.uint32)[:, None]


def _mix(x, y):
    """SeedSequence's mix of 32-bit words, as uint32 arrays."""
    r = (_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32) & _MASK32
    return r ^ r >> 16


def _children(rng: np.random.Generator, B: int) -> Iterator[np.random.Generator]:
    """An iterator over B generators that equal rng.spawn(B)'s children, in order.

    rng advances as rng.spawn(B) advances it, when this is called. On a PCG64
    parent whose SeedSequence has the layout checked below, the children
    share the parent's entropy pool and differ only by their index, so their
    pools, generate_state(4, uint64) words and PCG64 (state, inc) pairs are
    computed over the whole batch in numpy from ss.pool and set, one child at
    a time, on one reused Generator: each yielded generator is valid only until
    the next one is yielded, and only its stream equals the child's (its
    seed_seq does not). Any other parent takes rng.spawn(B), which also
    raises its TypeError for a parent without a SeedSequence. numpy's spawn,
    with its 32-bit child count, does not return once it reaches child index
    2^32 - 1, so a batch that would reach it raises OverflowError for any
    parent with a SeedSequence, leaving rng untouched.
    """
    ss = rng.bit_generator.seed_seq
    if isinstance(ss, np.random.SeedSequence) and ss.n_children_spawned + B >= 1 << 32:
        raise OverflowError(f"{B} children after {ss.n_children_spawned} would reach child "
                            "index 2^32 - 1, past numpy's 32-bit SeedSequence spawn count")
    if type(rng.bit_generator) is not np.random.PCG64 or type(ss) is not np.random.SeedSequence:
        return iter(rng.spawn(B))
    lo = ss.n_children_spawned
    state = ss.__reduce__()[2]
    n_run, n_key = _n_words(ss.entropy), _n_words(ss.spawn_key)
    # __setstate__ below takes (entropy, n_children_spawned, pool, pool_size, spawn_key)
    if (len(state) != 5 or state[0] is not ss.entropy or state[1] != lo or state[2] is not ss.pool
            or state[3] != ss.pool_size or state[4] != ss.spawn_key
            or n_run is None or n_key is None):
        return iter(rng.spawn(B))

    # a child's entropy is the parent's words (the run entropy padded to the
    # pool size, then the spawn key) and then its index. So its pool before
    # the index is ss.pool, after P hashmix calls per word; the index mixes
    # into every pool word at once, as a (pool, batch) array.
    P = ss.pool_size
    h = _INIT_A * pow(_MULT_A, P * (max(n_run, P) + n_key), 1 << 32) & _MASK32
    index = np.arange(lo, lo + B, dtype=np.int64).astype(np.uint32)
    pool = _mix(ss.pool[:, None], _hashmix(index, _hash_consts(h, _MULT_A, P)))
    # generate_state(4, uint64): 8 words over the cycled pool, paired little-endian
    seed = _hashmix(pool[np.arange(8) % P], _hash_consts(_INIT_B, _MULT_B, 8), _MULT_B)
    seed = seed.astype(np.uint64)
    s_hi, s_lo, i_hi, i_lo = seed[0::2] | seed[1::2] << np.uint64(32)

    ss.__setstate__((state[0], lo + B) + state[2:])
    if ss.n_children_spawned != lo + B:
        raise RuntimeError("SeedSequence.__setstate__ did not advance n_children_spawned")
    # a fixed seed: PCG64() would read OS entropy
    bit_gen = np.random.PCG64(0)
    child = np.random.Generator(bit_gen)

    def seeded(s_hi: int, s_lo: int, i_hi: int, i_lo: int) -> np.random.Generator:
        # PCG64's srandom: inc = 2 * initseq + 1, state = (inc + initstate) * mult + inc
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        bit_gen.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                         "state": {"state": ((s_hi << 64 | s_lo) + inc) * _PCG_MULT + inc & _MASK128,
                                   "inc": inc}}
        return child

    return map(seeded, s_hi.tolist(), s_lo.tolist(), i_hi.tolist(), i_lo.tolist())


# the most children one _children call seeds
_BATCH = 512


def _each_child(rng: np.random.Generator, n: int) -> Iterator[np.random.Generator]:
    """rng.spawn(n)'s children in order, seeded by _children at most _BATCH at a time.

    Lazy: rng advances by a whole batch when the batch's first child is
    taken, so a caller that stops early leaves rng at the end of that batch.
    As with _children, each generator is valid only until the next.
    """
    for lo in range(0, n, _BATCH):
        yield from _children(rng, min(_BATCH, n - lo))


def _episode_draws(grid: GridMap, n_agents: int, horizon: int, rows: int, noise: float,
                   rng: np.random.Generator, place: bool = True) -> tuple[list[int] | None, np.ndarray]:
    """Draw one episode from rng: the package's one draw layout.

    A run draws its episode e from child e of the run's generator, equal to
    rng.spawn's, which _children seeds (egt's batches) or _each_child
    (q_train, mc_train and run_experiment's evaluation). egt's _draw_batch
    draws each child's episode here, reads the child's acceptance uniforms
    after it, and hands the draws to its kernel, which draws nothing itself;
    rollout, step, q_train and mc_train draw theirs here for _play.

    rng draws the start cells of all n_agents agents (not when place is
    False: step's cells are given), then a block of uniforms of shape
    (rows + 2 with noise, horizon, n_agents); [r, t, i] is agent i's row r
    at tick t. The behaviour's rows come first: 1 for a policy (the action
    uniform), 2 for epsilon-greedy (the exploration coin, then the random
    action), 0 for given actions. With noise, a coin row and a pick row
    follow: a coin below noise plays the int(pick * k)-th of the cell's k
    permissible actions, ascending. The whole block, rows x horizon x
    n_agents floats as in one kernel episode, is drawn whether or not an
    agent acts, so no agent's draws depend on which others act.
    """
    ids = _sample_initial_ids(grid, n_agents, rng) if place else None
    return ids, rng.random((rows + 2 * (noise > 0.0), horizon, n_agents))


# -- stepping ---------------------------------------------------------------


def _play(
    grid: GridMap,
    ids: list[int],
    active: list[bool],
    horizon: int,
    noise: float,
    draws: Sequence[float],
    choose: Callable[[int, int, int], int],
    record: Callable[[int, int, int, int, int], None],
) -> int:
    """Run one episode of up to `horizon` ticks over integer cell ids.

    The package's one scalar copy of the tick rule and the one place that
    classifies a turn; step, rollout, q_train and mc_train call it (egt's
    batched kernel restates the rule over arrays). draws is the flattened
    _episode_draws block. Each tick, every active agent i in ascending index
    order takes its action a = choose(i, cell, k), k = t * N + i, with
    N = len(ids), reading its behaviour row r at draws[r * horizon * N + k];
    with noise, _play then reads the agent's coin and pick from the block's
    last two rows.

    The move resolves at once, and record(i, cell, a, next_cell, event)
    follows every turn, event being the turn's StepEvent flags as an int:
    MOVED when no agent holds the target; BLOCKED_BY_MAP when a is
    impermissible; BLOCKED_BY_AGENT when any agent holds the target (one
    that moved this tick or one yet to move), which blocks both ends of a
    swap; none of these for Stay. REACHED_GOAL is OR-ed in when next_cell is
    a goal: the agent becomes inactive, freezes there and keeps blocking its
    cell. Inactive agents read nothing. The episode stops early once no
    agent is active. ids and active are updated in place. Returns the number
    of turns, which is the number of record calls.
    """
    target = grid._target_list
    goal = grid._goal_list
    stay = int(Action.STAY)
    # StepEvent's flags as plain ints
    moved, by_map, by_agent, reached = 1, 2, 4, 8
    N = len(ids)
    noisy = noise > 0.0
    if noisy:
        picks, counts = grid._pick_bytes
        coin = len(draws) - 2 * horizon * N
        pick = coin + horizon * N
    occupied = set(ids)
    agents = range(N)
    n_active = sum(active)
    turns = 0
    for t in range(horizon):
        if n_active == 0:
            break
        for i in agents:
            if not active[i]:
                continue
            cur = ids[i]
            k = t * N + i
            a = choose(i, cur, k)
            if noisy and draws[coin + k] < noise:
                a = picks[N_ACTIONS * cur + int(draws[pick + k] * counts[cur])]
            tgt = target[cur][a]
            # the agent's own cell is occupied, so a free target is another cell
            if tgt not in occupied:
                occupied.discard(cur)
                occupied.add(tgt)
                ids[i] = nxt = tgt
                event = moved
            else:
                nxt = cur
                event = by_agent if tgt != cur else 0 if a == stay else by_map
            if goal[nxt]:
                event |= reached
                active[i] = False
                n_active -= 1
            record(i, cur, a, nxt, event)
            turns += 1
    return turns


@dataclass(frozen=True)
class StepOutcome:
    """Joint transition result: next cells and per-agent event flags."""

    next_cells: tuple[Cell, ...]
    events: tuple[StepEvent, ...]


def step(
    grid: GridMap,
    cells: Sequence[Cell],
    actions: Sequence[Action],
    rng: np.random.Generator | None = None,
    *,
    action_noise: float = 0.0,
    frozen: Sequence[bool] | None = None,
) -> StepOutcome:
    """Advance all agents one tick under the rule of `_play`.

    With probability `action_noise` an agent's action is resampled uniformly
    from its permissible set (requires rng), by an _episode_draws block of
    noise rows for all agents. An acting agent's events are those `_play`
    reports for its turn; frozen agents keep their cell, read nothing and
    report only REACHED_GOAL, on a goal. With action_noise 0 nothing is
    drawn and the result is a pure function of the inputs.
    """
    if len(actions) != len(cells):
        raise ValueError("cells and actions must have the same length")
    if frozen is not None and len(frozen) != len(cells):
        raise ValueError("cells and frozen must have the same length")
    if action_noise > 0.0 and rng is None:
        raise ValueError("action_noise > 0 requires an rng")
    ids = []
    for c in cells:
        c = (int(c[0]), int(c[1]))
        if not grid.is_free(c):
            raise InvalidStateError(f"agent cell {c} is not a free in-bounds cell")
        ids.append(grid.cell_id(c))
    if len(set(ids)) != len(ids):
        raise InvalidJointStateError("two agents occupy the same cell")
    acts = [int(a) for a in actions]
    for i, a in enumerate(acts):
        if not 0 <= a < N_ACTIONS:
            raise ValueError(f"invalid action {a} for agent {i}")

    goal = grid._goal_list
    active = [True] * len(ids) if frozen is None else [not f for f in frozen]
    events = [StepEvent.REACHED_GOAL if goal[c] and not on else StepEvent(0)
              for c, on in zip(ids, active)]

    def record(i: int, _cur: int, _a: int, _nxt: int, event: int) -> None:
        events[i] = StepEvent(event)

    draws = (_episode_draws(grid, len(ids), 1, 0, action_noise, rng, place=False)[1].ravel().tolist()
             if action_noise > 0.0 else ())
    _play(grid, ids, active, 1, action_noise, draws, lambda i, _cur, _k: acts[i], record)
    return StepOutcome(next_cells=tuple(grid.id_to_cell(i) for i in ids), events=tuple(events))


def reward(
    s: Cell,
    a: Action,
    s_next: Cell,
    grid: GridMap,
    blocked_by_map: bool,
    cfg: RewardConfig,
) -> float:
    """Reward for one transition: goal bonus, else impermissible penalty, else step cost.

    The level `_prices`, the one reward rule, gives its flags.
    """
    del s, a  # the level depends only on the outcome
    goal = StepEvent.REACHED_GOAL if s_next in grid.goals else 0
    return _prices(cfg)[goal | (StepEvent.BLOCKED_BY_MAP if blocked_by_map else 0)]


def _sample_initial_ids(grid: GridMap, n_agents: int, rng: np.random.Generator) -> list[int]:
    """Draw n distinct start cell ids weighted by the start distribution."""
    ids, probs, _ = grid._start_arrays
    if n_agents < 1:
        raise ValueError("n_agents must be at least 1")
    if n_agents > len(ids):
        raise CapacityError(
            f"{n_agents} agents requested but only {len(ids)} start cells"
        )
    if n_agents <= len(ids) // 2:
        cdf = grid._start_cdf_view
        chosen: list[int] = []
        taken: set[int] = set()
        while len(chosen) < n_agents:
            k = min(bisect_right(cdf, rng.random()), len(ids) - 1)
            if k not in taken:
                taken.add(k)
                chosen.append(int(ids[k]))
        return chosen
    # dense request: weighted order statistics (u ** (1/w) keys, largest first)
    keys = rng.random(len(ids)) ** (1.0 / probs)
    order = np.argsort(-keys, kind="stable")
    return ids[order[:n_agents]].tolist()


def sample_initial(grid: GridMap, n_agents: int, rng: np.random.Generator) -> list[Cell]:
    """Sample distinct start cells without replacement, weighted by the start distribution."""
    return [grid.id_to_cell(i) for i in _sample_initial_ids(grid, n_agents, rng)]

"""Independent reference computations for the test suite.

Everything here is deliberately naive: plain BFS over dicts, exhaustive
double loops, exact fractions. The point is an implementation path disjoint
from the package internals so that agreement between the two means something.
The counter-learner references share only the public start sampler and
CounterTable.add with the package; they step each agent and apply each
update in a plain loop.

Cells are (x, y) tuples. Action codes follow the package's fixed order
0=up 1=down 2=left 3=right 4=stay with up decreasing y; the deltas are
restated here on purpose rather than imported.
"""

import heapq
import math
from collections import deque
from fractions import Fraction

import numpy as np

DELTAS = {0: (0, -1), 1: (0, 1), 2: (-1, 0), 3: (1, 0), 4: (0, 0)}


def in_bounds(cell, width, height):
    x, y = cell
    return 0 <= x < width and 0 <= y < height


def bfs_distance(width, height, obstacles, sources):
    """Multi-source BFS over free cells, 4-adjacent. Returns {cell: dist}."""
    obstacles = set(obstacles)
    dist = {}
    dq = deque()
    for s in sources:
        if s not in dist:
            dist[s] = 0
            dq.append(s)
    while dq:
        c = dq.popleft()
        x, y = c
        for dx, dy in ((0, -1), (0, 1), (-1, 0), (1, 0)):
            n = (x + dx, y + dy)
            if in_bounds(n, width, height) and n not in obstacles and n not in dist:
                dist[n] = dist[c] + 1
                dq.append(n)
    return dist


def reference_reach(goals, is_free):
    """The goals plus every cell joined to one by 4-neighbour steps through free cells."""
    seen = set(goals)
    queue = deque(seen)
    while queue:
        x, y = queue.popleft()
        for nxt in ((x, y - 1), (x, y + 1), (x - 1, y), (x + 1, y)):
            if nxt not in seen and is_free(nxt):
                seen.add(nxt)
                queue.append(nxt)
    return seen


def reference_gen_map(width, height, density, n_starts, n_goals, seed, retries=64):
    """bench.gen_map's draws and choices, flooding with reference_reach.

    Returns (obstacles, goals, starts) as sets, or None when every one of the
    retries failed. Argument checks are left to the package.
    """
    rng = np.random.default_rng(seed)
    for _ in range(retries):
        blocked = rng.random((height, width)) < density
        free = [(x, y) for y in range(height) for x in range(width) if not blocked[y, x]]
        if len(free) < n_goals + (1 if n_starts is None else n_starts):
            continue
        order = rng.permutation(len(free))
        goals = {free[i] for i in order[:n_goals]}
        candidates = sorted(reference_reach(goals, set(free).__contains__) - goals)
        if n_starts is None:
            if not candidates:
                continue
            starts = candidates
        else:
            if len(candidates) < n_starts:
                continue
            starts = [candidates[i] for i in rng.permutation(len(candidates))[:n_starts]]
        obstacles = {(x, y) for y in range(height) for x in range(width) if blocked[y, x]}
        return obstacles, goals, set(starts)
    return None


def transition(cell, action, width, height, obstacles):
    """Single-agent move: impermissible targets leave the agent in place."""
    dx, dy = DELTAS[action]
    tgt = (cell[0] + dx, cell[1] + dy)
    if not in_bounds(tgt, width, height) or tgt in set(obstacles):
        return cell, True
    return tgt, False


def permissible_tables(width, height, obstacles):
    """Per cell id, by plain loops: permissible flags, target ids, the
    permissible action codes ascending and zero-padded to five, and their
    count. Stay is permissible on every cell, obstacles included; an
    impermissible action targets the agent's own cell.
    """
    perm, target, padded, counts = [], [], [], []
    for cid in range(width * height):
        cell = (cid % width, cid // width)
        flags, tgts = [], []
        for a in range(5):
            nxt, blocked = transition(cell, a, width, height, obstacles)
            ok = a == 4 or not blocked
            flags.append(ok)
            tgts.append(nxt[1] * width + nxt[0] if ok else cid)
        allowed = [a for a in range(5) if flags[a]]
        perm.append(flags)
        target.append(tgts)
        padded.append(allowed + [0] * (5 - len(allowed)))
        counts.append(len(allowed))
    return perm, target, padded, counts


def value_iteration(width, height, obstacles, goals, d1, d2, d3, gamma, tol=1e-9):
    """Optimal state-action values for the single-agent MDP.

    Rewards: d3 on arriving at a goal, d2 when blocked by the map or the
    boundary, d1 otherwise. Goal cells are absorbing with value 0. Returns
    (q, v) as plain dicts keyed by (cell, action) and cell.
    """
    obstacles = set(obstacles)
    goals = set(goals)
    cells = [
        (x, y)
        for x in range(width)
        for y in range(height)
        if (x, y) not in obstacles
    ]
    v = {c: 0.0 for c in cells}
    while True:
        delta = 0.0
        nv = {}
        for c in cells:
            if c in goals:
                nv[c] = 0.0
                continue
            best = None
            for a in range(5):
                nxt, blocked = transition(c, a, width, height, obstacles)
                if blocked:
                    r = d2
                elif nxt in goals:
                    r = d3
                else:
                    r = d1
                q = r + gamma * v[nxt]
                if best is None or q > best:
                    best = q
            nv[c] = best
            delta = max(delta, abs(nv[c] - v[c]))
        v = nv
        if delta < tol:
            break
    q = {}
    for c in cells:
        if c in goals:
            continue
        for a in range(5):
            nxt, blocked = transition(c, a, width, height, obstacles)
            if blocked:
                r = d2
            elif nxt in goals:
                r = d3
            else:
                r = d1
            q[(c, a)] = r + gamma * v[nxt]
    return q, v


def greedy_path_length(width, height, obstacles, goals, action_of, start, cap):
    """Follow a per-cell action mapping; steps to reach a goal or None."""
    goals = set(goals)
    cur = start
    for steps in range(cap + 1):
        if cur in goals:
            return steps
        a = action_of(cur)
        if a is None:
            return None
        cur, _ = transition(cur, int(a), width, height, obstacles)
    return None


def pad_paths(paths, horizon):
    """Extend every path by holding its last cell through the horizon."""
    out = []
    for p in paths:
        p = list(p)
        while len(p) < horizon + 1:
            p.append(p[-1])
        out.append(p)
    return out


def conflicts(paths, horizon):
    """All vertex and swap conflicts among hold-padded paths."""
    padded = pad_paths(paths, horizon)
    found = []
    n = len(padded)
    for t in range(horizon + 1):
        for i in range(n):
            for j in range(i + 1, n):
                if padded[i][t] == padded[j][t]:
                    found.append(("vertex", t, i, j))
    for t in range(horizon):
        for i in range(n):
            for j in range(i + 1, n):
                if padded[i][t] == padded[j][t + 1] and padded[i][t + 1] == padded[j][t]:
                    found.append(("swap", t, i, j))
    return found


def plan_conflicts(paths, success, horizon):
    """Vertex and swap conflicts for planner output.

    Successful paths hold their goal cell through the horizon; failed paths
    only claim the timesteps they cover (a cornered agent may have no legal
    continuation, so padding it would invent collisions the plan never made).
    """
    claimed = []
    for p, ok in zip(paths, success):
        p = list(p)
        if ok:
            while len(p) < horizon + 1:
                p.append(p[-1])
        claimed.append(p)
    found = []
    n = len(claimed)
    for i in range(n):
        for j in range(i + 1, n):
            span = min(len(claimed[i]), len(claimed[j]))
            for t in range(span):
                if claimed[i][t] == claimed[j][t]:
                    found.append(("vertex", t, i, j))
            for t in range(span - 1):
                if claimed[i][t] == claimed[j][t + 1] and claimed[i][t + 1] == claimed[j][t]:
                    found.append(("swap", t, i, j))
    return found


def survival_end(paths, agent, horizon, width, height, obstacles):
    """Where a prioritized planner leaves an agent that cannot park on a goal.

    Rebuilds the reservations of agents 0 .. agent-1 from their paths: every
    (cell, t) a path visits, its last cell held from its end through the
    horizon, and every move it makes, which a later agent may not take in
    reverse at the same tick. Then walks the (cell, t) layers reachable from
    the agent's start, one five-action step per tick, until the next layer
    is empty or the horizon is reached. Returns (cell, t): the deepest
    non-empty layer and its cell of lowest id y * width + x.
    """
    held = set()
    moves = set()
    for p in paths[:agent]:
        for t in range(horizon + 1):
            held.add((p[min(t, len(p) - 1)], t))
        for t in range(len(p) - 1):
            moves.add((p[t], p[t + 1], t))
    layer = {paths[agent][0]}
    t = 0
    while t < horizon:
        nxt = set()
        for c in layer:
            for a in range(5):
                n, _ = transition(c, a, width, height, obstacles)
                if (n, t + 1) not in held and (n, c, t) not in moves:
                    nxt.add(n)
        if not nxt:
            break
        layer = nxt
        t += 1
    return min(layer, key=lambda c: (c[1], c[0])), t


def reference_astar_plan(grid, starts, horizon):
    """Prioritized space-time A* as the package ran it with tuple-keyed states.

    The search below is the earlier package planner, kept unchanged: states
    are (cell id, t) tuples, heap entries are (f, t, cell id) tuples, and the
    parking test scans every tick up to the horizon. Only its inputs differ:
    the target table comes from permissible_tables and the goal distances
    from a plain numpy broadcast, not from the grid's cached tables. Starts
    are taken as given (no argument checks). Returns (paths of (x, y) cells,
    success flags, expanded) as tuples, comparable to PlanResult's fields.
    """
    target = permissible_tables(grid.width, grid.height, grid.obstacles)[1]
    goal = [grid.id_to_cell(cid) in grid.goals for cid in range(grid.n_cells)]
    ids = np.arange(grid.n_cells)
    gxs = np.array([g[0] for g in sorted(grid.goals)])
    gys = np.array([g[1] for g in sorted(grid.goals)])
    h = (np.abs(ids[:, None] % grid.width - gxs[None, :])
         + np.abs(ids[:, None] // grid.width - gys[None, :])).min(axis=1)

    def reconstruct(parents, state):
        cid, t = state
        path = [cid]
        while t > 0:
            cid = parents[(cid, t)]
            t -= 1
            path.append(cid)
        path.reverse()
        return path

    def plan_one(start_id, vres, eres):
        expanded = 0

        def can_park(cid, t):
            return all((cid, tt) not in vres for tt in range(t + 1, horizon + 1))

        heap = [(int(h[start_id]), 0, start_id)]
        parents = {(start_id, 0): -1}
        while heap:
            f, t, cid = heapq.heappop(heap)
            expanded += 1
            if goal[cid] and can_park(cid, t):
                return reconstruct(parents, (cid, t)), True, expanded
            if t == horizon:
                continue
            nt = t + 1
            for nxt in target[cid]:
                if (nxt, nt) in parents:
                    continue
                if (nxt, nt) in vres:
                    continue
                if nxt != cid and (nxt, cid, t) in eres:
                    continue
                parents[(nxt, nt)] = cid
                heapq.heappush(heap, (nt + int(h[nxt]), nt, nxt))

        deepest = max(t for _cid, t in parents)
        end = min(cid for cid, t in parents if t == deepest)
        return reconstruct(parents, (end, deepest)), False, expanded

    vres = set()
    eres = set()
    paths = []
    success = []
    expanded = 0
    for start_id in (grid.cell_id(c) for c in starts):
        path, ok, n = plan_one(start_id, vres, eres)
        expanded += n
        for t, cid in enumerate(path):
            vres.add((cid, t))
        for t in range(len(path) - 1, horizon):
            vres.add((path[-1], t + 1))
        for t in range(len(path) - 1):
            eres.add((path[t], path[t + 1], t))
        paths.append(tuple(grid.id_to_cell(cid) for cid in path))
        success.append(ok)
    return tuple(paths), tuple(success), expanded


def joint_makespan_two(width, height, obstacles, starts, goals, horizon):
    """Minimal t with both agents simultaneously on distinct goal cells.

    BFS over joint positions, simultaneous moves, vertex and swap conflicts
    forbidden. Agents may wait anywhere (stay is a move). None if the horizon
    is not enough.
    """
    obstacles = set(obstacles)
    goals = set(goals)
    start = (starts[0], starts[1])
    if start[0] == start[1]:
        raise ValueError("agents share a start")
    seen = {start}
    frontier = [start]
    for t in range(horizon + 1):
        for c1, c2 in frontier:
            if c1 in goals and c2 in goals and c1 != c2:
                return t
        nxt = set()
        for c1, c2 in frontier:
            for a1 in range(5):
                n1, _ = transition(c1, a1, width, height, obstacles)
                for a2 in range(5):
                    n2, _ = transition(c2, a2, width, height, obstacles)
                    if n1 == n2:
                        continue
                    if n1 == c2 and n2 == c1:
                        continue
                    s = (n1, n2)
                    if s not in seen:
                        seen.add(s)
                        nxt.add(s)
        frontier = list(nxt)
        if not frontier:
            break
    return None


def chain_success_probability(width, height, obstacles, goals, start, horizon):
    """Exact goal-hit probability of the uniform random policy, as a Fraction.

    Distribution over cells evolved step by step; goal cells absorb.
    """
    obstacles = set(obstacles)
    goals = set(goals)
    if start in goals:
        return Fraction(1)
    dist = {start: Fraction(1)}
    absorbed = Fraction(0)
    fifth = Fraction(1, 5)
    for _ in range(horizon):
        nxt = {}
        for cell, p in dist.items():
            for a in range(5):
                tgt, _ = transition(cell, a, width, height, obstacles)
                if tgt in goals:
                    absorbed += p * fifth
                else:
                    nxt[tgt] = nxt.get(tgt, Fraction(0)) + p * fifth
        dist = nxt
    return absorbed


def boundary_ring(width, height):
    """The out-of-bounds cells at depth one around the rectangle."""
    ring = []
    for x in range(-1, width + 1):
        ring.append((x, -1))
        ring.append((x, height))
    for y in range(height):
        ring.append((-1, y))
        ring.append((width, y))
    return ring


def min_hazard_distance(positions, width, height, obstacles, others=None):
    """Brute-force minimum Manhattan distance to any hazard over the ticks.

    Hazards per tick: every obstacle cell, every depth-one out-of-bounds
    cell (the nearest out-of-bounds cell is always in that ring), and every
    other-agent cell listed for the same tick.
    """
    hazards_static = list(obstacles) + boundary_ring(width, height)
    best = None
    for t, pos in enumerate(positions):
        for h in hazards_static:
            d = abs(pos[0] - h[0]) + abs(pos[1] - h[1])
            if best is None or d < best:
                best = d
        if others is not None:
            for h in others[t]:
                d = abs(pos[0] - h[0]) + abs(pos[1] - h[1])
                if best is None or d < best:
                    best = d
    return best


def reference_episode(grid, world, behavior, rng):
    """One counter-learner episode, agent by agent in index order.

    Takes the package's per-episode draws from rng, in its documented order:
    start cells (through the public sample_initial), a (T, N) block of action
    uniforms and, with noise, a (T, N) block of coins then one of picks. An
    action is the number of the first four cumulative behavior probabilities
    below the uniform; a noisy pick indexes the cell's permissible actions in
    ascending order. Moves resolve against a set of occupied cells; an agent
    on a goal freezes and keeps its cell.

    Returns (trajectories, order): per agent (steps, final cell, reached),
    steps being (cell, action) pairs, and the agents in submission order:
    goal arrivals by tick then index, then agents still out by index.
    Agents that start on a goal have no steps and do not submit.
    """
    from evopath.gridworld import sample_initial

    T, N, noise = world.horizon, world.n_agents, world.action_noise
    w, h, obstacles, goals = grid.width, grid.height, grid.obstacles, grid.goals
    cells = sample_initial(grid, N, rng)
    U = rng.random((T, N)).tolist()
    if noise > 0.0:
        coins = rng.random((T, N)).tolist()
        picks = rng.random((T, N)).tolist()
    occupied = set(cells)
    done = [c in goals for c in cells]
    steps = [[] for _ in range(N)]
    order = []
    for t in range(T):
        for i in range(N):
            if done[i]:
                continue
            cur = cells[i]
            cdf = np.cumsum(behavior.probs_at(cur)).tolist()
            a = sum(cdf[k] < U[t][i] for k in range(4))
            if noise > 0.0 and coins[t][i] < noise:
                allowed = [k for k in range(5) if not transition(cur, k, w, h, obstacles)[1]]
                a = allowed[int(picks[t][i] * len(allowed))]
            steps[i].append((cur, a))
            nxt, blocked = transition(cur, a, w, h, obstacles)
            if not blocked and nxt not in occupied:
                occupied.remove(cur)
                occupied.add(nxt)
                cells[i] = nxt
            if cells[i] in goals:
                done[i] = True
                order.append(i)
    order += [i for i in range(N) if not done[i]]
    return [(steps[i], cells[i], cells[i] in goals) for i in range(N)], order


def reference_stretch(steps, final):
    """Steps over the Manhattan distance from the first to the final cell.

    1 with no steps, +inf when back on the first cell.
    """
    if not steps:
        return 1.0
    first = steps[0][0]
    d = abs(first[0] - final[0]) + abs(first[1] - final[1])
    return len(steps) / d if d else math.inf


def reference_update(table, steps, final, reached, params, rng):
    """One submission of (cell, action-code) steps, written out.

    A goal-reaching trajectory of stretch u draws one rng.random() (even with
    no steps) and is accepted below 1 - (u - 1)^alpha for u <= eta, else
    1/u; it then adds nu to each distinct pair. A failed one with u >= beta
    adds -mu to each distinct pair. Writes through the public
    CounterTable.add and returns whether any entry moved.
    """
    from evopath.gridworld import Action

    u = reference_stretch(steps, final)
    if reached:
        if u < 1.0:
            raise ValueError(f"stretch factor must be >= 1, got {u}")
        p = 1.0 - (u - 1.0) ** params.alpha if u <= params.eta else 1.0 / u
        if not rng.random() < p:
            return False
        delta = params.nu
    elif u >= params.beta:
        delta = -params.mu
    else:
        return False
    distinct = {(cell, int(a)) for cell, a in steps}
    for cell, a in distinct:
        table.add(cell, Action(a), delta)
    return bool(distinct)


def reference_train(grid, world, params, table, behavior, children):
    """Run reference_episode per child and submit with reference_update.

    Each trajectory is submitted in submission order, drawing its acceptance
    from the episode's child. Returns (episodes, accepted submissions,
    agents on a goal at the end).
    """
    updates = reached = 0
    for r in children:
        trajectories, order = reference_episode(grid, world, behavior, r)
        for i in order:
            steps, final, ok = trajectories[i]
            updates += reference_update(table, steps, final, ok, params, r)
        reached += sum(ok for _, _, ok in trajectories)
    return len(children), updates, reached


def reference_fitness(grid, world, policy, rng, episodes):
    """Mean over episodes and agents of -min(reference_stretch, T), summed in that order."""
    total = 0.0
    for r in rng.spawn(episodes):
        for steps, final, _ in reference_episode(grid, world, policy, r)[0]:
            total += -min(reference_stretch(steps, final), float(world.horizon))
    return total / (episodes * world.n_agents)


def reference_rollout(grid, world, reward_cfg, policy, rng):
    """One evaluation rollout: reference_episode's episode, scored.

    Rewards per step: d3 on the step that enters a goal, d2 when the move is
    blocked by the map, d1 otherwise. Each agent's minimum distance comes
    from min_hazard_distance over its own ticks against every other agent's
    cell at the same tick; an agent whose steps have ended stays on its
    final cell.

    Returns (per agent (steps, final cell, reached), returns, distances).
    """
    N = world.n_agents
    w, h, obstacles = grid.width, grid.height, grid.obstacles
    trajectories, _order = reference_episode(grid, world, policy, rng)

    def cell_at(j, t):
        steps, final, _ = trajectories[j]
        return steps[t][0] if t < len(steps) else final

    returns = []
    distances = []
    for i, (steps, _final, reached) in enumerate(trajectories):
        total = 0.0
        for t, (cell, a) in enumerate(steps):
            if reached and t == len(steps) - 1:
                total += reward_cfg.delta3
            elif transition(cell, a, w, h, obstacles)[1]:
                total += reward_cfg.delta2
            else:
                total += reward_cfg.delta1
        returns.append(total)
        ticks = range(len(steps) + 1)
        positions = [cell_at(i, t) for t in ticks]
        others = [[cell_at(j, t) for j in range(N) if j != i] for t in ticks]
        distances.append(min_hazard_distance(positions, w, h, obstacles, others))
    return trajectories, returns, distances


def reference_step(grid, cells, actions, rng, noise, frozen):
    """One joint tick of given actions, agent by agent in index order.

    With noise, rng draws a row of coins, then a row of picks, one of each
    per agent, frozen or not. A frozen agent keeps its cell and reads
    nothing; another agent whose coin is below the noise level plays its
    pick over its cell's permissible actions in ascending order.

    Returns (next cells, per-agent events). An acting agent's events follow
    from its executed action: BLOCKED_BY_MAP when the action is
    impermissible, none for Stay, BLOCKED_BY_AGENT when an agent holds the
    target, else MOVED; REACHED_GOAL is added when its next cell is a goal.
    A frozen agent has REACHED_GOAL when it sits on a goal, else none.
    """
    from evopath.gridworld import StepEvent

    w, h, obstacles = grid.width, grid.height, grid.obstacles
    cells = list(cells)
    events = [StepEvent(0)] * len(cells)
    if noise > 0.0:
        coins = rng.random(len(cells)).tolist()
        picks = rng.random(len(cells)).tolist()
    occupied = set(cells)
    for i, cur in enumerate(cells):
        if not frozen[i]:
            a = int(actions[i])
            if noise > 0.0 and coins[i] < noise:
                allowed = [k for k in range(5) if not transition(cur, k, w, h, obstacles)[1]]
                a = allowed[int(picks[i] * len(allowed))]
            nxt, blocked = transition(cur, a, w, h, obstacles)
            if blocked:
                events[i] = StepEvent.BLOCKED_BY_MAP
            elif nxt == cur:
                events[i] = StepEvent(0)
            elif nxt in occupied:
                events[i] = StepEvent.BLOCKED_BY_AGENT
            else:
                events[i] = StepEvent.MOVED
                occupied.remove(cur)
                occupied.add(nxt)
                cells[i] = nxt
        if cells[i] in grid.goals:
            events[i] |= StepEvent.REACHED_GOAL
    return tuple(cells), tuple(events)


def reference_tabular(grid, world, reward_cfg, params, rng, method):
    """Q-learning ("q") or first-visit Monte Carlo ("mc") tables, written out.

    Each episode spawns one child of rng and takes every draw from it:
    start cells (through the public sample_initial), then (T, N) blocks of
    exploration coins, of random-action uniforms and, with noise, of noise
    coins and of picks. Per tick, per acting agent in index order, the agent
    plays int(u * 5) for its random-action uniform u when its exploration
    coin is below the episode's epsilon (else the first largest value of the
    cell's row); a noise coin below the noise level replaces that by the
    pick over the cell's permissible actions in ascending order. Moves
    resolve against a set of occupied cells; an agent on a goal freezes and
    keeps its cell, and one that starts there never acts. Rewards: d3 on a
    goal, d2 when blocked by the map, d1 otherwise.

    Q applies r + gamma * max Q(next) (0 on a goal) at rate learning_rate
    after every turn. MC, after each episode and agent by agent, adds the
    backward-accumulated return from the first visit of each (cell, action)
    pair to a running average. Returns the (n_cells, 5) table of values.
    """
    from evopath.gridworld import sample_initial

    T, N, noise = world.horizon, world.n_agents, world.action_noise
    w, h, obstacles, goals = grid.width, grid.height, grid.obstacles, grid.goals
    d1, d2, d3 = reward_cfg.delta1, reward_cfg.delta2, reward_cfg.delta3
    lr, gamma = params.learning_rate, params.discount
    values = {(x, y): [0.0] * 5 for x in range(w) for y in range(h)}
    sums = {c: [0.0] * 5 for c in values}
    counts = {c: [0] * 5 for c in values}
    for e in range(params.episodes):
        eps = params.epsilon_at(e)
        r = rng.spawn(1)[0]
        cells = sample_initial(grid, N, r)
        explore = r.random((T, N)).tolist()
        uniforms = r.random((T, N)).tolist()
        if noise > 0.0:
            coins = r.random((T, N)).tolist()
            picks = r.random((T, N)).tolist()
        occupied = set(cells)
        done = [c in goals for c in cells]
        visits = [[] for _ in range(N)]
        for t in range(T):
            if all(done):
                break
            for i in range(N):
                if done[i]:
                    continue
                cur = cells[i]
                if explore[t][i] < eps:
                    a = min(int(uniforms[t][i] * 5), 4)
                else:
                    row = values[cur]
                    a = 0
                    for k in range(1, 5):
                        if row[k] > row[a]:
                            a = k
                if noise > 0.0 and coins[t][i] < noise:
                    allowed = [k for k in range(5) if not transition(cur, k, w, h, obstacles)[1]]
                    a = allowed[int(picks[t][i] * len(allowed))]
                nxt, blocked = transition(cur, a, w, h, obstacles)
                if not blocked and nxt not in occupied:
                    occupied.remove(cur)
                    occupied.add(nxt)
                    cells[i] = nxt
                nxt = cells[i]
                reward = d3 if nxt in goals else d2 if blocked else d1
                if nxt in goals:
                    done[i] = True
                if method == "q":
                    boot = 0.0 if nxt in goals else max(values[nxt])
                    values[cur][a] += lr * (reward + gamma * boot - values[cur][a])
                else:
                    visits[i].append((cur, a, reward))
        if method == "mc":
            for steps in visits:
                returns = [0.0] * len(steps)
                g = 0.0
                for t in range(len(steps) - 1, -1, -1):
                    g = steps[t][2] + gamma * g
                    returns[t] = g
                seen = set()
                for t, (cell, a, _r) in enumerate(steps):
                    if (cell, a) in seen:
                        continue
                    seen.add((cell, a))
                    sums[cell][a] += returns[t]
                    counts[cell][a] += 1
                    values[cell][a] = sums[cell][a] / counts[cell][a]
    table = np.zeros((w * h, 5))
    for (x, y), row in values.items():
        table[y * w + x] = row
    return table

"""Independent reference computations for the test suite.

Everything here is deliberately naive: plain BFS over dicts, exhaustive
double loops, exact fractions. The point is an implementation path disjoint
from the package internals so that agreement between the two means something.
The counter-learner episode reference shares only the public start sampler
and update rule with the package; it steps each agent in a plain loop.

Cells are (x, y) tuples. Action codes follow the package's fixed order
0=up 1=down 2=left 3=right 4=stay with up decreasing y; the deltas are
restated here on purpose rather than imported.
"""

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


def transition(cell, action, width, height, obstacles):
    """Single-agent move: impermissible targets leave the agent in place."""
    dx, dy = DELTAS[action]
    tgt = (cell[0] + dx, cell[1] + dy)
    if not in_bounds(tgt, width, height) or tgt in set(obstacles):
        return cell, True
    return tgt, False


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


def reference_train(grid, world, params, table, behavior, children):
    """Run reference_episode per child and submit with apply_update.

    Each trajectory goes to the public apply_update in submission order,
    drawing its acceptance from the episode's child. Returns
    (episodes, accepted submissions, agents on a goal at the end).
    """
    from evopath.egt import Trajectory, apply_update
    from evopath.gridworld import Action

    updates = reached = 0
    for r in children:
        trajectories, order = reference_episode(grid, world, behavior, r)
        for i in order:
            steps, final, ok = trajectories[i]
            tau = Trajectory([(c, Action(a)) for c, a in steps], final, ok)
            updates += apply_update(table, tau, params, r)[0]
        reached += sum(ok for _, _, ok in trajectories)
    return len(children), updates, reached


def reference_fitness(grid, world, policy, rng, episodes):
    """Mean over episodes and agents of -min(stretch, T), summed in that order.

    Stretch is steps over the Manhattan distance from the first to the final
    cell: 1 with no steps, +inf when back on the first cell.
    """
    total = 0.0
    for r in rng.spawn(episodes):
        for steps, final, _ in reference_episode(grid, world, policy, r)[0]:
            if not steps:
                stretch = 1.0
            else:
                first = steps[0][0]
                d = abs(first[0] - final[0]) + abs(first[1] - final[1])
                stretch = len(steps) / d if d else math.inf
            total += -min(stretch, float(world.horizon))
    return total / (episodes * world.n_agents)

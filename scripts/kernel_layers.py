#!/usr/bin/env python3
"""Time the counter learner's two kernel layers at perfbench's egt-multi shape.

    python3 scripts/kernel_layers.py [--tree DIR] [--reps 5]

Trains as `perfbench/run.py --workload egt-multi` does at its default seed
(four 100 x 100 maps with 100 goals, 50 agents, horizon 400, 20 episodes
each), with timers around egt._run_episodes (the lockstep ticks) and
egt._submit (the counter update). DIR is the checkout whose src/ is
imported, this one by default, so two checkouts can be timed by one copy
of the script. Prints one JSON line: per layer, the fastest repeat's
seconds, its call count, and microseconds per tick or seconds per batch.
"""
from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

# perfbench/run.py's egt-multi workload
SEED, MAP_STRIDE, MAPS = 11, 1_000_003, 4
WIDTH, GOALS, AGENTS, HORIZON, EPISODES = 100, 100, 50, 400, 20


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", type=Path, default=Path(__file__).resolve().parent.parent)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.tree / "src"))
    import numpy as np
    from evopath import EGTParams, RewardConfig, WorldConfig, egt, gen_map

    grids = [(SEED + MAP_STRIDE * m, gen_map(WIDTH, WIDTH, 0.2, None, GOALS, SEED + MAP_STRIDE * m))
             for m in range(MAPS)]
    world = WorldConfig(n_agents=AGENTS, horizon=HORIZON)
    spent = {"tick": 0.0, "submit": 0.0}
    counts = {"tick": 0, "submit": 0}
    run_episodes, submit = egt._run_episodes, egt._submit

    def timed_run(grid, world, cdfs, index, first, draws):
        t0 = time.perf_counter()
        ep = run_episodes(grid, world, cdfs, index, first, draws)
        spent["tick"] += time.perf_counter() - t0
        # the kernel ticks until its last live pair arrives or the horizon ends
        played = np.where(grid._goal_mask[first], -1, np.minimum(ep.arrival, world.horizon - 1))
        counts["tick"] += int(played.max()) + 1
        return ep

    def timed_submit(*a):
        t0 = time.perf_counter()
        touched = submit(*a)
        spent["submit"] += time.perf_counter() - t0
        counts["submit"] += 1
        return touched

    egt._run_episodes, egt._submit = timed_run, timed_submit
    best = None
    for _ in range(args.reps):
        for k in spent:
            spent[k], counts[k] = 0.0, 0
        updates = [egt.train(grid, world, EGTParams(episodes=EPISODES), RewardConfig(),
                             np.random.default_rng([map_seed, 1]))[2].policy_updates
                   for map_seed, grid in grids]
        if best is None or sum(spent.values()) < sum(best[0].values()):
            best = (dict(spent), dict(counts), updates)
    spent, counts, updates = best
    print(json.dumps({
        "tick_s": spent["tick"], "ticks": counts["tick"],
        "us_per_tick": 1e6 * spent["tick"] / counts["tick"],
        "submit_s": spent["submit"], "submit_batches": counts["submit"],
        "s_per_submit_batch": spent["submit"] / counts["submit"],
        "policy_updates": updates,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Print a fingerprint of every seeded counter-learner output.

    python3 scripts/engine_fingerprint.py > fingerprint.txt

Run it on two revisions and diff the outputs: any change to the episode
engine's draws, tick rule or update order shows up as a differing line. It
covers train (policy text, table text, TrainingStats counts) and ess_test
reports for N in {1, 3, 10}, noise in {0, 0.1, 0.25}, both behavior modes,
ESS with and without an invader, and the sweep CSVs of
configs/agent_sweep.cfg with timing=off. Takes a few minutes on one core.
"""
from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from evopath import (  # noqa: E402
    EGTParams, Policy, RewardConfig, WorldConfig, ess_test, gen_map, train,
)
from evopath.bench import parse_config_text, run_sweep, sweep_from_config  # noqa: E402


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def main() -> None:
    rewards = RewardConfig()
    for n_agents in (1, 3, 10):
        for noise in (0.0, 0.1, 0.25):
            grid = gen_map(12, 12, 0.2, None, 3, 100 + n_agents)
            world = WorldConfig(n_agents=n_agents, horizon=40, action_noise=noise)
            for mode in ("faithful", "iterative"):
                params = EGTParams(episodes=300, reconstruct_interval=50, behavior_mode=mode)
                policy, table, stats = train(grid, world, params, rewards, np.random.default_rng(7))
                print(
                    f"train N={n_agents} noise={noise} {mode}: policy {digest(policy.to_text())} "
                    f"table {digest(table.to_text())} episodes {stats.episodes_run} "
                    f"updates {stats.policy_updates} reached {stats.goal_reach_count}"
                )
            params = EGTParams(episodes=200, reconstruct_interval=50)
            probs = np.random.default_rng(n_agents).dirichlet(np.ones(5), grid.n_cells)
            for name, invader in (("uniform", None), ("dirichlet", Policy(grid, probs))):
                report = ess_test(
                    grid, world, params, rewards, 0.5, 0.5, np.random.default_rng(9),
                    eval_episodes=20, invader=invader,
                )
                print(f"ess N={n_agents} noise={noise} invader={name}: {report}")
    text = (ROOT / "configs" / "agent_sweep.cfg").read_text().replace("timing = wall", "timing = off")
    base = parse_config_text(text)
    data, summary = run_sweep(sweep_from_config(base, "n_agents"), base)
    print(f"agent_sweep data {digest(data)} summary {digest(summary)}")
    print(summary, end="")


if __name__ == "__main__":
    main()

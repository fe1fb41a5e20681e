#!/usr/bin/env python3
"""Print a fingerprint of every seeded episode-engine output.

    python3 scripts/engine_fingerprint.py > fingerprint.txt

Run it on two revisions and diff the outputs: any change to the episode
engines' draws, tick rule or update order shows up as a differing line. It
covers:

- train (policy text, table text, TrainingStats counts) and ess_test
  reports for N in {1, 3, 10}, noise in {0, 0.1, 0.25}, both behavior
  modes, ESS with and without an invader;
- both again on parents seeded by a list, by 2^63 - 25, by a spawned child,
  by a SeedSequence with pool size 8 and one with spawn key (2^35, 1), and
  on MT19937 and SFC64, each with the parent's next spawned uniform after
  the call;
- rollout records (trajectories, returns, min distances) for N in
  {1, 2, 5, 10}, noise in {0, 0.3}, uniform and Dirichlet policies;
- reward() over every (free cell, action) of fuzzed maps, with the next
  cell and the blocked flag step reports;
- step outcomes on crowded boards with random frozen flags, noise in
  {0, 0.3, 1.0};
- both of the above on PCG64-, MT19937- and SFC64-backed generators, each
  with the generator's next uniform after the calls;
- q_train and mc_train tables (raw values) and stats for N in {1, 3, 5},
  noise in {0, 0.25}, for N = 8 at noise 1.0, and for 1,100 single-agent
  episodes, more than one batch of child generators, each on PCG64,
  MT19937 and SFC64 parents with the parent's next spawned uniform after
  the call;
- run_experiment reports for each algorithm, one of them over 600
  evaluation episodes, on the same three parents, each with the parent's
  next spawned uniform after the call;
- the sweep CSVs of configs/agent_sweep.cfg, and of a noisy sweep over all
  four algorithms, with timing=off;
- the output of the CLI's gen-map, eval, train (snapshot and counts, not
  train_time_s) and ess-test on an egt config (2 agents, noise 0.1) and a
  qlearn config (learn.episodes = auto, a reward.delta2 override), and the
  eval and ess-test error line for every known config key set to "abc";
- apply_update results and tables, fitness and success_update_probability
  over fuzzed trajectories (empty ones, loops, decrements, off-map cells and
  stretches below 1, with their error text);
- the _perm_target and _perm_choices arrays of generated maps from 1 x k
  and k x 1 up to 100 x 100;
- astar_plan paths, success flags and expanded counts on crowded instances
  up to 30 x 30, and on criterion 9's 100 x 100 maps with 100 goals for 2,
  10 and 50 agents at the default horizon, on 100 x 100 maps with 6 goals
  for 8 agents at the default horizon, and on 20 x 20 maps with starts in
  pockets that hold no goal, with plans where every agent reaches a goal
  digested apart from plans with a failing agent, and a failing agent's
  path apart from the rest; and the EpisodeRecords run_experiment builds
  from each of those plans (trajectories, returns, min distances);
- rollout records, q_train and mc_train on the default generator, reward()
  and the plan records once more under the reward levels in ALT_REWARDS,
  labelled with them.
- train on egt-multi's shape: a 100 x 100 map with 100 goals, 50 agents,
  horizon 400, 20 and 120 iterative episodes (many counter-update slices
  and wide claim steps per tick).

Takes a few minutes on one core.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
from evopath import (  # noqa: E402
    CounterTable, EGTParams, LearnParams, Policy, RewardConfig, Trajectory, WorldConfig,
    apply_update, astar_plan, ess_test, fitness, gen_map, mc_train, q_train, rollout, step,
    success_update_probability, train,
)
from evopath import cli  # noqa: E402
from evopath.bench import (  # noqa: E402
    _KNOWN_KEYS, default_horizon, experiment_from_config, parse_config_text, run_experiment,
    run_sweep, sweep_from_config,
)
from evopath.gridworld import StepEvent, reward  # noqa: E402

try:
    from evopath.metrics import _plan_record  # noqa: E402
except ImportError:  # older revisions built the plan record in bench
    from evopath.bench import _plan_record  # noqa: E402

# reward levels unlike the defaults, so a rule that read the defaults shows
ALT_REWARDS = RewardConfig(delta1=-0.25, delta2=-3.5, delta3=7.0)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


NOISY_SWEEP = """
seed = 5
timing = off
sweep.axis = n_agents
sweep.values = 1, 3, 6
sweep.algorithms = astar, egt, mc, qlearn
sweep.reps = 2
map.width = 10
map.height = 10
map.density = 0.2
map.goals = 2
world.noise = 0.2
egt.episodes = 60
learn.episodes = 80
eval.episodes = 6
"""


CLI_CONFIGS = {
    "egt": """
algorithm = egt
seed = 3
timing = off
map.width = 8
map.height = 8
map.goals = 2
world.agents = 2
world.noise = 0.1
world.horizon = 30
egt.episodes = 200
eval.episodes = 10
ess.eval_episodes = 10
""",
    "qlearn": """
algorithm = qlearn
seed = 4
timing = off
map.width = 6
map.height = 6
learn.episodes = auto
reward.delta2 = -7
eval.episodes = 10
""",
}


def run_cli(command: str, text: str, tmp: Path) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process CLI call on config text."""
    path = tmp / "fingerprint.cfg"
    path.write_text(text)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([command, "--config", str(path)])
    return code, out.getvalue(), err.getvalue()


def with_key(text: str, key: str, value: str) -> str:
    kept = [line for line in text.splitlines() if line.partition("=")[0].strip() != key]
    return "\n".join(kept + [f"{key} = {value}"]) + "\n"


def fingerprint_cli() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        for name, text in CLI_CONFIGS.items():
            for command in ("gen-map", "eval", "train", "ess-test"):
                code, out, err = run_cli(command, text, tmp)
                out = "".join(
                    line for line in out.splitlines(keepends=True)
                    if not line.startswith("train_time_s=")
                )
                print(f"cli {name} {command}: exit {code} out {digest(out)} err {err.strip()!r}")
        small = with_key(with_key(CLI_CONFIGS["egt"], "egt.episodes", "20"), "eval.episodes", "2")
        for key in sorted(_KNOWN_KEYS):
            base = CLI_CONFIGS["qlearn"] if key.startswith("learn.") else small
            for command in ("eval", "ess-test"):
                code, out, err = run_cli(command, with_key(base, key, "abc"), tmp)
                print(f"cli {key}=abc {command}: exit {code} out {digest(out)} err {err.strip()!r}")


def make_rng(seed: int, bit_generator: str) -> np.random.Generator:
    """A Generator on the named bit generator; "" is default_rng's PCG64."""
    if not bit_generator:
        return np.random.default_rng(seed)
    return np.random.Generator(getattr(np.random, bit_generator)(seed))


def fingerprint_parents(rewards: RewardConfig) -> None:
    """train and ess_test on parents other than default_rng(int), each followed
    by the first uniform of the parent's next spawned child."""
    parents = {
        "[134, 1]": lambda: np.random.default_rng([134, 1]),
        "2**63-25": lambda: np.random.default_rng(2**63 - 25),
        "spawned": lambda: np.random.default_rng(7).spawn(2)[1],
        "pool 8": lambda: np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(134, pool_size=8))),
        "key (2**35, 1)": lambda: np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(134, spawn_key=(2**35, 1)))),
        "MT19937": lambda: make_rng(7, "MT19937"),
        "SFC64": lambda: make_rng(7, "SFC64"),
    }
    grid = gen_map(12, 12, 0.2, None, 3, 103)
    for n_agents, noise in ((1, 0.0), (3, 0.1)):
        world = WorldConfig(n_agents=n_agents, horizon=40, action_noise=noise)
        for name, make in parents.items():
            # faithful mode runs 1,200 episodes in batches of up to 512
            for mode, episodes in (("iterative", 300), ("faithful", 1200)):
                rng = make()
                params = EGTParams(episodes=episodes, reconstruct_interval=50, behavior_mode=mode)
                policy, table, stats = train(grid, world, params, rewards, rng)
                print(
                    f"train parent={name} N={n_agents} noise={noise} {mode}: "
                    f"policy {digest(policy.to_text())} table {digest(table.to_text())} "
                    f"episodes {stats.episodes_run} updates {stats.policy_updates} "
                    f"reached {stats.goal_reach_count} next {rng.spawn(1)[0].random()!r}"
                )
            rng = make()
            report = ess_test(grid, world, EGTParams(episodes=200, reconstruct_interval=50), rewards,
                              0.5, 0.5, rng, eval_episodes=20)
            print(f"ess parent={name} N={n_agents} noise={noise}: {report} "
                  f"next {rng.spawn(1)[0].random()!r}")


def reward_label(rewards: RewardConfig) -> str:
    """"" for the default levels, else the levels, so default lines keep their text."""
    if rewards == RewardConfig():
        return ""
    return f" rewards=({rewards.delta1}, {rewards.delta2}, {rewards.delta3})"


def fingerprint_rollouts(rewards: RewardConfig, bit_generator: str = "") -> None:
    label = (f" {bit_generator}" if bit_generator else "") + reward_label(rewards)
    for n_agents in (1, 2, 5, 10):
        grid = gen_map(12, 12, 0.2, None, 3, 200 + n_agents)
        probs = np.random.default_rng(n_agents).dirichlet(np.ones(5), grid.n_cells)
        for noise in (0.0, 0.3):
            world = WorldConfig(n_agents=n_agents, horizon=40, action_noise=noise)
            for name, policy in (("uniform", Policy.uniform(grid)),
                                 ("dirichlet", Policy(grid, probs))):
                rng = make_rng(17, bit_generator)
                text = "".join(repr(rollout(grid, world, rewards, policy, rng)) for _ in range(30))
                print(f"rollout{label} N={n_agents} noise={noise} {name}: {digest(text)} "
                      f"next {rng.random()!r}")


def fingerprint_steps(bit_generator: str = "") -> None:
    label = f" {bit_generator}" if bit_generator else ""
    rng = make_rng(23, bit_generator)
    for noise in (0.0, 0.3, 1.0):
        parts = []
        for k in range(200):
            grid = gen_map(6, 6, 0.25, None, 2, 300 + k)
            cells = grid.free_cells()
            n = int(rng.integers(1, min(8, len(cells)) + 1))
            pick = rng.permutation(len(cells))[:n]
            starts = [cells[j] for j in pick]
            actions = rng.integers(0, 5, n).tolist()
            frozen = (rng.random(n) < 0.3).tolist()
            out = step(grid, starts, actions, rng, action_noise=noise, frozen=frozen)
            parts.append(repr(out))
        print(f"step{label} noise={noise}: {digest(''.join(parts))} next {rng.random()!r}")


def fingerprint_learners(rewards: RewardConfig, bit_generator: str = "") -> None:
    label = (f" {bit_generator}" if bit_generator else "") + reward_label(rewards)
    # 8 agents at noise 1.0 is the densest draw pattern: every turn adds a coin
    # and a pick; 1,100 episodes seed more than one batch of children
    for n_agents, noises, episodes in ((1, (0.0, 0.25), 200), (3, (0.0, 0.25), 200),
                                       (5, (0.0, 0.25), 200), (8, (1.0,), 200), (1, (0.0,), 1100)):
        grid = gen_map(10, 10, 0.2, None, 2, 400 + n_agents)
        for noise in noises:
            world = WorldConfig(n_agents=n_agents, horizon=30, action_noise=noise)
            params = LearnParams(episodes=episodes)
            for name, learner in (("q", q_train), ("mc", mc_train)):
                rng = make_rng(3, bit_generator)
                table, policy, stats = learner(grid, world, rewards, params, rng)
                print(
                    f"{name}_train{label} N={n_agents} noise={noise} episodes={episodes}: values "
                    f"{hashlib.sha256(table._values.tobytes()).hexdigest()[:16]} "
                    f"policy {digest(policy.to_text())} episodes {stats.episodes_run} "
                    f"updates {stats.policy_updates} reached {stats.goal_reach_count} "
                    f"next {rng.spawn(1)[0].random()!r}"
                )


def fingerprint_rewards(rewards: RewardConfig) -> None:
    """reward() for every (free cell, action) of fuzzed maps, with step's next cell and flag."""
    parts = []
    for k in range(40):
        grid = gen_map(7, 6, 0.25, None, 3, 700 + k)
        for cell in grid.free_cells():
            for a in range(5):
                out = step(grid, [cell], [a])
                blocked = bool(out.events[0] & StepEvent.BLOCKED_BY_MAP)
                for flag in sorted({blocked, False}):
                    parts.append(repr(reward(cell, a, out.next_cells[0], grid, flag, rewards)))
    print(f"reward{reward_label(rewards)}: {digest(','.join(parts))} over {len(parts)} cases")


def fingerprint_experiments(bit_generator: str = "") -> None:
    """run_experiment per algorithm on one generator, then the parent's next spawned uniform."""
    label = f" {bit_generator}" if bit_generator else ""
    for algorithm in ("astar", "egt", "mc", "qlearn"):
        # egt evaluates over 600 episodes: more than one batch of children
        for name, text in (("egt", CLI_CONFIGS["egt"]), ("qlearn", CLI_CONFIGS["qlearn"])):
            text = with_key(text, "algorithm", algorithm)
            if name == "egt" and algorithm == "egt":
                text = with_key(text, "eval.episodes", "600")
            rng = make_rng(13, bit_generator)
            report = run_experiment(experiment_from_config(parse_config_text(text)), rng)
            print(f"run_experiment{label} {algorithm} on {name} config: {report} "
                  f"next {rng.spawn(1)[0].random()!r}")


def outcome(fn, *args) -> str:
    """repr of fn(*args), or the type and text of the error it raises."""
    try:
        return repr(fn(*args))
    except ValueError as exc:
        return f"{type(exc).__name__}: {exc}"


def fuzz_trajectory(grid, rng: np.random.Generator) -> Trajectory:
    """A random walk from a random free cell; some end on their first cell, some
    claim a goal they are too short to reach, some step off the map."""
    cells = grid.free_cells()
    cur = cells[int(rng.integers(len(cells)))]
    _, target = grid._perm_target
    steps = []
    for _ in range(int(rng.choice([0, 1, 2, 5, 12, 40]))):
        a = int(rng.integers(5))
        steps.append((cur, a))
        cur = grid.id_to_cell(int(target[grid.cell_id(cur), a]))
    kind = rng.random()
    if kind < 0.15 and steps:
        cur = steps[0][0]
    elif kind < 0.25:
        cur = cells[int(rng.integers(len(cells)))]
    elif kind < 0.27:
        steps.append(((-1, 0), 0))
    reached = bool(rng.random() < 0.5) or cur in grid.goals
    return Trajectory(steps, cur, reached)


def fingerprint_updates() -> None:
    rng = np.random.default_rng(41)
    for k in range(6):
        grid = gen_map(9, 7, 0.2, None, 2, 500 + k)
        params = EGTParams(eta=float(rng.choice([1.0, 1.5, 2.0])), alpha=float(rng.choice([1.5, 2.0, 3.0])),
                           beta=float(rng.choice([1.0, 2.0, 3.0])), nu=int(rng.integers(1, 3)),
                           mu=int(rng.integers(1, 4)))
        table = CounterTable(grid)
        draws = np.random.default_rng(k)
        parts = []
        for _ in range(400):
            tau = fuzz_trajectory(grid, rng)
            parts.append(outcome(fitness, tau) + outcome(apply_update, table, tau, params, draws))
        print(f"apply_update map={k} {params}: {digest(''.join(parts))} "
              f"table {digest(table.to_text())} next {draws.random()!r}")
    u = np.concatenate([[0.5, 0.999, 1.0, 1.5, 2.0, np.inf], 1.0 + rng.exponential(0.4, 500)])
    for eta in (1.0, 1.5, 2.0):
        for alpha in (1.1, 1.5, 2.0, 3.0, 7.5):
            text = "".join(outcome(success_update_probability, float(x), eta, alpha) for x in u)
            print(f"success_update_probability eta={eta} alpha={alpha}: {digest(text)}")


def fingerprint_perm_tables() -> None:
    for w, h, density in ((1, 2, 0.0), (1, 9, 0.2), (9, 1, 0.2), (1, 40, 0.0), (40, 1, 0.1),
                          (7, 5, 0.3), (20, 20, 0.2), (33, 17, 0.4), (100, 100, 0.2)):
        grid = gen_map(w, h, density, None, 1, w * 1000 + h)
        arrays = (*grid._perm_target, *grid._perm_choices)
        text = "".join(f"{a.dtype.str}{a.shape}{a.tobytes().hex()}" for a in arrays)
        print(f"perm tables {w}x{h}: {digest(text)}")


def print_plan_digests(label: str, instances: list) -> None:
    """Digest astar_plan over (grid, starts, horizon) instances, split by outcome."""
    parts: dict[str, list[str]] = {
        "all-succeed paths": [], "all-succeed expanded": [],
        "with-failure success and successful paths": [],
        "with-failure failed paths": [], "with-failure expanded": [],
    }
    counts = {"all-succeed": 0, "with-failure": 0}
    records = {rewards: [] for rewards in (RewardConfig(), ALT_REWARDS)}
    for grid, starts, horizon in instances:
        res = astar_plan(grid, starts, horizon)
        for rewards, texts in records.items():
            rec = _plan_record(res, grid, rewards)
            texts.append(repr((rec.trajectories, rec.returns, rec.cumulative_return,
                               rec.min_obstacle_distances)))
        kind = "all-succeed" if all(res.success) else "with-failure"
        counts[kind] += 1
        parts[f"{kind} expanded"].append(f"{res.expanded};")
        if kind == "all-succeed":
            parts["all-succeed paths"].append(repr(res.paths))
            continue
        kept = [p if ok else None for p, ok in zip(res.paths, res.success)]
        parts["with-failure success and successful paths"].append(repr((res.success, kept)))
        parts["with-failure failed paths"].append(
            repr([p for p, ok in zip(res.paths, res.success) if not ok])
        )
    print(f"plans {label}: {counts['all-succeed']} all-succeed, "
          f"{counts['with-failure']} with-failure")
    for name, texts in parts.items():
        print(f"plan {label} {name}: {digest(''.join(texts))}")
    for rewards, texts in records.items():
        print(f"plan {label} records{reward_label(rewards)}: {digest(''.join(texts))}")


def fingerprint_plans() -> None:
    rng = np.random.default_rng(61)
    # (side, goals, agent-count range); the 30 x 30 case is sweep-noisy's cell shape
    cases = ((6, 2, (2, 5)), (10, 3, (2, 7)), (16, 4, (2, 9)), (30, 9, (8, 11)))
    for size, n_goals, agents in cases:
        instances = []
        for k in range(30 if size < 30 else 6):
            grid = gen_map(size, size, 0.2, None, n_goals, 600 + 100 * size + k)
            cells = list(grid.starts)
            n = min(len(cells), int(rng.integers(agents[0], agents[1] + 1)))
            starts = [cells[j] for j in rng.permutation(len(cells))[:n]]
            instances.append((grid, starts, 4 * size))
        print_plan_digests(f"{size}x{size}", instances)
    # criterion 9's agent-count cells: 100 x 100, 100 goals, the default horizon
    grids = [gen_map(100, 100, 0.2, None, 100, 9000 + k) for k in range(3)]
    for n_agents in (2, 10, 50):
        instances = []
        for grid in grids:
            cells = list(grid.starts)
            starts = [cells[j] for j in rng.permutation(len(cells))[:n_agents]]
            instances.append((grid, starts, default_horizon(100, 100)))
        print_plan_digests(f"100x100 N={n_agents}", instances)
    # more agents than goals: the last agents find every goal parked on
    instances = []
    for k in range(3):
        grid = gen_map(100, 100, 0.2, None, 6, 9100 + k)
        cells = list(grid.starts)
        starts = [cells[j] for j in rng.permutation(len(cells))[:8]]
        instances.append((grid, starts, default_horizon(100, 100)))
    print_plan_digests("100x100 crowded", instances)
    # starts in pockets that hold no goal, mixed in among starts that reach one
    instances = []
    for k in range(20):
        grid = gen_map(20, 20, 0.35, None, 2, 9200 + k)
        reachable = list(grid.starts)
        pockets = sorted(set(grid.free_cells()) - set(reachable) - grid.goals)
        cells = [pockets[j] for j in rng.permutation(len(pockets))[:3]]
        cells += [reachable[j] for j in rng.permutation(len(reachable))[:4]]
        starts = [cells[j] for j in rng.permutation(len(cells))]
        instances.append((grid, starts, default_horizon(20, 20)))
    print_plan_digests("20x20 pockets", instances)


def fingerprint_multi_agent() -> None:
    """train at the benchmark's 50-agent shape: table text and stats."""
    grid = gen_map(100, 100, 0.2, None, 100, 11)
    world = WorldConfig(n_agents=50, horizon=400)
    for episodes in (20, 120):
        _, table, stats = train(grid, world, EGTParams(episodes=episodes), RewardConfig(),
                                np.random.default_rng([11, 1]))
        print(f"train 100x100 N=50 episodes={episodes}: table {digest(table.to_text())} "
              f"episodes {stats.episodes_run} updates {stats.policy_updates} "
              f"reached {stats.goal_reach_count} defined {table.n_defined()}")


def main() -> None:
    rewards = RewardConfig()
    fingerprint_plans()
    fingerprint_updates()
    fingerprint_perm_tables()
    fingerprint_cli()
    for bit_generator in ("", "MT19937", "SFC64"):
        fingerprint_rollouts(rewards, bit_generator)
        fingerprint_steps(bit_generator)
    for bit_generator in ("", "MT19937", "SFC64"):
        fingerprint_learners(rewards, bit_generator)
        fingerprint_experiments(bit_generator)
    for levels in (rewards, ALT_REWARDS):
        fingerprint_rewards(levels)
    fingerprint_rollouts(ALT_REWARDS)
    fingerprint_learners(ALT_REWARDS)
    fingerprint_parents(rewards)
    base = parse_config_text(NOISY_SWEEP)
    data, summary = run_sweep(sweep_from_config(base), base)
    print(f"noisy_sweep data {digest(data)} summary {digest(summary)}")
    print(data, end="")
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
    fingerprint_multi_agent()


if __name__ == "__main__":
    main()

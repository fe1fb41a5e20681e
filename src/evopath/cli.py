"""Command line interface.

Subcommands: gen-map, train, eval, sweep-grid, sweep-agents, ess-test. Every
subcommand reads a key=value config (--config) and accepts targeted overrides
(--seed, --out). Exit code 0 on success; failures print one
machine-readable "error: <Type>: <message>" line to stderr and exit nonzero.
"""
from __future__ import annotations

import argparse
import sys

import numpy as np

from . import egt as _egt
from .baselines import mc_train, q_train
from .bench import (
    ConfigError,
    _resolve_map,
    experiment_from_config,
    parse_config,
    run_experiment,
    run_sweep,
    sweep_from_config,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evopath",
        description="Grid-world multi-agent path finding workbench",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = [
        ("gen-map", "generate a random map and write its text form"),
        ("train", "train the configured learner and write a policy snapshot"),
        ("eval", "train (or plan) and evaluate; print the metrics report"),
        ("sweep-grid", "run the grid-size sweep and write data + summary CSVs"),
        ("sweep-agents", "run the agent-count sweep and write data + summary CSVs"),
        ("ess-test", "train, run the invasion test, and print the report"),
    ]
    for name, help_text in commands:
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", required=True, help="key=value config file")
        s.add_argument("--seed", type=int, default=None, help="override the master seed")
        s.add_argument("--out", default=None, help="output file path")
    return parser


def _load_kv(args) -> dict[str, str]:
    kv = parse_config(args.config)
    if args.seed is not None:
        kv["seed"] = str(args.seed)
    return kv


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {out}")


def _cmd_gen_map(args) -> int:
    kv = _load_kv(args)
    seed = int(kv.get("seed", "0"))
    grid = _resolve_map(kv, seed)
    _emit(grid.to_text(), args.out)
    return 0


def _cmd_train(args) -> int:
    kv = _load_kv(args)
    cfg = experiment_from_config(kv)
    rng = np.random.default_rng(cfg.seed)
    if cfg.algorithm == "egt":
        policy, _table, stats = _egt.train(cfg.grid, cfg.world, cfg.params, cfg.rewards, rng)
    elif cfg.algorithm == "qlearn":
        _table, policy, stats = q_train(cfg.grid, cfg.world, cfg.rewards, cfg.params, rng)
    elif cfg.algorithm == "mc":
        _table, policy, stats = mc_train(cfg.grid, cfg.world, cfg.rewards, cfg.params, rng)
    else:
        raise ConfigError("train does not apply to astar (nothing to train)")
    _emit(policy.to_text(), args.out)
    print(f"episodes_run={stats.episodes_run}")
    print(f"policy_updates={stats.policy_updates}")
    print(f"goal_reach_count={stats.goal_reach_count}")
    print(f"train_time_s={stats.wall_time:.6f}")
    return 0


def _cmd_eval(args) -> int:
    kv = _load_kv(args)
    cfg = experiment_from_config(kv)
    report = run_experiment(cfg)
    lines = [
        f"mean_path_length={report.mean_path_length:.6f}",
        f"mean_path_length_is_fallback={str(report.mean_path_length_is_fallback).lower()}",
        f"success_rate={report.success_rate:.6f}",
        f"min_agent_success_rate={report.min_agent_success_rate:.6f}",
        f"expected_min_obstacle_distance={report.expected_min_obstacle_distance:.6f}",
        f"policy_updates={report.policy_updates}",
        f"train_time_s={report.train_time:.6f}",
        f"run_time_s={report.run_time:.6f}",
    ]
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        _emit(text, args.out)
    else:
        sys.stdout.write(text)
    return 0


def _summary_path(out: str) -> str:
    if out.endswith(".csv"):
        return out[: -len(".csv")] + "_summary.csv"
    return out + "_summary"


def _cmd_sweep(args, axis: str) -> int:
    kv = _load_kv(args)
    spec = sweep_from_config(kv, axis)
    out = args.out if args.out is not None else spec.out
    if out is None:
        raise ConfigError("an output path is required (--out or sweep.out)")
    rows, summary = run_sweep(spec, kv)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(rows)
    spath = _summary_path(out)
    with open(spath, "w", encoding="utf-8") as fh:
        fh.write(summary)
    print(f"wrote {out}")
    print(f"wrote {spath}")
    return 0


def _cmd_ess_test(args) -> int:
    kv = _load_kv(args)
    cfg = experiment_from_config(kv)
    if cfg.algorithm != "egt":
        raise ConfigError("ess-test requires algorithm=egt")
    p_new = float(kv.get("ess.p_new", "0.1"))
    extra = float(kv.get("ess.extra_fraction", "0.1"))
    eval_episodes = int(kv.get("ess.eval_episodes", "200"))
    threshold = float(kv.get("ess.agreement_threshold", "0.95"))
    tolerance = float(kv.get("ess.fitness_tolerance", "0.05"))
    rng = np.random.default_rng(cfg.seed)
    report = _egt.ess_test(
        cfg.grid, cfg.world, cfg.params, cfg.rewards, p_new, extra, rng,
        eval_episodes=eval_episodes,
        agreement_threshold=threshold,
        fitness_tolerance=tolerance,
    )
    lines = [
        f"p_new={report.p_new:.6f}",
        f"extra_episodes={report.extra_episodes}",
        f"states_compared={report.states_compared}",
        f"argmax_agreement={report.argmax_agreement:.6f}",
        f"fitness_before={report.fitness_before:.6f}",
        f"fitness_after={report.fitness_after:.6f}",
        f"is_ess={str(report.is_ess).lower()}",
    ]
    text = "\n".join(lines) + "\n"
    if args.out is not None:
        _emit(text, args.out)
    else:
        sys.stdout.write(text)
    return 0


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "gen-map":
            return _cmd_gen_map(args)
        if args.command == "train":
            return _cmd_train(args)
        if args.command == "eval":
            return _cmd_eval(args)
        if args.command == "sweep-grid":
            return _cmd_sweep(args, "grid_size")
        if args.command == "sweep-agents":
            return _cmd_sweep(args, "n_agents")
        if args.command == "ess-test":
            return _cmd_ess_test(args)
        raise ConfigError(f"unknown command {args.command!r}")
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

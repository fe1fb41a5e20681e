"""Command line interface.

Subcommands: gen-map, train, eval, sweep-grid, sweep-agents, ess-test. Every
subcommand reads a key=value config (--config) and accepts targeted overrides
(--seed, --out). Exit code 0 on success; failures print one
machine-readable "error: <Type>: <message>" line to stderr and exit nonzero.
"""
from __future__ import annotations

import argparse
import sys
from functools import partial

import numpy as np

from . import egt as _egt
from .bench import (
    _ESS_KEYS,
    ConfigError,
    _build,
    _check_keys,
    _ess_kwargs,
    _format_report,
    _resolve_map,
    _seed,
    _train_learner,
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
    for name, help_text, handler in _COMMANDS:
        s = sub.add_parser(name, help=help_text)
        s.add_argument("--config", required=True, help="key=value config file")
        s.add_argument("--seed", type=int, default=None, help="override the master seed")
        s.add_argument("--out", default=None, help="output file path")
        s.set_defaults(handler=handler)
    return parser


def _load_kv(args) -> dict[str, str]:
    kv = parse_config(args.config)
    if args.seed is not None:
        kv["seed"] = str(args.seed)
    _check_keys(kv)
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
    grid = _resolve_map(kv, _seed(kv))
    _emit(grid.to_text(), args.out)
    return 0


def _cmd_train(args) -> int:
    kv = _load_kv(args)
    cfg = experiment_from_config(kv)
    policy, stats = _train_learner(cfg, np.random.default_rng(cfg.seed))
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
    lines = [f"{column}={value}" for column, value in _format_report(report).items()]
    fallback = str(report.mean_path_length_is_fallback).lower()
    lines.insert(1, f"mean_path_length_is_fallback={fallback}")
    _emit("\n".join(lines) + "\n", args.out)
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
    run = partial(_egt.ess_test, cfg.grid, cfg.world, cfg.params, cfg.rewards,
                  rng=np.random.default_rng(cfg.seed))
    report = _build(run, _ESS_KEYS, _ess_kwargs(kv))
    lines = [
        f"p_new={report.p_new:.6f}",
        f"extra_episodes={report.extra_episodes}",
        f"states_compared={report.states_compared}",
        f"argmax_agreement={report.argmax_agreement:.6f}",
        f"fitness_before={report.fitness_before:.6f}",
        f"fitness_after={report.fitness_after:.6f}",
        f"is_ess={str(report.is_ess).lower()}",
    ]
    _emit("\n".join(lines) + "\n", args.out)
    return 0


# (name, help, handler) per subcommand
_COMMANDS = (
    ("gen-map", "generate a random map and write its text form", _cmd_gen_map),
    ("train", "train the configured learner and write a policy snapshot", _cmd_train),
    ("eval", "train (or plan) and evaluate; print the metrics report", _cmd_eval),
    ("sweep-grid", "run the grid-size sweep and write data + summary CSVs",
     partial(_cmd_sweep, axis="grid_size")),
    ("sweep-agents", "run the agent-count sweep and write data + summary CSVs",
     partial(_cmd_sweep, axis="n_agents")),
    ("ess-test", "train, run the invasion test, and print the report", _cmd_ess_test),
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except Exception as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

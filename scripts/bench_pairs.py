#!/usr/bin/env python3
"""Run perfbench on two checkouts in alternating pairs and record every run.

    python3 scripts/bench_pairs.py --before ../parent --after . \
        --workload sweep-noisy --pairs 10 --out BENCH.json

Each pair runs `perfbench/run.py` once in each checkout with the same
workload, seed, run length and trace flag; the before side runs first in
the 1st, 3rd, ... pair and the after side in the others. Every run's
metrics are appended to the output JSON under "<workload> trace<0|1>",
plus " seed<N>" when a seed is given. Next to the runs sits a summary per
metric: each side's median and quartiles, how many pairs the after side
won (by the direction BENCHMARK.json gives, ties counting for neither),
whether the medians differ by more than the before side's interquartile
range, and, for end-to-end metrics, whether the after median is worse than
the before median by more than the benchmark's bound. Runs already under a
key are kept, and the summary covers all of them.

Each run records the checkout's git revision, which reads "unknown" for a
tree without .git (a `git archive` copy), and src_digest, a digest of the
checkout's src/ tree that ties the run to its code either way (see
src_digest for how to re-digest a commit).
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def src_digest(tree: Path) -> str:
    """sha256 of tree/src, for matching a run to a commit.

    Per file, in sorted order of its POSIX path relative to src/: the path, a
    NUL, its size in bytes, a NUL, then its bytes. Build output is skipped:
    files under __pycache__ or *.egg-info directories. To re-digest a commit,
    run `git archive REV src | tar -x -C DIR`, then src_digest(DIR).
    """
    src = tree / "src"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*"), key=lambda p: p.relative_to(src).as_posix()):
        rel = path.relative_to(src)
        if not path.is_file() or any(d == "__pycache__" or d.endswith(".egg-info") for d in rel.parts):
            continue
        data = path.read_bytes()
        h.update(f"{rel.as_posix()}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def run_once(tree: Path, workload: str, seconds: float, trace: int, seed: int | None) -> dict:
    """One perfbench run in tree: its metric values, job counts, failures and env."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seconds", str(seconds), "--trace", str(trace)]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    out = subprocess.run(cmd, cwd=tree, check=True, capture_output=True, text=True).stdout
    lines = out.splitlines()
    env = json.loads(lines[0].removeprefix("# env "))
    result = json.loads(lines[-1])
    return {
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
        "attempted": result["attempted"],
        "failed": result["failed"],
        "failures": [line.removeprefix("# FAILED ") for line in lines if line.startswith("# FAILED")],
        "git_revision": env.get("git_revision"),
        "src_digest": src_digest(tree),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(runs: list[dict], contract: dict) -> dict:
    """Per metric: medians, quartiles, wins of the after side, spread and bound checks."""
    direction = {m["name"]: m for m in contract["end_to_end"] + contract["per_layer"]}
    out = {}
    for name in runs[0]["before"]["metrics"]:
        before = [r["before"]["metrics"][name] for r in runs]
        after = [r["after"]["metrics"][name] for r in runs]
        sign = 1 if direction.get(name, {}).get("better", "lower") == "higher" else -1
        wins = sum(sign * (a - b) > 0 for a, b in zip(after, before))
        b1, bmed, b3 = quartiles(before)
        a1, amed, a3 = quartiles(after)
        row = {
            "before": {"median": bmed, "q1": b1, "q3": b3},
            "after": {"median": amed, "q1": a1, "q3": a3},
            "after_wins": wins,
            "pairs": len(runs),
            "median_gap_exceeds_before_iqr": abs(amed - bmed) > b3 - b1,
        }
        bound = direction.get(name, {}).get("bound")
        if bound is not None:
            worse = sign * (bmed - amed)
            row["worse_than_bound"] = worse > bound * abs(bmed)
        out[name] = row
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--before", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--after", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: BENCHMARK.json's run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds

    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    key = f"{args.workload} trace{args.trace}" + ("" if args.seed is None else f" seed{args.seed}")
    entry = record.setdefault(key, {"seconds": seconds, "seed": args.seed, "runs": []})
    for _ in range(args.pairs):
        sides = ("before", "after") if len(entry["runs"]) % 2 == 0 else ("after", "before")
        pair = {"first": sides[0]}
        for side in sides:
            tree = args.before if side == "before" else args.after
            pair[side] = run_once(tree, args.workload, seconds, args.trace, args.seed)
        entry["runs"].append(pair)
        entry["summary"] = summarize(entry["runs"], contract)
        # written after every pair, so an interrupted series keeps its runs
        args.out.write_text(json.dumps(record, indent=1) + "\n")
        print(f"{key} pair {len(entry['runs'])}: "
              + " ".join(f"{s} {pair[s]['metrics']}" for s in ("before", "after")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

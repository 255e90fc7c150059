"""Alternating `perfbench` pairs of a git revision and the working tree.

    python bench/pairs.py REV --workload NAME [NAME ...] --seeds S [S ...]
                          [--seconds 30] [--out BENCH_N.json]

For each seed in turn (a pair), and within it each --workload in turn, it
runs `python3 perfbench/run.py --workload NAME --seed S --seconds T
--trace 0` once on the parent side, a `git archive` of the committed tree
of REV, and once on the change side, a copy of the working tree's src/,
perfbench/ and BENCHMARK.json.  The parent runs first on even pair indices
and the change on odd ones.  Neither copy holds a `__pycache__`, and every
run sets PYTHONDONTWRITEBYTECODE=1, so both sides compile their sources on
every run: a side that read bytecode would start faster (its `setup_s`
alone, 0.09-0.13 s against 0.14-0.23 s on a shared 2-core VM).  Both
copies are removed afterwards.

It then prints, for each workload and each end-to-end metric that
BENCHMARK.json lists, the parent's q1, median and q3, the change's
median, the median change relative to the parent's median, the parent's
q1-q3 spread relative to its median, and the pairs the change wins (ties
count for neither side), then the failed ops of each side.  The last
column reads `gain` where the change wins at least nine tenths of the
pairs and its median is better than the parent's by more than the
parent's q1-q3 spread, and `over bound` where its median is worse than
the parent's by more than the metric's BENCHMARK.json bound.  --out writes
every run's figures and these summaries as JSON, under `method` and
`perfbench_pairs`, in the form of the repository's BENCH_<n>.json files.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")
# the working tree's files that a perfbench run reads
CHANGE_FILES = ("src", "perfbench", "BENCHMARK.json")


def summary(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    """The pair statistics of one metric: quartiles by statistics.quantiles,
    the median change and the parent's spread relative to its median, the
    pairs the change wins by the metric's `better` ("higher" or "lower"),
    and its verdict ("gain", "over bound" or "")."""
    q_parent = statistics.quantiles(parent, n=4)
    q_change = statistics.quantiles(change, n=4)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    moved = (q_change[1] - q_parent[1]) / q_parent[1]
    spread = (q_parent[2] - q_parent[0]) / q_parent[1]
    verdict = ""
    if wins >= 0.9 * len(parent) and sign * moved > spread:
        verdict = "gain"
    elif -sign * moved > bound:
        verdict = "over bound"
    return {
        "parent": parent,
        "change": change,
        "parent_q1_median_q3": [round(q, 6) for q in q_parent],
        "change_q1_median_q3": [round(q, 6) for q in q_change],
        "median_change_rel": round(moved, 4),
        "parent_q1_q3_spread_rel": round(spread, 4),
        "change_better_pairs": wins,
        "verdict": verdict,
    }


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The last line of one perfbench run in tree, read as JSON: `correct`,
    `attempted`, `failed`, and each metric's `value` and `unit`."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [
        sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def make_trees(rev: str, base: Path) -> dict[str, Path]:
    """The parent side (rev's committed tree, which tracks no bytecode) and
    the change side (a copy of the working tree's CHANGE_FILES, leaving out
    `__pycache__`) under base."""
    trees = {side: base / side for side in SIDES}
    archive = subprocess.run(
        ["git", "-C", str(ROOT), "archive", rev], check=True, capture_output=True
    ).stdout
    trees["parent"].mkdir()
    subprocess.run(["tar", "-x", "-C", str(trees["parent"])], input=archive, check=True)
    trees["change"].mkdir()
    skip = shutil.ignore_patterns("__pycache__", ".perfbench")
    for name in CHANGE_FILES:
        source, target = ROOT / name, trees["change"] / name
        if source.is_dir():
            shutil.copytree(source, target, ignore=skip)
        else:
            shutil.copy2(source, target)
    return trees


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload", nargs="+", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]

    runs = {w: {side: [] for side in SIDES} for w in args.workload}
    with tempfile.TemporaryDirectory() as base:
        trees = make_trees(args.rev, Path(base))
        for i, seed in enumerate(args.seeds):
            for workload in args.workload:
                for side in SIDES[::-1] if i % 2 else SIDES:
                    result = run(trees[side], workload, seed, args.seconds)
                    runs[workload][side].append(result)
                    figures = {name: m["value"] for name, m in result["metrics"].items()}
                    print(f"pair {i} seed {seed} {workload} {side}: {figures}", flush=True)

    pairs = {}
    for workload, sides in runs.items():
        pairs[workload] = {
            m["name"]: summary(
                *([r["metrics"][m["name"]]["value"] for r in sides[side]] for side in SIDES),
                m["better"], m["bound"],
            )
            for m in metrics
        }
        pairs[workload]["failed_ops"] = {
            side: [r["failed"] for r in sides[side]] for side in SIDES
        }
        print(f"\n{workload}: {len(args.seeds)} pairs, parent = {args.rev}, change = working tree")
        print(f"{'metric':22} {'parent q1':>11} {'median':>11} {'q3':>11} {'change':>11}"
              f" {'moved':>8} {'spread':>7} {'wins':>5}")
        for m in metrics:
            s = pairs[workload][m["name"]]
            (q1, med, q3), change = s["parent_q1_median_q3"], s["change_q1_median_q3"][1]
            print(f"{m['name']:22} {q1:11.6g} {med:11.6g} {q3:11.6g} {change:11.6g}"
                  f" {s['median_change_rel']:+8.2%} {s['parent_q1_q3_spread_rel']:7.2%}"
                  f" {s['change_better_pairs']:5d} {s['verdict']}")
        print(f"failed ops: {pairs[workload]['failed_ops']}")

    if args.out is not None:
        method = (
            f"python bench/pairs.py {args.rev} --workload {' '.join(args.workload)} --seeds "
            f"{' '.join(map(str, args.seeds))} --seconds {args.seconds:g}: alternating "
            "perfbench pairs, pair index outer and workload inner, the parent first on even "
            "pair indices; the parent a `git archive` of its tree, the change a copy of the "
            "working tree's src/, perfbench/ and BENCHMARK.json; no __pycache__ on either "
            "side and PYTHONDONTWRITEBYTECODE=1."
        )
        args.out.write_text(json.dumps({"method": method, "perfbench_pairs": pairs}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

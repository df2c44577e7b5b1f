"""Run perfbench on two revisions in alternating pairs and summarise them.

Usage (from the repository root):

    python3 tools/bench_pairs.py PARENT_REV CHANGE_REV --workload grid53 \
        --pairs 10 --seconds 10 --seed-base 700 --out BENCH_name.json

Each revision is exported with `git archive` into its own directory under
a temporary one, so that neither side runs a working tree's edits or a
stale `__pycache__`.  Pair i runs both exports at seed K + i, each with
`python3 -B perfbench/run.py --workload W --seed K+i --seconds S
--trace 0`, unchanged; the parent goes first in even pairs and the
change in odd ones, so that a drift in the host's speed falls on both
sides alike.  The output file holds one line per run (its revision,
seed, order, verdict and end-to-end metrics) and, per metric, each
side's median and quartiles, how many pairs each side won (a tie counts
for neither), and the two-sided sign-test p-value of those wins.  A
metric is better lower or higher as BENCHMARK.json of the change says.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")


def _export(rev: str, into: str) -> tuple:
    """The commit of rev and a directory holding its committed files."""
    commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", f"{rev}^{{commit}}"],
        check=True, capture_output=True, text=True,
    ).stdout.strip()
    os.makedirs(into)
    tar = subprocess.run(["git", "-C", ROOT, "archive", commit],
                         check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", into], input=tar, check=True)
    return commit, into


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in tree: its verdict and end-to-end metrics."""
    proc = subprocess.run(
        [sys.executable, "-B", "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"bench_pairs: run.py printed no result in {tree} (exit {proc.returncode})")
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {k: m["value"] for k, m in result["metrics"].items()},
    }


def _sign_p(wins: int, losses: int) -> float:
    """Two-sided sign-test p-value of wins against losses, ties dropped."""
    n = wins + losses
    if n == 0:
        return 1.0
    tail = sum(math.comb(n, i) for i in range(min(wins, losses) + 1)) / 2**n
    return min(1.0, 2 * tail)


def _spread(values: list) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0] if values else None
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values) if values else None, "q1": q1, "q3": q3}


def summarize(runs: list, better: dict) -> dict:
    """Per metric: each side's median and quartiles, pairs won and p.

    runs are the records of the output file, each with its "pair",
    "side" and "metrics"; better maps a metric to "lower" or "higher"
    (lower when absent).  A pair counts only when both sides report the
    metric; its change wins when its value is better, and a tie counts
    for neither side.
    """
    by_pair: dict = {}
    for run in runs:
        by_pair.setdefault(run["pair"], {})[run["side"]] = run["metrics"]
    names = sorted({name for run in runs for name in run["metrics"]})
    summary = {}
    for name in names:
        sign = -1 if better.get(name, "lower") == "lower" else 1
        values = {side: [run["metrics"][name] for run in runs
                         if run["side"] == side and name in run["metrics"]] for side in SIDES}
        won = lost = ties = 0
        for pair in by_pair.values():
            if not all(side in pair and name in pair[side] for side in SIDES):
                continue
            d = sign * (pair["change"][name] - pair["parent"][name])
            won, lost, ties = won + (d > 0), lost + (d < 0), ties + (d == 0)
        parent_median = _spread(values["parent"])["median"]
        change_median = _spread(values["change"])["median"]
        summary[name] = {
            "better": "lower" if sign < 0 else "higher",
            "parent": _spread(values["parent"]),
            "change": _spread(values["change"]),
            "median_change": (None if parent_median in (None, 0) or change_median is None
                              else change_median / parent_median - 1),
            "change_won": won,
            "parent_won": lost,
            "ties": ties,
            "sign_p": _sign_p(won, lost),
        }
    return summary


def _write(path: str, head: dict, summary: dict, runs: list) -> None:
    # one line per run and per metric, so the file stays small and diffable
    lines = ["{"]
    lines += [f"  {json.dumps(k)}: {json.dumps(v)}," for k, v in head.items()]
    lines.append('  "summary": {')
    items = [f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in summary.items()]
    lines.append(",\n".join(items))
    lines.append("  },")
    lines.append('  "runs": [')
    lines.append(",\n".join(f"    {json.dumps(run)}" for run in runs))
    lines.append("  ]")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _positive(kind):
    def parse(text: str):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be positive, got {text}")
        return value
    return parse


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, choices=("grid53", "highprec", "cli"))
    parser.add_argument("--pairs", type=_positive(int), default=10)
    parser.add_argument("--seconds", type=_positive(float), default=10.0)
    parser.add_argument("--seed-base", type=int, default=1)
    parser.add_argument("--out", default=None, help="default: BENCH_pairs_<workload>.json")
    args = parser.parse_args(argv)
    out = args.out or f"BENCH_pairs_{args.workload}.json"
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        trees = {}
        for side, rev in zip(SIDES, (args.parent, args.change)):
            trees[side] = _export(rev, os.path.join(tmp, side))
        with open(os.path.join(trees["change"][1], "BENCHMARK.json"), encoding="utf-8") as fh:
            better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
        runs = []
        for pair in range(args.pairs):
            seed = args.seed_base + pair
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for position, side in enumerate(order):
                record = _run(trees[side][1], args.workload, seed, args.seconds)
                runs.append({"pair": pair, "side": side, "seed": seed,
                             "first": position == 0, **record})
                print(f"pair {pair} seed {seed} {side}: correct={record['correct']}"
                      f" {json.dumps(record['metrics'])}", flush=True)
    head = {
        "workload": args.workload,
        "parent": trees["parent"][0],
        "change": trees["change"][0],
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed_base": args.seed_base,
        "command": "python3 -B perfbench/run.py --workload W --seed K+i --seconds S --trace 0",
    }
    _write(out, head, summarize(runs, better), runs)
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Interleaved benchmark pairs of two source trees.

Usage (from anywhere):

    python3 tools/interleave.py PARENT_TREE CHANGE_TREE --workload retrain|sweep \\
        --seeds N [N ...] [--out PATH]

For each seed it runs ``perfbench/run.py --trace 0`` once in each tree, each
tree with its own ``perfbench/`` and ``src/``, one after the other, for the
``run_seconds`` of the parent's ``BENCHMARK.json``: the parent first for the
1st, 3rd, ... seed and the change first for the others. For each end-to-end
metric of that file it prints both trees' medians and quartiles, the pairs
the change won and lost, and whether a gain would be met: the change better
in at least 9 of 10 pairs, the medians apart by more than the parent's
interquartile range, and no more failed commands than the parent. ``--out``
writes the same as JSON, in the layout of a ``BENCH_*.json`` workload entry.

Passing the same tree twice (an A/A run) sizes the offset between two runs
of one commit.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def first_in_pair(index):
    """Which tree runs first in pair ``index`` (0-based)."""
    return SIDES[index % 2]


def run_bench(tree, workload, seed, seconds):
    """The result line of one ``perfbench/run.py --trace 0`` run in ``tree``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: run.py exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-500:]}")
    return json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": round(q1, 4), "median": round(median, 4), "q3": round(q3, 4)}


def failed_commands(pairs):
    return {side: sum(p[side]["failed"] for p in pairs) for side in SIDES}


def summarize(pairs, declared):
    """Per-metric statistics of ``pairs``, a list of {"parent": result, "change":
    result} with ``run.py``'s result lines, for the metrics ``declared`` (the
    ``end_to_end`` entries of ``BENCHMARK.json``). No gain is met when the
    change failed more commands than the parent."""
    failed = failed_commands(pairs)
    fails_more = failed["change"] > failed["parent"]
    metrics = {}
    for spec in declared:
        name, sign = spec["name"], 1 if spec["better"] == "lower" else -1
        runs = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        # > 0: the change is better by that much
        gains = [sign * (p - c) for p, c in zip(runs["parent"], runs["change"])]
        stats = {side: quartiles(runs[side]) for side in SIDES}
        parent, change = stats["parent"]["median"], stats["change"]["median"]
        gap = round(sign * (parent - change), 4)
        iqr = round(stats["parent"]["q3"] - stats["parent"]["q1"], 4)
        better = sum(g > 0 for g in gains)
        metrics[name] = {
            **stats,
            "parent_runs": [round(v, 4) for v in runs["parent"]],
            "change_runs": [round(v, 4) for v in runs["change"]],
            "change_better_pairs": better,
            "change_worse_pairs": sum(g < 0 for g in gains),
            "median_change": round(change / parent - 1, 4) if parent else None,
            "median_gap": gap,
            "parent_iqr": iqr,
            "gain_met": better >= 0.9 * len(pairs) and gap > iqr and not fails_more,
        }
    return metrics


def report(seeds, pairs, declared):
    """The ``BENCH_*.json``-style entry of one workload's pairs."""
    return {
        "pairs": len(pairs),
        "seeds": list(seeds),
        "first_in_pair": [first_in_pair(i) for i in range(len(pairs))],
        "failed_commands": failed_commands(pairs),
        "metrics": summarize(pairs, declared),
    }


def print_table(workload, entry):
    print(f"{workload}: {entry['pairs']} pairs, failed commands "
          f"{entry['failed_commands']['parent']} parent, "
          f"{entry['failed_commands']['change']} change")
    for name, m in entry["metrics"].items():
        p, c = m["parent"], m["change"]
        print(f"  {name:18s} parent {p['median']:10.4f} [{p['q1']:.4f}, {p['q3']:.4f}]  "
              f"change {c['median']:10.4f} [{c['q1']:.4f}, {c['q3']:.4f}]  "
              f"won {m['change_better_pairs']}/{entry['pairs']}  "
              f"lost {m['change_worse_pairs']}  gap {m['median_gap']:+.4f} "
              f"iqr {m['parent_iqr']:.4f}  {'GAIN' if m['gain_met'] else ''}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((Path(args.parent) / "BENCHMARK.json").read_text())
    trees = {"parent": args.parent, "change": args.change}
    pairs = []
    for i, seed in enumerate(args.seeds):
        first = first_in_pair(i)
        order = (first, SIDES[1 - SIDES.index(first)])
        pairs.append({side: run_bench(trees[side], args.workload, seed, bench["run_seconds"])
                      for side in order})
        print(f"pair {i + 1}/{len(args.seeds)} (seed {seed}, {first} first) done",
              file=sys.stderr)
    entry = report(args.seeds, pairs, bench["end_to_end"])
    print_table(args.workload, entry)
    if args.out:
        Path(args.out).write_text(json.dumps({args.workload: entry}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

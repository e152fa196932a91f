"""Alternating in-process timings of one CLI command in two source trees.

Usage (from anywhere):

    python3 tools/inprocess_ab.py PARENT_TREE CHANGE_TREE --workload retrain|sweep \\
        --command search|curve|eval --pairs N [--seed N] [--out PATH]

It writes the inputs of ``perfbench/workloads.py``'s workload for workload
seed N (default 1) once, and trains one model with the parent's ``train``
(and, for ``eval``, runs the parent's ``search``, whose final model ``eval``
reads). It then imports each tree's ``approxdbn`` package from its ``src/``
as modules of its own, and runs the command's ``approxdbn.cli.main`` of the
two trees one after the other, N times each, in this process: the parent
first in the 1st, 3rd, ... pair and the change first in the others. Both
trees write to the same output directory, as some commands print that
path. Every run is timed with ``time.perf_counter`` and its standard output
is kept.

It prints each tree's minimum, quartiles and the pairs it won, and exits 1
if a run did not exit 0 or printed other standard output than the parent's
first run, else 0. ``--out`` writes the runs and the summary as JSON.

No process starts per run, so the timings leave out interpreter start-up
and imports; state a tree keeps per process (a table built once, say) is
paid in its first run only. Passing the same tree twice (an A/A run) sizes
the offset between the two sides.
"""

import argparse
import contextlib
import gc
import importlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import load_workloads  # noqa: E402
from interleave import SIDES, first_in_pair, quartiles  # noqa: E402

COMMANDS = ("search", "curve", "eval")


def _take_package():
    """Remove every ``approxdbn`` module from ``sys.modules`` and return them."""
    names = [n for n in sys.modules if n == "approxdbn" or n.startswith("approxdbn.")]
    return {name: sys.modules.pop(name) for name in names}


@contextlib.contextmanager
def _installed(modules):
    """``sys.modules`` with ``modules`` as its ``approxdbn`` package, restored after."""
    saved = _take_package()
    sys.modules.update(modules)
    try:
        yield
    finally:
        _take_package()
        sys.modules.update(saved)


def load_tree(tree):
    """(``approxdbn.cli``, its package's modules) imported from ``tree``'s ``src/``,
    apart from any ``approxdbn`` this process has loaded before."""
    src = (Path(tree) / "src").resolve()
    if not (src / "approxdbn" / "cli.py").is_file():
        raise SystemExit(f"no approxdbn sources under {tree}/src")
    with _installed({}):
        sys.path.insert(0, str(src))
        try:
            cli = importlib.import_module("approxdbn.cli")
        finally:
            sys.path.remove(str(src))
        modules = {name: module for name, module in sys.modules.items()
                   if name == "approxdbn" or name.startswith("approxdbn.")}
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"approxdbn of {tree} was not loaded from {src}")
    return cli, modules


def run(loaded, argv):
    """(exit code, seconds, standard output) of one ``cli.main(argv)`` run."""
    cli, modules = loaded
    gc.collect()
    out = io.StringIO()
    with _installed(modules), contextlib.redirect_stdout(out):
        start = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - start
    return code, seconds, out.getvalue()


def summarize(runs):
    """Per tree, the minimum, quartiles and won pairs of ``runs``, a list of
    {side: (code, seconds, stdout)} pairs."""
    times = {side: [pair[side][1] for pair in runs] for side in SIDES}
    pairs = list(zip(times["parent"], times["change"]))
    won = {"parent": sum(p < c for p, c in pairs), "change": sum(c < p for p, c in pairs)}
    return {side: {"min": round(min(times[side]), 4), **quartiles(times[side]),
                   "won": won[side],
                   "runs": [round(t, 4) for t in times[side]]} for side in SIDES}


def problems(runs):
    """A line per run that did not exit 0 or printed other than the parent's first."""
    want = runs[0]["parent"][2]
    return [f"pair {i + 1}: {side} "
            + (f"exited {code}" if code else "printed other standard output")
            for i, pair in enumerate(runs) for side, (code, _, stdout) in pair.items()
            if code or stdout != want]


def main(argv=None):
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--command", required=True, choices=COMMANDS)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, for quartiles")
    trees = {"parent": load_tree(args.parent), "change": load_tree(args.change)}
    with tempfile.TemporaryDirectory() as work:
        inputs = workloads.Inputs(workloads.WORKLOADS[args.workload], args.seed,
                                  str(Path(work) / "inputs"))
        inputs.write()
        commands = dict(inputs.commands(str(Path(work) / "out")))
        for setup in ("train", "search")[:1 + (args.command == "eval")]:
            code, _, _ = run(trees["parent"], commands[setup])
            if code:
                print(f"parent {setup} exited {code}")
                return 1
        runs = []
        for i in range(args.pairs):
            first = first_in_pair(i)
            order = (first, SIDES[1 - SIDES.index(first)])
            runs.append({side: run(trees[side], commands[args.command]) for side in order})
    summary = summarize(runs)
    print(f"{args.workload} {args.command}: {args.pairs} pairs, seed {args.seed}")
    for side, s in summary.items():
        print(f"  {side:7s} min {s['min']:.4f}  q1 {s['q1']:.4f}  median {s['median']:.4f}  "
              f"q3 {s['q3']:.4f}  won {s['won']}/{args.pairs}")
    lines = problems(runs)
    for line in lines:
        print(line)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"workload": args.workload, "command": args.command, "seed": args.seed,
             "pairs": args.pairs, "first_in_pair": [first_in_pair(i)
                                                    for i in range(args.pairs)],
             "trees": summary, "problems": lines}, indent=1) + "\n")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())

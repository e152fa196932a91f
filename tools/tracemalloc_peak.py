"""The tracemalloc peak of each command of a benchmark workload.

Usage (from anywhere):

    python3 tools/tracemalloc_peak.py TREE --workload retrain|sweep --seed N

It generates the inputs of ``perfbench/workloads.py``'s workload for
workload seed N, then runs the workload's commands (``train``, ``search``,
``curve`` and ``eval``) one after the other in this process, through
``approxdbn.cli.main`` from TREE's ``src/``, their own output discarded.
tracemalloc traces each command on its own, numpy's arrays included, and
the tool prints each command's peak of traced memory in MB of 2^20 bytes,
the unit of the benchmark's ``peak_rss_mb``. Unlike that metric, the peak
counts live bytes only, so the heap's layout does not move it. It exits 1 if a command fails.
"""

import argparse
import contextlib
import importlib
import io
import sys
import tempfile
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import load_workloads  # noqa: E402


def load_cli(tree):
    """``approxdbn.cli`` from ``tree``'s ``src/``; refuses another tree's
    package that this process has already loaded."""
    src = (Path(tree) / "src").resolve()
    if not (src / "approxdbn" / "cli.py").is_file():
        raise SystemExit(f"no approxdbn sources under {tree}/src")
    sys.path.insert(0, str(src))
    cli = importlib.import_module("approxdbn.cli")
    loaded = Path(cli.__file__).resolve().parent.parent
    if loaded != src:
        raise SystemExit(f"approxdbn is already loaded from {loaded}, not {src}")
    return cli


def peaks(cli, commands):
    """Yield (name, exit code, tracemalloc peak in bytes) of each command."""
    for name, argv in commands:
        tracemalloc.start()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
            yield name, code, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def main(argv=None):
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    cli = load_cli(args.tree)
    print(f"{'command':<10}{'peak_mb':>10}")
    with tempfile.TemporaryDirectory() as work:
        inputs = workloads.Inputs(workloads.WORKLOADS[args.workload], args.seed,
                                  str(Path(work) / "inputs"))
        inputs.write()
        for name, code, peak in peaks(cli, inputs.commands(str(Path(work) / "out"))):
            if code != 0:
                print(f"{name} exited {code}")
                return 1
            print(f"{name:<10}{peak / 2 ** 20:>10.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

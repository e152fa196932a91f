"""Byte-identity check of two source trees on a benchmark workload.

Usage (from anywhere):

    python3 tools/compare_outputs.py TREE_A TREE_B [--workload retrain|sweep] [--seed N [N ...]]

With no ``--workload`` it runs every workload, and with no ``--seed`` the
seeds 1, 7 and 32. For each workload and seed it generates the inputs of
``perfbench/workloads.py``'s workload, then runs the CLI commands with
each tree's ``src/`` (BLAS pinned to one thread): the workload's
``train``, ``search``, ``curve`` and ``eval``, plus ``search`` with the
test images set, ``curve_float64`` and ``curve_wide`` (``curve`` with
budgets whose products need float64, or more than its 53 bits, by the
value rule of ``ddbn._needs``), ``curve_test`` (``curve`` on the test
images: 3,000 rows on ``retrain``, so stacks of one curve point, and 1,000 on
``sweep``, stacks of two) and ``eval`` in the other inference mode. On a
workload with three or more hidden layers it adds ``search_full`` (variant
``full``, 2 retrain epochs, 5% loss), whose retrains train layer 1 as a
lower RBM under a precision map. Both trees write to the same output directory, one after
the other, since some commands print that path. It hashes every file the
commands write, except ``config_echo.json`` (it names the input paths),
plus each command's standard output and exit code. It prints every
difference between the trees and every command that did not exit 0,
run by run, and exits 1 if there is one for any run, else 0.
"""

import argparse
import hashlib
import importlib.util
import itertools
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SKIPPED = {"config_echo.json"}
SEEDS = (1, 7, 32)
# One run per product path. The workload's own runs start from 8-bit budgets,
# whose products need 15 to 22 bits on the bench's models and run in float32. At
# curve_float64's 20 bits they need 27 to 46 bits: float64 products, and the
# candidate evaluator keeps its layers. At curve_wide's 30 bits layer 1 needs 65
# bits or more, past float64's 53, so the evaluator keeps no layer and walks every
# candidate from the images.
FLOAT64_FRAC_BITS = 20
WIDE_FRAC_BITS = 30
# search_full's settings: the full method, kept short
FULL_SEARCH = {"variant": "full", "retrain_epochs": 2, "max_relative_accuracy_loss": 0.05}


def load_workloads():
    """``perfbench/workloads.py``, imported by path; it imports its
    sibling ``gen`` by module name."""
    if str(PERFBENCH) not in sys.path:
        sys.path.insert(0, str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _config(inputs, source, name, **changes):
    """The JSON config ``source`` with its top-level ``changes``, written as
    ``name`` under the inputs' root; returns its path."""
    with open(source) as f:
        config = dict(json.load(f), **changes)
    path = os.path.join(inputs.root, name)
    with open(path, "w") as f:
        json.dump(config, f, indent=2, sort_keys=True)
    return path


def commands(inputs, out):
    """(name, argv) of every command run on a tree, writing into ``out``."""
    cmds = inputs.commands(str(out))
    test_config = _config(inputs, inputs.config, "search_test_config.json",
                          test_images=inputs.test_images, test_labels=inputs.test_labels)
    budget_configs = {
        name: _config(inputs, inputs.curve_config, f"{name}_config.json",
                      search=dict(inputs.workload.search, baseline_frac_bits=bits))
        for name, bits in (("curve_float64", FLOAT64_FRAC_BITS),
                           ("curve_wide", WIDE_FRAC_BITS))}
    with open(test_config) as f:
        test_curve = dict(json.load(f)["curve"], eval_split="test")
    curve_test_config = _config(inputs, test_config, "curve_test_config.json",
                                curve=test_curve)
    eval_argv = dict(cmds)["eval"]
    other = "mean_field" if inputs.workload.eval_mode == "stochastic" else "stochastic"
    mode = eval_argv.index("--mode") + 1
    model = os.path.join(out, "train", "model.bin")
    cmds = cmds + [
        ("search_test", ["search", "--config", test_config, "--model", model,
                         "--out", os.path.join(out, "search_test")]),
        *((name, ["curve", "--config", config, "--model", model,
                  "--out", os.path.join(out, name)])
          for name, config in budget_configs.items()),
        ("curve_test", ["curve", "--config", curve_test_config, "--model", model,
                        "--out", os.path.join(out, "curve_test")]),
        ("eval_other", eval_argv[:mode] + [other] + eval_argv[mode + 1:]),
    ]
    if len(inputs.workload.hidden_sizes) > 2:  # a lower RBM above layer 0
        full_config = _config(inputs, inputs.config, "search_full_config.json",
                              search=dict(inputs.workload.search, **FULL_SEARCH))
        cmds.append(("search_full", ["search", "--config", full_config, "--model", model,
                                     "--out", os.path.join(out, "search_full")]))
    return cmds


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def run_tree(tree, inputs, out):
    """Digests of one tree's run: ``file:<path>``, ``stdout:<command>``
    and ``exit:<command>``."""
    if not (Path(tree) / "src" / "approxdbn" / "cli.py").is_file():
        raise SystemExit(f"no approxdbn sources under {tree}/src")
    shutil.rmtree(out, ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    env.update({var: "1" for var in BLAS_VARS})
    digests = {}
    for name, argv in commands(inputs, out):
        proc = subprocess.run([sys.executable, "-m", "approxdbn", *argv], env=env,
                              cwd=inputs.root, capture_output=True)
        digests[f"stdout:{name}"] = _sha256(proc.stdout)
        digests[f"exit:{name}"] = str(proc.returncode)
    for path in sorted(Path(out).rglob("*")):
        if path.is_file() and path.name not in SKIPPED:
            digests[f"file:{path.relative_to(out)}"] = _sha256(path.read_bytes())
    return digests


def compare(tree_a, tree_b, workload, seed, work):
    """Differences, as printable lines, between the two trees' runs of
    ``workload`` (a ``workloads.Workload``) under ``work``."""
    inputs = load_workloads().Inputs(workload, seed, str(Path(work) / "inputs"))
    inputs.write()
    out = Path(work) / "out"
    runs = [(tree, run_tree(tree, inputs, out)) for tree in (tree_a, tree_b)]
    (_, a), (_, b) = runs
    lines = [f"differs: {key} ({a.get(key, 'missing')[:12]} vs {b.get(key, 'missing')[:12]})"
             for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key)]
    return lines + [f"failed: {key[5:]} exited {code} with {tree}"
                    for tree, run in runs for key, code in run.items()
                    if key.startswith("exit:") and code != "0"]


def main(argv=None):
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree_a")
    parser.add_argument("tree_b")
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, nargs="+", default=SEEDS)
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else sorted(workloads.WORKLOADS)
    failed = False
    for name, seed in itertools.product(names, args.seed):
        with tempfile.TemporaryDirectory() as work:
            diffs = compare(args.tree_a, args.tree_b, workloads.WORKLOADS[name], seed, work)
        for line in diffs:
            print(line)
        print(f"{name} seed {seed}: "
              f"{'identical' if not diffs else f'{len(diffs)} problems'}")
        failed = failed or bool(diffs)
    return 1 if failed else 0

if __name__ == "__main__":
    sys.exit(main())

"""Total bits, accuracies and search time of search variants over config seeds.

Usage (from anywhere):

    python3 tools/variants.py TREE --workload retrain|sweep --seeds N [N ...] \\
        [--variants V [V ...]]

It generates the inputs of ``perfbench/workloads.py``'s workload (the fixed
training set, and the test images of workload seed 1). For each config seed
N it sets the config's ``seed`` to N (the split, the train seed and the
search's random order) and runs the CLI with the tree's ``src/`` (BLAS
pinned to one thread): ``train`` once, then for each variant (default: the
workload's own) ``search`` and ``eval`` of its final model on the test
images in the workload's inference mode. It prints, per seed and variant,
total hidden bits, relative validation accuracy, test accuracy and the wall
seconds of the ``search`` command, then the median of each per variant. It
exits 1 if a command fails.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from compare_outputs import BLAS_VARS, load_workloads  # noqa: E402

WORKLOAD_SEED = 1
VARIANTS = ("full", "no_criticality", "no_retrain", "neither")
COLUMNS = ("bits", "relative_accuracy", "test_accuracy", "search_s")
HEADER = f"{'seed':<8}{'variant':<16}{'bits':>8}{'rel_acc':>10}{'test_acc':>10}{'search_s':>10}"


class CommandFailed(Exception):
    pass


def _cli(tree, argv, cwd):
    """Standard output of ``python -m approxdbn argv`` with ``tree``'s sources."""
    env = dict(os.environ, PYTHONPATH=str(Path(tree).resolve() / "src"))
    env.update({var: "1" for var in BLAS_VARS})
    proc = subprocess.run([sys.executable, "-m", "approxdbn", *argv], env=env,
                          cwd=cwd, capture_output=True, text=True)
    if proc.returncode != 0:
        raise CommandFailed(f"{argv[0]} exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-500:]}")
    return proc.stdout


def _write_config(inputs, path, seed, variant):
    with open(inputs.config) as f:
        config = json.load(f)
    config["seed"] = seed
    config["search"] = dict(config["search"], variant=variant)
    with open(path, "w") as f:
        json.dump(config, f, indent=2, sort_keys=True)
    return str(path)


def run_seed(tree, inputs, seed, variants, work):
    """{variant: {column: value}} of one config seed."""
    work = Path(work)
    work.mkdir(parents=True)
    model = work / "train" / "model.bin"
    config = _write_config(inputs, work / "train.json", seed, variants[0])
    _cli(tree, ["train", "--config", config, "--out", str(work / "train")], inputs.root)
    rows = {}
    for variant in variants:
        out = work / variant
        config = _write_config(inputs, work / f"{variant}.json", seed, variant)
        start = time.perf_counter()
        _cli(tree, ["search", "--config", config, "--model", str(model),
                    "--out", str(out)], inputs.root)
        search_s = time.perf_counter() - start
        with open(out / "report.json") as f:
            report = json.load(f)
        stdout = _cli(tree, ["eval", "--model", str(out / "final_model.bin"),
                             "--images", inputs.test_images, "--labels", inputs.test_labels,
                             "--mode", inputs.workload.eval_mode,
                             "--seed", str(WORKLOAD_SEED)], inputs.root)
        rows[variant] = {"bits": report["total_hidden_bits"],
                         "relative_accuracy": report["relative_accuracy"],
                         "test_accuracy": float(stdout.split()[1]),
                         "search_s": search_s}
    return rows


def format_row(label, variant, row):
    return (f"{label:<8}{variant:<16}{row['bits']:>8g}{row['relative_accuracy']:>10.4f}"
            f"{row['test_accuracy']:>10.4f}{row['search_s']:>10.2f}")


def medians(results, variant):
    """The median of each column of ``variant`` over ``results``, a list of
    ``run_seed`` results."""
    return {column: statistics.median(rows[variant][column] for rows in results)
            for column in COLUMNS}


def main(argv=None):
    workloads = load_workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--variants", nargs="+", choices=VARIANTS)
    args = parser.parse_args(argv)
    workload = workloads.WORKLOADS[args.workload]
    variants = args.variants or [workload.search["variant"]]
    print(HEADER)
    results = []
    with tempfile.TemporaryDirectory() as work:
        inputs = workloads.Inputs(workload, WORKLOAD_SEED, str(Path(work) / "inputs"))
        inputs.write()
        for seed in args.seeds:
            try:
                rows = run_seed(args.tree, inputs, seed, variants, Path(work) / f"seed{seed}")
            except CommandFailed as e:
                print(f"seed {seed}: {e}")
                return 1
            for variant in variants:
                print(format_row(str(seed), variant, rows[variant]), flush=True)
            results.append(rows)
    for variant in variants:
        print(format_row("median", variant, medians(results, variant)))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Output checks on the artifacts of one pipeline run.

Each ``check_<command>`` returns a list of failure messages (empty when
the command's outputs are correct) and reads only the files the command
wrote, through the package's own loaders.
"""

import glob
import hashlib
import json
import math
import os
import re

import numpy as np

from approxdbn.ddbn import load_model

REL_TOL = 1e-12


def sha256(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _read_json(path):
    with open(path) as f:
        return json.load(f)


def check_train(out):
    summary = _read_json(os.path.join(out, "train", "training_summary.json"))
    acc = summary.get("validation_accuracy")
    if not isinstance(acc, float) or not 0 < acc <= 1:
        return [f"train: validation accuracy {acc!r} is not in (0, 1]"]
    load_model(os.path.join(out, "train", "model.bin"))
    return []


def check_search(out, max_loss):
    """The paper's invariants, from the artifacts alone: budgets never
    increase, every committed step meets the constraint, the final
    parameters are a fixpoint of their own precision map, and pruned
    neurons have exactly zero weights."""
    d = os.path.join(out, "search")
    errors = []
    with open(os.path.join(d, "trace.ndjson")) as f:
        records = [json.loads(line) for line in f]
    if not records:
        errors.append("search: trace is empty")
    bits = [r["total_bits"] for r in records]
    if any(b > a for a, b in zip(bits, bits[1:])):
        errors.append(f"search: total_bits increases in the trace: {bits}")
    floor = 1.0 - max_loss - REL_TOL
    low = [r for r in records if r["relative_accuracy"] < floor]
    if low:
        errors.append(f"search: {len(low)} trace records below relative accuracy "
                      f"{1.0 - max_loss}: {low[0]}")
    model = load_model(os.path.join(d, "final_model.bin"))
    pmap = model.precision
    if pmap is None:
        return errors + ["search: final model carries no precision map"]
    fixed = model.apply_precision(pmap)
    params = [("weights", model.weights, fixed.weights),
              ("hidden_biases", model.hidden_biases, fixed.hidden_biases),
              ("visible_biases", model.visible_biases, fixed.visible_biases),
              ("class_weights", [model.class_weights], [fixed.class_weights]),
              ("class_bias", [model.class_bias], [fixed.class_bias])]
    for name, stored, requantized in params:
        for k, (a, b) in enumerate(zip(stored, requantized)):
            if not np.array_equal(a, b):
                errors.append(f"search: {name}[{k}] changes under apply_precision")
    for layer, budget in enumerate(pmap.hidden_frac_bits):
        pruned = np.flatnonzero(budget == 0)
        if (np.any(model.weights[layer][:, pruned] != 0)
                or np.any(model.hidden_biases[layer][pruned] != 0)):
            errors.append(f"search: a pruned neuron of layer {layer} has nonzero weights")
    report = _read_json(os.path.join(d, "report.json"))
    if report["total_hidden_bits"] != pmap.total_hidden_bits():
        errors.append("search: report total_hidden_bits disagrees with the model")
    if bits and report["total_hidden_bits"] != bits[-1]:
        errors.append("search: report total_hidden_bits disagrees with the trace")
    return errors


def check_curve(out, neurons, orders, random_seeds):
    d = os.path.join(out, "curve")
    names = ["criticality"] if "criticality" in orders else []
    if "random" in orders:
        names += [f"random_{s}" for s in random_seeds] + ["random_mean"]
    expected = {os.path.join(d, f"curve_{n}.json") for n in names}
    found = set(glob.glob(os.path.join(d, "curve_*.json")))
    if found != expected:
        return [f"curve: files {sorted(found)}, expected {sorted(expected)}"]
    errors = []
    for path in sorted(expected):
        acc = _read_json(path)["accuracy"]
        if len(acc) != neurons + 1 or not all(0 <= a <= 1 for a in acc):
            errors.append(f"curve: {path} does not hold {neurons + 1} accuracies in [0, 1]")
    return errors


_ACCURACY = re.compile(r"^accuracy (\S+) \((\w+)\)$", re.M)


def parse_eval(stdout, count, mode):
    """(test accuracy, failure messages) from the eval command's output:
    the accuracy line and a 10x10 confusion matrix over every sample."""
    m = _ACCURACY.search(stdout)
    if not m or m.group(2) != mode:
        return math.nan, [f"eval: no {mode} accuracy line in the output"]
    acc = float(m.group(1))
    rows = [line.split() for line in stdout[m.end():].splitlines()
            if line.strip() and re.fullmatch(r"[\d\s]+", line)]
    counts = np.array(rows, dtype=np.int64) if rows else np.zeros((0, 0))
    errors = []
    if counts.shape != (10, 10) or counts.sum() != count:
        errors.append(f"eval: confusion matrix {counts.shape} does not cover {count} samples")
    elif abs(np.trace(counts) / count - acc) > 1e-6:
        errors.append("eval: accuracy disagrees with the confusion matrix")
    return acc, errors

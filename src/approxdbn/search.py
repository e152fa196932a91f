"""Greedy two-phase bit-length reduction under an accuracy constraint.

Phase 1 lowers a single uniform fractional bit count for every variable
until the constraint would be violated, then reverts the last step.
Phase 2 repeats three nested loops: the outer loop recomputes the
criticality order and retrains with quantization in place; the middle
loop halves the candidate set of least-critical neurons; the inner loop
sweeps one fractional bit at a time off the candidates, reverting any
sweep that breaks the constraint. Bit budgets never increase.
"""

import json
import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import criticality as crit
from .ddbn import PrecisionMap, TrainConfig, evaluate_accuracy, retrain_quantized


class InfeasibleConstraint(Exception):
    """Even the starting uniform format violates the accuracy constraint."""


RETRAIN_LEARNING_RATE = 0.1


@dataclass
class SearchConfig:
    max_relative_accuracy_loss: float = 0.10
    baseline_frac_bits: int = 8
    retrain_epochs: int = 10

    def __post_init__(self):
        if not 0 < self.max_relative_accuracy_loss < 1:
            raise ValueError("max_relative_accuracy_loss must be in (0, 1)")
        if not 0 <= self.baseline_frac_bits <= 56:
            raise ValueError("baseline_frac_bits must be in 0..56, so that "
                             "Q8.n fits the widest format, 64 bits")
        if self.retrain_epochs < 1:
            raise ValueError("retrain_epochs must be >= 1")


@dataclass
class TraceRecord:
    phase: str              # "phase1" | "phase2"
    iteration: int
    event: str              # "approximate" | "retrain"
    relative_accuracy: float
    total_bits: int

    def to_json(self):
        return json.dumps(asdict(self), sort_keys=True)


def write_trace(records, path):
    with open(path, "w") as f:
        for rec in records:
            f.write(rec.to_json() + "\n")


def level2_sizes(total_neurons):
    """Candidate-set sizes for the middle loop: ceil(N * 2^-k) for
    k = 1, 2, ... down to a single neuron."""
    sizes = []
    k = 1
    while True:
        size = math.ceil(total_neurons * 2.0 ** -k)
        sizes.append(size)
        if size == 1:
            return sizes
        k += 1


def bit_length_histogram(pmap):
    """(bit_length, neuron_count) pairs over all hidden neurons."""
    counts = {}
    for bits in pmap.hidden_frac_bits:
        for n in bits:
            counts[int(n)] = counts.get(int(n), 0) + 1
    return sorted(counts.items())


def phase1_uniform(model, config, val_images, val_labels):
    """Uniform reduction from the baseline format. Returns the quantized
    model, its precision map, the trace, and the full-precision baseline
    accuracy on the constraint split."""
    baseline_acc = evaluate_accuracy(model, val_images, val_labels)
    if baseline_acc == 0:
        raise InfeasibleConstraint(
            "the full-precision model classifies no validation sample "
            "correctly, so relative accuracy is undefined")
    threshold = (1.0 - config.max_relative_accuracy_loss) * baseline_acc
    trace = []
    for n in range(config.baseline_frac_bits, -1, -1):
        pmap_next = PrecisionMap.uniform(model.hidden_sizes, n)
        candidate = model.apply_precision(pmap_next)
        acc = evaluate_accuracy(candidate, val_images, val_labels)
        if acc < threshold:
            if not trace:
                raise InfeasibleConstraint(
                    f"baseline format Q{pmap_next.weight_int_bits}.{n} reaches "
                    f"accuracy {acc:.4f}, below the constraint {threshold:.4f}")
            break
        pmap, current = pmap_next, candidate
        trace.append(TraceRecord("phase1", len(trace), "approximate",
                                 acc / baseline_acc, pmap.total_hidden_bits()))
    return current, pmap, trace, baseline_acc


def _neuron_order(model, pmap, use_criticality, train_images, train_one_hot,
                  rng):
    if use_criticality:
        scores = crit.criticality_scores(model, train_images, train_one_hot)
        return crit.rank_neurons(scores)
    pooled = [(layer, idx)
              for layer, bits in enumerate(pmap.hidden_frac_bits)
              for idx in range(len(bits))]
    return [pooled[i] for i in rng.permutation(len(pooled))]


def _reduce_candidates(pmap, candidates):
    """One sweep: take one bit off every candidate's budget that is not
    already zero. Returns None when nothing can decrease further."""
    new = pmap.copy()
    changed = False
    for layer, idx in candidates:
        if new.hidden_frac_bits[layer][idx] > 0:
            new.hidden_frac_bits[layer][idx] -= 1
            changed = True
    return new if changed else None


def phase2_greedy(model, pmap, config, train_images, train_one_hot,
                  val_images, val_labels, baseline_acc,
                  use_criticality=True, retrain=True,
                  train_config=None, order_seed=0):
    """Criticality-ordered per-neuron reduction with quantization-aware
    retraining; the class layer stays frozen at its Phase-1 format."""
    threshold = (1.0 - config.max_relative_accuracy_loss) * baseline_acc
    if train_config is None:
        train_config = TrainConfig()
    rng = np.random.default_rng(order_seed)
    current = model
    pmap = pmap.copy()
    total_neurons = pmap.num_hidden_neurons()
    trace = []

    iteration = 0
    while True:
        iteration += 1
        bits_before = pmap.total_hidden_bits()
        order = _neuron_order(current, pmap, use_criticality, train_images,
                              train_one_hot, rng)
        for size in level2_sizes(total_neurons):
            candidates = order[:size]
            while True:
                pmap_next = _reduce_candidates(pmap, candidates)
                if pmap_next is None:
                    break
                pmap.check_monotone_update(pmap_next)
                candidate_model = current.apply_precision(pmap_next)
                acc = evaluate_accuracy(candidate_model, val_images, val_labels)
                if acc < threshold:
                    break
                pmap, current = pmap_next, candidate_model
                trace.append(TraceRecord("phase2", iteration, "approximate",
                                         acc / baseline_acc,
                                         pmap.total_hidden_bits()))
        changed = pmap.total_hidden_bits() != bits_before
        if changed and retrain:
            retrain_config = replace(
                train_config, epochs=config.retrain_epochs,
                learning_rate=RETRAIN_LEARNING_RATE,
                seed=train_config.seed + iteration)
            retrained = retrain_quantized(current, pmap, train_images,
                                          train_one_hot, retrain_config)
            acc = evaluate_accuracy(retrained, val_images, val_labels)
            if acc >= threshold:
                current = retrained
            else:  # keep pre-retrain parameters
                acc = evaluate_accuracy(current, val_images, val_labels)
            trace.append(TraceRecord("phase2", iteration, "retrain",
                                     acc / baseline_acc,
                                     pmap.total_hidden_bits()))
        if not changed:
            break
    return current, pmap, trace


VARIANTS = ("full", "no_criticality", "no_retrain", "neither")


@dataclass
class SearchResult:
    model: object
    precision_map: PrecisionMap
    trace: list
    baseline_accuracy: float
    final_accuracy: float
    report: dict = field(default_factory=dict)


def run_approxdbn(model, config, train_images, train_one_hot,
                  val_images, val_labels, variant="full",
                  train_config=None, order_seed=0) -> SearchResult:
    """Full design flow: Phase-1 uniform reduction, then Phase-2 greedy
    per-neuron reduction. Ablation variants drop the criticality ranking
    (seeded random order) and/or the retraining step."""
    if variant not in VARIANTS:
        raise ValueError(f"unknown variant {variant!r}")
    current, pmap, trace, baseline_acc = phase1_uniform(
        model, config, val_images, val_labels)
    current, pmap, p2_trace = phase2_greedy(
        current, pmap, config, train_images, train_one_hot,
        val_images, val_labels, baseline_acc,
        use_criticality=variant in ("full", "no_retrain"),
        retrain=variant in ("full", "no_criticality"),
        train_config=train_config, order_seed=order_seed)
    trace = trace + p2_trace
    final_acc = evaluate_accuracy(current, val_images, val_labels)
    report = {
        "variant": variant,
        "baseline_accuracy": baseline_acc,
        "final_accuracy": final_acc,
        "relative_accuracy": final_acc / baseline_acc,
        "max_relative_accuracy_loss": config.max_relative_accuracy_loss,
        "total_hidden_bits": pmap.total_hidden_bits(),
        "mean_hidden_frac_bits":
            pmap.total_hidden_bits() / pmap.num_hidden_neurons(),
        "bit_length_histogram": bit_length_histogram(pmap),
    }
    return SearchResult(current, pmap, trace, baseline_acc, final_acc, report)


def approximation_curve(model, config, train_images, train_one_hot,
                        eval_images, eval_labels, order="criticality",
                        order_seed=0):
    """Accuracy after pruning the first c neurons (c = 0..N) of the given
    order, on a uniform baseline-format model."""
    pmap = PrecisionMap.uniform(model.hidden_sizes, config.baseline_frac_bits)
    rng = np.random.default_rng(order_seed)
    ordering = _neuron_order(model, pmap, order == "criticality",
                             train_images, train_one_hot, rng)

    def accuracy():
        return evaluate_accuracy(model.apply_precision(pmap), eval_images,
                                 eval_labels)

    accuracies = [accuracy()]
    for layer, idx in ordering:
        pmap.hidden_frac_bits[layer][idx] = 0
        accuracies.append(accuracy())
    return np.array(accuracies)

"""Hidden-neuron criticality: the magnitude of the training-set-averaged
derivative of |t - class_probs|^2 with respect to each neuron's mean-field
activation. Low criticality marks a neuron as safe to approximate.

The derivative at the top hidden layer chains the squared-error term
through the softmax Jacobian; lower layers chain through the sigmoid
derivative and the connecting weights. Per-sample derivatives are averaged
first, then the absolute value is taken.
"""

from dataclasses import dataclass, replace

import numpy as np

from .ddbn import _CHUNK


@dataclass
class ForwardRecord:
    """Mean-field activations for a batch of inputs."""

    activations: list        # per hidden layer, (B, n_l)
    class_probs: np.ndarray  # (B, 10)


def forward_mean_field(model, inputs) -> ForwardRecord:
    """Deterministic full-precision propagation of probabilities: the
    model's own mean-field pass with any attached precision map ignored
    (the parameters are used as stored)."""
    plain = replace(model, precision=None)
    activations = plain.forward_hidden(inputs)
    return ForwardRecord(activations, plain.class_probs(activations[-1]))


def top_layer_gradient(record, model, t):
    """d Loss / d h^(L): chains (a^c - t) through the softmax Jacobian and
    the class weights. The constant factor 2 from the squared norm is
    dropped; rankings are scale-invariant."""
    ac = record.class_probs
    t = np.atleast_2d(np.asarray(t, dtype=np.float64))
    s = (ac - t) * ac                       # (B, 10)
    wc = model.class_weights                # (n_L, 10)
    return s @ wc.T - s.sum(axis=1, keepdims=True) * (ac @ wc.T)


def backprop_gradient(record, model, layer, upstream):
    """Pull a gradient at hidden layer ``layer + 1`` back to ``layer``
    through the sigmoid derivative and the connecting weights."""
    a_next = record.activations[layer + 1]
    if upstream.shape != a_next.shape:
        raise ValueError(
            f"upstream gradient shape {upstream.shape} does not match "
            f"layer {layer + 1} activations {a_next.shape}"
        )
    return (upstream * a_next * (1.0 - a_next)) @ model.weights[layer + 1].T


def per_sample_gradients(model, inputs, targets):
    """Loss derivative w.r.t. every hidden activation, one row per
    sample; returns a list of (B, n_l) arrays, one per hidden layer."""
    record = forward_mean_field(model, inputs)
    grads = [top_layer_gradient(record, model, targets)]
    for layer in range(model.num_hidden_layers - 2, -1, -1):
        grads.insert(0, backprop_gradient(record, model, layer, grads[0]))
    return grads


@dataclass
class CriticalityScores:
    per_layer: list     # per hidden layer, nonnegative score per neuron
    sample_count: int

    def pooled(self):
        """Flat list of (layer, index, score) over all hidden neurons."""
        return [
            (layer, idx, float(scores[idx]))
            for layer, scores in enumerate(self.per_layer)
            for idx in range(len(scores))
        ]


def criticality_scores(model, inputs, targets) -> CriticalityScores:
    """Average per-sample derivatives over all samples, then take the
    magnitude. Accumulation over ``_CHUNK``-row chunks in fixed order
    keeps the result bitwise deterministic."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if len(inputs) == 0:
        raise ValueError("criticality needs a nonempty sample set")
    sums = [np.zeros(n) for n in model.hidden_sizes]
    for start in range(0, len(inputs), _CHUNK):
        grads = per_sample_gradients(
            model, inputs[start:start + _CHUNK], targets[start:start + _CHUNK])
        for layer, g in enumerate(grads):
            sums[layer] += g.sum(axis=0)
    n = len(inputs)
    return CriticalityScores([np.abs(s / n) for s in sums], n)


def rank_neurons(scores) -> list:
    """All hidden neurons pooled across layers, least critical first;
    ties break by (layer, index) ascending."""
    entries = scores.pooled()
    entries.sort(key=lambda e: (e[2], e[0], e[1]))
    return [(layer, idx) for layer, idx, _ in entries]


def export_scores(scores, path):
    """Rows of (layer, neuron index, score, rank) for report tooling."""
    order = rank_neurons(scores)
    ranks = {key: r for r, key in enumerate(order)}
    with open(path, "w") as f:
        f.write("layer\tneuron\tscore\trank\n")
        for layer, idx, score in scores.pooled():
            f.write(f"{layer}\t{idx}\t{score!r}\t{ranks[(layer, idx)]}\n")

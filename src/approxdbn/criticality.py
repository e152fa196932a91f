"""Hidden-neuron criticality: the magnitude of the training-set-averaged
derivative of |t - class_probs|^2 with respect to each neuron's mean-field
activation. Low criticality marks a neuron as safe to approximate.

The derivative at the top hidden layer chains the squared-error term
through the softmax Jacobian; lower layers chain through the sigmoid
derivative and the connecting weights. Per-sample derivatives are averaged
first, then the absolute value is taken.
"""

from dataclasses import replace

import numpy as np

from .ddbn import _CHUNK


def per_sample_gradients(model, inputs, targets):
    """Loss derivative w.r.t. every hidden activation, one row per
    sample; returns a list of (B, n_l) arrays, one per hidden layer.

    The pass is the model's own mean-field pass with any attached precision
    map ignored (the parameters are used as stored). The constant factor 2
    from the squared norm is dropped; rankings are scale-invariant."""
    plain = replace(model, precision=None)
    activations = plain.forward_hidden(inputs)
    ac = plain.class_probs(activations[-1])
    s = (ac - np.atleast_2d(np.asarray(targets, dtype=np.float64))) * ac
    wc = model.class_weights
    grads = [s @ wc.T - s.sum(axis=1, keepdims=True) * (ac @ wc.T)]
    for layer in range(model.num_hidden_layers - 1, 0, -1):
        a = activations[layer]
        grads.insert(0, (grads[0] * a * (1.0 - a)) @ model.weights[layer].T)
    return grads


def criticality_scores(model, inputs, targets) -> list:
    """Per hidden layer, each neuron's score: per-sample derivatives
    averaged over all samples, then the magnitude. Accumulation over
    ``_CHUNK``-row chunks in fixed order keeps the result bitwise
    deterministic."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if len(inputs) == 0:
        raise ValueError("criticality needs a nonempty sample set")
    sums = [np.zeros(n) for n in model.hidden_sizes]
    for start in range(0, len(inputs), _CHUNK):
        grads = per_sample_gradients(
            model, inputs[start:start + _CHUNK], targets[start:start + _CHUNK])
        for total, g in zip(sums, grads):
            total += g.sum(axis=0)
    return [np.abs(total / len(inputs)) for total in sums]


def rank_neurons(scores) -> list:
    """All hidden neurons of the per-layer ``scores`` pooled, least
    critical first; ties break by (layer, index) ascending."""
    entries = sorted((float(score), layer, idx)
                     for layer, layer_scores in enumerate(scores)
                     for idx, score in enumerate(layer_scores))
    return [(layer, idx) for _, layer, idx in entries]

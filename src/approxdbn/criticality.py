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

from .ddbn import _BLOCK, _CHUNK, _DOUBLE, _SINGLE, _binary, _columns, _needs, check_finite


class PlainLayer0:
    """The plain (map-free) layer-0 activations of fixed ``inputs``, kept with
    the layer-0 weights and bias of the model they came from, so that the next
    model recomputes only the columns whose weights or bias differ. Reuse is
    exact when every input is 0 or 1 and layer 0's sums are exact under the
    model's map by the value rule (``ddbn._needs``: at most 53 bits), with the
    parameters on its grid: each kept value is then the exact sum, whatever
    columns shared its product. Within 24 bits the recomputed columns' products
    run in float32, those columns cast once per call. Phase 2 keeps one for its
    training images across criticality orders."""

    def __init__(self, inputs):
        self.inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
        self.binary = _binary(self.inputs)
        self.a = self.weights = self.bias = None

    def activations(self, model):
        """``model``'s plain layer-0 activations of the inputs, every row, or
        None, keeping nothing new, when reuse would not be exact."""
        need = _needs(model)[0]
        if not (self.binary and need <= _DOUBLE):
            return None
        w, b = model.weights[0], model.hidden_biases[0]
        if self.a is None or self.a.shape[1] != len(b):
            self.a, cols = np.empty((len(self.inputs), len(b))), np.arange(len(b))
        else:
            cols = np.flatnonzero((w != self.weights).any(axis=0) | (b != self.bias))
        if len(cols):
            plain = replace(model, precision=None)
            # pre_activation casts each block of inputs to these columns' precision:
            # _BLOCK rows keep that copy small
            part = _columns(w, cols).astype(np.float32 if need <= _SINGLE else np.float64)
            for start in range(0, len(self.inputs), _BLOCK):
                rows = slice(start, start + _BLOCK)
                self.a[rows, cols] = plain.hidden_probs(0, self.inputs[rows], cols, part)
        self.weights, self.bias = w.copy(), b.copy()
        return self.a


def per_sample_gradients(model, inputs, targets, a0=None):
    """Loss derivative w.r.t. every hidden activation, one row per
    sample; returns a list of (B, n_l) arrays, one per hidden layer.

    The pass is the model's own mean-field pass with any attached precision
    map ignored (the parameters are used as stored); ``a0``, if given, is
    its layer-0 activations of ``inputs``. The constant factor 2 from the
    squared norm is dropped; rankings are scale-invariant."""
    plain = replace(model, precision=None)
    activations = [plain.hidden_probs(0, inputs) if a0 is None else a0]
    for layer in range(1, model.num_hidden_layers):
        activations.append(plain.hidden_probs(layer, activations[-1]))
    ac = plain.class_probs(activations[-1])
    s = (ac - np.atleast_2d(np.asarray(targets, dtype=np.float64))) * ac
    wc = model.class_weights
    grads = [s @ wc.T - s.sum(axis=1, keepdims=True) * (ac @ wc.T)]
    for layer in range(model.num_hidden_layers - 1, 0, -1):
        a = activations[layer]
        grads.insert(0, (grads[0] * a * (1.0 - a)) @ model.weights[layer].T)
    return grads


def criticality_scores(model, inputs, targets, layer0=None) -> list:
    """Per hidden layer, each neuron's score: per-sample derivatives
    averaged over all samples, then the magnitude. Accumulation over
    ``_CHUNK``-row chunks in fixed order keeps the result bitwise
    deterministic. ``layer0``, a ``PlainLayer0`` of these ``inputs``, gives
    layer 0's activations where it can; the scores keep their bytes."""
    inputs = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    targets = np.atleast_2d(np.asarray(targets, dtype=np.float64))
    if len(inputs) == 0:
        raise ValueError("criticality needs a nonempty sample set")
    check_finite(inputs, "inputs")
    check_finite(targets, "targets")
    if layer0 is not None and layer0.inputs.shape != inputs.shape:
        raise ValueError("layer0 keeps the activations of other inputs")
    a0 = layer0.activations(model) if layer0 is not None else None
    sums = [np.zeros(n) for n in model.hidden_sizes]
    for start in range(0, len(inputs), _CHUNK):
        rows = slice(start, start + _CHUNK)
        grads = per_sample_gradients(model, inputs[rows], targets[rows],
                                     None if a0 is None else a0[rows])
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

"""Discriminative deep belief network: model, greedy CD training,
quantized inference, quantization-aware retraining, and serialization.

The network stacks L hidden layers on a 784-unit input; the top RBM is
discriminative, with a 10-unit one-hot class block concatenated to the
last-but-one hidden layer. Inference propagates input -> hidden layers ->
class softmax; stochastic mode samples binary hidden states and averages
class probabilities over repetitions, mean-field mode propagates
probabilities deterministically.
"""

import json
import math
import operator
import struct
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .fixedpoint import quantize_all

MODEL_MAGIC = b"ADBN"
MODEL_VERSION = 1
_CHUNK = 2048  # rows per propagation step: classify, criticality
_BLOCK = 256  # rows per step of an early-stopping walk
_SINGLE, _DOUBLE = 24, 53  # significand bits of float32 and float64
MOMENTUM = 0.5  # CD velocity decay


class ModelFileError(Exception):
    pass


def sigmoid(x):
    """1 / (1 + exp(-x)), computed in one fresh array: in float32 for a float32
    ``x``, else in float64. Below -88 (float32) or -709 (float64) exp(-x)
    overflows to inf, which gives the right limit, +0.0, without a warning."""
    x = np.asarray(x)
    if x.dtype != np.float32:
        x = x.astype(np.float64, copy=False)
    out = np.negative(x, out=np.empty_like(x))
    with np.errstate(over="ignore"):
        np.exp(out, out=out)
    out += 1.0
    return np.reciprocal(out, out=out)


def softmax(z):
    """Row-wise stable softmax."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def as_inputs(x, width, layer_name, dtype=np.float64):
    """``x`` as a batch of rows of ``dtype``; rejects rows not ``width`` wide."""
    x = np.atleast_2d(np.asarray(x, dtype=dtype))
    if x.shape[1] != width:
        raise ValueError(
            f"{layer_name} expects inputs of size {width}, got {x.shape[1]}")
    return x


def check_finite(x, name):
    """Raise ``ValueError`` naming ``name`` if ``x`` holds a NaN or an infinity.
    A finite sum proves every term finite, so only a sum that is not finite
    (which an overflow can make) needs the elementwise test and its mask."""
    with np.errstate(over="ignore", invalid="ignore"):
        total = np.sum(x)
    if not np.isfinite(total) and not np.isfinite(x).all():
        raise ValueError(f"{name} must be finite: found NaN or infinity")


def _binary(x):
    """Whether every value of ``x`` is 0 or 1, tested ``_BLOCK`` rows at a time so
    that the test's temporaries stay small."""
    return all(np.isin(x[s:s + _BLOCK], (0.0, 1.0)).all() for s in range(0, len(x), _BLOCK))


def integer_fields(obj, names, problem="must be an integer"):
    """Make each field ``names`` of ``obj`` a Python int, from an int or a numpy
    integer; raise ``ValueError`` saying ``problem`` for anything else: a float,
    even 3.0, or a bool."""
    for name in names:
        value = getattr(obj, name)
        try:
            if isinstance(value, bool):
                raise TypeError
            setattr(obj, name, operator.index(value))
        except TypeError:
            raise ValueError(f"{name} {value!r}: {problem}") from None


@dataclass
class PrecisionMap:
    """Fractional-bit budgets: one entry per hidden neuron (governs that
    neuron's incoming weights/bias, pre-activation, and activation), one
    budget for the class layer, and a global budget for remaining
    variables (layer-1 visible bias, reporting defaults)."""

    hidden_frac_bits: list          # per hidden layer, int array of budgets
    class_frac_bits: int
    global_frac_bits: int
    weight_int_bits: int = 8
    activation_frac_bits: int = 0   # 0 = follow the owning budget; a fixed
                                    # value supports e.g. Q8.56 weights with
                                    # Q0.64 activations

    def __post_init__(self):
        integer_fields(self, ("class_frac_bits", "global_frac_bits", "weight_int_bits",
                              "activation_frac_bits"), "bit counts must be integers")
        hidden = [np.asarray(b) for b in self.hidden_frac_bits]
        for layer, b in enumerate(hidden):
            if b.size and b.dtype.kind not in "iu":
                raise ValueError(f"hidden_frac_bits[{layer}] of dtype {b.dtype}: "
                                 "bit counts must be integers")
        self.hidden_frac_bits = [np.asarray(b, np.int64) for b in hidden]
        budgets = [self.class_frac_bits, self.global_frac_bits]
        every = np.concatenate([[0], *self.hidden_frac_bits], axis=None)  # one min, one max
        low = min(budgets + [int(every.min())])
        if low < 0:
            raise ValueError(f"bit budget {low}: budgets must be nonnegative")
        top = max(budgets + [int(every.max())])
        n = max(top, 1)  # its formats fit 64 bits (a 1-bit budget's if all are 0)
        for m, n in ((self.weight_int_bits, n), (0, self.activation_bits(n))):
            problem = ("bit counts must be nonnegative" if min(m, n) < 0 else
                       "total bit-length must not exceed 64" if m + n > 64 else None)
            if problem:
                raise ValueError(
                    f"bit budget {top}, weight_int_bits {self.weight_int_bits}, "
                    f"activation_frac_bits {self.activation_frac_bits}: {problem}")

    @classmethod
    def uniform(cls, hidden_sizes, frac_bits, activation_frac_bits=0):
        return cls(
            hidden_frac_bits=[np.full(n, frac_bits, dtype=np.int64) for n in hidden_sizes],
            class_frac_bits=frac_bits,
            global_frac_bits=frac_bits,
            activation_frac_bits=activation_frac_bits,
        )

    def copy(self):
        return replace(self, hidden_frac_bits=[b.copy() for b in self.hidden_frac_bits])

    def activation_bits(self, bits):
        """The activation bits of the budgets ``bits``, a scalar or an array: a set
        ``activation_frac_bits`` replaces a nonzero budget; 0 (pruned) stays 0."""
        return (bits > 0) * self.activation_frac_bits if self.activation_frac_bits else bits

    def grid(self, bits, activation):
        """``quantize_all``'s scale, lo and hi for the budgets ``bits``, a scalar or one
        per column: unsigned Q0.n activations (n from ``activation_bits``) or signed
        Qm.n weights, biases and pre-activations (m = ``weight_int_bits``). A 0-bit
        budget gives the zero-only format, lo == hi == 0 (pruning)."""
        if activation:
            bits = self.activation_bits(bits)
        top = 1.0 if activation else 2.0 ** (self.weight_int_bits - 1)
        live, scale = bits > 0, np.ldexp(1.0, bits)  # 0 bits: lo == hi == +-0.0
        return scale, live * (0.0 if activation else -top), live * (top - 1.0 / scale)

    def total_hidden_bits(self) -> int:
        return int(sum(b.sum() for b in self.hidden_frac_bits))

    def num_hidden_neurons(self) -> int:
        return int(sum(len(b) for b in self.hidden_frac_bits))

    def check_monotone_update(self, new):
        """Raise ``ValueError`` unless ``new`` is a cut of this map: the same
        fields and hidden neurons, each with a lower or equal budget."""
        def fixed(m):  # every field but the hidden budgets' values
            return (m.class_frac_bits, m.global_frac_bits, m.weight_int_bits,
                    m.activation_frac_bits, [np.shape(b) for b in m.hidden_frac_bits])
        if fixed(new) != fixed(self):
            raise ValueError("a cut changes only hidden budgets")
        if any(np.any(c > o) for c, o in zip(new.hidden_frac_bits, self.hidden_frac_bits)):
            raise ValueError("bit-length increase is not allowed")


def _budget_groups(frac_bits, pmap, activation=False):
    """(bounds, pruned) for ``_quantize_groups`` under the budgets ``frac_bits``, a
    scalar or one per column, grouped on their effective bits (``activation_bits``):
    (None, None) if none is live; for one live budget b, the scalar ``pmap.grid(b,
    activation)`` and the 0-bit columns' indices or None; else per-column bounds."""
    bits = np.asarray(frac_bits)
    live = pmap.activation_bits(bits) if activation else bits
    top = int(live.max(initial=0))  # a Python int: numpy scalar arithmetic is slower
    if not top:
        return None, None
    pruned = live == 0
    n_pruned = np.count_nonzero(pruned)
    if n_pruned + np.count_nonzero(live == top) < live.size:
        return pmap.grid(bits, activation), None
    # activation_bits maps an effective budget to itself
    return pmap.grid(top, activation), np.flatnonzero(pruned) if n_pruned else None


def _quantize_groups(arr, bounds, pruned):
    """``arr`` quantized under ``_budget_groups``' result into one fresh array: zeros,
    with no arithmetic, for no bounds, else ``quantize_all``, then +0.0 in ``pruned``."""
    if bounds is None:
        return np.zeros(np.shape(arr))
    out = quantize_all(arr, *bounds)
    if pruned is not None:
        out[..., pruned] = 0.0
    return out


def _quantize_columns(arr, frac_bits, pmap, activation=False):
    """Quantize each column of ``arr`` (last axis) under its own budget's format,
    or every element under one budget's for a scalar ``frac_bits``, into a fresh
    array. By budget group: no arithmetic when every budget is 0, scalar bounds
    for one live budget, per-column bounds only for mixed live budgets."""
    return _quantize_groups(arr, *_budget_groups(frac_bits, pmap, activation))


def _quantized_sigmoid(z, bits, pmap):
    """The activation of the pre-activations ``z`` under the budgets ``bits``, one per
    column: quantized, then the sigmoid, then quantized as an activation."""
    z = _quantize_columns(z, bits, pmap)
    return _quantize_columns(sigmoid(z), bits, pmap, activation=True)


_TABLE_BITS = 16  # a Qm.b grid of at most 2**16 values (m + b <= 16) is looked up
_tables = {}  # (weight_int_bits, activation_frac_bits) -> _table_bank's result


def _table_bank(pmap, top):
    """(values, first, last, offset), budget b's table holding ``_quantized_sigmoid``
    of each k / 2^b of its Qm.b grid with first[b] <= k <= last[b] (the non-constant
    middle and one entry of each constant end) at ``values[k + offset[b]]``. Built
    for the budgets up to ``top`` the first time one needs it; kept for the process."""
    key = (pmap.weight_int_bits, pmap.activation_frac_bits)
    values, first, last, _ = bank = _tables.get(key, (np.empty(0), [], [], None))
    if len(first) > top:
        return bank
    parts, first, last = [values], list(first), list(last)
    for b in range(len(first), top + 1):
        scale, lo, hi = pmap.grid(b, False)
        k = np.arange(lo * scale, hi * scale + 1)  # exact integers
        q = _quantized_sigmoid(k / scale, b, pmap)
        change = np.flatnonzero(q[1:] != q[:-1])
        i, j = (change[0], change[-1] + 1) if len(change) else (0, 0)
        first.append(k[i])
        last.append(k[j])
        parts.append(q[i:j + 1])
    first, last = np.array(first), np.array(last)
    size = last - first + 1
    bank = _tables[key] = (np.concatenate(parts), first, last,
                           (np.cumsum(size) - size - first).astype(np.intp))
    return bank


def _looked_up(z, bits, pmap):
    """``_quantized_sigmoid(z, bits, pmap)`` from the tables of ``_table_bank``, or None
    for a budget whose grid holds more than 2^16 values or for a NaN in ``z``. Entry
    k is z's grid index, rounded as ``quantize_all`` rounds: trunc(z 2^b +- 1/2),
    ties away from zero, clipped to the table before the cast (which truncates).
    Saturating z first would change no entry: the clip reaches the constant ends."""
    top = int(bits.max(initial=0))
    if pmap.weight_int_bits + top > _TABLE_BITS:
        return None
    values, first, last, offset = _table_bank(pmap, top)
    pruned = bits == 0
    n_pruned = np.count_nonzero(pruned)
    b, zero = bits, None
    if n_pruned + np.count_nonzero(bits == top) == bits.size:  # one live budget
        b, zero = top, np.flatnonzero(pruned) if n_pruned else None
    z = np.asarray(z, dtype=np.float64)
    try:  # z 2^b may overflow to inf, which clips; only a NaN has no integer
        with np.errstate(over="ignore", invalid="raise"):
            k = np.multiply(z, np.ldexp(1.0, b))
            k += np.copysign(0.5, z)
            np.clip(k, first[b], last[b], out=k)
            k = k.astype(np.intp)
    except FloatingPointError:
        return None
    k += offset[b]
    out = values.take(k)
    if zero is not None:
        out[..., zero] = 0.0
    return out


@dataclass
class DdbnModel:
    layer_sizes: list               # [784, n1, ..., nL, 10]
    weights: list                   # L arrays, (prev, n_l)
    hidden_biases: list             # L arrays, (n_l,)
    visible_biases: list            # L arrays, (prev,) -- CD training only
    class_weights: np.ndarray       # (n_L, 10)
    class_bias: np.ndarray          # (10,)
    precision: PrecisionMap = None
    metadata: dict = field(default_factory=dict)

    @property
    def hidden_sizes(self):
        return self.layer_sizes[1:-1]

    @property
    def num_hidden_layers(self):
        return len(self.layer_sizes) - 2

    @classmethod
    def random_init(cls, layer_sizes, seed=0, scale=0.01):
        rng = np.random.default_rng(seed)
        sizes = list(layer_sizes)
        weights, h_biases, v_biases = [], [], []
        for prev, cur in zip(sizes[:-2], sizes[1:-1]):
            weights.append(scale * rng.standard_normal((prev, cur)))
            h_biases.append(np.zeros(cur))
            v_biases.append(np.zeros(prev))
        class_weights = scale * rng.standard_normal((sizes[-2], sizes[-1]))
        return cls(sizes, weights, h_biases, v_biases, class_weights,
                   np.zeros(sizes[-1]))

    # ---- inference -----------------------------------------------------

    def hidden_probs(self, layer, v, cols=slice(None), w=None):
        """Activation probabilities of hidden layer ``layer``'s neurons
        ``cols`` (default all) given the previous layer's values; applies
        the attached precision map to pre-activations and activations."""
        return self.activation(layer, self.pre_activation(layer, v, cols, w), cols)

    def pre_activation(self, layer, v, cols=slice(None), w=None):
        """``v @ W + b`` of hidden layer ``layer``'s neurons ``cols``, unquantized. ``w``,
        W's columns ``cols`` as the product reads them, defaults to the model's own; a
        float32 copy (``_product_weights``) runs the product in float32 on ``v`` cast
        to float32, and the float64 bias is added to its float64 value."""
        w = self.weights[layer][:, cols] if w is None else w
        v = as_inputs(v, self.layer_sizes[layer], f"layer {layer}", w.dtype)
        return v @ w + self.hidden_biases[layer][cols]

    def activation(self, layer, z, cols=slice(None)):
        """Sigmoid of the pre-activations ``z`` of hidden layer ``layer``'s
        neurons ``cols``, each quantized under its neuron's budget. One value per Qm.b grid
        point: a table read at z's index, rounded as ``quantize_all`` rounds, gives the
        direct formula's bytes; that formula runs for m + b > 16 (over 2^16) or a NaN."""
        pmap = self.precision
        if pmap is None:
            return sigmoid(z)
        bits = pmap.hidden_frac_bits[layer][cols]
        out = _looked_up(z, bits, pmap)
        return _quantized_sigmoid(z, bits, pmap) if out is None else out

    def class_probs(self, h, w=None):
        """Softmax class probabilities given the top hidden layer; ``w`` as in
        ``pre_activation``, for the class weights."""
        w = self.class_weights if w is None else w
        h = as_inputs(h, self.layer_sizes[-2], "class layer", w.dtype)
        z = h @ w + self.class_bias
        pmap = self.precision
        if pmap is None:
            return softmax(z)
        n = pmap.class_frac_bits
        z = _quantize_columns(z, n, pmap)
        return _quantize_columns(softmax(z), n, pmap, activation=True)

    def forward_hidden(self, v):
        """Mean-field activations of every hidden layer, first to last."""
        activations = []
        for layer in range(self.num_hidden_layers):
            v = self.hidden_probs(layer, v)
            activations.append(v)
        return activations

    def classify(self, v, mode="mean_field", samples=10, seed=0):
        """Predict classes. Returns (predicted classes, class probability
        vectors); ties resolve to the lowest class index.

        Both modes propagate at most ``_CHUNK`` rows per step: mean-field
        mode ``_CHUNK`` images, stochastic mode ``_CHUNK // samples``
        images (at least one) with ``samples`` sampled rows each. Image i's
        samples still come from its own generator, seeded with (seed, i).
        Each layer's products run in float32 where the value rule (``_needs``)
        proves them exact there, on inputs on their grid: binary images at layer
        0 (tested once per call), the quantized activations or sampled states of
        the layer below above it; the weights are cast once per call. The result
        is byte-identical to a run one image at a time when every sum is exact in
        float64 (a quantized model on binary inputs, within 53 bits per sum by
        the same rule). Otherwise, without a precision map too, it can differ in
        the last bits, as the matrix products of different row counts can."""
        v = np.asarray(v)
        if v.dtype != np.float32:  # a float32 batch is kept: exact in float64 too
            v = v.astype(np.float64, copy=False)
        check_finite(v, "images")
        single = v.ndim == 1
        v = np.atleast_2d(v)
        if mode not in ("mean_field", "stochastic"):
            raise ValueError(f"unknown inference mode {mode!r}")
        if mode == "stochastic" and samples < 1:
            raise ValueError("stochastic mode needs samples >= 1")
        weights = _product_weights(self, _needs(self))
        if not _binary(v):  # grayscale images: layer 0's sums in float64
            weights[0] = self.weights[0]
        probs = np.empty((len(v), self.layer_sizes[-1]))
        step = _CHUNK if mode == "mean_field" else max(1, _CHUNK // samples)
        for start in range(0, len(v), step):
            rows = v[start:start + step]
            if mode == "mean_field":
                for layer in range(self.num_hidden_layers):
                    rows = self.hidden_probs(layer, rows, w=weights[layer])
                probs[start:start + step] = self.class_probs(rows, weights[-1])
            else:
                rngs = [np.random.default_rng(np.random.SeedSequence([seed, i]))
                        for i in range(start, start + len(rows))]
                probs[start:start + step] = self._stochastic_probs(rows, samples, rngs,
                                                                   weights)
        pred = np.argmax(probs, axis=1)
        if single:
            return int(pred[0]), probs[0]
        return pred, probs

    def _stochastic_probs(self, rows, samples, rngs, weights=None):
        """Class probabilities of each row, averaged over ``samples``
        binary hidden states that row j draws from ``rngs[j]``: one call
        fills the row's uniforms, ``(samples, n_l)`` per hidden layer,
        first layer first. ``weights``, per layer as ``classify`` takes them
        (default the model's own), set each product's precision; the states
        are drawn straight into the next product's."""
        if weights is None:
            weights = [*self.weights, self.class_weights]
        u = np.empty((len(rngs), samples * sum(self.hidden_sizes)))
        for rng, row in zip(rngs, u):
            rng.random(out=row)
        h, start = rows, 0
        for layer, n in enumerate(self.hidden_sizes):
            # (images, 1 or samples, n_l)
            a = self.hidden_probs(layer, h, w=weights[layer]).reshape(len(rngs), -1, n)
            drawn = u[:, start:start + samples * n].reshape(len(rngs), samples, n)
            start += samples * n
            h = (drawn < a).astype(weights[layer + 1].dtype).reshape(-1, n)
        return self.class_probs(h, weights[-1]).reshape(len(rngs), samples, -1).mean(axis=1)

    # ---- precision -----------------------------------------------------

    def apply_precision(self, pmap):
        """A new model, every array requantized under a copy of ``pmap``;
        the result satisfies the quantization fixpoint invariant."""
        m = self._sharing_arrays(pmap)
        for layer in range(m.num_hidden_layers):
            _requantize_layer(m, layer)
        _requantize_class(m)
        return m

    def _sharing_arrays(self, pmap):
        """A new model under a copy of ``pmap`` that shares this one's
        parameter arrays (not its lists) until they are requantized."""
        return replace(self, weights=list(self.weights),
                       hidden_biases=list(self.hidden_biases),
                       visible_biases=list(self.visible_biases),
                       precision=pmap.copy(), metadata=dict(self.metadata))


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 15
    batch_size: int = 100
    seed: int = 0

    def __post_init__(self):
        integer_fields(self, ("epochs", "batch_size", "seed"))
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be positive and finite")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _columns(arr, cols):
    """Columns ``cols`` (last axis) of ``arr``: a view for a slice, a C-contiguous
    copy for indices (``arr[:, indices]`` is F-contiguous, which can send a
    matrix product down another BLAS path)."""
    return arr[..., cols] if isinstance(cols, slice) else arr.take(cols, axis=-1)


def _with_columns(arr, cols, part):
    """A copy of ``arr`` with ``part`` in its columns ``cols`` (last axis)."""
    out = arr.copy()
    out[..., cols] = part
    return out


def _rbm_groups(pmap, layer, cols, top):
    """``_budget_groups`` of [W, hidden bias, visible bias] of the RBM under hidden
    layer ``layer`` (plus [class weights, class bias] for the ``top`` RBM) whose W
    and hidden bias hold only the neurons ``cols``. The global budget governs the
    visible bias at layer 0, the layer below's neurons above it."""
    hidden = _budget_groups(pmap.hidden_frac_bits[layer][cols], pmap)
    visible = _budget_groups(pmap.hidden_frac_bits[layer - 1] if layer
                             else pmap.global_frac_bits, pmap)
    groups = [hidden, hidden, visible]
    return groups + [_budget_groups(pmap.class_frac_bits, pmap)] * 2 if top else groups


def _requantize_layer(model, layer, cols=slice(None)):
    """Requantize the RBM under hidden layer ``layer`` into new arrays: the
    weight and hidden-bias columns of its neurons ``cols`` (default all) and its
    whole visible bias. Weights with no column to requantize stay shared."""
    if model.precision is None:
        return
    w, hb, vb = _rbm_params(model, layer, False)
    qw, qhb, model.visible_biases[layer] = (
        _quantize_groups(p, *g) for p, g in zip(
            [_columns(w, cols), _columns(hb, cols), vb],
            _rbm_groups(model.precision, layer, cols, False)))
    if len(qhb) == len(hb):  # every column
        model.weights[layer], model.hidden_biases[layer] = qw, qhb
    elif len(qhb):
        model.weights[layer] = _with_columns(w, cols, qw)
        model.hidden_biases[layer] = _with_columns(hb, cols, qhb)


def _needs(model):
    """Per layer, hidden then class, the bits its products need under the model's
    map: the value rule. Its inputs lie in [0, 1] on the Q0.a grid (binary images:
    a = 0; above, a is the largest activation bits of the layer below) and column
    j's weights on the Qm.b_j grid, so each partial sum of column j is a whole number
    of steps 2^-(a + b_j), at most sum_i |w_ij| 2^(a + b_j) of them. The need is the
    bit length of the largest column's count, and at least a, the inputs' own: every
    sum of a layer that needs at most 24 bits is exact in float32, and at most 53 in
    float64, in any order of its terms. A need within 53 bits is exact; past it, the
    float64 count may round up to a bit more. Infinite without a map or for weights
    off their grid. A cut never raises a need: a weight moved to a coarser grid takes
    round(k / 2^d) <= k steps where it took k, clipping only shrinks it, and the
    layer below's activation bits do not grow."""
    pmap = model.precision
    if pmap is None:
        return [math.inf] * (model.num_hidden_layers + 1)
    bits = [*pmap.hidden_frac_bits, pmap.class_frac_bits]
    needs, a = [], 0
    for w, b in zip([*model.weights, model.class_weights], bits):
        steps = np.ldexp(np.abs(w), b)  # whole numbers on the grid
        # exact below 2^53, and at least 2^53 when the exact sum is
        total = steps.sum(axis=0).max(initial=0.0)
        on_grid = np.array_equal(np.floor(steps), steps)
        needs.append(max(a, int(np.frexp(np.ldexp(total, a))[1])) if on_grid else math.inf)
        a = int(np.max(pmap.activation_bits(b)))
    return needs


def _product_weights(model, needs):
    """Per layer, hidden then class, the weights its products read: a float32 copy
    where ``needs`` fit float32's 24-bit significand, else the model's own."""
    return [w.astype(np.float32) if need <= _SINGLE else w
            for w, need in zip([*model.weights, model.class_weights], needs)]


def _requantize_class(model):
    pmap = model.precision
    if pmap is None:
        return
    model.class_weights, model.class_bias = (
        _quantize_columns(p, pmap.class_frac_bits, pmap)
        for p in (model.class_weights, model.class_bias))


def _sample_one_hot(probs, rng):
    u = rng.random(len(probs))
    idx = (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
    idx = np.minimum(idx, probs.shape[1] - 1)
    out = np.zeros_like(probs)
    out[np.arange(len(probs)), idx] = 1.0
    return out


def _rbm_params(model, layer, top):
    """[W, hidden bias, visible bias] of the RBM under hidden layer
    ``layer``, plus [class weights, class bias] for the top RBM."""
    params = [model.weights[layer], model.hidden_biases[layer],
              model.visible_biases[layer]]
    return params + [model.class_weights, model.class_bias] if top else params


def _set_rbm_params(model, layer, params):
    w, hb, vb, *cls = params
    model.weights[layer], model.hidden_biases[layer] = w, hb
    model.visible_biases[layer] = vb
    if cls:
        model.class_weights, model.class_bias = cls


def _momentum_step(vel, master, grad):
    """In place: ``vel`` = MOMENTUM * ``vel`` + ``grad``, then ``master`` += ``vel``."""
    vel *= MOMENTUM
    vel += grad
    master += vel


def _cd(model, layer, data, config, rng, targets=None):
    """CD-1 on the RBM under hidden layer ``layer``. With ``targets`` it is
    the discriminative top RBM: a one-hot class block joins the visible
    layer and reconstructs through a softmax, sampling one class
    (Larochelle & Bengio, 2008). Under a precision map, gradients
    accumulate in full-precision masters, the forward passes use them
    quantized after each update, and the model (on its map's grid, as
    ``apply_precision`` leaves it) gets them at the end. Below the top, only
    live neurons' columns train: a pruned neuron's +0 column has
    up-probability 0.5 and moves no parameter that survives quantizing; its
    uniforms are still drawn. The top RBM trains every column, as its class
    weights read the pruned neurons' states.

    Each batch step runs in float32: the batch, the parameters it reads (cast
    from the quantized or, without a map, the master ones), the products, the
    sigmoids, the sampled states and the gradients. The masters and velocities
    take the gradients in float64, and quantizing, the divergence check and the
    model stay float64. The uniforms and the class softmax stay float64 too."""
    top = targets is not None
    pmap = model.precision
    width = model.layer_sizes[layer + 1]
    live = (slice(None) if top or pmap is None
            else np.flatnonzero(pmap.hidden_frac_bits[layer]))
    w, hb, *rest = _rbm_params(model, layer, top)
    params = [_columns(w, live), _columns(hb, live), *rest]
    master = [np.array(p) for p in params]
    vel = [np.zeros_like(p) for p in master]
    # built once: no budget changes during the call
    groups = None if pmap is None else _rbm_groups(pmap, layer, live, top)
    n, lr = len(data), config.learning_rate
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            sel = order[start:start + config.batch_size]
            x0 = data[sel].astype(np.float32)
            t0 = targets[sel].astype(np.float32) if top else None
            w, hb, vb, *cls = (p.astype(np.float32) for p in params)
            b = len(x0)

            def up(x, t):  # hidden probabilities
                z = x @ w + hb
                if top:
                    z += t @ cls[0].T
                return sigmoid(z)

            ph0 = up(x0, t0)
            u = _columns(rng.random((b, width)), live)
            h0 = (u < ph0).astype(np.float32)
            x1 = sigmoid(h0 @ w.T + vb)
            t1 = (_sample_one_hot(softmax(h0 @ cls[0] + cls[1]), rng).astype(np.float32)
                  if top else None)
            ph1 = up(x1, t1)
            grads = [lr * (x0.T @ ph0 - x1.T @ ph1) / b,
                     lr * (ph0 - ph1).mean(axis=0), lr * (x0 - x1).mean(axis=0)]
            if top:
                grads += [lr * (ph0.T @ t0 - ph1.T @ t1) / b,
                          lr * (t0 - t1).mean(axis=0)]
            for v, m, g in zip(vel, master, grads):
                _momentum_step(v, m, g)
            params = (master if groups is None else
                      [_quantize_groups(p, *g) for p, g in zip(master, groups)])
        # after every epoch, so a diverged run stops at its first bad one;
        # the masters, not the quantized parameters: quantizing clips inf
        if not all(np.isfinite(p).all() for p in master):
            raise FloatingPointError(
                f"CD training of the RBM under hidden layer {layer} diverged: "
                "a parameter is not finite")
    w, hb, *rest = params  # full width, +0 in the pruned columns
    _set_rbm_params(model, layer, [_with_columns(np.zeros((len(w), width)), live, w),
                                   _with_columns(np.zeros(width), live, hb), *rest])


def _train_rbm(model, layer, data, config, rng):
    _cd(model, layer, data, config, rng)


def _train_top_rbm(model, data, targets, config, rng):
    _cd(model, model.num_hidden_layers - 1, data, config, rng, targets)


def _train_stack(model, images, one_hot, config, first=0):
    """CD on the RBMs from hidden layer ``first`` up, bottom to top, all
    drawing from one generator seeded with ``config.seed``; the layers
    below ``first`` only pass the data up."""
    check_finite(images, "images")
    check_finite(one_hot, "one_hot")
    rng = np.random.default_rng(config.seed)
    data = np.asarray(images, dtype=np.float64)
    for layer in range(model.num_hidden_layers - 1):
        if layer >= first:
            _train_rbm(model, layer, data, config, rng)
        data = model.hidden_probs(layer, data)
    _train_top_rbm(model, data, one_hot, config, rng)


def train_ddbn(images, one_hot, layer_sizes, config) -> DdbnModel:
    """Greedy layer-wise CD pretraining followed by discriminative
    top-RBM training; deterministic for a fixed config seed."""
    if len(images) == 0:
        raise ValueError("training set is empty")
    model = DdbnModel.random_init(layer_sizes, seed=config.seed)
    _train_stack(model, images, one_hot, config)
    model.metadata["train_seed"] = config.seed
    return model


def retrain_quantized(model, pmap, images, one_hot, config, first=0) -> DdbnModel:
    """Continue CD training from the current (quantized) parameters, on
    the RBMs from hidden layer ``first`` up: 0 retrains every RBM, the
    top hidden layer only the discriminative top RBM, which then trains on
    the quantized mean-field activations of the fixed layers below.
    Phase 2's first retrain trains every RBM; a later one does so when at
    least 10% of the neurons below the top hidden layer changed budget
    since the last such retrain, and otherwise trains only the top RBM
    (``search.FULL_RETRAIN_SHARE``). The model's
    parameters are re-quantized after every update; the update steps
    themselves accumulate in full-precision masters so that coarse
    formats do not swallow small gradients. Pruned neurons stay at zero."""
    out = model.apply_precision(pmap)
    _train_stack(out, images, one_hot, config, first)
    return out


def _check_eval_set(images, labels):
    """Raise ``ValueError`` for an evaluation set that is empty or whose image and
    label counts differ."""
    if len(images) != len(labels):
        raise ValueError(f"{len(images)} images but {len(labels)} labels")
    if len(images) == 0:
        raise ValueError("evaluation set is empty")


def evaluate_accuracy(model, images, labels, mode="mean_field",
                      samples=10, seed=0):
    """Fraction of samples classified correctly."""
    _check_eval_set(images, labels)
    preds, _ = model.classify(images, mode, samples, seed)
    return int((preds == np.asarray(labels)).sum()) / len(images)


def confusion_counts(model, images, labels, mode="mean_field",
                     samples=10, seed=0):
    """(true label, predicted label) counts, one row and column per class."""
    _check_eval_set(images, labels)
    preds, _ = model.classify(images, mode, samples, seed)
    counts = np.zeros((model.layer_sizes[-1],) * 2, dtype=np.int64)
    np.add.at(counts, (np.asarray(labels), preds), 1)
    return counts


class CandidateEvaluator:
    """Mean-field accuracy of the accepted ``model`` under cuts of its map, maps
    that lower a few hidden budgets; ``cut`` commits one that meets its threshold.
    A candidate requantizes only the columns whose budget changed. When every layer's
    sums are exact in float64 on binary images (``_needs``: at most 53 bits), the
    accepted model's activations ``a[l]`` of every hidden layer and, above layer 0,
    its pre-activations ``z[l]`` are kept. A cut keeps the sums exact, so a candidate
    then recomputes its lowest changed layer's changed columns, adds their change to
    the next layer's ``z`` and walks the layers above in full. That walk takes the
    rows hardest first, ``_BLOCK`` at a time, and under a threshold stops once it
    fails. ``prune`` commits a stack of prunes in one pass. With nothing kept, a
    candidate is walked from the images by ``classify``.

    Binary images are held once, in float32. A layer whose need fits 24 bits runs
    its products in float32, on float32 mirrors: ``w[l]`` of the accepted weights,
    whose changed columns a commit recasts, and the kept activations it reads, held
    in float32 alone. The other layers read float64 weights and activations."""

    def __init__(self, model, images, labels):
        if model.precision is None:
            raise ValueError("the evaluator needs a model with a precision map")
        images = np.asarray(images, dtype=np.float64)
        self.labels = np.asarray(labels)
        _check_eval_set(images, self.labels)
        check_finite(images, "images")
        self.binary = _binary(images)
        self.images = images.astype(np.float32) if self.binary else images
        # candidates requantize only the columns they change, which needs the
        # accepted model on its grid; the identity if it already is
        self._keep(model.apply_precision(model.precision))

    def _keep(self, model):
        """Accept ``model`` with the product weights of its needs (``_needs``), and
        keep every hidden layer if every layer's sums are exact in float64 on the
        binary images: no row's result then depends on its step. A cut never raises
        a need, so the needs of a kept model bound those of every later commit."""
        self.model, self._order, self.a, self.z = model, None, [], []
        needs = _needs(model)
        self.w = _product_weights(model, needs)
        if self.binary and max(needs) <= _DOUBLE:
            v = self.images
            for layer in range(model.num_hidden_layers):
                z = model.pre_activation(layer, v, w=self.w[layer])
                self.z.append(z if layer else None)  # layer 0's inputs never change
                # in the precision of the product that reads them
                v = model.activation(layer, z).astype(self.w[layer + 1].dtype, copy=False)
                self.a.append(v)

    def _hardest_first(self):
        """The accepted model's errors, then its correct rows by ascending margin."""
        if self._order is None:
            p = self.model.class_probs(self.a[-1], self.w[-1])
            truth = np.eye(p.shape[1], dtype=bool)[self.labels]
            margin = p[truth] - np.where(truth, -np.inf, p).max(axis=1)
            self._order = np.lexsort((margin, p.argmax(axis=1) == self.labels))
        return self._order

    def _recast(self, candidate, changed, layers):
        """``w`` of ``candidate`` for the hidden ``layers``: each float32 mirror whose
        columns changed copied with them recast, or the candidate's float64 weights;
        the other layers' are the accepted model's."""
        ws = list(self.w)
        for layer in layers:
            if len(cols := changed[layer]):
                w = candidate.weights[layer]
                ws[layer] = (_with_columns(ws[layer], cols, _columns(w, cols))
                             if ws[layer].dtype == np.float32 else w)
        return ws

    def _commit(self, candidate, changed):
        """Make ``candidate`` the accepted model: each float32 mirror takes its changed
        columns in place, a float64 layer the candidate's weights."""
        for layer, cols in enumerate(changed):
            if len(cols):
                w = candidate.weights[layer]
                if self.w[layer].dtype == np.float32:
                    self.w[layer][:, cols] = _columns(w, cols)
                else:
                    self.w[layer] = w
        self.model = candidate

    def _candidate(self, pmap):
        """The accepted model under ``pmap``, a cut of its map, and the neurons of
        each layer whose budget changed. As the accepted model is on its grid,
        requantizing the changed neurons' columns gives ``apply_precision``'s bytes."""
        old = self.model.precision
        old.check_monotone_update(pmap)
        changed = [np.flatnonzero(new != was) for new, was
                   in zip(pmap.hidden_frac_bits, old.hidden_frac_bits)]
        candidate = self.model._sharing_arrays(pmap)
        for layer, cols in enumerate(changed):
            # layer - 1's neurons govern this RBM's visible bias
            if len(cols) or layer and len(changed[layer - 1]):
                _requantize_layer(candidate, layer, cols)
        return candidate, changed

    def _recompute(self, candidate, changed, f, rows, new, ws, head):
        """The candidate's top hidden activations on ``rows``, from layer ``f`` up:
        f's changed columns (their weights ``head``), layer f + 1 by the change in f
        and its own changed columns, the rest in full, reading ``ws``. Writes each
        layer's z (layer f: only above layer 0) and a (layer f: its changed columns)
        into ``new``."""
        cols, below = changed[f], self.a[f - 1] if f else self.images
        x = below[rows].astype(head.dtype, copy=False)
        z = x @ head + candidate.hidden_biases[f][cols]
        a = candidate.activation(f, z, cols)
        if f:
            new[0][0][rows] = z
        new[0][1][rows] = a
        v = np.array(self.a[f][rows])  # a copy, of a slice too
        delta = a - v[:, cols]
        v[:, cols] = a
        for layer in range(f + 1, len(self.a)):
            w = ws[layer]
            if layer == f + 1:  # exact sums: the change in f, times the weights it met
                x = delta.astype(w.dtype, copy=False)
                z = self.z[layer][rows] + x @ self.w[layer][cols]
                if len(own := changed[layer]):
                    x = _columns(candidate.weights[layer], own).astype(w.dtype, copy=False)
                    z[:, own] = v @ x + candidate.hidden_biases[layer][own]
            else:
                z = candidate.pre_activation(layer, v, w=w)
            v = candidate.activation(layer, z)
            new[layer - f][0][rows], new[layer - f][1][rows] = z, v
        return v

    def cut(self, pmap, threshold=None):
        """Accuracy of the accepted model under ``pmap``, a cut of its map; any other
        map raises ``ValueError``. The cut becomes the accepted model unless its
        accuracy is below ``threshold``; then it may return an upper bound, also
        below it. With no threshold it always commits."""
        candidate, changed = self._candidate(pmap)
        n, errors = len(self.labels), 0
        threshold = -math.inf if threshold is None else threshold
        if not self.a:
            acc = int((candidate.classify(self.images)[0] == self.labels).sum()) / n
            if acc >= threshold:
                self._keep(candidate)
            return acc
        # a walk of every row counts the same errors in any order
        order = self._hardest_first()
        blocks = [order[s:s + _BLOCK] for s in range(0, n, _BLOCK)]
        top = len(self.a)
        f = next((layer for layer, cols in enumerate(changed) if len(cols)), top)
        # layers f and f + 1 read only their changed columns of the candidate
        ws = self._recast(candidate, changed, range(f + 2, top))
        if f < top:
            head = _columns(candidate.weights[f], changed[f])
            head = head.astype(ws[f].dtype, copy=False)
            widths = [len(changed[f])] + candidate.layer_sizes[f + 2:top + 1]
            new = [(np.empty((n, k)) if layer else None,  # layer 0 keeps no z
                    np.empty((n, k), self.a[layer].dtype))
                   for layer, k in enumerate(widths, start=f)]
        for rows in blocks:  # slices, or gathers: no permuted copy of the images
            v = (self._recompute(candidate, changed, f, rows, new, ws, head) if f < top
                 else self.a[-1][rows])
            pred = candidate.class_probs(v, ws[-1]).argmax(axis=1)
            errors += int((pred != self.labels[rows]).sum())
            if (n - errors) / n < threshold:  # Phase 2's test, whatever the rest give
                return (n - errors) / n
        self._commit(candidate, changed)
        if f < top:  # a new order, layer f's changed columns, the layers above
            self._order, (z, a) = None, new[0]
            self.a[f][:, changed[f]] = a
            if f:
                self.z[f][:, changed[f]] = z
            for layer, (z, a) in enumerate(new[1:], start=f + 1):
                self.z[layer], self.a[layer] = z, a
        return (n - errors) / n

    def prune(self, neurons):
        """Prune ``neurons``, (layer, index) pairs, one after another and commit them
        all; returns the accuracy after each prefix, each equal to a ``cut`` of its map.
        A neuron out of range or named twice raises ``ValueError``; nothing commits.

        With the cache, one pass: a pruned column requantizes to zeros, so its z and a
        are +0.0 and each point is the accepted model with its prunes masked. Above the
        lowest pruned layer f, layer f + 1 adds up the pruned columns' rank-1 terms
        (each partial sum exact, over a subset of its fan-in), each layer above runs
        once per distinct input, and the class layer once on every point's rows
        stacked, which the caller keeps within ``_CHUNK``. Without the cache, each
        point is a ``cut``."""
        sizes = self.model.hidden_sizes
        pairs = [tuple(map(operator.index, p)) for p in neurons]
        for layer, idx in pairs:
            if not (0 <= layer < len(sizes) and 0 <= idx < sizes[layer]):
                raise ValueError(f"neuron {(layer, idx)}: no such hidden neuron")
        if len(set(pairs)) < len(pairs):
            raise ValueError("a neuron is named twice")
        pmap, cached = self.model.precision.copy(), bool(self.a)
        accuracies = []
        for layer, idx in pairs:
            pmap.hidden_frac_bits[layer][idx] = 0
            if not cached:  # each point walked from the images
                accuracies.append(self.cut(pmap))
        if not cached or not pairs:
            return accuracies
        candidate, changed = self._candidate(pmap)
        model, n, top = self.model, len(self.labels), len(self.a)
        f = min(layer for layer, _ in pairs)
        outs, kept = [None] * len(pairs), []  # per point, the layer's activations
        if f < top - 1:  # layer f + 1 reads self.a[f] by its rank-1 terms, never outs
            kept.append((self.z[f], self.a[f], [idx for at, idx in pairs if at == f]))
        for layer in range(f + len(kept), top):
            # the points pruned below this layer: each starts a new input state
            starts, new = [i for i, (at, _) in enumerate(pairs) if at < layer], {}
            if layer == f + 1:
                zs, z = [], self.z[layer]
                for i in starts:
                    col = pairs[i][1]
                    z = z - self.a[f][:, col, None] * model.weights[layer][col]
                    zs.append(z)
            elif starts:
                zs = np.split(model.pre_activation(
                    layer, np.concatenate([outs[i] for i in starts]), w=self.w[layer]),
                    len(starts))
            if starts:
                states = np.split(model.activation(layer, np.concatenate(zs)), len(zs))
                new = dict(zip(starts, zip(zs, states)))
            z, a, cols = self.z[layer], self.a[layer], []
            for i, (at, idx) in enumerate(pairs):
                if i in new:
                    z, a = new[i]
                if at == layer:
                    cols.append(idx)
                if cols and (i in new or at == layer):
                    a = a.copy()
                    a[:, cols] = 0.0
                outs[i] = a
            kept.append((z, a, cols))
        pred = candidate.class_probs(np.concatenate(outs), self.w[-1]).argmax(axis=1)
        errors = (pred.reshape(len(pairs), n) != self.labels).sum(axis=1)
        self._commit(candidate, changed)
        self._order = None
        for layer, (z, a, cols) in enumerate(kept, start=f):
            if a.dtype != self.a[layer].dtype:  # fresh float64 for a float32 cache
                a = a.astype(self.a[layer].dtype)
            # a view into a stack of points is copied, so that the stack can go; the
            # other arrays are the cache's own or fresh, and are masked in place
            z, a = (x.copy() if x is not None and x.base is not None
                    and x.base.size > x.size else x for x in (z, a))
            if layer:
                z[:, cols] = 0.0
            a[:, cols] = 0.0
            self.z[layer], self.a[layer] = z, a
        return [(n - int(e)) / n for e in errors]


# ---- serialization -----------------------------------------------------


def _pack_array(arr):
    return np.asarray(arr, dtype="<f8").tobytes()


def save_model(model, path):
    """Versioned binary container with trailing CRC32."""
    buf = bytearray()
    buf += MODEL_MAGIC
    buf += struct.pack("<H", MODEL_VERSION)
    sizes = model.layer_sizes
    buf += struct.pack("<H", len(sizes))
    buf += struct.pack(f"<{len(sizes)}I", *sizes)
    for layer in range(model.num_hidden_layers):
        buf += _pack_array(model.weights[layer])
        buf += _pack_array(model.hidden_biases[layer])
        buf += _pack_array(model.visible_biases[layer])
    buf += _pack_array(model.class_weights)
    buf += _pack_array(model.class_bias)
    pmap = model.precision
    buf += struct.pack("<B", 1 if pmap is not None else 0)
    if pmap is not None:
        buf += struct.pack("<BHHH", pmap.weight_int_bits,
                           pmap.class_frac_bits, pmap.global_frac_bits,
                           pmap.activation_frac_bits)
        for bits in pmap.hidden_frac_bits:
            buf += np.asarray(bits, dtype="<u2").tobytes()
    meta = json.dumps(model.metadata, sort_keys=True).encode()
    buf += struct.pack("<I", len(meta))
    buf += meta
    buf += struct.pack("<I", zlib.crc32(bytes(buf)))
    with open(path, "wb") as f:
        f.write(bytes(buf))


class _Reader:
    def __init__(self, data, path):
        self.data, self.path, self.pos = data, path, 0

    def take(self, n):
        if self.pos + n > len(self.data):
            raise ModelFileError(f"{self.path}: truncated at offset {self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def array(self, shape):
        count = math.prod(shape)  # exact: a huge header must not wrap
        return np.frombuffer(self.take(count * 8), dtype="<f8").reshape(shape).copy()


def load_model(path) -> DdbnModel:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 10 or data[:4] != MODEL_MAGIC:
        raise ModelFileError(f"{path}: not a model file (bad magic)")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ModelFileError(f"{path}: CRC32 mismatch, file is corrupted")
    r = _Reader(data[:-4], path)
    r.take(4)
    (version,) = r.unpack("<H")
    if version != MODEL_VERSION:
        raise ModelFileError(
            f"{path}: format version {version}, this build reads {MODEL_VERSION}")
    (n_sizes,) = r.unpack("<H")
    if n_sizes < 3:
        raise ModelFileError(f"{path}: {n_sizes} layer sizes, a DDBN needs at least 3")
    sizes = list(r.unpack(f"<{n_sizes}I"))
    if min(sizes) < 1:
        raise ModelFileError(f"{path}: layer sizes {sizes}, every layer needs a unit")
    weights, h_biases, v_biases = [], [], []
    for prev, cur in zip(sizes[:-2], sizes[1:-1]):
        weights.append(r.array((prev, cur)))
        h_biases.append(r.array((cur,)))
        v_biases.append(r.array((prev,)))
    class_weights = r.array((sizes[-2], sizes[-1]))
    class_bias = r.array((sizes[-1],))
    (has_pmap,) = r.unpack("<B")
    pmap = None
    if has_pmap:
        wib, cfb, gfb, afb = r.unpack("<BHHH")
        hidden_bits = [
            np.frombuffer(r.take(n * 2), dtype="<u2").astype(np.int64)
            for n in sizes[1:-1]
        ]
        try:
            pmap = PrecisionMap(hidden_bits, cfb, gfb, wib, afb)
        except ValueError as e:
            raise ModelFileError(f"{path}: {e}") from e
    (meta_len,) = r.unpack("<I")
    try:
        metadata = json.loads(r.take(meta_len).decode())
    except ValueError as e:  # not UTF-8, or not JSON
        raise ModelFileError(f"{path}: bad metadata: {e}") from e
    if not isinstance(metadata, dict):
        raise ModelFileError(f"{path}: bad metadata: a JSON object is needed, "
                             f"got {type(metadata).__name__}")
    if r.pos != len(r.data):
        raise ModelFileError(
            f"{path}: {len(r.data) - r.pos} unexpected bytes before the checksum")
    params = weights + h_biases + v_biases + [class_weights, class_bias]
    if not all(np.isfinite(p).all() for p in params):
        raise ModelFileError(f"{path}: a parameter is not finite")
    model = DdbnModel(sizes, weights, h_biases, v_biases, class_weights,
                      class_bias, pmap, metadata)
    if pmap is not None:  # values, not bytes: older builds wrote -0.0
        fixed = model.apply_precision(pmap)
        on_grid = (fixed.weights + fixed.hidden_biases + fixed.visible_biases
                   + [fixed.class_weights, fixed.class_bias])
        if not all(np.array_equal(p, q) for p, q in zip(params, on_grid)):
            raise ModelFileError(
                f"{path}: a parameter is off its precision map's fixed-point grid")
    return model


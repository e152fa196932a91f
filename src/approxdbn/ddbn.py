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
import struct
import zlib
from dataclasses import dataclass, field, replace

import numpy as np

from .fixedpoint import FixedPointFormat, quantize_all

MODEL_MAGIC = b"ADBN"
MODEL_VERSION = 1
_CHUNK = 2048  # rows per mean-field propagation step in classify
MOMENTUM = 0.5  # CD velocity decay


class ModelFileError(Exception):
    pass


class VersionMismatch(ModelFileError):
    pass


class ChecksumError(ModelFileError):
    pass


def sigmoid(x):
    return 1.0 / (1.0 + np.exp(-np.asarray(x, dtype=np.float64)))


def softmax(z):
    """Row-wise stable softmax."""
    z = np.asarray(z, dtype=np.float64)
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def as_inputs(x, width, layer_name):
    """``x`` as a float64 batch of rows; rejects rows not ``width`` wide."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != width:
        raise ValueError(
            f"{layer_name} expects inputs of size {width}, got {x.shape[1]}")
    return x


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

    def weight_format(self, budget):
        """Signed Qm.n for the weights, biases and pre-activations a
        budget of n fractional bits governs; a 0-bit budget collapses to
        the zero-only format (pruning)."""
        if budget == 0:
            return FixedPointFormat(signed=True, int_bits=0, frac_bits=0)
        return FixedPointFormat(signed=True, int_bits=self.weight_int_bits,
                                frac_bits=budget)

    def activation_format(self, budget):
        """Unsigned Q0.n for sigmoid/softmax outputs in [0, 1); n is the
        budget unless ``activation_frac_bits`` fixes it, and a 0-bit
        (pruned) neuron always has a zero-bit activation."""
        if budget and self.activation_frac_bits:
            budget = self.activation_frac_bits
        return FixedPointFormat(signed=False, int_bits=0, frac_bits=budget)

    def total_hidden_bits(self) -> int:
        return int(sum(b.sum() for b in self.hidden_frac_bits))

    def num_hidden_neurons(self) -> int:
        return int(sum(len(b) for b in self.hidden_frac_bits))

    def check_monotone_update(self, new):
        """Guard used by the search: budgets only ever decrease."""
        for old_b, new_b in zip(self.hidden_frac_bits, new.hidden_frac_bits):
            if np.any(new_b > old_b):
                raise ValueError("bit-length increase is not allowed")
        if new.class_frac_bits > self.class_frac_bits:
            raise ValueError("bit-length increase is not allowed")


def _quantize_columns(arr, frac_bits, fmt_fn):
    """Quantize each column of ``arr`` (last axis) under its own format."""
    out = np.array(arr, dtype=np.float64)
    for n in np.unique(frac_bits):
        cols = np.asarray(frac_bits) == n
        out[..., cols] = quantize_all(out[..., cols], fmt_fn(int(n)))
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

    def copy(self):
        return DdbnModel(
            list(self.layer_sizes),
            [w.copy() for w in self.weights],
            [b.copy() for b in self.hidden_biases],
            [b.copy() for b in self.visible_biases],
            self.class_weights.copy(),
            self.class_bias.copy(),
            self.precision.copy() if self.precision else None,
            dict(self.metadata),
        )

    # ---- inference -----------------------------------------------------

    def hidden_probs(self, layer, v):
        """Activation probabilities of hidden layer ``layer`` (0-based)
        given the previous layer's values; applies the attached precision
        map to pre-activations and activations."""
        v = as_inputs(v, self.layer_sizes[layer], f"layer {layer}")
        z = v @ self.weights[layer] + self.hidden_biases[layer]
        pmap = self.precision
        if pmap is None:
            return sigmoid(z)
        bits = pmap.hidden_frac_bits[layer]
        z = _quantize_columns(z, bits, pmap.weight_format)
        return _quantize_columns(sigmoid(z), bits, pmap.activation_format)

    def class_probs(self, h):
        """Softmax class probabilities given the top hidden layer."""
        h = as_inputs(h, self.layer_sizes[-2], "class layer")
        z = h @ self.class_weights + self.class_bias
        pmap = self.precision
        if pmap is None:
            return softmax(z)
        n = pmap.class_frac_bits
        z = quantize_all(z, pmap.weight_format(n))
        return quantize_all(softmax(z), pmap.activation_format(n))

    def forward_hidden(self, v):
        """Mean-field activations of every hidden layer, first to last."""
        activations = []
        for layer in range(self.num_hidden_layers):
            v = self.hidden_probs(layer, v)
            activations.append(v)
        return activations

    def classify(self, v, mode="mean_field", samples=10, seed=0):
        """Predict classes. Returns (predicted classes, class probability
        vectors); ties resolve to the lowest class index. Mean-field mode
        propagates ``_CHUNK`` rows at a time; stochastic mode seeds sample
        i's generator with (seed, i)."""
        v = np.asarray(v, dtype=np.float64)
        single = v.ndim == 1
        v = np.atleast_2d(v)
        if mode not in ("mean_field", "stochastic"):
            raise ValueError(f"unknown inference mode {mode!r}")
        if mode == "stochastic" and samples < 1:
            raise ValueError("stochastic mode needs samples >= 1")
        probs = np.empty((len(v), self.layer_sizes[-1]))
        if mode == "mean_field":
            for start in range(0, len(v), _CHUNK):
                probs[start:start + _CHUNK] = self.class_probs(
                    self.forward_hidden(v[start:start + _CHUNK])[-1])
        else:
            for i, x in enumerate(v):
                rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
                probs[i] = self._stochastic_probs(x, samples, rng)
        pred = np.argmax(probs, axis=1)
        if single:
            return int(pred[0]), probs[0]
        return pred, probs

    def _stochastic_probs(self, x, samples, rng):
        h = x[None, :]
        for layer in range(self.num_hidden_layers):
            a = self.hidden_probs(layer, h)
            h = (rng.random((samples, a.shape[1])) < a).astype(np.float64)
        return self.class_probs(h).mean(axis=0)

    # ---- precision -----------------------------------------------------

    def apply_precision(self, pmap):
        """Quantize every parameter under ``pmap`` and attach the map; the
        result satisfies the quantization fixpoint invariant."""
        m = self.copy()
        m.precision = pmap.copy()
        for layer in range(m.num_hidden_layers):
            _requantize_layer(m, layer)
        _requantize_class(m)
        return m


@dataclass
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 15
    batch_size: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


def _requantize_layer(model, layer):
    pmap = model.precision
    if pmap is None:
        return
    fmt = pmap.weight_format
    bits = pmap.hidden_frac_bits[layer]
    model.weights[layer] = _quantize_columns(model.weights[layer], bits, fmt)
    model.hidden_biases[layer] = _quantize_columns(model.hidden_biases[layer], bits, fmt)
    vb = model.visible_biases[layer]
    model.visible_biases[layer] = (
        quantize_all(vb, fmt(pmap.global_frac_bits)) if layer == 0
        else _quantize_columns(vb, pmap.hidden_frac_bits[layer - 1], fmt))


def _requantize_class(model):
    pmap = model.precision
    if pmap is None:
        return
    cfmt = pmap.weight_format(pmap.class_frac_bits)
    model.class_weights = quantize_all(model.class_weights, cfmt)
    model.class_bias = quantize_all(model.class_bias, cfmt)


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


def _cd(model, layer, data, config, rng, targets=None):
    """CD-1 on the RBM under hidden layer ``layer``. With ``targets`` it is
    the discriminative top RBM: a one-hot class block joins the visible
    layer and reconstructs through a softmax, sampling one class
    (Larochelle & Bengio, 2008). Under a precision map, gradients
    accumulate in full-precision master parameters while the model's own
    parameters (used by every forward pass) are re-quantized after each
    update."""
    top = targets is not None
    master = [p.copy() for p in _rbm_params(model, layer, top)]
    vel = [np.zeros_like(p) for p in master]
    n = len(data)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            sel = order[start:start + config.batch_size]
            x0 = data[sel]
            t0 = targets[sel] if top else None
            w, hb, vb, *cls = _rbm_params(model, layer, top)

            def up(x, t):
                z = x @ w if t is None else x @ w + t @ cls[0].T
                return sigmoid(z + hb)

            ph0 = up(x0, t0)
            h0 = (rng.random(ph0.shape) < ph0).astype(np.float64)
            x1 = sigmoid(h0 @ w.T + vb)
            t1 = _sample_one_hot(softmax(h0 @ cls[0] + cls[1]), rng) if top else None
            ph1 = up(x1, t1)
            b = len(x0)
            lr = config.learning_rate
            grads = [lr * (x0.T @ ph0 - x1.T @ ph1) / b,
                     lr * (ph0 - ph1).mean(axis=0),
                     lr * (x0 - x1).mean(axis=0)]
            if top:
                grads += [lr * (ph0.T @ t0 - ph1.T @ t1) / b,
                          lr * (t0 - t1).mean(axis=0)]
            for i, g in enumerate(grads):
                vel[i] = MOMENTUM * vel[i] + g
                master[i] = master[i] + vel[i]
            _set_rbm_params(model, layer, master)
            _requantize_layer(model, layer)
            if top:
                _requantize_class(model)
    # the masters, not the model's parameters: quantizing clips inf
    if not all(np.isfinite(p).all() for p in master):
        raise FloatingPointError(
            f"CD training of the RBM under hidden layer {layer} diverged: "
            "a parameter is not finite")


def _train_rbm(model, layer, data, config, rng):
    _cd(model, layer, data, config, rng)


def _train_top_rbm(model, data, targets, config, rng):
    _cd(model, model.num_hidden_layers - 1, data, config, rng, targets)


def _train_stack(model, images, one_hot, config):
    rng = np.random.default_rng(config.seed)
    data = np.asarray(images, dtype=np.float64)
    for layer in range(model.num_hidden_layers - 1):
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


def retrain_quantized(model, pmap, images, one_hot, config) -> DdbnModel:
    """Continue CD training from the current (quantized) parameters.
    The model's parameters are re-quantized after every update; the
    update steps themselves accumulate in full-precision masters so
    that coarse formats do not swallow small gradients. Pruned neurons
    stay at zero."""
    out = model.apply_precision(pmap)
    _train_stack(out, images, one_hot, config)
    return out


def evaluate_accuracy(model, images, labels, mode="mean_field",
                      samples=10, seed=0):
    """Fraction of samples classified correctly."""
    if len(images) == 0:
        raise ValueError("evaluation set is empty")
    preds, _ = model.classify(images, mode, samples, seed)
    return int((preds == np.asarray(labels)).sum()) / len(images)


def confusion_counts(model, images, labels, mode="mean_field",
                     samples=10, seed=0):
    """10x10 matrix of (true label, predicted label) counts."""
    preds, _ = model.classify(images, mode, samples, seed)
    counts = np.zeros((10, 10), dtype=np.int64)
    np.add.at(counts, (np.asarray(labels), preds), 1)
    return counts


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
        count = int(np.prod(shape))
        return np.frombuffer(self.take(count * 8), dtype="<f8").reshape(shape).copy()


def load_model(path) -> DdbnModel:
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 10 or data[:4] != MODEL_MAGIC:
        raise ModelFileError(f"{path}: not a model file (bad magic)")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) != stored_crc:
        raise ChecksumError(f"{path}: CRC32 mismatch, file is corrupted")
    r = _Reader(data[:-4], path)
    r.take(4)
    (version,) = r.unpack("<H")
    if version != MODEL_VERSION:
        raise VersionMismatch(
            f"{path}: format version {version}, this build reads {MODEL_VERSION}")
    (n_sizes,) = r.unpack("<H")
    if n_sizes < 3:
        raise ModelFileError(f"{path}: {n_sizes} layer sizes, a DDBN needs at least 3")
    sizes = list(r.unpack(f"<{n_sizes}I"))
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
        pmap = PrecisionMap(hidden_bits, cfb, gfb, wib, afb)
    (meta_len,) = r.unpack("<I")
    try:
        metadata = json.loads(r.take(meta_len).decode())
    except ValueError as e:  # not UTF-8, or not JSON
        raise ModelFileError(f"{path}: bad metadata: {e}") from e
    if r.pos != len(r.data):
        raise ModelFileError(
            f"{path}: {len(r.data) - r.pos} unexpected bytes before the checksum")
    params = weights + h_biases + v_biases + [class_weights, class_bias]
    if not all(np.isfinite(p).all() for p in params):
        raise ModelFileError(f"{path}: a parameter is not finite")
    if pmap is not None:
        top = max([cfb, gfb] + [int(b.max(initial=0)) for b in hidden_bits])
        try:
            pmap.weight_format(top)
            pmap.activation_format(top)
        except ValueError as e:
            raise ModelFileError(f"{path}: bit budget {top}: {e}") from e
    return DdbnModel(sizes, weights, h_biases, v_biases, class_weights,
                     class_bias, pmap, metadata)


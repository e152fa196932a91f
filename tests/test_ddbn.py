import copy
import itertools
import math
import re
import struct
import warnings
import zlib

import numpy as np
import pytest
from conftest import activation_format, weight_format
from hypothesis import given, settings
from hypothesis import strategies as st

from approxdbn import ddbn
from approxdbn.criticality import criticality_scores
from approxdbn.ddbn import (
    DdbnModel,
    ModelFileError,
    PrecisionMap,
    TrainConfig,
    evaluate_accuracy,
    load_model,
    quantize_all,
    retrain_quantized,
    save_model,
    sigmoid,
    softmax,
    train_ddbn,
)


def zero_model(layer_sizes):
    m = DdbnModel.random_init(layer_sizes, seed=0, scale=0.0)
    return m


@pytest.fixture
def tiny_data():
    rng = np.random.default_rng(3)
    X = (rng.random((60, 12)) > 0.5).astype(float)
    y = rng.integers(0, 10, 60)
    return X, np.eye(10)[y], y


class TestSigmoidSoftmax:
    def test_sigmoid_at_zero(self):
        assert sigmoid(0.0) == 0.5

    def test_sigmoid_symmetry(self):
        x = np.linspace(-30, 30, 101)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-12)

    def test_sigmoid_saturation(self):
        assert abs(sigmoid(100.0) - 1.0) < 1e-12

    @pytest.mark.parametrize("dtype,low", [(np.float32, -89.0), (np.float64, -710.0)])
    def test_sigmoid_keeps_its_precision_and_underflows_quietly(self, dtype, low):
        # exp(-x) overflows below -88 in float32 and -709 in float64; the limit is +0.0
        x = np.array([low, -1.0, 0.0, 2.5], dtype=dtype)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = sigmoid(x)
        assert out.dtype == dtype
        assert out[0] == 0.0 and not np.signbit(out[0])
        with np.errstate(over="ignore"):
            want = 1.0 / (1.0 + np.exp(-x))
        assert out.tobytes() == want.astype(dtype).tobytes()

    def test_sigmoid_of_integers_is_float64(self):
        assert sigmoid(np.arange(3)).dtype == np.float64

    def test_softmax_uniform(self):
        np.testing.assert_allclose(softmax(np.full(10, 3.7)), 0.1, atol=1e-15)

    def test_softmax_stable(self):
        out = softmax(np.array([1000.0, 0.0]))
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [1.0, 0.0], atol=1e-12)

    def test_softmax_exact_ratio(self):
        np.testing.assert_allclose(
            softmax(np.log(np.array([1.0, 3.0]))), [0.25, 0.75], atol=1e-12)

    def test_softmax_sums_to_one(self):
        rng = np.random.default_rng(0)
        z = rng.normal(size=(50, 10)) * 10
        np.testing.assert_allclose(softmax(z).sum(axis=1), 1.0, atol=1e-12)


class TestHiddenProbs:
    def test_zero_parameters_give_half(self):
        m = zero_model([4, 3, 10])
        np.testing.assert_array_equal(m.hidden_probs(0, np.ones((2, 4))), 0.5)

    def test_pruned_neuron_outputs_zero(self):
        m = DdbnModel.random_init([4, 3, 10], seed=1)
        pmap = PrecisionMap.uniform([3], 8)
        pmap.hidden_frac_bits[0][1] = 0
        q = m.apply_precision(pmap)
        a = q.hidden_probs(0, np.ones((5, 4)))
        np.testing.assert_array_equal(a[:, 1], 0.0)

    def test_balanced_weights(self):
        m = zero_model([2, 1, 10])
        m.weights[0] = np.array([[1.0], [-1.0]])
        assert m.hidden_probs(0, np.array([[1.0, 1.0]]))[0, 0] == 0.5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            zero_model([4, 3, 10]).hidden_probs(0, np.ones((1, 5)))


class TestClassProbs:
    def test_zero_parameters_uniform(self):
        m = zero_model([4, 3, 10])
        np.testing.assert_allclose(m.class_probs(np.ones((2, 3))), 0.1, atol=1e-15)

    def test_dominant_logit(self):
        m = zero_model([4, 1, 10])
        m.class_bias = np.array([10.0] + [0.0] * 9)
        _, probs = m.classify(np.zeros(4))
        assert np.argmax(probs) == 0

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(5)
        m = zero_model([4, 3, 10])
        m.class_weights = rng.normal(size=(3, 10))
        m.class_bias = rng.normal(size=10)
        h = rng.random((6, 3))
        perm = rng.permutation(10)
        base = m.class_probs(h)
        m.class_weights = m.class_weights[:, perm]
        m.class_bias = m.class_bias[perm]
        np.testing.assert_allclose(m.class_probs(h), base[:, perm], atol=1e-15)


def exact_stochastic_expectation(model, x):
    """Brute-force oracle: expectation and variance of the class
    probabilities under enumeration of all binary top-hidden states
    (single-hidden-layer model)."""
    assert model.num_hidden_layers == 1
    a = model.hidden_probs(0, x[None, :])[0]
    mean = np.zeros(model.layer_sizes[-1])
    second = np.zeros(model.layer_sizes[-1])
    for bits in itertools.product([0.0, 1.0], repeat=len(a)):
        h = np.array(bits)
        p = np.prod(np.where(h > 0, a, 1.0 - a))
        ac = model.class_probs(h[None, :])[0]
        mean += p * ac
        second += p * ac ** 2
    return mean, second - mean ** 2


class TestClassify:
    def test_zero_model_tie_breaks_to_class_zero(self):
        m = zero_model([4, 3, 10])
        x = np.ones(4)
        for mode in ("mean_field", "stochastic"):
            pred, probs = m.classify(x, mode=mode, samples=5, seed=1)
            assert pred == 0
            np.testing.assert_allclose(probs, 0.1, atol=1e-15)

    def test_stochastic_deterministic_for_seed(self):
        m = DdbnModel.random_init([6, 4, 3, 10], seed=2, scale=0.5)
        x = (np.arange(6) % 2).astype(float)
        p1 = m.classify(x, mode="stochastic", samples=20, seed=9)
        p2 = m.classify(x, mode="stochastic", samples=20, seed=9)
        assert p1[0] == p2[0]
        np.testing.assert_array_equal(p1[1], p2[1])

    def test_rejects_bad_mode_and_samples(self):
        m = zero_model([4, 3, 10])
        with pytest.raises(ValueError):
            m.classify(np.ones(4), mode="bogus")
        with pytest.raises(ValueError):
            m.classify(np.ones(4), mode="stochastic", samples=0)

    def test_enumeration_oracle(self):
        rng = np.random.default_rng(11)
        m = DdbnModel.random_init([5, 2, 10], seed=11, scale=1.0)
        m.hidden_biases[0] = rng.normal(size=2)
        m.class_bias = rng.normal(size=10)
        x = (rng.random(5) > 0.5).astype(float)
        expect, var = exact_stochastic_expectation(m, x)
        S = 4000
        _, avg = m.classify(x, mode="stochastic", samples=S, seed=4)
        bound = 3.0 * np.sqrt(var / S) + 1e-12
        assert np.all(np.abs(avg - expect) <= bound)


class TestTraining:
    def test_deterministic_given_seed(self, tiny_data):
        X, T, _ = tiny_data
        cfg = TrainConfig(epochs=2, batch_size=10, seed=7)
        m1 = train_ddbn(X, T, [12, 5, 4, 10], cfg)
        m2 = train_ddbn(X, T, [12, 5, 4, 10], cfg)
        for a, b in zip(m1.weights, m2.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(m1.class_weights, m2.class_weights)

    def test_cd_zero_update_on_exact_reconstruction(self):
        # zero parameters reconstruct an all-0.5 visible vector exactly,
        # so positive and negative statistics cancel
        m = zero_model([4, 3, 10])
        data = np.full((1, 4), 0.5)
        cfg = TrainConfig(epochs=1, batch_size=1, seed=0)
        ddbn._train_rbm(m, 0, data, cfg, np.random.default_rng(0))
        np.testing.assert_array_equal(m.weights[0], 0.0)
        np.testing.assert_array_equal(m.hidden_biases[0], 0.0)
        np.testing.assert_array_equal(m.visible_biases[0], 0.0)

    def test_rejects_empty_training_set(self):
        with pytest.raises(ValueError):
            train_ddbn(np.zeros((0, 4)), np.zeros((0, 10)), [4, 3, 10],
                       TrainConfig())

    def test_config_validation(self):
        for rate in (0.0, math.nan, math.inf):
            with pytest.raises(ValueError, match="learning_rate"):
                TrainConfig(learning_rate=rate)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    @pytest.mark.parametrize("field,value", [
        ("epochs", 2.0), ("batch_size", 2.5), ("seed", 1.5), ("epochs", True),
        ("seed", np.float64(1)),
    ])
    def test_non_integer_counts_rejected(self, field, value):
        """At construction, not as a ``TypeError`` from ``range`` mid-training,
        and ``epochs=True`` does not train one epoch."""
        with pytest.raises(ValueError, match=re.escape(f"{field} {value!r}: must be an integer")):
            TrainConfig(**{field: value})

    def test_numpy_integer_counts_kept_as_int(self):
        cfg = TrainConfig(epochs=np.int64(2), batch_size=np.int32(5), seed=np.uint8(1))
        assert [type(v) for v in (cfg.epochs, cfg.batch_size, cfg.seed)] == [int] * 3

    def test_diverged_training_raises(self, tiny_data):
        X, T, _ = tiny_data
        cfg = TrainConfig(epochs=1, batch_size=10, learning_rate=1.7e308)
        with pytest.warns(RuntimeWarning) as record, \
                pytest.raises(FloatingPointError, match="not finite"):
            train_ddbn(X, T, [12, 5, 4, 10], cfg)
        assert any("overflow" in str(w.message) for w in record)

    def test_diverged_training_stops_after_first_bad_epoch(self, tiny_data, monkeypatch):
        # 60 samples in batches of 10: 6 updates per epoch, 20 epochs; an update
        # of layer 0's RBM makes three momentum steps: W, hidden and visible bias
        X, T, _ = tiny_data
        calls, step = [], ddbn._momentum_step

        def counting(vel, master, grad):
            calls.append(master.shape)
            step(vel, master, grad)

        monkeypatch.setattr(ddbn, "_momentum_step", counting)
        cfg = TrainConfig(epochs=20, batch_size=10, learning_rate=1.7e308)
        with pytest.warns(RuntimeWarning), \
                pytest.raises(FloatingPointError, match="not finite"):
            train_ddbn(X, T, [12, 5, 4, 10], cfg)
        assert calls[:3] == [(12, 5), (5,), (12,)]
        assert len(calls) % 3 == 0 and 1 <= len(calls) // 3 <= 6


class TestRetrainQuantized:
    def test_high_precision_map_matches_plain_training(self, tiny_data):
        X, T, _ = tiny_data
        cfg = TrainConfig(epochs=1, batch_size=10, seed=5)
        base = train_ddbn(X, T, [12, 5, 4, 10], cfg)
        cont_cfg = TrainConfig(epochs=1, batch_size=10, seed=6)
        plain = copy.deepcopy(base)
        ddbn._train_stack(plain, X, T, cont_cfg)
        pmap = PrecisionMap.uniform([5, 4], 48)
        quant = retrain_quantized(base, pmap, X, T, cont_cfg)
        for a, b in zip(plain.weights, quant.weights):
            np.testing.assert_allclose(a, b, atol=1e-8)
        np.testing.assert_allclose(plain.class_weights, quant.class_weights,
                                   atol=1e-8)

    def test_all_zero_map_keeps_parameters_at_zero(self, tiny_data):
        X, T, _ = tiny_data
        cfg = TrainConfig(epochs=1, batch_size=10, seed=5)
        base = train_ddbn(X, T, [12, 5, 4, 10], cfg)
        pmap = PrecisionMap.uniform([5, 4], 0)
        pmap.class_frac_bits = 0
        pmap.global_frac_bits = 0
        out = retrain_quantized(base, pmap, X, T, cfg)
        for w in out.weights + out.hidden_biases + out.visible_biases:
            np.testing.assert_array_equal(w, 0.0)
        np.testing.assert_array_equal(out.class_weights, 0.0)

    def test_fixpoint_invariant_after_retraining(self, tiny_data):
        X, T, _ = tiny_data
        cfg = TrainConfig(epochs=1, batch_size=10, seed=5)
        base = train_ddbn(X, T, [12, 5, 4, 10], cfg)
        pmap = PrecisionMap.uniform([5, 4], 6)
        pmap.hidden_frac_bits[0][2] = 0
        out = retrain_quantized(base, pmap, X, T, cfg)
        again = out.apply_precision(pmap)
        for a, b in zip(out.weights, again.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(out.class_weights, again.class_weights)
        # pruned neuron's incoming parameters pinned at zero
        np.testing.assert_array_equal(out.weights[0][:, 2], 0.0)

    def test_requantizing_leaves_the_masters_unquantized(self, tiny_data):
        # _cd quantizes its full-precision masters after every update
        X, T, _ = tiny_data
        model = train_ddbn(X, T, [12, 5, 4, 10], TrainConfig(epochs=1, batch_size=10))
        pmap = PrecisionMap.uniform([5, 4], 3)
        pmap.hidden_frac_bits[0][[1, 4]] = 0
        model = model.apply_precision(pmap)
        rng = np.random.default_rng(4)
        for layer, top, live in ((0, False, np.array([0, 2, 3])), (1, True, slice(None))):
            w, hb, *rest = ddbn._rbm_params(model, layer, top)
            master = [p + rng.uniform(-0.01, 0.01, p.shape) for p in
                      [ddbn._columns(w, live), ddbn._columns(hb, live), *rest]]
            before = [p.tobytes() for p in master]
            quantized = [ddbn._quantize_groups(p, *g) for p, g in
                         zip(master, ddbn._rbm_groups(pmap, layer, live, top))]
            assert [p.tobytes() for p in master] == before
            assert all(q is not p and q.tobytes() != p.tobytes()
                       for q, p in zip(quantized, master))

    def test_diverged_retraining_raises(self, tiny_data):
        # one update makes some masters infinite but none NaN; quantizing
        # clips them to finite values, so only the masters show it
        X, T, _ = tiny_data
        base = train_ddbn(X, T, [12, 5, 4, 10],
                          TrainConfig(epochs=1, batch_size=10, seed=5))
        cfg = TrainConfig(epochs=1, batch_size=len(X), learning_rate=1.7e308)
        with pytest.warns(RuntimeWarning) as record, \
                pytest.raises(FloatingPointError, match="not finite"):
            retrain_quantized(base, PrecisionMap.uniform([5, 4], 6), X, T, cfg)
        assert any("overflow" in str(w.message) for w in record)


def _every_rbm_stack(model, images, one_hot, config):
    """The reference for ``_train_stack(..., first=0)``: CD on every RBM,
    bottom to top, all from one generator seeded with ``config.seed``."""
    rng = np.random.default_rng(config.seed)
    data = images
    for layer in range(model.num_hidden_layers - 1):
        ddbn._train_rbm(model, layer, data, config, rng)
        data = model.hidden_probs(layer, data)
    ddbn._train_top_rbm(model, data, one_hot, config, rng)


def _rbm_bytes(model, layers):
    """Bytes of [W, hidden bias, visible bias] of the RBMs under ``layers``."""
    return [p.tobytes() for layer in layers for p in ddbn._rbm_params(model, layer, False)]


def _parameters(model):
    return [p for layer in range(model.num_hidden_layers)
            for p in ddbn._rbm_params(model, layer, False)] + [
        model.class_weights, model.class_bias]


def _parameter_bytes(model):
    return [p.tobytes() for p in _parameters(model)]


class TestTrainStack:
    """``_train_stack(..., first)`` runs CD on the RBMs from hidden layer
    ``first`` up; the layers below only pass the data up."""

    SIZES = [12, 6, 5, 4, 10]

    def _quantized(self, X, T):
        base = train_ddbn(X, T, self.SIZES, TrainConfig(epochs=1, batch_size=10, seed=5))
        pmap = PrecisionMap.uniform(self.SIZES[1:-1], 4)
        for layer, idx in ((0, 1), (1, 2), (2, 0)):
            pmap.hidden_frac_bits[layer][idx] = 0
        return base, pmap

    def test_first_zero_trains_every_rbm_as_before(self, tiny_data):
        X, T, _ = tiny_data
        cfg = TrainConfig(epochs=2, batch_size=10, seed=7)
        want = DdbnModel.random_init(self.SIZES, seed=cfg.seed)
        _every_rbm_stack(want, X, T, cfg)
        assert _parameter_bytes(train_ddbn(X, T, self.SIZES, cfg)) == _parameter_bytes(want)
        base, pmap = self._quantized(X, T)
        want = base.apply_precision(pmap)
        _every_rbm_stack(want, X, T, cfg)
        for first in ({}, {"first": 0}):
            got = retrain_quantized(base, pmap, X, T, cfg, **first)
            assert _parameter_bytes(got) == _parameter_bytes(want)

    def test_top_only_keeps_lower_rbms(self, tiny_data):
        X, T, _ = tiny_data
        cfg = TrainConfig(epochs=2, batch_size=10, seed=7)
        base, pmap = self._quantized(X, T)
        before = base.apply_precision(pmap)
        top = before.num_hidden_layers - 1
        out = retrain_quantized(base, pmap, X, T, cfg, first=top)
        assert _rbm_bytes(out, range(top)) == _rbm_bytes(before, range(top))
        assert out.weights[top].tobytes() != before.weights[top].tobytes()
        # the top RBM's CD is the first to draw from the generator
        want = base.apply_precision(pmap)
        data = X
        for layer in range(top):
            data = want.hidden_probs(layer, data)
        ddbn._train_top_rbm(want, data, T, cfg, np.random.default_rng(cfg.seed))
        assert _parameter_bytes(out) == _parameter_bytes(want)
        for layer, bits in enumerate(pmap.hidden_frac_bits):
            np.testing.assert_array_equal(out.weights[layer][:, bits == 0], 0.0)
            np.testing.assert_array_equal(out.hidden_biases[layer][bits == 0], 0.0)
            assert not np.signbit(out.weights[layer][:, bits == 0]).any()
        assert _parameter_bytes(out.apply_precision(pmap)) == _parameter_bytes(out)


def _full_width_cd(model, layer, data, config, rng, targets=None):
    """The reference for ``ddbn._cd``: CD-1 on every column of the RBM under
    hidden layer ``layer``, pruned or not, each batch step in float32, writing
    the float64 masters into the model and requantizing it after every update."""
    top = targets is not None
    master = [p.copy() for p in ddbn._rbm_params(model, layer, top)]
    vel = [np.zeros_like(p) for p in master]
    n = len(data)
    for _ in range(config.epochs):
        order = rng.permutation(n)
        for start in range(0, n, config.batch_size):
            sel = order[start:start + config.batch_size]
            x0 = data[sel].astype(np.float32)
            t0 = targets[sel].astype(np.float32) if top else None
            w, hb, vb, *cls = (p.astype(np.float32)
                               for p in ddbn._rbm_params(model, layer, top))

            def up(x, t):
                z = x @ w + hb
                if t is not None:
                    z += t @ cls[0].T
                return sigmoid(z)

            ph0 = up(x0, t0)
            h0 = (rng.random(ph0.shape) < ph0).astype(np.float32)
            x1 = sigmoid(h0 @ w.T + vb)
            t1 = (ddbn._sample_one_hot(softmax(h0 @ cls[0] + cls[1]), rng).astype(np.float32)
                  if top else None)
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
                assert g.dtype == np.float32
                vel[i] = ddbn.MOMENTUM * vel[i] + g
                master[i] = master[i] + vel[i]
            ddbn._set_rbm_params(model, layer, master)
            ddbn._requantize_layer(model, layer)
            if top:
                ddbn._requantize_class(model)


class TestLiveColumnCd:
    """``_cd`` trains only the live columns of a lower RBM under a map, and
    every column of the top RBM or of a model without one: the same bytes and
    generator state as CD on every column."""

    SIZES = [12, 6, 5, 4, 10]

    @pytest.mark.parametrize("layer,pruned", [
        (0, None),                        # no map, a lower RBM
        (2, None),                        # no map, the top RBM
        (2, {2: [0, 3]}),                 # the top RBM, pruned top neurons
        (0, {}),                          # layer 0, none pruned
        (0, {0: [1, 4], 1: [2]}),         # layer 0, some pruned
        (0, {0: range(6)}),               # layer 0, all pruned
        (1, {0: [0, 5], 1: [1, 2, 4]}),   # layer 1: its visible bias follows layer 0
    ])
    def test_bytes_and_generator_match_every_column_cd(self, tiny_data, layer, pruned):
        X, T, _ = tiny_data
        model = train_ddbn(X, T, self.SIZES, TrainConfig(epochs=1, batch_size=10, seed=5))
        if pruned is not None:
            pmap = PrecisionMap.uniform(self.SIZES[1:-1], 4)
            for k, idx in pruned.items():
                pmap.hidden_frac_bits[k][list(idx)] = 0
            model = model.apply_precision(pmap)
        data = X
        for k in range(layer):
            data = model.hidden_probs(k, data)
        targets = T if layer == model.num_hidden_layers - 1 else None
        # a short last batch
        self._assert_matches(model, layer, data, TrainConfig(epochs=2, batch_size=25),
                             targets)

    def test_workload_width_matches_every_column_cd(self):
        # the workload's widths and batch: the gradients' products are not exact
        # sums, and 70 live columns must give the bytes of 100
        rng = np.random.default_rng(0)
        X = (rng.random((300, 784)) > 0.7).astype(float)
        pmap = PrecisionMap.uniform([100, 50], 6)
        pmap.hidden_frac_bits[0][rng.choice(100, 30, replace=False)] = 0
        model = DdbnModel.random_init([784, 100, 50, 10], seed=1, scale=0.05)
        self._assert_matches(model.apply_precision(pmap), 0, X,
                             TrainConfig(epochs=1, batch_size=100))

    @pytest.mark.parametrize("pruned,mixed", [(0, False), (60, True)])
    def test_wide_layer_matches_every_column_cd(self, pruned, mixed):
        # 784 x 200, as layer 0 of the sweep workload; mixed live budgets too
        rng = np.random.default_rng(0)
        X = (rng.random((250, 784)) > 0.7).astype(float)
        model = DdbnModel.random_init([784, 200, 50, 10], seed=1, scale=0.05)
        if pruned:
            pmap = PrecisionMap.uniform([200, 50], 6)
            rest = 200 - pruned
            bits = [4, 6, 9] if mixed else [6]
            counts = [rest // len(bits)] * (len(bits) - 1)
            pmap.hidden_frac_bits[0] = rng.permutation(
                np.repeat([0, *bits], [pruned, *counts, rest - sum(counts)]))
            model = model.apply_precision(pmap)
        # a short last batch
        self._assert_matches(model, 0, X, TrainConfig(epochs=1, batch_size=100))

    @staticmethod
    def _assert_matches(model, layer, data, cfg, targets=None):
        want, got = copy.deepcopy(model), copy.deepcopy(model)
        want_rng, got_rng = np.random.default_rng(9), np.random.default_rng(9)
        _full_width_cd(want, layer, data, cfg, want_rng, targets)
        ddbn._cd(got, layer, data, cfg, got_rng, targets)
        assert _parameter_bytes(got) == _parameter_bytes(want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state
        assert _parameter_bytes(got) != _parameter_bytes(model)


class TestFloat32Cd:
    """CD's batch step runs in float32; what it leaves in the model is float64,
    on its map's grid, +0.0 in pruned columns, and saved and loaded unchanged."""

    SIZES = [12, 6, 5, 4, 10]

    @staticmethod
    def _assert_stored(model, tmp_path):
        params = _parameters(model)
        assert all(p.dtype == np.float64 for p in params)
        save_model(model, tmp_path / "m.bin")
        assert _parameter_bytes(load_model(tmp_path / "m.bin")) == _parameter_bytes(model)

    def test_trained_and_retrained_parameters(self, tiny_data, tmp_path):
        X, T, _ = tiny_data
        cfg = TrainConfig(epochs=2, batch_size=25, seed=5)
        model = train_ddbn(X, T, self.SIZES, cfg)
        self._assert_stored(model, tmp_path)
        pmap = PrecisionMap.uniform(self.SIZES[1:-1], 5)
        pmap.hidden_frac_bits[0][[1, 4]] = 3
        for layer, idx in ((0, [0, 5]), (1, [2]), (2, [1, 3])):
            pmap.hidden_frac_bits[layer][idx] = 0
        out = retrain_quantized(model, pmap, X, T, cfg)
        self._assert_stored(out, tmp_path)
        assert _parameter_bytes(out.apply_precision(pmap)) == _parameter_bytes(out)
        assert _parameter_bytes(out) != _parameter_bytes(model.apply_precision(pmap))
        for layer, bits in enumerate(pmap.hidden_frac_bits):
            pruned = [out.weights[layer][:, bits == 0], out.hidden_biases[layer][bits == 0]]
            if layer + 1 < out.num_hidden_layers:  # the visible bias above it
                pruned.append(out.visible_biases[layer + 1][bits == 0])
            for p in pruned:
                assert p.size and (p == 0.0).all() and not np.signbit(p).any()

    @pytest.mark.parametrize("quantized", [False, True])
    def test_preactivations_below_float32_exp_range_train_quietly(self, quantized):
        # binary rows with at least one 1 meet a -100 weight column: float32
        # exp(-z) overflows for every row, and the sigmoid's limit is +0.0
        rng = np.random.default_rng(2)
        X = (rng.random((40, 12)) > 0.5).astype(float)
        X[:, 0] = 1.0
        model = DdbnModel.random_init(self.SIZES, seed=1, scale=0.05)
        model.weights[0][:, 3] = -100.0
        if quantized:
            model = model.apply_precision(PrecisionMap.uniform(self.SIZES[1:-1], 6))
        z = X.astype(np.float32) @ model.weights[0].astype(np.float32)
        assert (z[:, 3] + model.hidden_biases[0][3] < -88.8).all()
        before = _parameter_bytes(model)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ddbn._cd(model, 0, X, TrainConfig(epochs=2, batch_size=10),
                     np.random.default_rng(0))
        assert _parameter_bytes(model) != before
        assert all(np.isfinite(p).all() for p in _parameters(model))


class TestEvaluate:
    def test_perfect_model(self):
        m = zero_model([4, 2, 3])
        m.class_weights = np.array([[5.0, 0.0, -5.0], [0.0, 0.0, 0.0]])
        X = np.eye(4)[:3, :]
        # hidden output is 0.5 everywhere; class 0 has the largest logit
        assert evaluate_accuracy(m, X, np.zeros(3, dtype=int)) == 1.0

    def test_zero_model_predicts_class_zero(self):
        m = zero_model([4, 3, 10])
        X = np.ones((20, 4))
        assert evaluate_accuracy(m, X, np.zeros(20, dtype=int)) == 1.0
        balanced = np.repeat(np.arange(10), 2)
        assert evaluate_accuracy(m, X, balanced) == 0.1

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            evaluate_accuracy(zero_model([4, 3, 10]), np.zeros((0, 4)), np.zeros(0))


@pytest.mark.parametrize("value", [np.nan, -np.inf])
@pytest.mark.parametrize("call,name", [
    ("classify", "images"), ("stochastic", "images"), ("evaluate_accuracy", "images"),
    ("confusion_counts", "images"), ("evaluator", "images"),
    ("criticality", "inputs"), ("criticality", "targets"),
    ("train", "images"), ("train", "one_hot"), ("retrain", "images"),
    ("retrain", "one_hot"),
])
def test_non_finite_input_raises(tiny_data, call, name, value):
    """One non-finite value fails the call loudly, naming the input, instead of
    quietly changing its result."""
    X, T, y = (a.copy() for a in tiny_data)
    (X if name in ("images", "inputs") else T)[3, 2] = value
    model = DdbnModel.random_init([12, 5, 4, 10], seed=0)
    model = model.apply_precision(PrecisionMap.uniform([5, 4], 6))
    config = TrainConfig(epochs=1, batch_size=10)
    calls = {
        "classify": lambda: model.classify(X),
        "stochastic": lambda: model.classify(X, "stochastic"),
        "evaluate_accuracy": lambda: evaluate_accuracy(model, X, y),
        "confusion_counts": lambda: ddbn.confusion_counts(model, X, y),
        "evaluator": lambda: ddbn.CandidateEvaluator(model, X, y),
        "criticality": lambda: criticality_scores(model, X, T),
        "train": lambda: train_ddbn(X, T, [12, 5, 4, 10], config),
        "retrain": lambda: retrain_quantized(model, model.precision, X, T, config),
    }
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        calls[call]()


@pytest.mark.parametrize("call", ["evaluate_accuracy", "confusion_counts", "evaluator"])
@pytest.mark.parametrize("rows,labels,message", [
    (0, 0, "evaluation set is empty"),
    (60, 59, "60 images but 59 labels"),
    (59, 60, "59 images but 60 labels"),
    (0, 3, "0 images but 3 labels"),
])
def test_bad_evaluation_set_raises(tiny_data, call, rows, labels, message):
    """An empty evaluation set, or one whose image and label counts differ, fails
    with a ``ValueError`` that says so, not a division by zero or a numpy error."""
    X, _, y = tiny_data
    X, y = X[:rows], np.resize(y, labels)
    model = DdbnModel.random_init([12, 5, 4, 10], seed=0)
    model = model.apply_precision(PrecisionMap.uniform([5, 4], 6))
    calls = {
        "evaluate_accuracy": lambda: evaluate_accuracy(model, X, y),
        "confusion_counts": lambda: ddbn.confusion_counts(model, X, y),
        "evaluator": lambda: ddbn.CandidateEvaluator(model, X, y).cut(model.precision),
    }
    with pytest.raises(ValueError, match=message):
        calls[call]()


def test_check_finite_tests_elements_not_the_sum():
    """A finite array whose sum overflows passes; a NaN, either infinity, or +inf
    and -inf together (their sum is NaN) fail."""
    ddbn.check_finite(np.full((3, 4), np.finfo(np.float64).max), "x")
    ddbn.check_finite(np.array([1e308, 1e308, -np.finfo(np.float64).max]), "x")
    for bad in ([1.0, np.nan], [np.inf, 1.0], [1.0, -np.inf], [np.inf, -np.inf]):
        with pytest.raises(ValueError, match="x must be finite"):
            ddbn.check_finite(np.array(bad), "x")


class TestQuantizedInference:
    def test_activation_bounds_and_probability_sums(self, tiny_data):
        X, T, _ = tiny_data
        m = train_ddbn(X, T, [12, 5, 4, 10],
                       TrainConfig(epochs=1, batch_size=10, seed=1))
        acts = m.forward_hidden(X)
        assert all(np.all((a >= 0) & (a <= 1)) for a in acts)
        np.testing.assert_allclose(m.class_probs(acts[-1]).sum(axis=1), 1.0, atol=1e-9)
        for n in (8, 4, 2):
            q = m.apply_precision(PrecisionMap.uniform([5, 4], n))
            acts = q.forward_hidden(X)
            assert all(np.all((a >= 0) & (a <= 1)) for a in acts)
            sums = q.class_probs(acts[-1]).sum(axis=1)
            assert np.all(np.abs(sums - 1.0) <= 10 * 2.0 ** -n)

    def test_budget_beyond_64_bits_rejected(self):
        with pytest.raises(ValueError, match="bit budget 57"):
            PrecisionMap.uniform([4, 3], 57)  # Q8.57
        pmap = PrecisionMap.uniform([4, 3], 8)
        pmap.hidden_frac_bits[1][0] = 57
        with pytest.raises(ValueError, match="bit budget 57"):
            DdbnModel.random_init([6, 4, 3, 10], seed=0).apply_precision(pmap)

    @pytest.mark.parametrize("hidden,class_bits,global_bits", [
        ([[-2, 3, 3, 3, 3], [3] * 4], 3, 3),
        ([[3] * 5, [3] * 4], -1, 3),
        ([[3] * 5, [3] * 4], 3, -1),
    ])
    def test_negative_budget_rejected(self, hidden, class_bits, global_bits):
        with pytest.raises(ValueError, match="nonnegative"):
            PrecisionMap([np.array(b) for b in hidden], class_bits, global_bits)

    @pytest.mark.parametrize("hidden,fields,name", [
        ([[3.7, 2.2]], {}, r"hidden_frac_bits\[0\]"),
        ([[3, 2], [2.0]], {}, r"hidden_frac_bits\[1\]"),
        ([[3, 2]], {"class_frac_bits": 3.5}, "class_frac_bits 3.5"),
        ([[3, 2]], {"global_frac_bits": 3.0}, "global_frac_bits 3.0"),
        ([[3, 2]], {"weight_int_bits": 7.5}, "weight_int_bits 7.5"),
        ([[3, 2]], {"activation_frac_bits": np.float64(8)}, "activation_frac_bits"),
    ])
    def test_non_integer_budget_rejected(self, hidden, fields, name):
        """Not truncated, and not accepted to fail only when saved."""
        with pytest.raises(ValueError, match=f"{name}.*must be integers"):
            PrecisionMap(hidden, **{"class_frac_bits": 3, "global_frac_bits": 3, **fields})

    def test_numpy_integer_budgets_accepted(self, tmp_path):
        pmap = PrecisionMap([np.array([3, 0], np.int32)], np.int64(3), np.uint8(2),
                            weight_int_bits=np.int16(7))
        model = DdbnModel.random_init([6, 2, 10], seed=0).apply_precision(pmap)
        save_model(model, tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin").precision
        assert loaded.hidden_frac_bits[0].tolist() == [3, 0]
        assert (loaded.class_frac_bits, loaded.global_frac_bits,
                loaded.weight_int_bits) == (3, 2, 7)

    def test_budgets_given_as_lists_are_int64_arrays(self):
        pmap = PrecisionMap([[3] * 5, [2] * 4], 3, 3)
        assert all(b.dtype == np.int64 for b in pmap.hidden_frac_bits)
        assert pmap.total_hidden_bits() == 23
        assert pmap.copy().total_hidden_bits() == 23

    @pytest.mark.parametrize("field,value", [
        ("weight_int_bits", 300), ("weight_int_bits", 64), ("weight_int_bits", -1),
        ("activation_frac_bits", -1), ("activation_frac_bits", 65),
    ])
    def test_formats_checked_when_every_budget_is_zero(self, field, value):
        """A map that prunes every neuron still has formats for its other fields,
        which must fit 64 bits: it is rejected when built, not when saved."""
        with pytest.raises(ValueError, match=f"{field} {value}"):
            PrecisionMap([np.zeros(4, np.int64)], 0, 0, **{field: value})

    def test_widest_fields_of_a_pruned_map_round_trip(self, tmp_path):
        pmap = PrecisionMap([np.zeros(4, np.int64)], 0, 0, weight_int_bits=63,
                            activation_frac_bits=64)
        model = DdbnModel.random_init([6, 4, 10], seed=0).apply_precision(pmap)
        save_model(model, tmp_path / "m.bin")
        loaded = load_model(tmp_path / "m.bin").precision
        assert (loaded.weight_int_bits, loaded.activation_frac_bits) == (63, 64)

    def test_requantization_is_noop(self, tiny_data):
        X, T, _ = tiny_data
        m = train_ddbn(X, T, [12, 5, 4, 10],
                       TrainConfig(epochs=1, batch_size=10, seed=1))
        pmap = PrecisionMap.uniform([5, 4], 5)
        q = m.apply_precision(pmap)
        q2 = q.apply_precision(pmap)
        for a, b in zip(q.weights, q2.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(q.visible_biases, q2.visible_biases):
            np.testing.assert_array_equal(a, b)

    def test_pruning_equals_model_surgery(self):
        rng = np.random.default_rng(21)
        m = DdbnModel.random_init([6, 4, 3, 10], seed=21, scale=0.7)
        pmap = PrecisionMap.uniform([4, 3], 8)
        pmap.hidden_frac_bits[0][1] = 0
        pruned = m.apply_precision(pmap)

        surgery = copy.deepcopy(m)
        keep = [0, 2, 3]
        surgery.layer_sizes = [6, 3, 3, 10]
        surgery.weights[0] = surgery.weights[0][:, keep]
        surgery.hidden_biases[0] = surgery.hidden_biases[0][keep]
        surgery.weights[1] = surgery.weights[1][keep, :]
        surgery.visible_biases[1] = surgery.visible_biases[1][keep]
        spmap = PrecisionMap.uniform([3, 3], 8)
        surgery = surgery.apply_precision(spmap)

        X = (rng.random((15, 6)) > 0.5).astype(float)
        _, p1 = pruned.classify(X)
        _, p2 = surgery.classify(X)
        np.testing.assert_array_equal(p1, p2)


def quantized_sigmoid_oracle(z, bits, pmap):
    """The activation of ``z`` column by column: quantized under column j's Qm.b,
    1 / (1 + exp(-z)), then quantized under its Q0.a; one row for a 1-d ``z``."""
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    out = np.empty_like(z)
    for j, b in enumerate(bits):
        zq = quantize_all(z[:, j], *weight_format(pmap, b).bounds)
        with np.errstate(over="ignore"):
            s = 1.0 / (1.0 + np.exp(-zq))
        out[:, j] = quantize_all(s, *activation_format(pmap, b).bounds)
    return out


def grid_and_half_steps(m, b):
    """Every value of the Qm.b grid and every half-step between two of them (ties
    of both signs), then +-0.0, values beyond +-2^(m-1) and +-inf."""
    k = np.arange(-2.0 ** (m - 1 + b), 2.0 ** (m - 1 + b))
    edge = 2.0 ** (m - 1)
    return np.concatenate([k, k[:-1] + 0.5]) / 2.0 ** b, np.array(
        [0.0, -0.0, edge, -edge - 0.5, 200.0, -200.0, 1e300, -1e300, np.inf, -np.inf])


class TestTableActivation:
    """Under a map whose Qm.b grids hold at most 2^16 values, ``activation`` looks
    each quantized sigmoid up; the bytes must be the direct formula's."""

    @pytest.fixture(autouse=True)
    def fresh_tables(self, monkeypatch):
        monkeypatch.setattr(ddbn, "_tables", {})

    @staticmethod
    def _model(bits, activation_frac_bits=0, weight_int_bits=8):
        model = DdbnModel.random_init([3, len(bits), 10], seed=0)
        model.precision = PrecisionMap([np.array(bits)], 8, 8, weight_int_bits,
                                       activation_frac_bits)
        return model

    @staticmethod
    def _activation(model, z, cols=slice(None)):
        """``model.activation(0, z, cols)`` and whether it took the direct path, which
        quantizes; the tables it needs are built first."""
        model.activation(0, z, cols)
        calls, real = [], ddbn.quantize_all
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(ddbn, "quantize_all", lambda *args: calls.append(1) or real(*args))
            out = model.activation(0, z, cols)
        return out, bool(calls)

    def _assert_table_matches(self, model, z, cols=slice(None)):
        out, direct = self._activation(model, z, cols)
        bits = model.precision.hidden_frac_bits[0][cols]
        assert not direct and out.shape == np.shape(z)
        assert out.tobytes() == quantized_sigmoid_oracle(z, bits, model.precision).tobytes()

    def test_every_grid_value_and_half_step(self):
        """One table per (weight_int_bits, activation_frac_bits, budget): the keys
        differ in activation_frac_bits alone, in one process."""
        for a, b in itertools.product((0, 6), range(9)):
            grid, extremes = grid_and_half_steps(8, b)
            model = self._model([b], activation_frac_bits=a)
            self._assert_table_matches(model, grid[:, None])
            self._assert_table_matches(model, extremes[:, None])
        assert sorted(ddbn._tables) == [(8, 0), (8, 6)]

    @pytest.mark.parametrize("activation_frac_bits", [0, 6])
    def test_mixed_budgets_pruned_columns_and_subsets(self, activation_frac_bits):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 9, 40)
        bits[[3, 17, 30]] = 0
        model = self._model(bits, activation_frac_bits)
        z = rng.normal(0.0, 6.0, (50, 40))
        z[:10] = np.round(z[:10] * 2.0 ** bits) / 2.0 ** bits  # on their grids
        z[10:20] = (np.floor(z[10:20] * 2.0 ** bits) + 0.5) / 2.0 ** bits  # ties
        z[20, :10] = [0.0, -0.0, np.inf, -np.inf, 1e300, -1e300, 128.0, -129.0, 3e-9, -3e-9]
        self._assert_table_matches(model, z)
        for cols in (np.array([17, 2, 30, 2]), np.flatnonzero(bits == bits.max()),
                     np.flatnonzero(bits == 0), np.array([], dtype=np.int64),
                     slice(5, 25)):
            self._assert_table_matches(model, z[:, cols], cols)
        one = np.array([4])
        self._assert_table_matches(model, z[0, one], one)  # one row, 1-d

    @pytest.mark.parametrize("weight_int_bits,budget,direct", [
        (8, 8, False), (8, 9, True), (7, 9, False), (8, 24, True)])
    def test_grids_beyond_two_to_the_16_take_the_direct_path(self, weight_int_bits,
                                                             budget, direct):
        model = self._model([budget, 0, budget], weight_int_bits=weight_int_bits)
        z = np.random.default_rng(1).normal(0.0, 8.0, (30, 3))
        out, took_direct = self._activation(model, z)
        assert took_direct is direct
        assert out.tobytes() == quantized_sigmoid_oracle(
            z, model.precision.hidden_frac_bits[0], model.precision).tobytes()

    def test_wide_format_takes_the_direct_path(self):
        model = self._model([56, 56, 0], activation_frac_bits=64)  # Q8.56, Q0.64
        z = np.random.default_rng(2).normal(0.0, 8.0, (30, 3))
        out, direct = self._activation(model, z)
        assert direct and ddbn._tables == {}
        assert out.tobytes() == quantized_sigmoid_oracle(
            z, model.precision.hidden_frac_bits[0], model.precision).tobytes()

    @pytest.mark.parametrize("bits", [[8, 0, 8], [5, 0, 8]])
    def test_nan_never_returns_a_table_entry(self, bits):
        """A NaN stays NaN in a live column and is +0.0 in a pruned one, as the direct
        path gives; the rest of the call is unchanged."""
        model = self._model(bits)
        z = np.random.default_rng(3).normal(0.0, 4.0, (6, 3))
        z[2] = np.nan
        out, direct = self._activation(model, z)
        assert direct
        want = quantized_sigmoid_oracle(z, bits, model.precision)
        assert np.isnan(out[2, [0, 2]]).all()
        assert out[2, 1] == 0.0 and not np.signbit(out[2, 1])
        np.testing.assert_array_equal(out, want)
        assert np.delete(out, 2, axis=0).tobytes() == np.delete(want, 2, axis=0).tobytes()

    def test_tables_keep_only_the_non_constant_middle(self):
        self._model([8]).activation(0, np.zeros((1, 1)))
        values, first, last, _ = ddbn._tables[(8, 0)]
        assert len(first) == 9 and len(values) < 6000  # the grids hold 2^8 to 2^16
        assert first[8] > -2.0 ** 15 and last[8] < 2.0 ** 15 - 1


def _model_needing(need, layer, bits, afb, rng):
    """A model on a uniform ``bits``-bit map with Q0.``afb`` activations (``afb`` 0:
    the budget's), and inputs of hidden layer ``layer`` on their grid: binary
    images at layer 0, Q0.afb values in [0, 1] above. Its weights are whole steps
    2^-bits; column 0 of ``layer`` sums to a count of steps of 2^-(a + bits) whose
    bit length is ``need`` (its largest or its smallest), its other columns to
    fewer, and hidden neurons 1 and 2 have bias +0.0, so that a row of zeros gives
    zero sums, of -0.0 terms under neuron 2's negative weights."""
    sizes = [*rng.integers(40, 80, 2).tolist(), 5, 10]  # fan-ins of 40 or more
    model = DdbnModel.random_init(sizes, seed=int(rng.integers(2 ** 16)), scale=0.0)
    a = afb if layer else 0
    top = 2 ** (7 + bits)  # a weight takes fewer than 2^(7 + bits) steps
    for lay in range(2):
        n_in, n_out = sizes[lay], sizes[lay + 1]
        steps = rng.integers(-8, 9, (n_in, n_out))
        steps[:, 2] = -rng.integers(1, 9, n_in)  # every weight negative
        if lay == layer:
            total = 2 ** (need - a) - 1 if rng.random() < 0.5 else 2 ** (need - a - 1)
            share = np.full(n_in, total // n_in)
            share[:total % n_in] += 1
            assert share.max() < top and (total << a).bit_length() == need
            steps[:, 0] = share * rng.choice([-1, 1], n_in)
        model.weights[lay] = np.ldexp(steps.astype(float), -bits)
        bias = rng.integers(-top, top, n_out).astype(float)
        model.hidden_biases[lay] = np.ldexp(bias, -bits)
        model.hidden_biases[lay][1:3] = 0.0
    model.precision = PrecisionMap.uniform(sizes[1:-1], bits, afb)
    x = (rng.random((30, sizes[layer])) > 0.5).astype(float)
    if layer:
        x = np.ldexp(rng.integers(0, 2 ** afb + 1, x.shape).astype(float), -afb)
    x[0] = 0.0  # zero sums
    return model, x


class TestFloat32Products:
    """Where the value rule (``_needs``) proves a layer's sums exact in float32, its
    products run in float32 and every byte of z equals the float64 product's."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), need=st.integers(22, 25),
           layer=st.integers(0, 1), bits=st.integers(14, 20), afb=st.integers(1, 4))
    def test_sums_within_24_bits_match_float64_bytes(self, seed, need, layer, bits, afb):
        """On-grid layers whose worst column needs 22 to 24 bits take float32, and
        z equals the float64 product byte for byte, zeros as +0.0; at 25 bits the
        layer takes float64."""
        model, x = _model_needing(need, layer, bits, afb, np.random.default_rng(seed))
        assert model.apply_precision(model.precision).weights[layer].tobytes() == \
            model.weights[layer].tobytes()  # on the grid
        assert ddbn._needs(model)[layer] == need
        w = ddbn._product_weights(model, ddbn._needs(model))[layer]
        assert w.dtype == (np.float32 if need <= 24 else np.float64)
        z = model.pre_activation(layer, x, w=w)
        expected = x @ model.weights[layer] + model.hidden_biases[layer]
        assert z.dtype == np.float64 and z.tobytes() == expected.tobytes()
        assert not np.signbit(z[0, 1:3]).any() and not z[0, 1:3].any()

    def test_25_bits_would_differ_in_float32(self):
        """Two weights of 2^24 - 1 and 2 steps of 2^-17 sum to 2^24 + 1 steps, which
        float32 rounds to 2^24: the rule sends that layer to float64."""
        model = DdbnModel.random_init([2, 1, 1, 10], seed=0, scale=0.0)
        model.weights[0][:, 0] = np.ldexp([2.0 ** 24 - 1, 2.0], -17)
        model.precision = PrecisionMap.uniform([1, 1], 17)
        x = np.ones((1, 2))
        assert ddbn._needs(model)[0] == 25
        w = ddbn._product_weights(model, ddbn._needs(model))[0]
        assert w is model.weights[0]
        assert model.pre_activation(0, x, w=w)[0, 0] == np.ldexp(2.0 ** 24 + 1, -17)
        forced = model.pre_activation(0, x, w=w.astype(np.float32))
        assert forced[0, 0] == np.ldexp(2.0 ** 24, -17)  # what float32 would give

    def test_weights_off_their_grid_need_float64(self):
        """The rule counts steps of the map's grid: a weight between two steps, or a
        model without a map, has no need within 53 bits, and its products keep
        float64."""
        model = DdbnModel.random_init([8, 3, 2, 10], seed=1, scale=1.0)
        assert ddbn._needs(model) == [math.inf] * 3
        model = model.apply_precision(PrecisionMap.uniform([3, 2], 6))
        assert max(ddbn._needs(model)) <= 24
        model.weights[1][0, 1] += 2.0 ** -20
        assert ddbn._needs(model)[1] == math.inf
        assert ddbn._product_weights(model, ddbn._needs(model))[1] is model.weights[1]

    @pytest.mark.parametrize("mode", ["mean_field", "stochastic"])
    @pytest.mark.parametrize("binary", [True, False])
    def test_classify_reads_float32_only_on_binary_images(self, monkeypatch, mode, binary):
        """Under a map whose every layer needs at most 24 bits, ``classify`` runs
        layer 0 in float32 on binary images and in float64 on grayscale ones, and
        every layer above, and the class layer, in float32."""
        rng = np.random.default_rng(4)
        model = DdbnModel.random_init([12, 6, 5, 10], seed=4, scale=1.0)
        model = model.apply_precision(PrecisionMap.uniform([6, 5], 4))
        assert max(ddbn._needs(model)) <= 24
        X = rng.random((50, 12))
        X = (X > 0.5).astype(float) if binary else X
        seen = []
        pre_activation, class_probs = DdbnModel.pre_activation, DdbnModel.class_probs

        def spy(m, layer, v, cols=slice(None), w=None):
            seen.append((layer, w.dtype))
            return pre_activation(m, layer, v, cols, w)

        def class_spy(m, h, w=None):
            seen.append(("class", w.dtype))
            return class_probs(m, h, w)

        monkeypatch.setattr(DdbnModel, "pre_activation", spy)
        monkeypatch.setattr(DdbnModel, "class_probs", class_spy)
        model.classify(X, mode, samples=3)
        assert seen == [(0, np.float32 if binary else np.float64), (1, np.float32),
                        ("class", np.float32)]


class TestSerialization:
    def _model(self):
        m = DdbnModel.random_init([6, 4, 3, 10], seed=9, scale=0.3)
        m.metadata["train_seed"] = 9
        return m.apply_precision(PrecisionMap.uniform([4, 3], 7))

    def test_round_trip(self, tmp_path):
        m = self._model()
        path = tmp_path / "m.bin"
        save_model(m, path)
        again = load_model(path)
        assert again.layer_sizes == m.layer_sizes
        for a, b in zip(m.weights, again.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(m.class_weights, again.class_weights)
        np.testing.assert_array_equal(m.class_bias, again.class_bias)
        for a, b in zip(m.precision.hidden_frac_bits,
                        again.precision.hidden_frac_bits):
            np.testing.assert_array_equal(a, b)
        assert again.metadata == m.metadata

    def test_corruption_detected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(self._model(), path)
        blob = bytearray(path.read_bytes())
        blob[100] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError, match="CRC32 mismatch"):
            load_model(path)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(self._model(), path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 2)
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(ModelFileError, match="format version 2"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(self._model(), path)
        blob = path.read_bytes()[:-4] + b"\0"
        path.write_bytes(blob + struct.pack("<I", zlib.crc32(blob)))
        with pytest.raises(ModelFileError, match="1 unexpected bytes"):
            load_model(path)

    @pytest.mark.parametrize("offset,value,match", [
        (6, b"\x02\x00", "2 layer sizes"),  # no hidden layer
        (-1, b"x", "bad metadata"),          # the metadata's closing brace
    ])
    def test_malformed_header_or_metadata_rejected(self, tmp_path, offset, value,
                                                   match):
        path = tmp_path / "m.bin"
        save_model(self._model(), path)
        blob = bytearray(path.read_bytes()[:-4])
        blob[offset:offset + len(value) or None] = value
        path.write_bytes(bytes(blob) + struct.pack("<I", zlib.crc32(bytes(blob))))
        with pytest.raises(ModelFileError, match=match):
            load_model(path)

    def test_budget_beyond_64_bits_rejected(self, tmp_path):
        m = self._model()
        m.precision.class_frac_bits = 57  # Q8.57 is 65 bits
        save_model(m, tmp_path / "m.bin")
        with pytest.raises(ModelFileError, match="bit budget 57"):
            load_model(tmp_path / "m.bin")

    def test_negative_zero_from_older_builds_loads(self, tmp_path):
        # older quantizers wrote -0.0 where a negative value rounded to zero
        m = self._model()
        m.weights[0][0, 0] = m.class_bias[1] = -0.0
        save_model(m, tmp_path / "m.bin")
        again = load_model(tmp_path / "m.bin")
        assert again.weights[0].tobytes() == m.weights[0].tobytes()

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        m = self._model()
        m.visible_biases[1][2] = value
        save_model(m, tmp_path / "m.bin")
        with pytest.raises(ModelFileError, match="not finite"):
            load_model(tmp_path / "m.bin")

import itertools
import struct
import zlib

import numpy as np
import pytest

from approxdbn import ddbn
from approxdbn.ddbn import (
    ChecksumError,
    DdbnModel,
    ModelFileError,
    PrecisionMap,
    TrainConfig,
    VersionMismatch,
    evaluate_accuracy,
    load_model,
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
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)

    def test_diverged_training_raises(self, tiny_data):
        X, T, _ = tiny_data
        cfg = TrainConfig(epochs=1, batch_size=10, learning_rate=1.7e308)
        with pytest.warns(RuntimeWarning) as record, \
                pytest.raises(FloatingPointError, match="not finite"):
            train_ddbn(X, T, [12, 5, 4, 10], cfg)
        assert any("overflow" in str(w.message) for w in record)

    def test_diverged_training_stops_after_first_bad_epoch(self, tiny_data, monkeypatch):
        # 60 samples in batches of 10: 6 updates per epoch, 20 epochs
        X, T, _ = tiny_data
        calls = []
        set_params = ddbn._set_rbm_params
        monkeypatch.setattr(ddbn, "_set_rbm_params",
                            lambda *a: (calls.append(1), set_params(*a)))
        cfg = TrainConfig(epochs=20, batch_size=10, learning_rate=1.7e308)
        with pytest.warns(RuntimeWarning), \
                pytest.raises(FloatingPointError, match="not finite"):
            train_ddbn(X, T, [12, 5, 4, 10], cfg)
        assert 1 <= len(calls) <= 6


class TestRetrainQuantized:
    def test_high_precision_map_matches_plain_training(self, tiny_data):
        X, T, _ = tiny_data
        cfg = TrainConfig(epochs=1, batch_size=10, seed=5)
        base = train_ddbn(X, T, [12, 5, 4, 10], cfg)
        cont_cfg = TrainConfig(epochs=1, batch_size=10, seed=6)
        plain = base.copy()
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

        surgery = m.copy()
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
        with pytest.raises(ChecksumError):
            load_model(path)

    def test_newer_version_rejected(self, tmp_path):
        path = tmp_path / "m.bin"
        save_model(self._model(), path)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 2)
        blob[-4:] = struct.pack("<I", zlib.crc32(bytes(blob[:-4])))
        path.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatch):
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

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_parameter_rejected(self, tmp_path, value):
        m = self._model()
        m.visible_biases[1][2] = value
        save_model(m, tmp_path / "m.bin")
        with pytest.raises(ModelFileError, match="not finite"):
            load_model(tmp_path / "m.bin")

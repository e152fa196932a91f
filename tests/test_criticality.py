from dataclasses import replace

import numpy as np
import pytest
from conftest import boundary_model

from approxdbn.criticality import (
    PlainLayer0,
    criticality_scores,
    per_sample_gradients,
    rank_neurons,
)
from approxdbn.ddbn import (
    DdbnModel,
    PrecisionMap,
    TrainConfig,
    retrain_quantized,
    sigmoid,
    softmax,
)


def random_model(layer_sizes, seed, scale=1.0):
    m = DdbnModel.random_init(layer_sizes, seed=seed, scale=scale)
    rng = np.random.default_rng(seed + 1)
    for i in range(m.num_hidden_layers):
        m.hidden_biases[i] = rng.normal(size=m.layer_sizes[i + 1])
    m.class_bias = rng.normal(size=m.layer_sizes[-1])
    return m


def loss_repropagated(model, layer, a_values, t):
    """Loss |t - a^c|^2 when hidden layer ``layer`` is pinned to
    ``a_values`` and everything above is re-propagated."""
    a = np.asarray(a_values)
    for l in range(layer + 1, model.num_hidden_layers):
        a = sigmoid(a @ model.weights[l] + model.hidden_biases[l])
    ac = softmax(a @ model.class_weights + model.class_bias)
    return float(np.sum((t - ac) ** 2))


def finite_difference_gradients(model, x, t, step=1e-6):
    """Central finite differences of the loss w.r.t. every hidden
    activation; divided by 2 to match the dropped squared-norm factor."""
    activations = model.forward_hidden(x[None, :])
    grads = []
    for layer in range(model.num_hidden_layers):
        a0 = activations[layer][0]
        g = np.zeros_like(a0)
        for i in range(len(a0)):
            up, down = a0.copy(), a0.copy()
            up[i] += step
            down[i] -= step
            g[i] = (loss_repropagated(model, layer, up, t)
                    - loss_repropagated(model, layer, down, t)) / (2 * step)
        grads.append(g / 2.0)
    return grads


def assert_all_zero(grads):
    for g in grads:
        np.testing.assert_array_equal(g, 0.0)


class TestForwardMeanField:
    """The pass the gradients are taken on: the model's full-precision
    mean-field pass over its stored parameters."""

    def test_zero_model(self):
        # activations 0.5 and class probabilities 0.1 meet zero weights
        m = DdbnModel.random_init([4, 3, 2, 10], seed=0, scale=0.0)
        grads = per_sample_gradients(m, np.ones((5, 4)), np.eye(10)[:5])
        assert [g.shape for g in grads] == [(5, 3), (5, 2)]
        assert_all_zero(grads)

    def test_matches_mean_field_classify(self):
        # any difference between the pass's probabilities and classify's
        # would leave a nonzero (a^c - t) term
        m = random_model([6, 4, 3, 10], seed=2)
        X = (np.random.default_rng(0).random((8, 6)) > 0.5).astype(float)
        _, probs = m.classify(X, mode="mean_field")
        assert_all_zero(per_sample_gradients(m, X, probs))

    def test_ignores_attached_precision_map(self):
        # Phase 2 ranks neurons of a quantized model by its full-precision
        # mean-field pass over the stored (quantized) parameters
        m = random_model([6, 4, 3, 10], seed=3)
        q = m.apply_precision(PrecisionMap.uniform([4, 3], 2))
        plain = replace(q, precision=None)
        rng = np.random.default_rng(6)
        X = (rng.random((9, 6)) > 0.5).astype(float)
        T = np.eye(10)[rng.integers(0, 10, 9)]
        for a, b in zip(per_sample_gradients(q, X, T),
                        per_sample_gradients(plain, X, T)):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(criticality_scores(q, X, T),
                        criticality_scores(plain, X, T)):
            np.testing.assert_array_equal(a, b)
        _, plain_probs = plain.classify(X)
        assert_all_zero(per_sample_gradients(q, X, plain_probs))
        _, quantized_probs = q.classify(X)
        assert all(np.any(g != 0)
                   for g in per_sample_gradients(q, X, quantized_probs))

    def test_dimension_mismatch(self):
        m = random_model([6, 4, 3, 10], seed=1)
        with pytest.raises(ValueError):
            per_sample_gradients(m, np.ones((2, 5)), np.eye(10)[:2])
        with pytest.raises(ValueError):
            criticality_scores(m, np.ones((2, 5)), np.eye(10)[:2])


class TestTopLayerGradient:
    """(a^c - t) chained through the softmax Jacobian and class weights."""

    def test_zero_when_probs_equal_target(self):
        # a class bias of 1000 saturates the softmax to an exact one-hot
        m = random_model([4, 3, 5], seed=4)
        m.class_bias = np.array([0.0, 1000.0, 0.0, 0.0, 0.0])
        t = np.zeros((2, 5))
        t[:, 1] = 1.0
        assert_all_zero(per_sample_gradients(m, np.ones((2, 4)), t))

    def test_single_neuron_two_classes(self):
        # a^c = (0.5, 0.5), t = (1, 0), class weight row (1, -1): the
        # hidden activation is sigmoid(0) = 0.5 and the logits are both 0
        m = DdbnModel.random_init([3, 1, 2], seed=0, scale=0.0)
        m.class_weights = np.array([[1.0, -1.0]])
        m.class_bias = np.array([-0.5, 0.5])
        g = per_sample_gradients(m, np.zeros((1, 3)), np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(g[0], [[-0.5]])

    def test_single_neuron_matches_finite_differences(self):
        # same setup at another activation: pick the class bias so the
        # logits coincide at the stored activation
        m = DdbnModel.random_init([3, 1, 2], seed=0, scale=0.0)
        m.class_weights = np.array([[1.0, -1.0]])
        h = 0.3
        m.class_bias = np.array([-h, h])
        m.hidden_biases[0] = np.array([np.log(h / (1 - h))])
        t = np.array([1.0, 0.0])
        x = np.zeros(3)
        analytic = per_sample_gradients(m, x[None, :], t[None, :])[0][0]
        np.testing.assert_allclose(analytic, [-0.5], atol=1e-12)
        fd = finite_difference_gradients(m, x, t)[0]
        np.testing.assert_allclose(analytic, fd, rtol=1e-5, atol=1e-9)

    def test_depends_only_on_probs_target_and_weights(self):
        # activations are exactly 0.5 and the class weights dyadic, so a
        # uniform class-bias shift leaves the probabilities bit-identical
        m = DdbnModel.random_init([4, 3, 5], seed=6, scale=0.0)
        rng = np.random.default_rng(1)
        m.class_weights = rng.integers(-8, 9, size=(3, 5)) / 4.0
        m.class_bias = rng.integers(-8, 9, size=5) / 4.0
        shifted = replace(m, class_bias=m.class_bias + 3.25)
        X, t = np.ones((1, 4)), np.eye(5)[[2]]
        np.testing.assert_array_equal(m.classify(X)[1], shifted.classify(X)[1])
        g1, = per_sample_gradients(m, X, t)
        g2, = per_sample_gradients(shifted, X, t)
        assert np.any(g1 != 0)
        np.testing.assert_array_equal(g1, g2)


class TestBackpropGradient:
    """A gradient pulled down a layer through the sigmoid derivative and
    the connecting weights."""

    def test_saturated_activations_kill_gradient(self):
        # biases of 40 and 50 round both top activations to exactly 1.0
        m = random_model([4, 3, 2, 10], seed=7)
        m.hidden_biases[1] = np.array([40.0, 50.0])
        grads = per_sample_gradients(m, np.ones((1, 4)), np.eye(10)[[0]])
        np.testing.assert_array_equal(m.forward_hidden(np.ones((1, 4)))[1], 1.0)
        assert np.any(grads[1] != 0)
        np.testing.assert_array_equal(grads[0], 0.0)

    def test_single_path(self):
        # a^(1) = sigmoid(0.5 * 2 - 1) = 0.5 carries the top gradient -0.5
        # (see test_single_neuron_two_classes) down as -0.5 * 0.25 * 2
        m = DdbnModel.random_init([1, 1, 1, 2], seed=0, scale=0.0)
        m.weights[1] = np.array([[2.0]])
        m.hidden_biases[1] = np.array([-1.0])
        m.class_weights = np.array([[1.0, -1.0]])
        m.class_bias = np.array([-0.5, 0.5])
        g = per_sample_gradients(m, np.zeros((1, 1)), np.array([[1.0, 0.0]]))
        np.testing.assert_array_equal(g[1], [[-0.5]])
        np.testing.assert_array_equal(g[0], [[-0.25]])

    @pytest.mark.parametrize("seed", range(10))
    def test_full_chain_matches_finite_differences(self, seed):
        rng = np.random.default_rng(seed)
        sizes = [5, 4, 3, 2]
        m = random_model(sizes, seed=seed, scale=1.5)
        x = rng.random(sizes[0])
        t = np.eye(sizes[-1])[rng.integers(sizes[-1])]
        analytic = per_sample_gradients(m, x[None, :], t[None, :])
        fd = finite_difference_gradients(m, x, t)
        for g_an, g_fd in zip(analytic, fd):
            np.testing.assert_allclose(g_an[0], g_fd, rtol=1e-5, atol=1e-8)


class TestScores:
    def test_repeated_sample_equals_single_sample(self):
        m = random_model([6, 4, 3, 10], seed=9)
        x = (np.random.default_rng(2).random(6) > 0.5).astype(float)
        t = np.eye(10)[3]
        one = criticality_scores(m, x[None, :], t[None, :])
        three = criticality_scores(m, np.tile(x, (3, 1)), np.tile(t, (3, 1)))
        for a, b in zip(one, three):
            np.testing.assert_allclose(a, b, atol=1e-15)

    def test_average_before_magnitude(self):
        m = random_model([6, 4, 3, 10], seed=10)
        rng = np.random.default_rng(3)
        X = (rng.random((2, 6)) > 0.5).astype(float)
        T = np.eye(10)[[1, 7]]
        grads = per_sample_gradients(m, X, T)
        scores = criticality_scores(m, X, T)
        for g, s in zip(grads, scores):
            np.testing.assert_allclose(np.abs(g.mean(axis=0)), s, atol=1e-15)

    def test_deterministic(self):
        m = random_model([6, 4, 3, 10], seed=11)
        rng = np.random.default_rng(4)
        X = (rng.random((30, 6)) > 0.5).astype(float)
        T = np.eye(10)[rng.integers(0, 10, 30)]
        s1 = criticality_scores(m, X, T)
        s2 = criticality_scores(m, X, T)
        for a, b in zip(s1, s2):
            np.testing.assert_array_equal(a, b)

    def test_nonnegative_and_finite(self):
        m = random_model([6, 4, 3, 10], seed=12)
        X = np.eye(6)
        T = np.eye(10)[np.arange(6)]
        s = criticality_scores(m, X, T)
        for layer in s:
            assert np.all(layer >= 0) and np.all(np.isfinite(layer))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            criticality_scores(random_model([6, 4, 3, 10], seed=13),
                               np.zeros((0, 6)), np.zeros((0, 10)))


class TestRanking:
    def test_ascending_order(self):
        assert rank_neurons([np.array([0.3, 0.1, 0.2])]) == [(0, 1), (0, 2), (0, 0)]

    def test_tie_break_lexicographic(self):
        ranked = rank_neurons([np.array([0.5, 0.5]), np.array([0.5])])
        assert ranked == [(0, 0), (0, 1), (1, 0)]

    def test_scale_invariant(self):
        rng = np.random.default_rng(5)
        layers = [rng.random(6), rng.random(4)]
        assert rank_neurons(layers) == rank_neurons([7.0 * l for l in layers])

    def test_pools_layers(self):
        assert rank_neurons([np.array([0.9]), np.array([0.1])]) == [(1, 0), (0, 0)]


def _cells_at_layer0(monkeypatch):
    """A list that grows by rows x columns of each ``pre_activation(0, ...)`` call."""
    cells, pre_activation = [], DdbnModel.pre_activation

    def counting(model, layer, v, cols=slice(None), w=None):
        out = pre_activation(model, layer, v, cols, w)
        if layer == 0:
            cells.append(out.size)
        return out

    monkeypatch.setattr(DdbnModel, "pre_activation", counting)
    return cells


def _assert_kept_scores(model, X, T, layer0, cells, columns):
    """Scores from ``layer0`` byte-equal fresh ones, after recomputing
    ``columns`` layer-0 columns of every row."""
    cells.clear()
    kept = criticality_scores(model, X, T, layer0)
    assert sum(cells) == len(X) * columns
    fresh = criticality_scores(model, X, T)
    assert [s.tobytes() for s in kept] == [s.tobytes() for s in fresh]


class TestPlainLayer0:
    """Phase 2 keeps the plain layer-0 activations of its training images
    between criticality orders and recomputes only the columns whose
    weights or bias changed."""

    def test_scripted_sequence_matches_fresh_scores(self, monkeypatch):
        rng = np.random.default_rng(21)
        X = (rng.random((2100, 16)) > 0.5).astype(float)  # two _CHUNK chunks
        T = np.eye(10)[rng.integers(0, 10, len(X))]
        pmap = PrecisionMap.uniform([8, 6], 6)
        model = random_model([16, 8, 6, 10], seed=21).apply_precision(pmap)
        layer0 = PlainLayer0(X)
        cells = _cells_at_layer0(monkeypatch)
        _assert_kept_scores(model, X, T, layer0, cells, 8)  # the first: every column

        cut = pmap.copy()
        cut.hidden_frac_bits[0][[1, 5]] = 2
        model = model.apply_precision(cut)
        _assert_kept_scores(model, X, T, layer0, cells, 2)

        cut.hidden_frac_bits[1][[0, 2]] = 0  # above layer 0 only
        model = model.apply_precision(cut)
        _assert_kept_scores(model, X, T, layer0, cells, 0)

        biases = list(model.hidden_biases)
        biases[0] = biases[0].copy()
        biases[0][3] += 2.0 ** -6  # on the grid: the model stays exact
        model = replace(model, hidden_biases=biases)
        _assert_kept_scores(model, X, T, layer0, cells, 1)

        config = TrainConfig(learning_rate=0.5, epochs=1, batch_size=100, seed=3)
        full = retrain_quantized(model, cut, X, T, config)
        assert all(not np.array_equal(full.weights[0][:, j], model.weights[0][:, j])
                   for j in range(8))
        _assert_kept_scores(full, X, T, layer0, cells, 8)

        top = retrain_quantized(full, cut, X, T, config, first=1)
        assert top.weights[0] is not full.weights[0]
        _assert_kept_scores(top, X, T, layer0, cells, 0)

    @pytest.mark.parametrize("case,reused", [
        ("binary", True),
        ("grayscale", False),
        ("no_map", False),
        ("need_53", True),    # layer 0's values at the value rule's bound
        ("need_54", False),
    ])
    def test_every_column_unless_exact(self, monkeypatch, case, reused):
        """Grayscale inputs, a model without a map and a layer 0 whose values need
        more than float64's 53 bits recompute every column of every order."""
        rng = np.random.default_rng(22)
        width = 784 if case.startswith("need") else 16
        X = rng.random((30, width))
        if case != "grayscale":
            X = (X > 0.5).astype(float)
        T = np.eye(10)[rng.integers(0, 10, len(X))]
        model = random_model([width, 5, 4, 10], seed=22)
        if case.startswith("need"):
            model = boundary_model([width, 5, 4, 10], int(case[-2:]), seed=22)
        elif case != "no_map":
            model = model.apply_precision(PrecisionMap.uniform([5, 4], 6))
        layer0 = PlainLayer0(X)
        cells = _cells_at_layer0(monkeypatch)
        _assert_kept_scores(model, X, T, layer0, cells, 5)
        _assert_kept_scores(model, X, T, layer0, cells, 0 if reused else 5)
        assert (layer0.a is not None) == reused

    def test_rejects_other_inputs(self):
        model = random_model([6, 4, 3, 10], seed=23)
        X = np.ones((4, 6))
        with pytest.raises(ValueError, match="other inputs"):
            criticality_scores(model, X[:3], np.eye(10)[:3], PlainLayer0(X))

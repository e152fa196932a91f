"""Offline checks of the search and inference invariants on tiny random
models; none of them needs MNIST."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from approxdbn import ddbn
from approxdbn.ddbn import (
    DdbnModel,
    PrecisionMap,
    TrainConfig,
    confusion_counts,
    evaluate_accuracy,
    train_ddbn,
)
from approxdbn.search import (
    VARIANTS,
    InfeasibleConstraint,
    SearchConfig,
    run_approxdbn,
)


def _parameters(model):
    return [*model.weights, *model.hidden_biases, *model.visible_biases,
            model.class_weights, model.class_bias]


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       hidden=st.lists(st.integers(3, 8), min_size=1, max_size=3),
       loss=st.sampled_from([0.1, 0.3, 0.6]),
       frac_bits=st.integers(2, 6),
       variant=st.sampled_from(VARIANTS))
def test_search_invariants(seed, hidden, loss, frac_bits, variant):
    rng = np.random.default_rng(seed)
    # four classes: noisy copies of four random 16-pixel prototypes
    y = rng.integers(0, 4, 120)
    prototypes = rng.random((4, 16)) > 0.5
    X = (prototypes[y] ^ (rng.random((120, 16)) < 0.1)).astype(float)
    T = np.eye(10)[y]
    tcfg = TrainConfig(epochs=20, learning_rate=0.3, batch_size=10, seed=seed)
    model = train_ddbn(X, T, [16, *hidden, 10], tcfg)
    cfg = SearchConfig(max_relative_accuracy_loss=loss,
                       baseline_frac_bits=frac_bits, retrain_epochs=1)
    try:
        res = run_approxdbn(model, cfg, X, T, X, y, variant=variant,
                            train_config=tcfg, order_seed=seed)
    except InfeasibleConstraint:
        assume(False)
    pmap = res.precision_map

    # budgets never increase: neither the committed totals nor any neuron's
    # budget above the Phase-1 format, at which the class layer stays
    totals = [r.total_bits for r in res.trace]
    assert totals == sorted(totals, reverse=True)
    assert pmap.class_frac_bits <= frac_bits
    for bits in pmap.hidden_frac_bits:
        assert np.all(bits <= pmap.class_frac_bits)

    # every committed step, retrains included, meets the constraint
    for rec in res.trace:
        assert rec.relative_accuracy >= 1 - loss - 1e-12
    assert res.final_accuracy >= (1 - loss) * res.baseline_accuracy

    # pruned neurons output exactly 0 on the inputs they really see
    a = X
    for layer, bits in enumerate(pmap.hidden_frac_bits):
        a = res.model.hidden_probs(layer, a)
        assert np.all(a[:, bits == 0] == 0.0)
        assert np.all(res.model.weights[layer][:, bits == 0] == 0.0)

    # every parameter is a fixpoint of apply_precision
    again = res.model.apply_precision(pmap)
    for p, q in zip(_parameters(res.model), _parameters(again)):
        np.testing.assert_array_equal(p, q)


@pytest.mark.parametrize("mode", ["mean_field", "stochastic"])
def test_inference_paths_agree_across_chunks(mode):
    """classify, evaluate_accuracy and confusion_counts agree on a set
    larger than one 2048-row mean-field chunk; the rows of the second chunk
    match a run on those rows alone, and stochastic sample i is seeded with
    (seed, i)."""
    rng = np.random.default_rng(0)
    model = DdbnModel.random_init([12, 6, 5, 10], seed=2, scale=1.0)
    model = model.apply_precision(PrecisionMap.uniform([6, 5], 4))
    X = (rng.random((2100, 12)) > 0.5).astype(float)
    y = rng.integers(0, 10, len(X))
    kwargs = dict(samples=3, seed=7)

    preds, probs = model.classify(X, mode, **kwargs)
    acc = evaluate_accuracy(model, X, y, mode, **kwargs)
    counts = confusion_counts(model, X, y, mode, **kwargs)
    assert acc == (preds == y).sum() / len(y)
    assert np.trace(counts) / len(y) == acc
    np.testing.assert_array_equal(counts.sum(axis=1), np.bincount(y, minlength=10))
    np.testing.assert_array_equal(counts.sum(axis=0), np.bincount(preds, minlength=10))

    if mode == "mean_field":
        _, tail = model.classify(X[2048:], mode)
        np.testing.assert_array_equal(probs[2048:], tail)
    else:
        # sample i is seeded with (seed, i)
        for i in (2047, 2048, 2099):
            rng_i = np.random.default_rng(np.random.SeedSequence([7, i]))
            np.testing.assert_array_equal(
                probs[i], model._stochastic_probs(X[i:i + 1], 3, [rng_i])[0])


def _per_image_stochastic(model, X, samples, seed):
    """Stochastic inference one image at a time, as it ran before it was
    batched: image i draws from its own generator seeded with (seed, i)."""
    probs = np.empty((len(X), model.layer_sizes[-1]))
    for i, x in enumerate(X):
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        h = x[None, :]
        for layer in range(model.num_hidden_layers):
            a = model.hidden_probs(layer, h)
            h = (rng.random((samples, a.shape[1])) < a).astype(np.float64)
        probs[i] = model.class_probs(h).mean(axis=0)
    return probs


def _three_layer_model(quantized):
    model = DdbnModel.random_init([12, 7, 6, 5, 10], seed=4, scale=1.0)
    return model.apply_precision(PrecisionMap.uniform([7, 6, 5], 5)) if quantized else model


@pytest.mark.parametrize("samples,n,chunk", [
    (1, 2100, None),    # 2048 + 52 images
    (3, 700, None),     # 682 + 18
    (10, 420, None),    # 204 + 204 + 12
    (2049, 3, None),    # more samples than _CHUNK rows: one image per step
    (3, 11, 7),         # 2 images per step, the last step 1
    (10, 4, 7),         # samples > _CHUNK
])
def test_batched_stochastic_matches_per_image_oracle(samples, n, chunk, monkeypatch):
    if chunk:
        monkeypatch.setattr(ddbn, "_CHUNK", chunk)
    model = _three_layer_model(quantized=True)
    X = (np.random.default_rng(1).random((n, 12)) > 0.5).astype(float)
    expected = _per_image_stochastic(model, X, samples, seed=5)
    preds, probs = model.classify(X, "stochastic", samples=samples, seed=5)
    assert probs.tobytes() == expected.tobytes()
    np.testing.assert_array_equal(preds, np.argmax(expected, axis=1))


def test_batched_stochastic_single_image():
    model = _three_layer_model(quantized=True)
    x = (np.random.default_rng(2).random(12) > 0.5).astype(float)
    pred, probs = model.classify(x, "stochastic", samples=10, seed=3)
    expected = _per_image_stochastic(model, x[None, :], 10, seed=3)[0]
    assert probs.tobytes() == expected.tobytes()
    assert pred == int(np.argmax(expected))


def test_batched_stochastic_unquantized_matches_closely():
    # without a precision map the batched products may sum in another
    # order, so only the last bits may differ
    model = _three_layer_model(quantized=False)
    X = (np.random.default_rng(1).random((700, 12)) > 0.5).astype(float)
    expected = _per_image_stochastic(model, X, 3, seed=5)
    preds, probs = model.classify(X, "stochastic", samples=3, seed=5)
    np.testing.assert_allclose(probs, expected, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(preds, np.argmax(expected, axis=1))

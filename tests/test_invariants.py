"""Offline checks of the search and inference invariants on tiny random
models; none of them needs MNIST."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from conftest import boundary_model

from approxdbn import ddbn, search
from approxdbn.ddbn import (
    CandidateEvaluator,
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
    approximation_curve,
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
    assert res.report["final_accuracy"] >= (1 - loss) * res.report["baseline_accuracy"]

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


@pytest.mark.parametrize("classes", [3, 12])
def test_confusion_counts_sized_by_the_class_layer(classes):
    """One row and one column per class of the model, fewer or more than 10."""
    rng = np.random.default_rng(1)
    model = DdbnModel.random_init([16, 8, classes], seed=0, scale=1.0)
    X = (rng.random((200, 16)) > 0.5).astype(float)
    y = rng.integers(0, classes, len(X))
    preds, _ = model.classify(X)
    counts = confusion_counts(model, X, y)
    assert counts.shape == (classes, classes)
    np.testing.assert_array_equal(counts.sum(axis=1), np.bincount(y, minlength=classes))
    np.testing.assert_array_equal(counts.sum(axis=0), np.bincount(preds, minlength=classes))


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


# ---- incremental candidate evaluation --------------------------------


def _random_model(layer_sizes, rng):
    model = DdbnModel.random_init(layer_sizes, seed=int(rng.integers(2 ** 16)),
                                  scale=1.0)
    for layer in range(model.num_hidden_layers):
        model.hidden_biases[layer] = rng.normal(size=layer_sizes[layer + 1])
    model.class_bias = rng.normal(size=layer_sizes[-1])
    return model


def _cut(pmap, rng, count, cut, lowest=0):
    """``pmap`` with ``cut`` bits taken off ``count`` random neurons of any
    layer from ``lowest`` up, down to 0 (pruned)."""
    new = pmap.copy()
    pooled = [(layer, idx) for layer, bits in enumerate(new.hidden_frac_bits)
              for idx in range(len(bits)) if layer >= lowest]
    for k in rng.choice(len(pooled), min(count, len(pooled)), replace=False):
        layer, idx = pooled[k]
        bits = new.hidden_frac_bits[layer]
        bits[idx] = max(0, bits[idx] - cut)
    return new


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       hidden=st.lists(st.integers(2, 8), min_size=1, max_size=3),
       frac_bits=st.integers(1, 8),
       steps=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 8),
                                st.booleans()), min_size=1, max_size=8))
def test_candidate_evaluator_matches_classify(seed, hidden, frac_bits, steps):
    """Along a random sequence of budget cuts, some committed (no threshold) and
    some rejected (a threshold one ulp above their accuracy), the evaluator's
    accuracy of a committed cut equals ``evaluate_accuracy`` of the accepted
    model under that map, a rejected cut leaves the accepted model, and the kept
    activations, carried on through ``class_probs``, byte-equal a full pass of
    the accepted model."""
    rng = np.random.default_rng(seed)
    model = _random_model([16, *hidden, 10], rng)
    X = (rng.random((60, 16)) > 0.5).astype(float)
    y = rng.integers(0, 10, len(X))
    pmap = PrecisionMap.uniform(hidden, frac_bits)
    evaluator = CandidateEvaluator(model.apply_precision(pmap), X, y)
    current = evaluator.model
    for count, cut, commit in steps:
        pmap_next = _cut(pmap, rng, count, cut)
        full = evaluate_accuracy(current.apply_precision(pmap_next), X, y)
        if commit:
            assert evaluator.cut(pmap_next) == full
            pmap, current = pmap_next, evaluator.model
        else:
            t = np.nextafter(full, 1.0)
            assert full <= evaluator.cut(pmap_next, t) < t
        assert evaluator.model is current
        _assert_cache_fresh(evaluator, X)
        assert (current.class_probs(evaluator.a[-1]).tobytes()
                == current.classify(X)[1].tobytes())


@pytest.mark.parametrize("order", ["criticality", "random"])
@pytest.mark.parametrize("seed", [0, 1])
def test_curve_matches_oracle_from_original_model(order, seed):
    """Each curve point's model is built from the previous point's, by
    requantizing only the pruned neuron's columns; its accuracy still equals
    the original model's under that point's map, although some negative
    parameter of the original model rounds to zero."""
    rng = np.random.default_rng(seed)
    hidden = [7, 6, 5]
    model = _random_model([16, *hidden, 10], rng)
    X = (rng.random((80, 16)) > 0.5).astype(float)
    y = rng.integers(0, 10, len(X))
    T = np.eye(10)[y]
    cfg = SearchConfig(baseline_frac_bits=3)
    curve = approximation_curve(model, cfg, X, T, X, y, order=order, order_seed=seed)

    pmap = PrecisionMap.uniform(hidden, 3)
    quantized = model.apply_precision(pmap)
    assert any(((q == 0) & (p < 0)).any()
               for p, q in zip(_parameters(model), _parameters(quantized)))
    ordering = search._neuron_order(model, order == "criticality", X, T,
                                    np.random.default_rng(seed))
    expected = [evaluate_accuracy(model.apply_precision(pmap), X, y)]
    for layer, idx in ordering:
        pmap.hidden_frac_bits[layer][idx] = 0
        expected.append(evaluate_accuracy(model.apply_precision(pmap), X, y))
    assert curve.tolist() == expected


def _curve_by_cuts(model, cfg, X, T, eval_images, eval_labels, order, seed):
    """``approximation_curve`` as one ``cut`` per point, the reference of the
    stacked passes."""
    pmap = PrecisionMap.uniform(model.hidden_sizes, cfg.baseline_frac_bits)
    ordering = search._neuron_order(model, order == "criticality", X, T,
                                    np.random.default_rng(seed))
    current = model.apply_precision(pmap)
    accuracies = [evaluate_accuracy(current, eval_images, eval_labels)]
    evaluator = CandidateEvaluator(current, eval_images, eval_labels)
    for layer, idx in ordering:
        pmap.hidden_frac_bits[layer][idx] = 0
        accuracies.append(evaluator.cut(pmap))
    return np.array(accuracies)


@pytest.mark.parametrize("order", ["criticality", "random"])
@pytest.mark.parametrize("chunk,frac_bits,stacks", [
    (80, 3, [1] * 18),                   # 80 rows a stack: stacks of one
    (80 * 4 + 79, 3, [4] * 4 + [2]),     # several, the last one partial
    (2048, 3, [18]),                     # every point in one stack
    (80 * 5, 24, [5] * 3 + [3]),         # float64 products: 51 bits at layer 1
    (80 * 5, 26, [5] * 3 + [3]),         # inexact: no cache, a cut per point
])
def test_stacked_curve_matches_per_point_cuts(monkeypatch, order, chunk, frac_bits,
                                             stacks):
    """``approximation_curve`` takes ``_CHUNK // rows`` points a pass, and equals
    the per-point ``cut`` loop byte for byte, on three hidden layers whose stacks
    prune neurons of several layers; after every pass the evaluator's cache equals
    a fresh one of the committed model. At 3 bits every product runs in float32, at
    24 bits layers 1 to 3 need 51 bits and run in float64, and at 26 bits they need
    55, more than float64's 53, so the first passes have no cache."""
    rng = np.random.default_rng(2)
    hidden = [7, 6, 5]
    model = _random_model([16, *hidden, 10], rng)
    X = (rng.random((80, 16)) > 0.5).astype(float)
    y = rng.integers(0, 10, len(X))
    T = np.eye(10)[y]
    cfg = SearchConfig(baseline_frac_bits=frac_bits)
    expected = _curve_by_cuts(model, cfg, X, T, X, y, order, seed=1)
    seen, prune = [], CandidateEvaluator.prune

    def checked(evaluator, neurons):
        seen.append((len(neurons), len({layer for layer, _ in neurons}), bool(evaluator.a)))
        out = prune(evaluator, neurons)
        _assert_cache_fresh(evaluator, X)
        return out

    monkeypatch.setattr(CandidateEvaluator, "prune", checked)
    monkeypatch.setattr(search, "_CHUNK", chunk)
    curve = approximation_curve(model, cfg, X, T, X, y, order=order, order_seed=1)
    assert curve.tobytes() == expected.tobytes()
    assert [k for k, _, _ in seen] == stacks
    assert (max(layers for _, layers, _ in seen) > 1) == (max(stacks) > 1)
    assert seen[0][2] == (frac_bits <= 24)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       hidden=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       frac_bits=st.sampled_from([1, 3, 8, 24, 28]),
       stacks=st.lists(st.integers(0, 6), min_size=1, max_size=5))
def test_prune_matches_per_point_cuts(seed, hidden, frac_bits, stacks):
    """From a mixed-budget map with some neurons pruned already, each ``prune`` of a
    random stack, which may name those neurons again, returns the per-point
    ``cut`` accuracies of a twin evaluator, and commits the same model bytes and a
    cache equal to a fresh one."""
    rng = np.random.default_rng(seed)
    model = _random_model([16, *hidden, 10], rng)
    X = (rng.random((int(rng.integers(1, 50)), 16)) > 0.5).astype(float)
    y = rng.integers(0, 10, len(X))
    pmap = _cut(PrecisionMap.uniform(hidden, frac_bits), rng, 4, 2)
    stacked, reference = (CandidateEvaluator(model.apply_precision(pmap), X, y)
                          for _ in range(2))
    pooled = [(layer, idx) for layer, n in enumerate(hidden) for idx in range(n)]
    for k in stacks:
        neurons = [pooled[i] for i in rng.choice(len(pooled), min(k, len(pooled)),
                                                 replace=False)]
        expected = []
        for layer, idx in neurons:
            pmap = pmap.copy()
            pmap.hidden_frac_bits[layer][idx] = 0
            expected.append(reference.cut(pmap))
        assert stacked.prune(neurons) == expected
        assert _state(stacked)[1:] == _state(reference)[1:]
        _assert_cache_fresh(stacked, X)


@pytest.mark.parametrize("neurons,message", [
    ([(0, 1), (1, 6)], "no such hidden neuron"),
    ([(2, 0)], "no such hidden neuron"),
    ([(0, -1)], "no such hidden neuron"),
    ([(1, 0), (0, 2), (1, 0)], "named twice"),
])
def test_prune_rejects_bad_neurons(neurons, message):
    """A neuron out of range or named twice raises ``ValueError`` before anything
    is committed, as a map that is not a cut does."""
    accepted, _, X, y = _hopeless_case()
    evaluator = CandidateEvaluator(accepted, X, y)
    before = _state(evaluator)
    with pytest.raises(ValueError, match=message):
        evaluator.prune(neurons)
    after = _state(evaluator)
    assert after[0] is before[0] and after[1:] == before[1:]


def _rows_at_layer0(monkeypatch):
    """A list that grows by the row count of each ``hidden_probs(0, ...)`` call."""
    rows, hidden_probs = [], DdbnModel.hidden_probs

    def counting(model, layer, v, cols=slice(None), w=None):
        if layer == 0:
            rows.append(len(v))
        return hidden_probs(model, layer, v, cols, w)

    monkeypatch.setattr(DdbnModel, "hidden_probs", counting)
    return rows


@pytest.mark.parametrize("case,exact0", [
    ("binary", True),
    ("grayscale", False),
    ("need_53", True),    # layer 0 at the value rule's bound
    ("need_54", False),
    ("no_map", False),
])
def test_candidate_evaluator_fallback(monkeypatch, case, exact0):
    """Only a model whose every layer is exact keeps its hidden layers; with
    nothing kept, each of two successive cuts is walked from the images. An exact
    layer 0 (``exact0``) is not enough: need_53's layer 1 needs 46 + 46 bits and
    more. A model without a map has no cuts: the evaluator rejects it."""
    rng = np.random.default_rng(3)
    width = 784 if case.startswith("need") else 16
    model = _random_model([width, 5, 4, 10], rng)
    X = rng.random((40, width))
    if case != "grayscale":
        X = (X > 0.5).astype(float)
    y = rng.integers(0, 10, len(X))
    if case == "no_map":
        with pytest.raises(ValueError, match="precision map"):
            CandidateEvaluator(model, X, y)
        return
    if case.startswith("need"):
        accepted = boundary_model([width, 5, 4, 10], int(case[-2:]))
        assert ddbn._needs(accepted)[0] == int(case[-2:])
    else:
        accepted = model.apply_precision(PrecisionMap.uniform([5, 4], 6))
    pmap = accepted.precision
    maps = [_cut(pmap, rng, 1, 2)]
    maps.append(_cut(maps[0], rng, 3, 2))
    expected, candidate = [], accepted
    for pmap_next in maps:
        candidate = candidate.apply_precision(pmap_next)
        expected.append(evaluate_accuracy(candidate, X, y))
    monkeypatch.setattr(ddbn, "evaluate_accuracy", None)
    evaluator = CandidateEvaluator(accepted, X, y)
    rows = _rows_at_layer0(monkeypatch)
    for pmap_next, acc in zip(maps, expected):
        assert evaluator.cut(pmap_next) == acc
    walked = 0 if case == "binary" else 2  # candidates walked from the images
    assert rows == [len(X)] * walked
    assert len(evaluator.a) == (0 if walked == 2 else 2)
    monkeypatch.undo()
    _assert_cache_fresh(evaluator, X)
    # with the top hidden layer pruned, every layer is exact exactly when layer 0 is
    pruned = pmap.copy()
    pruned.hidden_frac_bits[-1][:] = 0
    assert _exact(evaluator, accepted.apply_precision(pruned)) == exact0


@pytest.mark.parametrize("bits", [20, 26, 27, 35])
def test_wide_map_keeps_the_cache_where_its_values_fit(bits):
    """A 20- to 35-bit map on 784-100-50-10 fails the old format rule, 8 + a + b +
    ceil(log2 fan-in) <= 53 (layer 1: 55 to 85 bits), and so lost the cache. By the
    value rule, weights of about 0.01 need about 2 b - 1 bits at layers 1 and 2: up
    to 26 bits the map keeps the cache, and its cuts and prunes still equal
    ``evaluate_accuracy`` of the requantized model."""
    rng = np.random.default_rng(5)
    model = DdbnModel.random_init([784, 100, 50, 10], seed=5, scale=0.01)
    X = (rng.random((64, 784)) > 0.5).astype(float)
    y = rng.integers(0, 10, len(X))
    pmap = PrecisionMap.uniform([100, 50], bits)
    accepted = model.apply_precision(pmap)
    assert (max(ddbn._needs(accepted)) <= 53) == (bits <= 26)
    evaluator = CandidateEvaluator(accepted, X, y)
    assert len(evaluator.a) == (2 if bits <= 26 else 0)
    pmap = _cut(pmap, rng, 30, 3)
    assert evaluator.cut(pmap) == evaluate_accuracy(accepted.apply_precision(pmap), X, y)
    _assert_cache_fresh(evaluator, X)
    accuracies = evaluator.prune([(1, 3), (0, 7)])
    for layer, idx in [(1, 3), (0, 7)]:
        pmap.hidden_frac_bits[layer][idx] = 0
    assert accuracies[-1] == evaluate_accuracy(accepted.apply_precision(pmap), X, y)
    _assert_cache_fresh(evaluator, X)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 16), bits=st.integers(1, 40), cuts=st.integers(1, 40),
       afb=st.sampled_from([0, 3]))
def test_a_cut_never_raises_a_need(seed, bits, cuts, afb):
    """A weight requantized to a coarser grid may grow by half its new step, yet it
    takes no more steps of that grid than it took of the old, and the layer below's
    activation bits do not grow: no layer of a cut needs more bits (``_needs``)
    than the accepted model, so the evaluator checks the needs only of a model it
    keeps whole."""
    rng = np.random.default_rng(seed)
    model = _random_model([16, 6, 5, 10], rng)
    pmap = _cut(PrecisionMap.uniform([6, 5], bits, afb), rng, 4, 3)
    accepted = model.apply_precision(pmap)
    candidate = accepted.apply_precision(_cut(pmap, rng, 5, cuts))
    assert all(new <= old for new, old
               in zip(ddbn._needs(candidate), ddbn._needs(accepted)))


def test_cut_that_rounds_weights_up_stays_in_float32():
    """Layer 0 needs exactly float32's 24 bits: column 0 holds 2^24 - 1 steps of
    2^-17, mostly odd counts, which a 1-bit cut rounds up, ties away from zero.
    Those weights grow by half a step of the new grid, but the column's count of
    its steps halves, so the layer keeps its float32 products, and ``cut`` and
    ``prune`` give ``apply_precision`` and ``classify``'s accuracies and class
    probabilities byte for byte."""
    rng = np.random.default_rng(9)
    model = _random_model([16, 6, 5, 10], rng)
    steps = np.full(16, (2 ** 24 - 1) // 16)  # odd, with one more in the first row
    steps[0] += (2 ** 24 - 1) % 16
    model.weights[0] = np.ldexp(np.round(np.ldexp(model.weights[0], 6)), -6)
    model.weights[0][:, 0] = np.ldexp(steps * rng.choice([-1.0, 1.0], 16), -17)
    pmap = PrecisionMap.uniform([6, 5], 17)
    accepted = model.apply_precision(pmap)
    assert ddbn._needs(accepted)[0] == 24
    X = (rng.random((300, 16)) > 0.5).astype(float)
    y = rng.integers(0, 10, len(X))
    evaluator = CandidateEvaluator(accepted, X, y)
    assert evaluator.w[0].dtype == np.float32
    cut = pmap.copy()
    cut.hidden_frac_bits[0][[0, 3]] = 16
    candidate = accepted.apply_precision(cut)
    grew = np.abs(candidate.weights[0][:, 0]) > np.abs(accepted.weights[0][:, 0])
    assert grew.sum() >= 15 and ddbn._needs(candidate)[0] <= 24
    for evaluate in (lambda: evaluator.cut(cut), lambda: evaluator.prune([(0, 5)])[-1]):
        accuracy = evaluate()
        current = evaluator.model
        assert accuracy == evaluate_accuracy(current, X, y)
        assert evaluator.w[0].dtype == np.float32
        assert (current.class_probs(evaluator.a[-1]).tobytes()
                == current.classify(X)[1].tobytes())
        _assert_cache_fresh(evaluator, X)
    assert evaluator.model.precision.hidden_frac_bits[0].tolist() == [16, 17, 17, 16, 17, 0]


def test_need_counts_the_bits_of_the_inputs():
    """Layer 1 and the class layer have zero weights, so their sums are zero, yet
    their Q0.30 inputs need 30 bits, past float32's 24: the evaluator keeps those
    activations in float64, exactly."""
    rng = np.random.default_rng(6)
    model = _random_model([16, 6, 5, 10], rng)
    model.weights[1][:] = 0.0
    model.class_weights[:] = 0.0
    accepted = model.apply_precision(PrecisionMap.uniform([6, 5], 8, 30))
    assert ddbn._needs(accepted)[1:] == [30, 30]
    X = (rng.random((50, 16)) > 0.5).astype(float)
    evaluator = CandidateEvaluator(accepted, X, rng.integers(0, 10, len(X)))
    assert [a.dtype for a in evaluator.a] == [np.float64, np.float64]
    _assert_cache_fresh(evaluator, X)


def _exact(evaluator, model):
    """Whether the evaluator keeps every hidden layer of ``model`` once accepted."""
    return evaluator.binary and max(ddbn._needs(model)) <= 53


def _assert_cache_fresh(evaluator, X):
    """The evaluator keeps every hidden layer when the accepted model is exact and
    none otherwise; each cached activation ``a[l]`` and pre-activation ``z[l]``
    equals a fresh pass of the accepted model byte for byte, ``a[l]`` as float64 in
    the precision of the product above it; each of its product weights ``w[l]``
    equals the model's, in float32 only where that layer needs at most 24 bits."""
    model = evaluator.model
    fresh = model.forward_hidden(X)
    assert len(evaluator.a) == (model.num_hidden_layers if _exact(evaluator, model) else 0)
    needs = ddbn._needs(model)
    weights = [*model.weights, model.class_weights]
    for layer, w in enumerate(evaluator.w):
        assert w.dtype == np.float64 or needs[layer] <= 24
        assert np.array_equal(w, weights[layer])
    for layer, a in enumerate(evaluator.a):
        assert a.dtype == evaluator.w[layer + 1].dtype
        assert a.astype(np.float64).tobytes() == fresh[layer].tobytes()
        if layer:
            z = fresh[layer - 1] @ model.weights[layer] + model.hidden_biases[layer]
            assert evaluator.z[layer].tobytes() == z.tobytes()


def _hopeless_case(activation_frac_bits=0, n=600):
    """An accepted model, ``n`` rows with random labels, and a map that cuts
    the top hidden layer's budgets to 0, whose constant prediction misses
    most rows."""
    rng = np.random.default_rng(8)
    hidden = [8, 6]
    model = _random_model([16, *hidden, 10], rng)
    X = (rng.random((n, 16)) > 0.5).astype(float)
    pmap = PrecisionMap.uniform(hidden, 6, activation_frac_bits)
    accepted = model.apply_precision(pmap)
    hopeless = pmap.copy()
    hopeless.hidden_frac_bits[-1][:] = 0
    return accepted, hopeless, X, rng.integers(0, 10, n)


@pytest.mark.parametrize("activation_frac_bits,early", [
    (0, True),
    (64, False),   # Q0.64 activations: layer 1's sums are not exact in float64
])
def test_early_rejection_rows_walked(monkeypatch, activation_frac_bits, early):
    """Under a threshold, a hopeless candidate stops before the last row; with
    no threshold, or when deeper layers' sums are not exact (nothing is kept),
    it walks every row and returns the exact accuracy."""
    accepted, hopeless, X, y = _hopeless_case(activation_frac_bits)
    exact = evaluate_accuracy(accepted.apply_precision(hopeless), X, y)
    evaluator = CandidateEvaluator(accepted, X, y)
    walked, class_probs = [], DdbnModel.class_probs

    def counting(model, h, w=None):
        if model is not evaluator.model:  # the candidate's rows
            walked.append(len(h))
        return class_probs(model, h, w)

    monkeypatch.setattr(DdbnModel, "class_probs", counting)
    monkeypatch.setattr(ddbn, "evaluate_accuracy", None)  # no full-pass fallback
    acc = evaluator.cut(hopeless, 0.9)
    assert exact < 0.9 and acc < 0.9 and acc >= exact
    assert (sum(walked) < len(X)) == early and len(evaluator.a) == (2 if early else 0)
    if not early:
        assert acc == exact
    walked.clear()
    assert evaluator.cut(hopeless) == exact and sum(walked) == len(X)


def _state(evaluator):
    """The evaluator's accepted model and the bytes of its parameters and cache."""
    return (evaluator.model, [p.tobytes() for p in _parameters(evaluator.model)],
            [a.tobytes() for a in evaluator.a],
            [z.tobytes() for z in evaluator.z if z is not None])


@pytest.mark.parametrize("activation_frac_bits", [0, 64])  # layers kept, or none
def test_rejected_cut_leaves_the_evaluator_unchanged(activation_frac_bits):
    """A cut below its threshold leaves the accepted model, ``a`` and ``z`` as they
    were, byte for byte; a cut that meets its threshold becomes the accepted
    model."""
    accepted, hopeless, X, y = _hopeless_case(activation_frac_bits)
    evaluator = CandidateEvaluator(accepted, X, y)
    before = _state(evaluator)
    assert evaluator.cut(hopeless, 0.9) < 0.9
    after = _state(evaluator)
    assert after[0] is before[0] and after[1:] == before[1:]
    _assert_cache_fresh(evaluator, X)
    assert evaluator.cut(hopeless, 0.0) < 0.9
    assert evaluator.model.precision.total_hidden_bits() == 8 * 6
    _assert_cache_fresh(evaluator, X)


def test_accepted_exact_cut_keeps_every_layer(monkeypatch):
    """An evaluator that keeps nothing rebuilds its cache when it commits a cut
    whose every layer, the class layer too, is exact. A map that raises a budget
    is no cut: it raises ``ValueError`` and leaves the model and cache as they
    were."""
    rng = np.random.default_rng(5)
    model = _random_model([784, 5, 4, 10], rng)
    X = (rng.random((40, 784)) > 0.5).astype(float)
    y = rng.integers(0, 10, len(X))
    pmap = PrecisionMap.uniform([5, 4], 36)  # layers 1 and 2 need 75 bits
    evaluator = CandidateEvaluator(model.apply_precision(pmap), X, y)
    assert evaluator.a == []
    hidden_15, hidden_14 = pmap.copy(), pmap.copy()
    for bits in hidden_15.hidden_frac_bits:
        bits[:] = 15  # the class layer needs 54 bits
    for bits in hidden_14.hidden_frac_bits:
        bits[:] = 14  # and here 53
    raised = hidden_14.copy()
    raised.hidden_frac_bits[0][2] = 40
    rows = _rows_at_layer0(monkeypatch)
    for pmap_next, kept in ((hidden_15, 0), (hidden_14, 2)):
        expected = evaluate_accuracy(evaluator.model.apply_precision(pmap_next), X, y)
        rows.clear()
        assert evaluator.cut(pmap_next) == expected
        assert rows == [len(X)]  # each is walked from the images
        assert ddbn._needs(evaluator.model)[-1] == (54 if kept == 0 else 53)
        assert len(evaluator.a) == kept
        _assert_cache_fresh(evaluator, X)
    with pytest.raises(ValueError, match="increase"):
        evaluator.cut(raised)
    assert all(map(np.array_equal, evaluator.model.precision.hidden_frac_bits,
                   hidden_14.hidden_frac_bits))
    _assert_cache_fresh(evaluator, X)


def test_accepted_class_cut_rebuilds_a_fresh_cache(monkeypatch):
    """A map that also cuts the class budget is no cut: it raises ``ValueError``.
    An evaluator built for the model under that map keeps fresh arrays of every
    hidden layer, which its next hidden-budget candidate reads instead of the
    images."""
    accepted, _, X, y = _hopeless_case()
    evaluator = CandidateEvaluator(accepted, X, y)
    pmap = accepted.precision.copy()
    pmap.class_frac_bits = 3
    pmap.hidden_frac_bits[0][[0, 5]] -= 2
    hidden = pmap.copy()
    hidden.hidden_frac_bits[1][3] = 0
    with pytest.raises(ValueError, match="only hidden budgets"):
        evaluator.cut(pmap)
    evaluator = CandidateEvaluator(accepted.apply_precision(pmap), X, y)
    assert len(evaluator.a) == 2
    _assert_cache_fresh(evaluator, X)
    expected = evaluate_accuracy(evaluator.model.apply_precision(hidden), X, y)
    rows = _rows_at_layer0(monkeypatch)
    assert evaluator.cut(hidden) == expected
    assert rows == []
    _assert_cache_fresh(evaluator, X)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       hidden=st.lists(st.integers(2, 8), min_size=1, max_size=3),
       frac_bits=st.integers(1, 8),
       steps=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 8),
                                st.integers(-3, 3),
                                st.sampled_from(["exact", "above", "below", "uniform"])),
                      min_size=1, max_size=8))
def test_early_rejection_matches_full_evaluation(seed, hidden, frac_bits, steps):
    """Along random cuts and thresholds (c / N exactly, one ulp either side,
    or uniform), the evaluator's accuracy reaches the threshold exactly when
    the full evaluation does, and then equals it; a rejected cut, stopped early
    or not, leaves the accepted model and its cache byte-identical, and each
    committed model byte-equals ``apply_precision`` of the previous one."""
    rng = np.random.default_rng(seed)
    model = _random_model([16, *hidden, 10], rng)
    X = (rng.random((600, 16)) > 0.5).astype(float)
    pmap = PrecisionMap.uniform(hidden, frac_bits)
    accepted = model.apply_precision(pmap)
    # labels the accepted model mostly gets right, so that thresholds near
    # a candidate's accuracy keep some candidates
    y = np.where(rng.random(len(X)) < 0.8, accepted.classify(X)[0],
                 rng.integers(0, 10, len(X)))
    evaluator = CandidateEvaluator(accepted, X, y)
    for count, cut, delta, kind in steps:
        pmap_next = _cut(pmap, rng, count, cut)
        expected = accepted.apply_precision(pmap_next)
        full = evaluate_accuracy(expected, X, y)
        t = (round(full * len(X)) + delta) / len(X)
        t = {"exact": t, "above": np.nextafter(t, 1.0), "below": np.nextafter(t, 0.0),
             "uniform": rng.random()}[kind]
        before = _state(evaluator)
        acc = evaluator.cut(pmap_next, t)
        assert (acc >= t) == (full >= t)
        if acc >= t:
            assert acc == full
            accepted, pmap = evaluator.model, pmap_next
            for got, want in zip(_parameters(accepted), _parameters(expected)):
                assert got.tobytes() == want.tobytes()
        else:
            after = _state(evaluator)
            assert after[0] is before[0] and after[1:] == before[1:]
        _assert_cache_fresh(evaluator, X)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       hidden=st.lists(st.integers(2, 8), min_size=1, max_size=3),
       frac_bits=st.integers(1, 8),
       retrained=st.booleans(),
       cuts=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 8), st.booleans()),
                     min_size=1, max_size=6))
def test_candidate_bytes_match_apply_precision(seed, hidden, frac_bits, retrained, cuts):
    """The evaluator requantizes only the columns a map changes, yet each
    candidate it commits byte-equals the accepted model's ``apply_precision``,
    from a retrained accepted model too. A map that also lowers the class budget
    is no cut: it raises ``ValueError`` and leaves the accepted model as it was."""
    rng = np.random.default_rng(seed)
    model = _random_model([16, *hidden, 10], rng)
    model.visible_biases = [rng.normal(size=n) for n in [16, *hidden[:-1]]]
    X = (rng.random((30, 16)) > 0.5).astype(float)
    y = rng.integers(0, 10, len(X))
    pmap = PrecisionMap.uniform(hidden, frac_bits)
    accepted = model.apply_precision(pmap)
    if retrained:
        accepted = ddbn.retrain_quantized(accepted, pmap, X, np.eye(10)[y],
                                          TrainConfig(epochs=1, batch_size=10))
    evaluator = CandidateEvaluator(accepted, X, y)
    for count, cut, class_cut in cuts:
        pmap_next = _cut(pmap, rng, count, cut)
        if class_cut:
            pmap_next.class_frac_bits -= 1
            before = evaluator.model
            with pytest.raises(ValueError, match="only hidden budgets"):
                evaluator.cut(pmap_next)
            assert evaluator.model is before
            continue
        expected = accepted.apply_precision(pmap_next)
        evaluator.cut(pmap_next)
        accepted, pmap = evaluator.model, pmap_next
        assert accepted.precision.class_frac_bits == pmap.class_frac_bits
        assert all(map(np.array_equal, accepted.precision.hidden_frac_bits,
                       pmap.hidden_frac_bits))
        for got, want in zip(_parameters(accepted), _parameters(expected)):
            assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 16),
       hidden=st.lists(st.integers(2, 8), min_size=1, max_size=3),
       frac_bits=st.sampled_from([1, 3, 5, 8, 21, 22, 30]),
       activation_frac_bits=st.sampled_from([0, 0, 64]),
       steps=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 8), st.integers(0, 2),
                                st.sampled_from([None, "uniform", "zero", "above"])),
                      min_size=1, max_size=8))
def test_layer_cache_matches_fresh_pass(seed, hidden, frac_bits, activation_frac_bits,
                                        steps):
    """Along random cuts from a random lowest layer up, committed or rejected,
    with or without a threshold (random, 0, or one ulp above the accuracy), and
    with budgets or activation formats that leave only some layers exact, every
    cached ``a[l]`` and ``z[l]`` byte-equals a fresh pass of the accepted model,
    and an accuracy that meets its threshold equals ``evaluate_accuracy``."""
    rng = np.random.default_rng(seed)
    model = _random_model([16, *hidden, 10], rng)
    X = (rng.random((300, 16)) > 0.5).astype(float)
    pmap = PrecisionMap.uniform(hidden, frac_bits, activation_frac_bits)
    accepted = model.apply_precision(pmap)
    y = np.where(rng.random(len(X)) < 0.8, accepted.classify(X)[0],
                 rng.integers(0, 10, len(X)))
    evaluator = CandidateEvaluator(accepted, X, y)
    _assert_cache_fresh(evaluator, X)
    for count, cut, lowest, kind in steps:
        pmap_next = _cut(pmap, rng, count, cut, min(lowest, len(hidden) - 1))
        full = evaluate_accuracy(evaluator.model.apply_precision(pmap_next), X, y)
        t = {None: None, "uniform": rng.random(), "zero": 0.0,
             "above": np.nextafter(full, 1.0)}[kind]
        acc = evaluator.cut(pmap_next, t)
        if t is None or acc >= t:
            assert acc == full
            pmap = pmap_next
        assert all(map(np.array_equal, evaluator.model.precision.hidden_frac_bits,
                       pmap.hidden_frac_bits))
        _assert_cache_fresh(evaluator, X)


def test_top_layer_candidate_recomputes_only_its_columns(monkeypatch):
    """A candidate that changes only the top hidden layer reads layer 0 from the
    cache (no ``hidden_probs(0, ...)``) and computes only the changed columns of
    the top layer, before the class layer: their sums come from the gathered weight
    columns, not from ``pre_activation``, and ``activation`` sees only those
    columns."""
    accepted, _, X, y = _hopeless_case()
    pmap = accepted.precision.copy()
    pmap.hidden_frac_bits[-1][[1, 4]] -= 2
    expected = evaluate_accuracy(accepted.apply_precision(pmap), X, y)
    # no threshold and a threshold of 0 walk every block, hardest first; one
    # evaluator each, as each commits
    runs = [(CandidateEvaluator(accepted, X, y), t) for t in (None, 0.0)]
    calls = []

    def spy(name):
        real = getattr(DdbnModel, name)

        def wrapper(model, layer, v, cols=slice(None), *w):  # activation takes no w
            out = real(model, layer, v, cols, *w)
            calls.append((name, layer, out.shape[1]))
            return out
        return wrapper

    for name in ("hidden_probs", "pre_activation", "activation"):
        monkeypatch.setattr(DdbnModel, name, spy(name))
    for evaluator, threshold in runs:
        calls.clear()
        assert evaluator.cut(pmap, threshold) == expected
        assert set(calls) == {("activation", 1, 2)}
    monkeypatch.undo()
    for evaluator, _ in runs:
        _assert_cache_fresh(evaluator, X)

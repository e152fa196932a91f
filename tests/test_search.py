import dataclasses
import json
import math
import re

import numpy as np
import pytest

from approxdbn import criticality, ddbn, search
from approxdbn.ddbn import DdbnModel, PrecisionMap, TrainConfig, train_ddbn
from approxdbn.search import (
    InfeasibleConstraint,
    SearchConfig,
    TraceRecord,
    approximation_curve,
    bit_length_histogram,
    level2_sizes,
    phase1_uniform,
    run_approxdbn,
    write_trace,
)


@pytest.fixture(scope="module")
def tiny_setup():
    rng = np.random.default_rng(0)
    X = (rng.random((300, 20)) > 0.5).astype(float)
    # labels carry signal: parity of the first four pixels, mapped to 0..3
    y = (X[:, 0] + 2 * X[:, 1]).astype(int)
    T = np.eye(10)[y]
    cfg = TrainConfig(epochs=5, batch_size=30, seed=1)
    model = train_ddbn(X, T, [20, 8, 6, 10], cfg)
    return model, X, T, y, cfg


class TestSearchConfig:
    def test_constraint_threshold_arithmetic(self):
        cfg = SearchConfig(max_relative_accuracy_loss=0.10)
        assert (1 - cfg.max_relative_accuracy_loss) * 0.95 == pytest.approx(0.855)

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(max_relative_accuracy_loss=0.0)
        for bad in ({"baseline_frac_bits": -1}, {"baseline_frac_bits": 57},
                    {"retrain_epochs": 0}):
            with pytest.raises(ValueError):
                SearchConfig(**bad)
        SearchConfig(baseline_frac_bits=56)

    @pytest.mark.parametrize("field,value", [
        ("retrain_epochs", 2.0), ("baseline_frac_bits", 8.0), ("retrain_epochs", True),
    ])
    def test_non_integer_counts_rejected(self, field, value):
        with pytest.raises(ValueError, match=re.escape(f"{field} {value!r}: must be an integer")):
            SearchConfig(**{field: value})


class TestLevel2Schedule:
    def test_600_neurons(self):
        assert level2_sizes(600) == [300, 150, 75, 38, 19, 10, 5, 3, 2, 1]

    def test_always_ends_at_one(self):
        for n in (1, 2, 7, 150, 1024):
            sizes = level2_sizes(n)
            assert sizes[-1] == 1
            assert sizes == sorted(sizes, reverse=True)
            assert sizes[0] == math.ceil(n / 2)


class TestPhase1:
    def _patched(self, monkeypatch, by_bits, full_precision_acc):
        def fake_eval(model, images, labels, **kwargs):
            if model.precision is None:
                return full_precision_acc
            return by_bits[model.precision.class_frac_bits]
        monkeypatch.setattr(search, "evaluate_accuracy", fake_eval)

    def test_reverts_first_violating_step(self, monkeypatch):
        accs = {8: 0.95, 7: 0.94, 6: 0.93, 5: 0.90, 4: 0.50}
        self._patched(monkeypatch, accs, 0.95)
        model = DdbnModel.random_init([6, 4, 10], seed=0)
        cfg = SearchConfig(max_relative_accuracy_loss=0.10)
        quantized, trace, baseline = phase1_uniform(model, cfg, np.ones((1, 6)),
                                                    np.zeros(1, dtype=int))
        pmap = quantized.precision
        assert baseline == 0.95
        assert pmap.class_frac_bits == 5
        assert all(np.all(b == 5) for b in pmap.hidden_frac_bits)
        assert [r.total_bits for r in trace] == [32, 28, 24, 20]

    def test_infeasible_baseline_format(self, monkeypatch):
        self._patched(monkeypatch, {8: 0.5}, 0.95)
        model = DdbnModel.random_init([6, 4, 10], seed=0)
        with pytest.raises(InfeasibleConstraint):
            phase1_uniform(model, SearchConfig(), np.ones((1, 6)),
                           np.zeros(1, dtype=int))

    def test_zero_baseline_accuracy_is_infeasible(self):
        model = DdbnModel.random_init([6, 4, 3, 10], seed=0)
        X = (np.random.default_rng(0).random((20, 6)) > 0.5).astype(float)
        preds, _ = model.classify(X)
        never_predicted = (preds + 1) % 10
        with pytest.raises(InfeasibleConstraint):
            phase1_uniform(model, SearchConfig(), X, never_predicted)

    def test_wide_formats_match_full_precision(self, tiny_setup):
        model, X, _, y, _ = tiny_setup
        from approxdbn.ddbn import evaluate_accuracy
        base = evaluate_accuracy(model, X, y)
        wide = model.apply_precision(
            PrecisionMap.uniform(model.hidden_sizes, 56,
                                 activation_frac_bits=64))
        assert evaluate_accuracy(wide, X, y) == base


class TestRunApproxdbn:
    def test_constraint_and_monotone_trace(self, tiny_setup):
        model, X, T, y, tcfg = tiny_setup
        cfg = SearchConfig(max_relative_accuracy_loss=0.10, retrain_epochs=1)
        res = run_approxdbn(model, cfg, X, T, X, y, train_config=tcfg)
        totals = [r.total_bits for r in res.trace]
        assert totals == sorted(totals, reverse=True)
        assert (res.report["final_accuracy"]
                >= 0.9 * res.report["baseline_accuracy"])
        for rec in res.trace:
            if rec.event == "approximate" and rec.phase == "phase2":
                assert rec.relative_accuracy >= 0.9
        for old, new in zip(totals, totals[1:]):
            assert new <= old

    def test_unconstrained_prunes_everything(self, tiny_setup):
        model, X, T, y, tcfg = tiny_setup
        cfg = SearchConfig(max_relative_accuracy_loss=0.99, retrain_epochs=1)
        res = run_approxdbn(model, cfg, X, T, X, y, train_config=tcfg)
        assert res.precision_map.total_hidden_bits() == 0
        assert all(np.all(b == 0) for b in res.precision_map.hidden_frac_bits)

    def test_deterministic(self, tiny_setup):
        model, X, T, y, tcfg = tiny_setup
        cfg = SearchConfig(max_relative_accuracy_loss=0.10, retrain_epochs=1)
        r1 = run_approxdbn(model, cfg, X, T, X, y, train_config=tcfg)
        r2 = run_approxdbn(model, cfg, X, T, X, y, train_config=tcfg)
        assert [(r.event, r.total_bits, r.relative_accuracy) for r in r1.trace] \
            == [(r.event, r.total_bits, r.relative_accuracy) for r in r2.trace]
        for a, b in zip(r1.model.weights, r2.model.weights):
            np.testing.assert_array_equal(a, b)

    def test_unknown_variant_rejected(self, tiny_setup):
        model, X, T, y, _ = tiny_setup
        with pytest.raises(ValueError):
            run_approxdbn(model, SearchConfig(), X, T, X, y, variant="bogus")


class TestAblations:
    def test_no_retrain_has_no_retrain_events(self, tiny_setup):
        model, X, T, y, tcfg = tiny_setup
        cfg = SearchConfig(max_relative_accuracy_loss=0.10, retrain_epochs=1)
        res = run_approxdbn(model, cfg, X, T, X, y, variant="no_retrain",
                            train_config=tcfg)
        assert all(r.event != "retrain" for r in res.trace)

    def test_neither_skips_both(self, tiny_setup):
        model, X, T, y, tcfg = tiny_setup
        cfg = SearchConfig(max_relative_accuracy_loss=0.10, retrain_epochs=1)
        r1 = run_approxdbn(model, cfg, X, T, X, y, variant="neither",
                           train_config=tcfg, order_seed=5)
        r2 = run_approxdbn(model, cfg, X, T, X, y, variant="neither",
                           train_config=tcfg, order_seed=5)
        assert all(r.event != "retrain" for r in r1.trace)
        assert [r.total_bits for r in r1.trace] == [r.total_bits for r in r2.trace]

    def test_random_order_changes_with_seed(self, tiny_setup):
        model, X, T, y, tcfg = tiny_setup
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(2)
        order_a = search._neuron_order(model, False, X, T, rng_a)
        order_b = search._neuron_order(model, False, X, T, rng_b)
        assert sorted(order_a) == sorted(order_b)
        assert order_a != order_b


def test_phase2_orders_from_kept_layer0(tiny_setup, monkeypatch):
    """Phase 2 hands every criticality order its kept layer-0 activations, and
    the search gives the bytes of one whose orders recompute every column."""
    model, X, T, y, tcfg = tiny_setup
    current = model.apply_precision(PrecisionMap.uniform(model.hidden_sizes, 6))
    baseline = ddbn.evaluate_accuracy(model, X, y)
    cfg = SearchConfig(max_relative_accuracy_loss=0.10, retrain_epochs=1)
    kept = []
    activations = criticality.PlainLayer0.activations
    monkeypatch.setattr(criticality.PlainLayer0, "activations",
                        lambda self, m: kept.append(activations(self, m)) or kept[-1])
    runs = [search.phase2_greedy(current, cfg, X, T, X, y, baseline, train_config=tcfg)]
    # one order per iteration, and one more whose sweeps change nothing
    assert len(kept) == runs[0][1][-1].iteration + 1 > 2
    assert all(a is not None for a in kept)
    monkeypatch.setattr(criticality.PlainLayer0, "activations", lambda self, m: None)
    runs.append(search.phase2_greedy(current, cfg, X, T, X, y, baseline,
                                     train_config=tcfg))
    (a, trace_a), (b, trace_b) = runs
    assert [r.to_json() for r in trace_a] == [r.to_json() for r in trace_b]
    assert all(p.tobytes() == q.tobytes() for p, q in zip(
        [*a.weights, *a.hidden_biases, a.class_weights],
        [*b.weights, *b.hidden_biases, b.class_weights]))


def test_reverted_retrain_records_the_accepted_accuracy(tiny_setup, monkeypatch):
    """A retrain that fails the constraint is reverted without another look at
    the kept model: its record repeats the last accepted accuracy."""
    model, X, T, y, tcfg = tiny_setup
    current = model.apply_precision(PrecisionMap.uniform(model.hidden_sizes, 6))
    baseline = ddbn.evaluate_accuracy(model, X, y)
    # a retrained model predicts class 9, which no label is: accuracy 0
    monkeypatch.setattr(search, "retrain_quantized", lambda m, pmap, *a: dataclasses.replace(
        m.apply_precision(pmap), class_weights=np.zeros_like(m.class_weights),
        class_bias=np.eye(10)[9]))
    own_map_cuts = []  # per cut of an evaluator's own map: does its model classify?
    cut = ddbn.CandidateEvaluator.cut

    def recording(self, pmap, threshold=None):
        if all(np.array_equal(a, b) for a, b in
               zip(pmap.hidden_frac_bits, self.model.precision.hidden_frac_bits)):
            own_map_cuts.append(bool(self.model.class_weights.any()))
        return cut(self, pmap, threshold)

    monkeypatch.setattr(ddbn.CandidateEvaluator, "cut", recording)
    _, trace = search.phase2_greedy(current, SearchConfig(), X, T, X, y, baseline,
                                    train_config=tcfg)
    retrains = [i for i, r in enumerate(trace) if r.event == "retrain"]
    assert retrains and own_map_cuts == [False] * len(retrains)
    for i in retrains:
        assert trace[i - 1].event == "approximate"
        assert trace[i].relative_accuracy == trace[i - 1].relative_accuracy


class _ScriptedEvaluator:
    """Stands in for ``CandidateEvaluator``: a candidate passes when every
    neuron whose budget it changed is still in ``allowed``; a cut that meets its
    threshold, or has none, is committed, and its neurons leave ``allowed``. The
    evaluators built for the retrains numbered in ``reverted`` (1-based) pass
    nothing."""

    allowed, built, reverted = set(), 0, set()

    def __init__(self, model, images, labels):
        cls = _ScriptedEvaluator
        self.model, self.rejects = model, cls.built in cls.reverted
        cls.built += 1

    def cut(self, pmap, threshold=None):
        old = self.model.precision.hidden_frac_bits
        changed = {(layer, int(i)) for layer, (a, b)
                   in enumerate(zip(old, pmap.hidden_frac_bits))
                   for i in np.flatnonzero(a != b)}
        acc = 0.0 if self.rejects or not changed <= self.allowed else 1.0
        if threshold is None or acc >= threshold:
            _ScriptedEvaluator.allowed -= changed
            self.model = self.model.apply_precision(pmap)
        return acc


class TestRetrainRule:
    """Which RBMs a Phase-2 retrain trains, on 12-20-10-5-10: hidden layers 0
    and 1 hold 30 neurons, so 3 changed budgets are the 10% that make a
    retrain full."""

    # per iteration, the neurons whose budget drops by one bit; each set's
    # size is one of level2_sizes(35), so the sweep of that size takes it
    SCRIPT = [
        [(0, 0), (0, 1), (0, 2)],   # first retrain: full
        [(0, 3), (1, 0)],           # 2 of 30 lower neurons: top only
        [(2, 0), (2, 1)],           # top-layer neurons do not count: top only
        [(1, 1)],                   # 3 of 30 since the first retrain: full
        [(0, 0)],                   # 1 since the fourth, reverted, retrain
        [(1, 2), (1, 3)],           # 3 since the fourth: full
        [],                         # nothing changes: the search ends
    ]
    TRAINED = [[0, 1, "top"], ["top"], ["top"], [0, 1, "top"], ["top"], [0, 1, "top"]]

    def test_lower_rbms_retrain_after_a_tenth_changed(self, monkeypatch):
        rng = np.random.default_rng(0)
        X = (rng.random((40, 12)) > 0.5).astype(float)
        y = rng.integers(0, 10, 40)
        T = np.eye(10)[y]
        tcfg = TrainConfig(epochs=1, batch_size=20)
        model = train_ddbn(X, T, [12, 20, 10, 5, 10], tcfg)
        model = model.apply_precision(PrecisionMap.uniform(model.hidden_sizes, 4))
        neurons = [(layer, idx) for layer, n in enumerate(model.hidden_sizes)
                   for idx in range(n)]
        script = iter(self.SCRIPT)

        def scripted_order(*args):
            allowed = next(script)
            _ScriptedEvaluator.allowed = set(allowed)
            return allowed + [n for n in neurons if n not in allowed]

        trained = []  # per retrain, the RBMs it trained
        retrain = search.retrain_quantized
        train_rbm, train_top = ddbn._train_rbm, ddbn._train_top_rbm
        monkeypatch.setattr(search, "retrain_quantized", lambda *a: (
            trained.append([]), retrain(*a))[1])
        monkeypatch.setattr(ddbn, "_train_rbm", lambda m, layer, *a: (
            trained[-1].append(layer), train_rbm(m, layer, *a)))
        monkeypatch.setattr(ddbn, "_train_top_rbm", lambda *a: (
            trained[-1].append("top"), train_top(*a)))
        monkeypatch.setattr(search, "_neuron_order", scripted_order)
        monkeypatch.setattr(search, "CandidateEvaluator", _ScriptedEvaluator)
        monkeypatch.setattr(_ScriptedEvaluator, "allowed", set())
        monkeypatch.setattr(_ScriptedEvaluator, "built", 0)
        monkeypatch.setattr(_ScriptedEvaluator, "reverted", {4})
        _, trace = search.phase2_greedy(model, SearchConfig(retrain_epochs=1), X, T, X, y,
                                        1.0, train_config=tcfg)
        assert trained == self.TRAINED
        assert [r.event for r in trace].count("retrain") == len(self.TRAINED)
        assert trace[-1].total_bits == 35 * 4 - sum(map(len, self.SCRIPT))


class TestCurve:
    def test_endpoints_and_length(self, tiny_setup):
        model, X, T, y, _ = tiny_setup
        from approxdbn.ddbn import evaluate_accuracy
        cfg = SearchConfig()
        curve = approximation_curve(model, cfg, X, T, X, y, order="criticality")
        n = sum(model.hidden_sizes)
        assert len(curve) == n + 1
        q88 = model.apply_precision(PrecisionMap.uniform(model.hidden_sizes, 8))
        assert curve[0] == evaluate_accuracy(q88, X, y)
        # all neurons pruned: the constant-class predictor
        all_zero = model.apply_precision(PrecisionMap.uniform(model.hidden_sizes, 0))
        assert curve[-1] == evaluate_accuracy(all_zero, X, y)

    def test_quantizes_the_model_once(self, tiny_setup, monkeypatch):
        """The evaluator puts the model on the map's grid, and point 0 reads the
        evaluator's model."""
        model, X, T, y, _ = tiny_setup
        calls = []
        apply = DdbnModel.apply_precision
        monkeypatch.setattr(DdbnModel, "apply_precision",
                            lambda self, pmap: (calls.append(pmap), apply(self, pmap))[1])
        approximation_curve(model, SearchConfig(), X, T, X, y)
        assert len(calls) == 1

    def test_random_order_reproducible(self, tiny_setup):
        model, X, T, y, _ = tiny_setup
        cfg = SearchConfig()
        c1 = approximation_curve(model, cfg, X, T, X, y, order="random", order_seed=3)
        c2 = approximation_curve(model, cfg, X, T, X, y, order="random", order_seed=3)
        np.testing.assert_array_equal(c1, c2)

    def test_unknown_order_rejected(self, tiny_setup):
        """A misspelt order raises; it must not run a random-order curve."""
        model, X, T, y, _ = tiny_setup
        with pytest.raises(ValueError, match="unknown order 'critcality'"):
            approximation_curve(model, SearchConfig(), X, T, X, y, order="critcality")

    def test_empty_evaluation_set_rejected(self, tiny_setup):
        """No rows: a ``ValueError``, not a division by zero in the stack size."""
        model, X, T, y, _ = tiny_setup
        with pytest.raises(ValueError, match="evaluation set is empty"):
            approximation_curve(model, SearchConfig(), X, T, X[:0], y[:0])


class TestArtifacts:
    def test_monotone_guard(self):
        pmap = PrecisionMap.uniform([4], 5)
        grown = pmap.copy()
        grown.hidden_frac_bits[0][0] = 6
        with pytest.raises(ValueError):
            pmap.check_monotone_update(grown)
        # a cut lowers hidden budgets only: every other field stays as it is
        cut = pmap.copy()
        cut.hidden_frac_bits[0][1:] = [4, 0, 5]
        pmap.check_monotone_update(cut)
        for name, value in [("class_frac_bits", 4), ("class_frac_bits", 6),
                            ("global_frac_bits", 4), ("weight_int_bits", 7),
                            ("activation_frac_bits", 8),
                            ("hidden_frac_bits", [np.full(3, 5)]),
                            ("hidden_frac_bits", [np.full(4, 5), np.full(2, 5)])]:
            with pytest.raises(ValueError, match="a cut"):
                pmap.check_monotone_update(dataclasses.replace(cut, **{name: value}))

    def test_histogram(self):
        pmap = PrecisionMap.uniform([3, 2], 8)
        pmap.hidden_frac_bits[0][:] = [0, 8, 4]
        assert bit_length_histogram(pmap) == [(0, 1), (4, 1), (8, 3)]

    def test_trace_serialization(self, tmp_path):
        records = [TraceRecord("phase1", 0, "approximate", 1.0, 64),
                   TraceRecord("phase2", 1, "retrain", 0.93, 40)]
        path = tmp_path / "trace.ndjson"
        write_trace(records, path)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["total_bits"] == 64
        assert lines[1] == {"phase": "phase2", "iteration": 1,
                            "event": "retrain", "relative_accuracy": 0.93,
                            "total_bits": 40}

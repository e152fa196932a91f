import json
import math

import numpy as np
import pytest

from approxdbn import search
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
        _, pmap, trace, baseline = phase1_uniform(model, cfg, np.ones((1, 6)),
                                                  np.zeros(1, dtype=int))
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
        assert res.final_accuracy >= 0.9 * res.baseline_accuracy
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
        pmap = PrecisionMap.uniform(model.hidden_sizes, 8)
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(2)
        order_a = search._neuron_order(model, pmap, False, X, T, rng_a)
        order_b = search._neuron_order(model, pmap, False, X, T, rng_b)
        assert sorted(order_a) == sorted(order_b)
        assert order_a != order_b


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

    def test_random_order_reproducible(self, tiny_setup):
        model, X, T, y, _ = tiny_setup
        cfg = SearchConfig()
        c1 = approximation_curve(model, cfg, X, T, X, y, order="random", order_seed=3)
        c2 = approximation_curve(model, cfg, X, T, X, y, order="random", order_seed=3)
        np.testing.assert_array_equal(c1, c2)


class TestArtifacts:
    def test_monotone_guard(self):
        pmap = PrecisionMap.uniform([4], 5)
        grown = pmap.copy()
        grown.hidden_frac_bits[0][0] = 6
        with pytest.raises(ValueError):
            pmap.check_monotone_update(grown)

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

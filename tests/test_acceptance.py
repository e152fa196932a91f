"""End-to-end acceptance gate.

Each test checks one headline property of the whole pipeline and prints a
single PASS/FAIL line with the measured number next to its threshold. The
MNIST-backed tests skip when the IDX files are absent (see conftest). The
five-seed ablation comparison is marked slow and excluded from the default
run; select it with ``-m slow``.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from approxdbn.criticality import per_sample_gradients
from approxdbn.dataset import load_idx, split
from approxdbn.ddbn import (
    DdbnModel,
    PrecisionMap,
    TrainConfig,
    evaluate_accuracy,
    train_ddbn,
)
from approxdbn.fixedpoint import quantize_all
from approxdbn.search import (
    SearchConfig,
    approximation_curve,
    run_approxdbn,
)

from conftest import brute_force_quantize, mnist_paths, small_formats
from test_criticality import finite_difference_gradients, random_model
from test_ddbn import exact_stochastic_expectation

LAYER_SIZES = [784, 100, 50, 10]
SUBSET = 10_000


def report(name, ok, detail):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


# ---- shared expensive state -------------------------------------------


@pytest.fixture(scope="session")
def mnist():
    paths = mnist_paths()
    train = load_idx(paths["train_images"], paths["train_labels"])
    test = load_idx(paths["test_images"], paths["test_labels"])
    subset = train.subset(np.arange(SUBSET))
    tr, va = split(subset, 0.1, seed=0)
    return tr, va, test


@pytest.fixture(scope="session")
def trained(mnist):
    tr, _, _ = mnist
    config = TrainConfig(seed=0)
    return train_ddbn(tr.images, tr.one_hot, LAYER_SIZES, config), config


@pytest.fixture(scope="session")
def searched(mnist, trained):
    tr, va, _ = mnist
    model, train_config = trained
    config = SearchConfig(max_relative_accuracy_loss=0.10)
    result = run_approxdbn(model, config, tr.images, tr.one_hot,
                           va.images, va.labels, train_config=train_config)
    return result, config


# ---- component oracles ------------------------------------------------


def test_quantization_matches_exhaustive_oracle():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-40.0, 40.0, 100_000)
    mismatches = 0
    formats = small_formats(max_total=6)
    for fmt in formats:
        got = quantize_all(xs, fmt)
        want = brute_force_quantize(xs, fmt)
        mismatches += int(np.count_nonzero(got != want))
    report("quantization-oracle", mismatches == 0,
           f"{mismatches} mismatches over {len(formats)} formats x {len(xs)} values")


def test_criticality_gradients_match_finite_differences():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        sizes = [5, 4, 3, 2]
        model = random_model(sizes, seed=seed, scale=1.5)
        x = rng.random(sizes[0])
        t = np.eye(sizes[-1])[rng.integers(sizes[-1])]
        analytic = per_sample_gradients(model, x[None, :], t[None, :])
        fd = finite_difference_gradients(model, x, t)
        for g_an, g_fd in zip(analytic, fd):
            rel = np.abs(g_an[0] - g_fd) / np.maximum(np.abs(g_fd), 1e-8)
            worst = max(worst, float(rel.max()))
    report("gradient-finite-differences", worst <= 1e-5,
           f"worst relative error {worst:.2e} <= 1e-05 over 50 models")


def test_stochastic_inference_matches_enumeration():
    rng = np.random.default_rng(13)
    model = DdbnModel.random_init([6, 3, 10], seed=13, scale=1.0)
    model.hidden_biases[0] = rng.normal(size=3)
    model.class_bias = rng.normal(size=10)
    x = (rng.random(6) > 0.5).astype(float)
    expect, var = exact_stochastic_expectation(model, x)
    S = 10_000
    _, avg = model.classify(x, mode="stochastic", samples=S, seed=5)
    se = np.sqrt(var / S)
    sigmas = float(np.max(np.abs(avg - expect) / np.maximum(se, 1e-12)))
    report("stochastic-enumeration-oracle", sigmas <= 3.0,
           f"max deviation {sigmas:.2f} standard errors <= 3 at S={S}")


# ---- scaled MNIST pipeline --------------------------------------------


def test_baseline_training_accuracy(mnist, trained):
    _, _, test = mnist
    model, _ = trained
    acc = evaluate_accuracy(model, test.images, test.labels)
    report("baseline-training", acc >= 0.85,
           f"784-100-50 test accuracy {acc:.4f} >= 0.85 on {SUBSET}-sample subset")


def test_wide_fixed_point_is_lossless(mnist, trained):
    _, _, test = mnist
    model, _ = trained
    base = evaluate_accuracy(model, test.images, test.labels)
    wide = model.apply_precision(
        PrecisionMap.uniform(model.hidden_sizes, 56, activation_frac_bits=64))
    acc = evaluate_accuracy(wide, test.images, test.labels)
    report("wide-format-fidelity", acc == base,
           f"accuracy change {acc - base:+.6f} == 0 at 64-bit formats")


def test_criticality_order_beats_random_pruning(mnist, trained):
    tr, va, _ = mnist
    model, _ = trained
    config = SearchConfig()
    crit = approximation_curve(model, config, tr.images, tr.one_hot,
                               va.images, va.labels, order="criticality")
    rand = [approximation_curve(model, config, tr.images, tr.one_hot,
                                va.images, va.labels, order="random",
                                order_seed=seed).mean()
            for seed in range(5)]
    crit_mean, rand_mean = float(crit.mean()), float(np.mean(rand))
    report("criticality-vs-random-pruning", crit_mean > rand_mean,
           f"curve mean {crit_mean:.4f} > random-order mean {rand_mean:.4f}")


def test_search_constraint_and_budget(searched):
    result, config = searched
    totals = [r.total_bits for r in result.trace]
    monotone = totals == sorted(totals, reverse=True)
    rel = result.final_accuracy / result.baseline_accuracy
    mean_bits = result.report["mean_hidden_frac_bits"]
    ok = monotone and rel >= 0.90 and mean_bits <= 4.0
    report("greedy-search", ok,
           f"monotone={monotone}, relative accuracy {rel:.4f} >= 0.90, "
           f"mean frac bits {mean_bits:.2f} <= 4.0")


@pytest.mark.slow
def test_ablation_median_ordering(mnist):
    tr, va, _ = mnist
    config = SearchConfig(max_relative_accuracy_loss=0.10)
    variants = ("full", "no_retrain", "no_criticality")
    totals = {v: [] for v in variants}
    for seed in range(5):
        train_config = TrainConfig(seed=seed)
        model = train_ddbn(tr.images, tr.one_hot, LAYER_SIZES, train_config)
        for variant in variants:
            res = run_approxdbn(model, config, tr.images, tr.one_hot,
                                va.images, va.labels, variant=variant,
                                train_config=train_config, order_seed=seed)
            totals[variant].append(res.precision_map.total_hidden_bits())
    med = {v: float(np.median(t)) for v, t in totals.items()}
    ok = (med["full"] <= med["no_retrain"]
          and med["full"] <= med["no_criticality"])
    report("ablation-ordering", ok,
           f"median bits full={med['full']} <= no_retrain={med['no_retrain']} "
           f"and <= no_criticality={med['no_criticality']}; totals={totals}")


# ---- determinism across thread counts ---------------------------------


def _run_cli(args, threads, cwd):
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    proc = subprocess.run([sys.executable, "-m", "approxdbn", *args],
                          env=env, cwd=cwd, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc


def test_thread_count_determinism(tmp_path):
    paths = mnist_paths()
    outputs = {}
    for threads in (1, 4):
        out = tmp_path / f"threads_{threads}"
        config = {
            "train_images": paths["train_images"],
            "train_labels": paths["train_labels"],
            "test_images": paths["test_images"],
            "test_labels": paths["test_labels"],
            "hidden_sizes": LAYER_SIZES[1:-1],
            "train_subset": SUBSET,
            "validation_fraction": 0.1,
            "seed": 0,
            "out_dir": str(out / "train"),
            "search": {"max_relative_accuracy_loss": 0.10},
        }
        cfg_path = tmp_path / f"config_{threads}.json"
        cfg_path.write_text(json.dumps(config))
        _run_cli(["train", "--config", str(cfg_path)], threads, tmp_path)
        _run_cli(["search", "--config", str(cfg_path),
                  "--model", str(out / "train" / "model.bin"),
                  "--out", str(out / "search")], threads, tmp_path)
        outputs[threads] = (
            (out / "train" / "model.bin").read_bytes(),
            (out / "search" / "final_model.bin").read_bytes(),
            (out / "search" / "trace.ndjson").read_bytes(),
        )
    same = outputs[1] == outputs[4]
    report("thread-determinism", same,
           "model files and traces bitwise identical for 1 and 4 threads")

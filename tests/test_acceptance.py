"""End-to-end acceptance gate.

Each test checks one headline property of the whole pipeline and prints a
single PASS/FAIL line with the measured number next to its threshold. The
MNIST-backed tests skip when the IDX files are absent (see conftest). The
five-seed ablation comparisons, on MNIST and on generated digits, are
marked slow and excluded from the default run; select them with ``-m slow``.
"""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import approxdbn
from approxdbn import cli
from approxdbn.criticality import per_sample_gradients
from approxdbn.dataset import load_idx, split
from approxdbn.ddbn import (
    DdbnModel,
    PrecisionMap,
    TrainConfig,
    evaluate_accuracy,
    load_model,
    retrain_quantized,
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
from test_invariants import _parameters

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
        got = quantize_all(xs, *fmt.bounds)
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
    rel = result.report["relative_accuracy"]
    mean_bits = result.report["mean_hidden_frac_bits"]
    ok = monotone and rel >= 0.90 and mean_bits <= 4.0
    report("greedy-search", ok,
           f"monotone={monotone}, relative accuracy {rel:.4f} >= 0.90, "
           f"mean frac bits {mean_bits:.2f} <= 4.0")


def test_search_constraint_and_budget_generated(tmp_path):
    """``train`` and ``search`` through the CLI on the benchmark's
    generated digits: every committed step meets the constraint, budgets
    only fall and end below the Phase-1 start, pruned neurons are exactly
    0, and the final model is a fixpoint of its precision map."""
    gen = _load_generator()
    images, labels = gen.generate(1000, 0, 0.08)
    gen.write_idx(images, labels, tmp_path / "imgs", tmp_path / "lbls")
    loss, hidden = 0.10, [50, 20]
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "train_images": str(tmp_path / "imgs"),
        "train_labels": str(tmp_path / "lbls"),
        "hidden_sizes": hidden,
        "out_dir": str(tmp_path / "train"),
        # trains to about 0.77 validation accuracy, so the constraint binds
        "train": {"epochs": 30, "learning_rate": 0.1},
        "search": {"max_relative_accuracy_loss": loss, "retrain_epochs": 1},
    }))
    assert cli.main(["train", "--config", str(cfg)]) == 0
    assert cli.main(["search", "--config", str(cfg),
                     "--model", str(tmp_path / "train" / "model.bin"),
                     "--out", str(tmp_path / "search")]) == 0
    with open(tmp_path / "search" / "trace.ndjson") as f:
        trace = [json.loads(line) for line in f]
    worst = min(r["relative_accuracy"] for r in trace)
    totals = [r["total_bits"] for r in trace]
    start = sum(hidden) * SearchConfig().baseline_frac_bits
    model = load_model(tmp_path / "search" / "final_model.bin")
    pmap = model.precision
    a, pruned_nonzero = images[:200] / 255.0 > 0.5, 0
    for layer, bits in enumerate(pmap.hidden_frac_bits):
        a = model.hidden_probs(layer, a)
        pruned_nonzero += int(np.count_nonzero(a[:, bits == 0])
                              + np.count_nonzero(model.weights[layer][:, bits == 0])
                              + np.count_nonzero(model.hidden_biases[layer][bits == 0]))
    again = model.apply_precision(pmap)
    fixpoint = all(np.array_equal(p, q) for p, q in zip(_parameters(model),
                                                         _parameters(again)))
    pruned = sum(int((bits == 0).sum()) for bits in pmap.hidden_frac_bits)
    ok = (worst >= 1 - loss - 1e-12 and totals == sorted(totals, reverse=True)
          and totals[-1] < start and pruned > 0 and pruned_nonzero == 0
          and fixpoint)
    report("greedy-search-generated", ok,
           f"worst relative accuracy {worst:.4f} >= {1 - loss}, "
           f"monotone={totals == sorted(totals, reverse=True)}, total bits "
           f"{totals[-1]} < {start}, {pruned_nonzero} nonzero values of "
           f"{pruned} pruned neurons, fixpoint={fixpoint}")


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
    _report_ablation("ablation-ordering", totals)


@pytest.mark.slow
def test_ablation_median_ordering_generated(tmp_path):
    """``test_ablation_median_ordering`` on the benchmark's generated digits
    in the ``retrain`` workload's shape: 784-100-50-10, 3,000 samples with
    flip rate 0.12, a 10% validation split and 5 retrain epochs. Config
    seeds 0-4 each set the split, the train seed and the random order, as
    the CLI's ``seed`` does."""
    gen = _load_generator()
    gen.write_idx(*gen.generate(3000, 0, 0.12), tmp_path / "imgs", tmp_path / "lbls")
    data = load_idx(tmp_path / "imgs", tmp_path / "lbls")
    config = SearchConfig(max_relative_accuracy_loss=0.10, retrain_epochs=5)
    variants = ("full", "no_retrain", "no_criticality")
    totals = {v: [] for v in variants}
    for seed in range(5):
        tr, va = split(data, 0.1, seed=seed)
        train_config = TrainConfig(seed=seed)
        model = train_ddbn(tr.images, tr.one_hot, LAYER_SIZES, train_config)
        for variant in variants:
            res = run_approxdbn(model, config, tr.images, tr.one_hot,
                                va.images, va.labels, variant=variant,
                                train_config=train_config, order_seed=seed)
            totals[variant].append(res.precision_map.total_hidden_bits())
    _report_ablation("ablation-ordering-generated", totals)


def _report_ablation(name, totals):
    """Median total bits of ``full`` at most those of ``no_retrain`` and
    of ``no_criticality``."""
    med = {v: float(np.median(t)) for v, t in totals.items()}
    ok = (med["full"] <= med["no_retrain"]
          and med["full"] <= med["no_criticality"])
    report(name, ok,
           f"median bits full={med['full']} <= no_retrain={med['no_retrain']} "
           f"and <= no_criticality={med['no_criticality']}; totals={totals}")


# ---- determinism across thread counts ---------------------------------


ARTIFACTS = ("train/model.bin", "search/final_model.bin", "search/trace.ndjson")


def _run_cli(args, threads, cwd, cpus=None):
    """The CLI in a child with ``threads`` BLAS threads, limited to the CPUs
    ``cpus`` by its own affinity (default: this process's)."""
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    src = os.path.dirname(os.path.dirname(approxdbn.__file__))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    limit = None if cpus is None else lambda: os.sched_setaffinity(0, cpus)
    proc = subprocess.run([sys.executable, "-m", "approxdbn", *args], env=env, cwd=cwd,
                          capture_output=True, text=True, preexec_fn=limit)
    assert proc.returncode == 0, proc.stderr
    return proc


def _differences_across_thread_counts(tmp_path, config):
    """The ``ARTIFACTS`` whose bytes differ between ``train`` and
    ``search`` through the CLI with 1 and with 4 BLAS threads."""
    outputs = {}
    for threads in (1, 4):
        out = tmp_path / f"threads_{threads}"
        cfg_path = tmp_path / f"config_{threads}.json"
        cfg_path.write_text(json.dumps(dict(config, out_dir=str(out / "train"))))
        _run_cli(["train", "--config", str(cfg_path)], threads, tmp_path)
        _run_cli(["search", "--config", str(cfg_path),
                  "--model", str(out / "train" / "model.bin"),
                  "--out", str(out / "search")], threads, tmp_path)
        outputs[threads] = [(out / rel).read_bytes() for rel in ARTIFACTS]
    return [rel for rel, one, four in zip(ARTIFACTS, outputs[1], outputs[4])
            if one != four]


def _report_thread_determinism(name, differ):
    report(name, not differ, "model files and traces bitwise identical for "
           f"1 and 4 threads; differing: {differ}")


def test_thread_count_determinism(tmp_path):
    paths = mnist_paths()
    config = {
        "train_images": paths["train_images"],
        "train_labels": paths["train_labels"],
        "test_images": paths["test_images"],
        "test_labels": paths["test_labels"],
        "hidden_sizes": LAYER_SIZES[1:-1],
        "train_subset": SUBSET,
        "validation_fraction": 0.1,
        "seed": 0,
        "search": {"max_relative_accuracy_loss": 0.10},
    }
    _report_thread_determinism(
        "thread-determinism", _differences_across_thread_counts(tmp_path, config))


def _load_generator():
    """The benchmark's MNIST-shaped digit generator, ``perfbench/gen.py``."""
    path = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                        "gen.py")
    spec = importlib.util.spec_from_file_location("perfbench_gen", path)
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def test_thread_count_determinism_generated(tmp_path):
    gen = _load_generator()
    images, labels = gen.generate(1000, 0, 0.12)
    gen.write_idx(images, labels, tmp_path / "imgs", tmp_path / "lbls")
    config = {
        "train_images": str(tmp_path / "imgs"),
        "train_labels": str(tmp_path / "lbls"),
        # layer 0's CD products: 100 x 784 x 128 per batch, in float32
        "hidden_sizes": [128, 20],
        "search": {"retrain_epochs": 1},
    }
    differ = _differences_across_thread_counts(tmp_path, config)
    if hasattr(os, "sched_setaffinity"):  # train again on one CPU
        cfg_path = tmp_path / "config_one_cpu.json"
        cfg_path.write_text(json.dumps(dict(config, out_dir=str(tmp_path / "one_cpu"))))
        _run_cli(["train", "--config", str(cfg_path)], 1, tmp_path,
                 cpus={min(os.sched_getaffinity(0))})
        one_cpu = (tmp_path / "one_cpu" / "model.bin").read_bytes()
        if one_cpu != (tmp_path / "threads_1" / "train" / "model.bin").read_bytes():
            differ.append("train/model.bin on one CPU")
    _report_thread_determinism("thread-determinism-generated", differ)


def _sha256(arrays):
    digest = hashlib.sha256()
    for a in arrays:
        digest.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return digest.hexdigest()


# SHA-256 of the outputs below, computed with the format-object quantizer
# (FixedPointFormat and PrecisionMap.weight_format/activation_format) that
# PrecisionMap.grid replaced: the bounds are the same floats, so the bytes
# must not change
WIDE_PATH_SHA256 = {
    8: {
        "apply_precision":
            "87ba7b03ad5665ccb553e2487922a1a42acf651ce4c39cc9f6306673ea37432a",
        "classify":
            "9b35957b9df66830677306f0c8dc979a3be15787ca476eee5a4ad74a0771af20",
        "retrain_quantized":
            "990ab1e2d8d8b788abfe67501e92d14cec5d8fdff4e081fd715eced032d7161c",
    },
    64: {
        "apply_precision":
            "87ba7b03ad5665ccb553e2487922a1a42acf651ce4c39cc9f6306673ea37432a",
        "classify":
            "af01fb1955e3a1640065133c4d4d747dc92ad3b36b2af5f50fe4011a77469437",
        "retrain_quantized":
            "54eec626109c319cd2e7d5085952d488abaeee03d7974215d56a3e76edf8a79e",
    },
}


def test_activation_frac_bits_path_golden_bytes():
    """``apply_precision``, ``classify`` (both modes) and a one-epoch
    ``retrain_quantized`` under ``activation_frac_bits`` 8 and 64, on
    generated digits, hash to fixed bytes. No CLI config sets
    ``activation_frac_bits``, so ``tools/compare_outputs.py`` cannot reach this
    path. At 64 the sums of layers >= 1 are not exact in float64."""
    gen = _load_generator()
    images, labels = gen.generate(300, 5, 0.1)
    x = (images > 127).astype(np.float64)
    one_hot = np.eye(10)[labels]
    model = train_ddbn(x[:200], one_hot[:200], [784, 24, 12, 10],
                       TrainConfig(epochs=1, batch_size=50, seed=3))
    rng = np.random.default_rng(4)
    budgets = [rng.integers(0, 13, n) for n in model.hidden_sizes]
    got = {}
    for afb in (8, 64):
        pmap = PrecisionMap([b.copy() for b in budgets], 10, 9, activation_frac_bits=afb)
        q = model.apply_precision(pmap)
        pred, probs = q.classify(x[200:])
        spred, sprobs = q.classify(x[200:], mode="stochastic", samples=3, seed=5)
        r = retrain_quantized(q, pmap, x[:200], one_hot[:200],
                              TrainConfig(epochs=1, batch_size=50, seed=6))
        got[afb] = {"apply_precision": _sha256(_parameters(q)),
                    "classify": _sha256([pred, probs, spred, sprobs]),
                    "retrain_quantized": _sha256(_parameters(r))}
    differ = [f"{afb}/{name}" for afb in got for name in got[afb]
              if got[afb][name] != WIDE_PATH_SHA256[afb][name]]
    report("wide-path-golden-bytes", not differ,
           f"{6 - len(differ)} of 6 hashes match; differ: {differ or 'none'}")

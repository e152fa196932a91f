import copy
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys
import zlib

import numpy as np
import pytest

from approxdbn import cli, ddbn
from approxdbn.ddbn import TrainConfig
from approxdbn.search import SearchConfig

from conftest import write_idx_pair


@pytest.fixture
def workspace(tmp_path):
    """Tiny synthetic IDX dataset plus a config file wired for fast runs."""
    rng = np.random.default_rng(0)
    n = 120
    labels = rng.integers(0, 4, n, dtype=np.uint8)
    images = np.zeros((n, 784), dtype=np.uint8)
    # embed the label as a bright block so the task is learnable
    for i, y in enumerate(labels):
        images[i, y * 50:y * 50 + 40] = 255
    images[:, 400:] = rng.integers(0, 120, (n, 384), dtype=np.uint8)
    write_idx_pair(images, labels, tmp_path / "imgs", tmp_path / "lbls")
    write_idx_pair(images[:40], labels[:40], tmp_path / "test_imgs",
                   tmp_path / "test_lbls")
    config = {
        "train_images": str(tmp_path / "imgs"),
        "train_labels": str(tmp_path / "lbls"),
        "test_images": str(tmp_path / "test_imgs"),
        "test_labels": str(tmp_path / "test_lbls"),
        "hidden_sizes": [8, 6],
        "validation_fraction": 0.25,
        "seed": 3,
        "out_dir": str(tmp_path / "out"),
        "train": {"epochs": 3, "batch_size": 30},
        "search": {"max_relative_accuracy_loss": 0.5, "retrain_epochs": 1},
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    return tmp_path, cfg_path, config


def write_config(path, config):
    path.write_text(json.dumps(config))


REMOVED_KEYS = [
    ("train", "cd_steps", 1), ("train", "momentum", 0.5),
    ("search", "phase1_step", 1), ("search", "level3_step", 1),
    ("search", "retrain_learning_rate", 0.1),
    ("search", "criticality_samples", 0), ("search", "eval_mode", "mean_field"),
    ("search", "eval_samples", 10), ("search", "eval_seed", 0),
    ("search", "weight_int_bits", 8), ("search", "order_seed", 0),
]


class TestTrainCommand:
    def test_success(self, workspace):
        tmp, cfg, config = workspace
        assert cli.main(["train", "--config", str(cfg)]) == 0
        assert os.path.exists(tmp / "out" / "model.bin")
        assert os.path.exists(tmp / "out" / "training_summary.json")
        assert os.path.exists(tmp / "out" / "config_echo.json")

    def test_deterministic_model_files(self, workspace):
        tmp, cfg, config = workspace
        assert cli.main(["train", "--config", str(cfg)]) == 0
        first = (tmp / "out" / "model.bin").read_bytes()
        assert cli.main(["train", "--config", str(cfg),
                         "--out", str(tmp / "out2")]) == 0
        assert (tmp / "out2" / "model.bin").read_bytes() == first

    def test_missing_labels_file(self, workspace):
        tmp, cfg, config = workspace
        config["train_labels"] = str(tmp / "nope")
        write_config(cfg, config)
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_DATA

    def test_unknown_config_key_rejected(self, workspace):
        tmp, cfg, config = workspace
        config["typo_key"] = 1
        write_config(cfg, config)
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG

    def test_unknown_nested_key_rejected(self, workspace, capsys):
        # "nope" and every key the config once took at these values
        tmp, cfg, config = workspace
        for section, key, value in [("train", "nope", 1)] + REMOVED_KEYS:
            edited = copy.deepcopy(config)
            edited[section][key] = value
            write_config(cfg, edited)
            assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG, key
            assert key in capsys.readouterr().err

    def test_seed_flag_rejected(self, workspace):
        tmp, cfg, _ = workspace
        with pytest.raises(SystemExit) as e:
            cli.main(["train", "--config", str(cfg), "--seed", "1"])
        assert e.value.code == 2

    def test_diverged_training_exits_2(self, workspace, capsys):
        tmp, cfg, config = workspace
        config["train"]["learning_rate"] = 1.7e308
        write_config(cfg, config)
        with pytest.warns(RuntimeWarning) as record:
            assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert any("overflow" in str(w.message) for w in record)
        assert "train.learning_rate" in capsys.readouterr().err
        assert not (tmp / "out" / "model.bin").exists()

    def test_rate_beyond_float32_exits_2(self, workspace):
        # finite in float64 but not in float32: CD's float32 batch step makes the
        # masters NaN in the first update, and the divergence check stops it. The
        # rate's cast and the products on inf and NaN print numpy's warnings first
        tmp, cfg, config = workspace
        config["train"]["learning_rate"] = 1e300
        write_config(cfg, config)
        src = os.path.dirname(os.path.dirname(cli.__file__))
        proc = subprocess.run([sys.executable, "-m", "approxdbn", "train", "--config", str(cfg)],
                              env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                              text=True)
        assert proc.returncode == cli.EXIT_CONFIG
        assert "diverged" in proc.stderr and "train.learning_rate" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp / "out" / "model.bin").exists()

    def test_hidden_size_beyond_32_bits_rejected(self, workspace, capsys):
        # save_model stores layer sizes in 32 bits; unchecked, train would
        # ask numpy for an 8 x 2^32 weight array
        tmp, cfg, config = workspace
        config["hidden_sizes"] = [8, 2 ** 32]
        write_config(cfg, config)
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "hidden_sizes must be at most 4294967295" in capsys.readouterr().err

    def test_model_out_of_memory_exits_2(self, workspace, capsys, monkeypatch):
        tmp, cfg, config = workspace

        def no_memory(*args, **kwargs):
            raise MemoryError("Unable to allocate 25.0 TiB for an array")

        monkeypatch.setattr(ddbn.DdbnModel, "random_init", no_memory)
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "hidden_sizes [8, 6]" in err and "Unable to allocate" in err
        assert not (tmp / "out" / "model.bin").exists()

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected_before_training(self, workspace,
                                                               capsys, rate):
        tmp, cfg, config = workspace
        config["train"]["learning_rate"] = rate
        write_config(cfg, config)
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG
        assert "learning_rate must be positive and finite" in capsys.readouterr().err

    def test_invalid_json(self, workspace):
        tmp, cfg, _ = workspace
        cfg.write_text("{not json")
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG

    def test_unwritable_out_dir(self, workspace):
        tmp, cfg, config = workspace
        blocker = tmp / "blocked"
        blocker.write_text("a file, not a directory")
        config["out_dir"] = str(blocker)
        write_config(cfg, config)
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_CONFIG


@pytest.fixture
def trained(workspace):
    tmp, cfg, config = workspace
    assert cli.main(["train", "--config", str(cfg)]) == 0
    return tmp, cfg, config, str(tmp / "out" / "model.bin")


class TestSearchCommand:
    def test_success_and_artifacts(self, trained):
        tmp, cfg, config, model = trained
        out = tmp / "search_out"
        assert cli.main(["search", "--config", str(cfg), "--model", model,
                         "--out", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["relative_accuracy"] >= 1 - 0.5
        assert (out / "trace.ndjson").exists()
        assert (out / "final_model.bin").exists()
        hist = json.loads((out / "bit_histogram.json").read_text())
        assert sum(h["neuron_count"] for h in hist) == 14

    def test_variant_neither_has_no_retrain_events(self, trained):
        tmp, cfg, config, model = trained
        config["search"]["variant"] = "neither"
        write_config(cfg, config)
        out = tmp / "neither_out"
        assert cli.main(["search", "--config", str(cfg), "--model", model,
                         "--out", str(out)]) == 0
        events = [json.loads(l)["event"]
                  for l in (out / "trace.ndjson").read_text().splitlines()]
        assert "retrain" not in events

    def test_infeasible_constraint_exit_code(self, trained):
        tmp, cfg, config, model = trained
        # a zero-bit starting format forces the constant-class predictor
        config["search"]["baseline_frac_bits"] = 0
        config["search"]["max_relative_accuracy_loss"] = 0.05
        write_config(cfg, config)
        assert cli.main(["search", "--config", str(cfg), "--model", model,
                         "--out", str(tmp / "inf_out")]) == cli.EXIT_INFEASIBLE

    def test_bad_model_file(self, trained):
        tmp, cfg, config, _ = trained
        bad = tmp / "bad.bin"
        bad.write_bytes(b"not a model")
        assert cli.main(["search", "--config", str(cfg), "--model",
                         str(bad)]) == cli.EXIT_DATA


class TestCurveCommand:
    def test_curve_files(self, trained):
        tmp, cfg, config, model = trained
        config["curve"] = {"orders": ["criticality", "random"],
                           "random_seeds": [0, 1]}
        write_config(cfg, config)
        out = tmp / "curve_out"
        assert cli.main(["curve", "--config", str(cfg), "--model", model,
                         "--out", str(out)]) == 0
        crit = json.loads((out / "curve_criticality.json").read_text())
        assert len(crit["accuracy"]) == 14 + 1
        assert (out / "curve_random_0.json").exists()
        assert (out / "curve_random_1.json").exists()
        mean = json.loads((out / "curve_random_mean.json").read_text())
        r0 = json.loads((out / "curve_random_0.json").read_text())["accuracy"]
        r1 = json.loads((out / "curve_random_1.json").read_text())["accuracy"]
        np.testing.assert_allclose(mean["accuracy"],
                                   (np.array(r0) + np.array(r1)) / 2)


class TestEvalCommand:
    def test_mean_field_repeatable(self, trained, capsys):
        tmp, cfg, config, model = trained
        args = ["eval", "--model", model, "--images", config["test_images"],
                "--labels", config["test_labels"]]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first
        assert "accuracy" in first and "confusion" in first

    def test_stochastic_repeatable(self, trained, capsys):
        tmp, cfg, config, model = trained
        args = ["eval", "--model", model, "--images", config["test_images"],
                "--labels", config["test_labels"], "--mode", "stochastic",
                "--samples", "5", "--seed", "11"]
        assert cli.main(args) == 0
        first = capsys.readouterr().out
        assert cli.main(args) == 0
        assert capsys.readouterr().out == first

    def test_missing_model(self, trained):
        tmp, cfg, config, _ = trained
        assert cli.main(["eval", "--model", str(tmp / "missing.bin"),
                         "--images", config["test_images"],
                         "--labels", config["test_labels"]]) == cli.EXIT_DATA


def write_bad_data(tmp, fault):
    """An IDX pair with labels outside 0..9, images 100 pixels wide, or
    no images."""
    rng = np.random.default_rng(1)
    count = 0 if fault == "empty" else 20
    labels = rng.integers(0, 10, count, dtype=np.uint8)
    width = 100 if fault == "width" else 784
    if fault == "label":
        labels[7] = 10
    images = rng.integers(0, 256, (count, width), dtype=np.uint8)
    write_idx_pair(images, labels, tmp / "bad_imgs", tmp / "bad_lbls")
    return "bad_lbls" if fault == "label" else "bad_imgs"


@pytest.mark.parametrize("fault", ["label", "width", "empty"])
class TestBadData:
    def test_train(self, workspace, capsys, fault):
        tmp, cfg, config = workspace
        culprit = write_bad_data(tmp, fault)
        config["train_images"] = str(tmp / "bad_imgs")
        config["train_labels"] = str(tmp / "bad_lbls")
        write_config(cfg, config)
        assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_DATA
        assert culprit in capsys.readouterr().err

    def test_eval(self, trained, capsys, fault):
        tmp, cfg, config, model = trained
        culprit = write_bad_data(tmp, fault)
        assert cli.main(["eval", "--model", model, "--images", str(tmp / "bad_imgs"),
                         "--labels", str(tmp / "bad_lbls")]) == cli.EXIT_DATA
        assert culprit in capsys.readouterr().err


def test_negative_label_count_exits_3(workspace, capsys):
    tmp, cfg, _ = workspace
    labels = tmp / "lbls"
    data = bytearray(labels.read_bytes())
    data[4:8] = struct.pack(">i", -5)
    labels.write_bytes(bytes(data))
    assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "lbls" in err and "-5 labels" in err


def test_negative_image_dimensions_exit_3(workspace, capsys):
    # -28 x -28 is 784, and the file holds 784 bytes per image
    tmp, cfg, _ = workspace
    images = tmp / "imgs"
    data = bytearray(images.read_bytes())
    data[8:16] = struct.pack(">2i", -28, -28)
    images.write_bytes(bytes(data))
    assert cli.main(["train", "--config", str(cfg)]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert "imgs" in err and "-28x-28" in err


class TestSampleCounts:
    def test_eval_samples_flag(self, trained):
        tmp, cfg, config, model = trained
        assert cli.main(["eval", "--model", model, "--images", config["test_images"],
                         "--labels", config["test_labels"], "--mode", "stochastic",
                         "--samples", "0"]) == cli.EXIT_CONFIG

    def test_eval_samples_out_of_memory_exits_2(self, trained, capsys):
        # 10**15 samples of 8 activations need 57 PiB, beyond any address
        # space: numpy refuses the array at once and allocates nothing
        tmp, cfg, config, model = trained
        assert cli.main(["eval", "--model", model, "--images", config["test_images"],
                         "--labels", config["test_labels"], "--mode", "stochastic",
                         "--samples", str(10 ** 15)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"--samples {10 ** 15}" in err and "Unable to allocate" in err

    def test_eval_samples_past_the_address_space_exits_2(self, trained, capsys):
        # 10**18 samples of 8 activations pass 2**63 bytes, where numpy
        # raises ValueError, not MemoryError, before it allocates anything
        tmp, cfg, config, model = trained
        assert cli.main(["eval", "--model", model, "--images", config["test_images"],
                         "--labels", config["test_labels"], "--mode", "stochastic",
                         "--samples", str(10 ** 18)]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"--samples {10 ** 18}" in err and "largest array" in err


def _set(*path, value):
    """A config edit that sets the nested key ``path`` to ``value``."""
    def edit(config):
        section = config
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
    return edit


def _curve_test_split_without_files(config):
    del config["test_images"], config["test_labels"]
    config["curve"] = {"eval_split": "test"}


@pytest.mark.parametrize("command,edit", [
    pytest.param("train", _set("train_subset", value=-5), id="train_subset-train"),
    pytest.param("curve", _set("train_subset", value=-5), id="train_subset-curve"),
    pytest.param("train", _set("validation_fraction", value="0.1"),
                 id="validation_fraction-str"),
    pytest.param("train", _set("seed", value="x"), id="seed-str"),
    pytest.param("train", _set("seed", value=-1), id="seed-negative"),
    pytest.param("search", _set("search", "order_seed", value="a"), id="order_seed-str"),
    pytest.param("curve", _set("curve", "random_seeds", value=["a"]),
                 id="random_seeds-str"),
    pytest.param("train", _set("hidden_sizes", value=[True]), id="hidden_sizes-bool"),
    pytest.param("train", _set("train", "epochs", value=1.5), id="epochs-float"),
    pytest.param("train", _set("train", "seed", value=-2), id="train_seed-negative"),
    pytest.param("train", _set("train", "learning_rate", value=True),
                 id="learning_rate-bool"),
    pytest.param("train", _set("train", "learning_rate", value=float("nan")),
                 id="learning_rate-nan"),
    pytest.param("train", _set("train", "learning_rate", value=float("inf")),
                 id="learning_rate-inf"),
    pytest.param("train", lambda config: config.pop("train_images"),
                 id="train_images-missing"),
    pytest.param("curve", _curve_test_split_without_files,
                 id="eval_split-test-without-files"),
    pytest.param("curve", _set("validation_fraction", value=0),
                 id="validation_fraction-0-curve"),
    pytest.param("search", lambda config: config.pop("test_labels"),
                 id="test_labels-missing"),
    pytest.param("curve", _set("curve", "orders", value=["critcality"]), id="orders-typo"),
    pytest.param("curve", _set("curve", "eval_split", value="tset"), id="eval_split-typo"),
    pytest.param("train", _set("train", value=5), id="train-not-object"),
    pytest.param("train", _set("eval", "samples", value=10), id="eval-section"),
])
def test_bad_config_value(trained, capsys, command, edit):
    tmp, cfg, config, model = trained
    edit(config)
    write_config(cfg, config)
    argv = [command, "--config", str(cfg)]
    if command in ("search", "curve"):
        argv += ["--model", model]
    assert cli.main(argv) == cli.EXIT_CONFIG
    assert "config error" in capsys.readouterr().err


def _write_bad_model(path, fault):
    """A model file with a valid checksum that ``load_model`` must reject,
    or (``input-width``, ``classes``) that the CLI's data cannot use."""
    if fault == "huge-sizes":  # save_model cannot write layers this large
        blob = ddbn.MODEL_MAGIC + struct.pack("<HH3I", ddbn.MODEL_VERSION, 3,
                                              2 ** 32 - 1, 2 ** 32 - 1, 10)
        path.write_bytes(blob + zlib.crc32(blob).to_bytes(4, "little"))
        return
    sizes = {"input-width": [100, 8, 6, 10], "classes": [784, 8, 6, 12],
             "zero-width": [784, 0, 10]}
    m = ddbn.DdbnModel.random_init(sizes.get(fault, [784, 8, 6, 10]), seed=0)
    m = m.apply_precision(ddbn.PrecisionMap.uniform(m.hidden_sizes, 4))
    if fault == "budget":
        m.precision.hidden_frac_bits[1][2] = 62  # Q8.62 is 70 bits
    if fault == "nan":
        m.weights[0][3, 1] = np.nan
    if fault == "off-grid":  # one ulp above a Q8.4 value
        m.weights[0][3, 1] = np.nextafter(m.weights[0][3, 1], np.inf)
    if fault == "metadata-list":  # valid JSON, but not an object
        m.metadata = [1, 2]
    ddbn.save_model(m, path)
    if fault == "trailing":
        blob = path.read_bytes()[:-4] + b"\0\0"
        path.write_bytes(blob + zlib.crc32(blob).to_bytes(4, "little"))


@pytest.mark.parametrize("fault", ["trailing", "budget", "nan", "off-grid",
                                   "input-width", "classes", "zero-width",
                                   "huge-sizes", "metadata-list"])
def test_malformed_model_exits_3(workspace, capsys, fault):
    tmp, cfg, config = workspace
    model = tmp / "bad_model.bin"
    _write_bad_model(model, fault)
    expected = ["bad_model.bin"] + {"huge-sizes": ["truncated"],
                                    "off-grid": ["off its precision map"],
                                    "metadata-list": ["bad metadata"]}.get(fault, [])
    assert cli.main(["eval", "--model", str(model), "--images", config["test_images"],
                     "--labels", config["test_labels"]]) == cli.EXIT_DATA
    err = capsys.readouterr().err
    assert all(s in err for s in expected)
    for command in ("search", "curve"):
        assert cli.main([command, "--config", str(cfg), "--model",
                         str(model)]) == cli.EXIT_DATA
        err = capsys.readouterr().err
        assert all(s in err for s in expected)


def test_blas_pin_warns_once_without_bundled_openblas(monkeypatch, capsys):
    monkeypatch.setattr(cli.glob, "glob", lambda pattern: [])
    cli._pin_blas_to_one_thread()
    err = capsys.readouterr().err
    assert err.startswith("warning: cannot pin") and err.count("\n") == 1


def test_readme_config_table_lists_every_accepted_key():
    with open(os.path.join(os.path.dirname(__file__), "..", "README.md")) as f:
        documented = re.findall(r"^\| `([\w.]+)` \|", f.read(), re.MULTILINE)
    accepted = (cli._TOP_LEVEL_KEYS
                | {f"train.{f.name}" for f in dataclasses.fields(TrainConfig)}
                | {f"search.{f.name}" for f in dataclasses.fields(SearchConfig)}
                | {"search.variant"} | {f"curve.{k}" for k in cli._CURVE_KEYS})
    assert len(documented) == len(set(documented))
    assert set(documented) == accepted


def test_import_leaves_out_the_cd_worker_pool(workspace):
    """Every command pays for its imports: ``concurrent.futures`` (about 4 ms)
    never loads, neither at import nor in ``train``, whose CD runs on one thread."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    _, cfg, _ = workspace
    code = (f"import sys; sys.path.insert(0, {src!r}); import approxdbn.cli; "
            f"assert approxdbn.cli.main(['train', '--config', {str(cfg)!r}]) == 0; "
            "print('concurrent.futures' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"

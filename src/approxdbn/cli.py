"""Command-line entry point.

Commands: train, search, curve, eval. Runs are driven by a JSON config
file (strictly validated, unknown keys rejected); ``--out`` overrides
``out_dir``. Exit codes: 0 success, 2 config error, 3 data
error, 4 infeasible accuracy constraint.
"""

import argparse
import dataclasses
import json
import os
import sys

import numpy as np

from . import dataset as ds
from . import ddbn, search
from .ddbn import ModelFileError, TrainConfig
from .search import InfeasibleConstraint, SearchConfig

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_INFEASIBLE = 4


class ConfigError(Exception):
    pass


_TOP_LEVEL_KEYS = {
    "train_images", "train_labels", "test_images", "test_labels",
    "hidden_sizes", "train_subset", "validation_fraction", "seed",
    "out_dir", "train", "search", "curve",
}
_CURVE_KEYS = {"orders", "random_seeds", "eval_split"}
_CURVE_ORDERS = ("criticality", "random")
_JSON_TYPES = {int: (int,), float: (int, float), str: (str,)}


def _check_keys(section, allowed, name):
    unknown = set(section) - allowed
    if unknown:
        raise ConfigError(f"unknown keys in {name}: {sorted(unknown)}")


def _typed(value, kind, name):
    """``value``, if JSON gave it as a ``kind`` (int, float or str); an
    int counts as a float, a bool as neither."""
    if isinstance(value, bool) or not isinstance(value, _JSON_TYPES[kind]):
        raise ConfigError(f"{name} must be a {kind.__name__}, got {value!r}")
    return value


def _seed(value, name):
    if _typed(value, int, name) < 0:
        raise ConfigError(f"{name} must be >= 0")
    return value


def _dataclass_from(section, cls, name):
    types = {f.name: f.type for f in dataclasses.fields(cls)}
    _check_keys(section, set(types), name)
    for key, value in section.items():
        _typed(value, types[key], f"{name}.{key}")
    try:
        return cls(**section)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"bad {name} section: {e}") from e


class RunConfig:
    def __init__(self, raw):
        _check_keys(raw, _TOP_LEVEL_KEYS, "config")
        for name in ("train", "search", "curve"):
            if not isinstance(raw.get(name, {}), dict):
                raise ConfigError(f"{name} must be a JSON object")
        self.raw = raw
        self.train_images = _typed(raw.get("train_images"), str, "train_images")
        self.train_labels = _typed(raw.get("train_labels"), str, "train_labels")
        self.test_images = raw.get("test_images")
        self.test_labels = raw.get("test_labels")
        for key in ("test_images", "test_labels"):
            if raw.get(key) is not None:
                _typed(raw[key], str, key)
        if (self.test_images is None) != (self.test_labels is None):
            raise ConfigError("test_images and test_labels must be set together")
        self.hidden_sizes = raw.get("hidden_sizes", [100, 50])
        if (not isinstance(self.hidden_sizes, list) or not self.hidden_sizes
                or any(isinstance(n, bool) or not isinstance(n, int) or n < 1
                       for n in self.hidden_sizes)):
            raise ConfigError("hidden_sizes must be a nonempty list of positive ints")
        self.train_subset = _typed(raw.get("train_subset", 0), int, "train_subset")
        if self.train_subset < 0:
            raise ConfigError("train_subset must be >= 0 (0 = every sample)")
        self.validation_fraction = _typed(raw.get("validation_fraction", 0.1),
                                          float, "validation_fraction")
        if not 0 <= self.validation_fraction < 1:
            raise ConfigError("validation_fraction must be in [0, 1)")
        self.seed = _seed(raw.get("seed", 0), "seed")
        self.out_dir = _typed(raw.get("out_dir", "out"), str, "out_dir")

        train_raw = dict(raw.get("train", {}))
        train_raw.setdefault("seed", self.seed)
        self.train_config = _dataclass_from(train_raw, TrainConfig, "train")

        search_raw = dict(raw.get("search", {}))
        self.variant = search_raw.pop("variant", "full")
        if self.variant not in search.VARIANTS:
            raise ConfigError(f"unknown search variant {self.variant!r}")
        self.search_config = _dataclass_from(search_raw, SearchConfig, "search")

        curve_raw = raw.get("curve", {})
        _check_keys(curve_raw, _CURVE_KEYS, "curve")
        self.curve_orders = curve_raw.get("orders", list(_CURVE_ORDERS))
        if (not isinstance(self.curve_orders, list)
                or any(o not in _CURVE_ORDERS for o in self.curve_orders)):
            raise ConfigError(f"curve.orders must be a list of {_CURVE_ORDERS}")
        self.curve_random_seeds = curve_raw.get("random_seeds", [0])
        if not isinstance(self.curve_random_seeds, list):
            raise ConfigError("curve.random_seeds must be a list")
        for s in self.curve_random_seeds:
            _seed(s, "curve.random_seeds")
        self.curve_eval_split = curve_raw.get("eval_split", "validation")
        if self.curve_eval_split not in ("validation", "test"):
            raise ConfigError("curve.eval_split must be 'validation' or 'test'")

    @property
    def layer_sizes(self):
        return [ds.IMAGE_PIXELS] + list(self.hidden_sizes) + [ds.NUM_CLASSES]


def load_config(path, out_dir):
    try:
        with open(path) as f:
            raw = json.load(f)
    except OSError as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path} is not valid JSON: {e}") from e
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    if out_dir is not None:
        raw["out_dir"] = out_dir
    return RunConfig(raw)


def _prepare_out_dir(config):
    out = config.out_dir
    try:
        os.makedirs(out, exist_ok=True)
        echo_path = os.path.join(out, "config_echo.json")
        with open(echo_path, "w") as f:
            json.dump(config.raw, f, indent=2, sort_keys=True)
    except OSError as e:
        raise ConfigError(f"output directory {out!r} is not writable: {e}") from e
    return out


def _load_train_split(config):
    data = ds.load_idx(config.train_images, config.train_labels)
    if config.train_subset:
        data = data.subset(np.arange(min(config.train_subset, len(data))))
    return ds.split(data, config.validation_fraction, config.seed)


def cmd_train(config):
    out = _prepare_out_dir(config)
    train, val = _load_train_split(config)
    model = ddbn.train_ddbn(train.images, train.one_hot, config.layer_sizes,
                            config.train_config)
    model_path = os.path.join(out, "model.bin")
    ddbn.save_model(model, model_path)
    summary = {
        "layer_sizes": config.layer_sizes,
        "train_samples": len(train),
        "validation_samples": len(val),
        "seed": config.seed,
    }
    del train  # frees its cached images before the validation set's
    if len(val):
        summary["validation_accuracy"] = ddbn.evaluate_accuracy(
            model, val.images, val.labels, mode="mean_field")
    with open(os.path.join(out, "training_summary.json"), "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
    print(f"model written to {model_path}")
    if "validation_accuracy" in summary:
        print(f"validation accuracy {summary['validation_accuracy']:.4f}")
    return 0


def cmd_search(config, model_path):
    out = _prepare_out_dir(config)
    model = ddbn.load_model(model_path)
    train, val = _load_train_split(config)
    if len(val) == 0:
        raise ConfigError("search needs a nonzero validation_fraction")
    result = search.run_approxdbn(
        model, config.search_config, train.images, train.one_hot,
        val.images, val.labels, variant=config.variant,
        train_config=config.train_config, order_seed=config.seed)
    ddbn.save_model(result.model, os.path.join(out, "final_model.bin"))
    search.write_trace(result.trace, os.path.join(out, "trace.ndjson"))
    report = dict(result.report)
    if config.test_images is not None:
        test = ds.load_idx(config.test_images, config.test_labels)
        report["test_accuracy_mean_field"] = ddbn.evaluate_accuracy(
            result.model, test.images, test.labels, mode="mean_field")
        report["test_accuracy_stochastic"] = ddbn.evaluate_accuracy(
            result.model, test.images, test.labels, mode="stochastic")
    report["seed"] = config.seed
    with open(os.path.join(out, "report.json"), "w") as f:
        json.dump(report, f, indent=2, sort_keys=True)
    with open(os.path.join(out, "bit_histogram.json"), "w") as f:
        json.dump([{"bit_length": b, "neuron_count": c}
                   for b, c in report["bit_length_histogram"]], f, indent=2)
    print(f"final relative accuracy {report['relative_accuracy']:.4f}, "
          f"total hidden bits {report['total_hidden_bits']}")
    return 0


def cmd_curve(config, model_path):
    if config.curve_eval_split == "test" and config.test_images is None:
        raise ConfigError("curve.eval_split 'test' needs test_images and test_labels")
    out = _prepare_out_dir(config)
    model = ddbn.load_model(model_path)
    train, val = _load_train_split(config)
    if config.curve_eval_split == "test":
        test = ds.load_idx(config.test_images, config.test_labels)
        eval_images, eval_labels = test.images, test.labels
    elif len(val) == 0:
        raise ConfigError("curve on the validation split needs a nonzero "
                          "validation_fraction")
    else:
        eval_images, eval_labels = val.images, val.labels
    sc = config.search_config
    curves = {}
    if "criticality" in config.curve_orders:
        curves["criticality"] = search.approximation_curve(
            model, sc, train.images, train.one_hot, eval_images, eval_labels,
            order="criticality")
    if "random" in config.curve_orders:
        randoms = []
        for seed in config.curve_random_seeds:
            c = search.approximation_curve(
                model, sc, train.images, train.one_hot, eval_images,
                eval_labels, order="random", order_seed=seed)
            curves[f"random_{seed}"] = c
            randoms.append(c)
        if randoms:
            curves["random_mean"] = np.mean(randoms, axis=0)
    for name, curve in curves.items():
        with open(os.path.join(out, f"curve_{name}.json"), "w") as f:
            json.dump({"pruned_count": list(range(len(curve))),
                       "accuracy": [float(a) for a in curve]}, f)
    print(f"wrote {len(curves)} curve files to {out}")
    return 0


def cmd_eval(model_path, images_path, labels_path, mode, samples, seed):
    if samples < 1:
        raise ConfigError("--samples must be >= 1")
    if seed < 0:
        raise ConfigError("--seed must be >= 0")
    model = ddbn.load_model(model_path)
    data = ds.load_idx(images_path, labels_path)
    acc = ddbn.evaluate_accuracy(model, data.images, data.labels, mode=mode,
                                 samples=samples, seed=seed)
    counts = ddbn.confusion_counts(model, data.images, data.labels, mode=mode,
                                   samples=samples, seed=seed)
    print(f"accuracy {acc:.6f} ({mode})")
    print("confusion (rows = true label, cols = predicted):")
    for row in counts:
        print(" ".join(f"{c:5d}" for c in row))
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="approxdbn",
        description="Train and approximate discriminative deep belief networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("train", "search", "curve"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out", default=None)
        if name in ("search", "curve"):
            p.add_argument("--model", required=True)

    p = sub.add_parser("eval")
    p.add_argument("--model", required=True)
    p.add_argument("--images", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--mode", choices=["mean_field", "stochastic"],
                   default="mean_field")
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--seed", type=int, default=0)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "eval":
            return cmd_eval(args.model, args.images, args.labels,
                            args.mode, args.samples, args.seed)
        config = load_config(args.config, args.out)
        if args.command == "train":
            return cmd_train(config)
        if args.command == "search":
            return cmd_search(config, args.model)
        return cmd_curve(config, args.model)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except FloatingPointError as e:
        print(f"config error: {e}; lower train.learning_rate", file=sys.stderr)
        return EXIT_CONFIG
    except (ds.DatasetError, ModelFileError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except InfeasibleConstraint as e:
        print(f"infeasible constraint: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE


if __name__ == "__main__":
    sys.exit(main())

"""The two benchmark workloads and the input files and CLI commands each
one runs.

Both workloads run ``train``, ``search``, ``curve`` and ``eval`` so that
every end-to-end metric exists on both. They stress different layers:

* ``retrain`` is the paper's default flow (variant ``full``, 10% loss).
  Quantization-aware retraining dominates ``search``, so CD training
  (``ddbn``) and requantizing large parameter arrays (``fixedpoint``) set
  its time.
* ``sweep`` uses the same layers the other way round: a deeper net,
  ``no_retrain`` with a tight 2% loss and a 50% validation split, so
  mean-field candidate evaluation, ``apply_precision`` and criticality set
  the search time and no CD runs inside it. Its ``eval`` is stochastic,
  which quantizes many tiny per-sample arrays: per-call overhead in the
  quantizer shows up here.

The training set of each workload is generated from a fixed seed. The
greedy search's amount of work (how many retrains and sweeps it makes)
depends on the data in a chaotic way: with a seed-dependent training set,
``search`` on ``retrain`` took anywhere from 4.0 s to 13.7 s across six
seeds (10 retrain epochs, 2-vCPU x86_64 VM), which would measure the
data rather than the code. The workload
seed therefore drives everything whose cost does not depend on its
values: the test images, the curve's random orders, the stochastic
evaluation seed and the curve images of ``sweep``.
"""

import json
import os
from dataclasses import dataclass

import gen

TRAIN_DATA_SEED = 0
TEST_STREAM = 1
CURVE_STREAM = 2


@dataclass(frozen=True)
class Workload:
    name: str
    hidden_sizes: tuple
    train_count: int
    validation_fraction: float
    flip: float
    search: dict
    curve_orders: tuple
    curve_random_orders: int
    curve_count: int        # 0: the curve runs on the validation split
    test_count: int
    eval_mode: str


WORKLOADS = {
    "retrain": Workload(
        name="retrain",
        hidden_sizes=(100, 50),
        train_count=3000,
        validation_fraction=0.1,
        flip=0.12,
        search={"max_relative_accuracy_loss": 0.10, "variant": "full",
                "retrain_epochs": 5},
        curve_orders=("criticality", "random"),
        curve_random_orders=2,
        curve_count=0,
        test_count=3000,
        eval_mode="mean_field",
    ),
    "sweep": Workload(
        name="sweep",
        hidden_sizes=(200, 100, 50),
        train_count=4000,
        validation_fraction=0.5,
        flip=0.08,
        search={"max_relative_accuracy_loss": 0.02, "variant": "no_retrain"},
        curve_orders=("criticality",),
        curve_random_orders=0,
        curve_count=300,
        test_count=1000,
        eval_mode="stochastic",
    ),
}


class Inputs:
    """Paths of one workload's generated files under ``root``."""

    def __init__(self, workload, seed, root):
        self.workload = workload
        self.seed = seed
        self.root = root
        self.train_images = os.path.join(root, "train-images-idx3-ubyte")
        self.train_labels = os.path.join(root, "train-labels-idx1-ubyte")
        self.test_images = os.path.join(root, "test-images-idx3-ubyte")
        self.test_labels = os.path.join(root, "test-labels-idx1-ubyte")
        self.curve_images = os.path.join(root, "curve-images-idx3-ubyte")
        self.curve_labels = os.path.join(root, "curve-labels-idx1-ubyte")
        self.config = os.path.join(root, "config.json")
        self.curve_config = os.path.join(root, "curve_config.json")

    def write(self):
        """Generate the IDX files and the two JSON configs."""
        w = self.workload
        os.makedirs(self.root, exist_ok=True)
        gen.write_idx(*gen.generate(w.train_count, TRAIN_DATA_SEED, w.flip),
                      self.train_images, self.train_labels)
        gen.write_idx(*gen.generate(w.test_count, [TEST_STREAM, self.seed], w.flip),
                      self.test_images, self.test_labels)
        # search leaves test_images out, so search_s does not include the
        # test-set evaluation cmd_search adds when test images are set
        config = {
            "train_images": self.train_images,
            "train_labels": self.train_labels,
            "hidden_sizes": list(w.hidden_sizes),
            "validation_fraction": w.validation_fraction,
            "seed": TRAIN_DATA_SEED,
            "search": w.search,
            "curve": {
                "orders": list(w.curve_orders),
                "random_seeds": [self.seed + k for k in range(w.curve_random_orders)],
                "eval_split": "test" if w.curve_count else "validation",
            },
        }
        _write_json(self.config, config)
        if w.curve_count:
            gen.write_idx(*gen.generate(w.curve_count, [CURVE_STREAM, self.seed], w.flip),
                          self.curve_images, self.curve_labels)
            config = dict(config, test_images=self.curve_images,
                          test_labels=self.curve_labels)
        _write_json(self.curve_config, config)

    def commands(self, out):
        """(name, argv after ``python -m approxdbn``) for the pipeline,
        writing into ``out``."""
        w = self.workload
        model = os.path.join(out, "train", "model.bin")
        return [
            ("train", ["train", "--config", self.config,
                       "--out", os.path.join(out, "train")]),
            ("search", ["search", "--config", self.config, "--model", model,
                        "--out", os.path.join(out, "search")]),
            ("curve", ["curve", "--config", self.curve_config, "--model", model,
                       "--out", os.path.join(out, "curve")]),
            ("eval", ["eval", "--model", os.path.join(out, "search", "final_model.bin"),
                      "--images", self.test_images, "--labels", self.test_labels,
                      "--mode", w.eval_mode, "--seed", str(self.seed)]),
        ]


def _write_json(path, obj):
    with open(path, "w") as f:
        json.dump(obj, f, indent=2, sort_keys=True)

"""Approximate discriminative deep belief networks: training, neuron
criticality analysis, and greedy fixed-point bit-length reduction under
an accuracy constraint."""

from .fixedpoint import quantize_all
from .dataset import LabeledBinaryDataset, binarize, load_idx, split
from .ddbn import (
    DdbnModel,
    PrecisionMap,
    TrainConfig,
    evaluate_accuracy,
    load_model,
    retrain_quantized,
    save_model,
    sigmoid,
    softmax,
    train_ddbn,
)
from .criticality import criticality_scores, rank_neurons
from .search import (
    InfeasibleConstraint,
    SearchConfig,
    SearchResult,
    approximation_curve,
    phase1_uniform,
    phase2_greedy,
    run_approxdbn,
)

__version__ = "0.1.0"

"""``tools/interleave.py``'s summary on synthetic result lines, without
running the benchmark."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DECLARED = [{"name": "curve_s", "unit": "s", "better": "lower", "bound": 0.25},
            {"name": "val_accuracy", "unit": "ratio", "better": "higher", "bound": 0.02}]


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("interleave",
                                                  ROOT / "tools" / "interleave.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(curve_s, accuracy, failed=0):
    return {"correct": not failed, "attempted": 6, "failed": failed,
            "metrics": {"curve_s": {"value": curve_s, "unit": "s"},
                        "val_accuracy": {"value": accuracy, "unit": "ratio"}}}


def test_alternating_order(tool):
    assert [tool.first_in_pair(i) for i in range(4)] == [
        "parent", "change", "parent", "change"]


def _clear_gain(change_failed=0):
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    change = [0.8] * 9 + [1.5]  # better in 9 of 10 pairs
    return [{"parent": _result(p, 0.9, failed=i == 0),
             "change": _result(c, 0.9, failed=change_failed if i == 0 else 0)}
            for i, (p, c) in enumerate(zip(parent, change))]


def test_summary_of_a_clear_gain(tool):
    entry = tool.report(range(101, 111), _clear_gain(change_failed=1), DECLARED)
    assert entry["first_in_pair"][:3] == ["parent", "change", "parent"]
    assert entry["failed_commands"] == {"parent": 1, "change": 1}
    curve = entry["metrics"]["curve_s"]
    assert curve["parent"] == {"q1": 1.1, "median": 1.2, "q3": 1.3}
    assert curve["change"]["median"] == 0.8
    assert (curve["change_better_pairs"], curve["change_worse_pairs"]) == (9, 1)
    assert curve["median_gap"] == 0.4 and curve["parent_iqr"] == 0.2
    assert curve["median_change"] == pytest.approx(0.8 / 1.2 - 1, abs=1e-4)
    assert curve["gain_met"]
    # equal accuracies: no pair won or lost, no gain
    accuracy = entry["metrics"]["val_accuracy"]
    assert (accuracy["change_better_pairs"], accuracy["change_worse_pairs"]) == (0, 0)
    assert accuracy["median_gap"] == 0 and not accuracy["gain_met"]


@pytest.mark.parametrize("change_failed,met", [(0, True), (1, True), (2, False)])
def test_no_gain_with_more_failures(tool, change_failed, met):
    """The parent fails one command: a change that fails more meets no gain."""
    curve = tool.summarize(_clear_gain(change_failed), DECLARED)["curve_s"]
    assert curve["change_better_pairs"] == 9 and curve["gain_met"] is met


@pytest.mark.parametrize("change,met", [
    ([0.8] * 8 + [1.5] * 2, False),  # 8 of 10 pairs
    ([1.15] * 10, False),            # 10 of 10, but the gap is inside the IQR
])
def test_summary_rule(tool, change, met):
    parent = [1.0, 1.1, 1.2, 1.3, 1.4, 1.0, 1.1, 1.2, 1.3, 1.4]
    change = [min(c, p - 0.01) if c < 1.5 else c for c, p in zip(change, parent)]
    pairs = [{"parent": _result(p, 0.9), "change": _result(c, 0.9)}
             for p, c in zip(parent, change)]
    assert tool.summarize(pairs, DECLARED)["curve_s"]["gain_met"] is met


def test_higher_is_better(tool):
    pairs = [{"parent": _result(1.0, a), "change": _result(1.0, a + 0.01)}
             for a in (0.80, 0.81, 0.82, 0.83)]
    accuracy = tool.summarize(pairs, DECLARED)["val_accuracy"]
    assert accuracy["change_better_pairs"] == 4 and accuracy["median_gap"] > 0

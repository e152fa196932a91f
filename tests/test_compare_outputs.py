"""``tools/compare_outputs.py`` on a tiny version of a benchmark workload:
a tree compared with itself shows no difference, and a tree whose output
changes by one byte is caught in every run that prints it (``search_full``
only on a workload with three or more hidden layers), for one seed or
several in one call; with no flags it runs every workload with the seeds
1, 7 and 32."""

import dataclasses
import importlib.util
import shutil
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location(
        "compare_outputs", ROOT / "tools" / "compare_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tiny(tool, name="retrain"):
    real = tool.load_workloads().WORKLOADS[name]
    return dataclasses.replace(real, hidden_sizes=(12, 8, 6)[:len(real.hidden_sizes)],
                               train_count=200, test_count=30,
                               curve_random_orders=min(real.curve_random_orders, 1),
                               curve_count=min(real.curve_count, 30))


def test_tree_matches_itself(tool, tmp_path):
    assert tool.compare(ROOT, ROOT, _tiny(tool), 1, tmp_path) == []


def _changed_tree(path, old='print(f"wrote {len(curves)}', new='print(f"Wrote {len(curves)}',
                  module="cli.py"):
    """A copy of the sources whose ``module`` (the CLI) has ``new`` where it had ``old``."""
    shutil.copytree(ROOT / "src", path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    source = path / "src" / "approxdbn" / module
    text = source.read_text()
    assert old in text
    source.write_text(text.replace(old, new))
    return path


def test_changed_output_is_caught(tool, tmp_path):
    changed = _changed_tree(tmp_path / "changed")
    diffs = tool.compare(ROOT, changed, _tiny(tool), 1, tmp_path / "work")
    # curve_float64, curve_test and curve_wide run the same command on other
    # budgets or rows, so they print the line too
    assert [d.split(" (")[0] for d in diffs] == ["differs: stdout:curve",
                                                 "differs: stdout:curve_float64",
                                                 "differs: stdout:curve_test",
                                                 "differs: stdout:curve_wide"]


@pytest.mark.parametrize("name,searches", [
    ("retrain", ["search", "search_test"]),
    # three hidden layers: search_full retrains layer 1 as a lower RBM
    ("sweep", ["search", "search_full", "search_test"]),
])
def test_changed_search_output_is_caught(tool, tmp_path, name, searches):
    changed = _changed_tree(tmp_path / "changed", 'print(f"final relative',
                            'print(f"Final relative')
    diffs = tool.compare(ROOT, changed, _tiny(tool, name), 1, tmp_path / "work")
    assert [d.split(" (")[0] for d in diffs] == [f"differs: stdout:{s}" for s in searches]


def test_several_seeds(tool, tmp_path, monkeypatch, capsys):
    real = tool.load_workloads()
    tiny = types.SimpleNamespace(WORKLOADS={"retrain": _tiny(tool)}, Inputs=real.Inputs)
    monkeypatch.setattr(tool, "load_workloads", lambda: tiny)
    argv = ["--workload", "retrain", "--seed", "1", "7"]
    assert tool.main([str(ROOT), str(ROOT), *argv]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "retrain seed 1: identical", "retrain seed 7: identical"]
    # no flags: every workload, with the seeds 1, 7 and 32
    assert tool.main([str(ROOT), str(ROOT)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "retrain seed 1: identical", "retrain seed 7: identical",
        "retrain seed 32: identical"]
    assert tool.main([str(ROOT), str(_changed_tree(tmp_path / "changed")), *argv]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if " seed " in line] == [
        "retrain seed 1: 4 problems", "retrain seed 7: 4 problems"]

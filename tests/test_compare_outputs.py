"""``tools/compare_outputs.py`` on a tiny version of a benchmark workload:
a tree compared with itself shows no difference, and a tree whose output
changes by one byte is caught."""

import dataclasses
import importlib.util
import shutil
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


def _tiny(tool):
    retrain = tool.load_workloads().WORKLOADS["retrain"]
    return dataclasses.replace(retrain, hidden_sizes=(12, 8), train_count=200,
                               test_count=30, curve_random_orders=1)


def test_tree_matches_itself(tool, tmp_path):
    assert tool.compare(ROOT, ROOT, _tiny(tool), 1, tmp_path) == []


def test_changed_output_is_caught(tool, tmp_path):
    changed = tmp_path / "changed"
    shutil.copytree(ROOT / "src", changed / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = changed / "src" / "approxdbn" / "cli.py"
    cli.write_text(cli.read_text().replace('print(f"wrote {len(curves)}',
                                           'print(f"Wrote {len(curves)}'))
    diffs = tool.compare(ROOT, changed, _tiny(tool), 1, tmp_path / "work")
    assert len(diffs) == 1 and diffs[0].startswith("differs: stdout:curve ")

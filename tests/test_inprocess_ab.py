"""``tools/inprocess_ab.py`` on a tiny version of a benchmark workload: a tree
run against itself exits 0 with a line per tree, a tree whose ``eval``
prints otherwise exits 1, and the package this process loaded before is
back in place after either run."""

import dataclasses
import importlib.util
import shutil
import sys
import types
from pathlib import Path

import pytest

import approxdbn.cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends entries
    spec = importlib.util.spec_from_file_location("inprocess_ab",
                                                  ROOT / "tools" / "inprocess_ab.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    real = module.load_workloads()
    tiny = dataclasses.replace(real.WORKLOADS["sweep"], hidden_sizes=(20, 10, 8),
                               train_count=300, test_count=30, curve_count=30)
    monkeypatch.setattr(module, "load_workloads", lambda: types.SimpleNamespace(
        WORKLOADS={"sweep": tiny}, Inputs=real.Inputs))
    yield module
    assert sys.modules["approxdbn.cli"] is approxdbn.cli


def _run(tool, change, capsys, command="eval"):
    code = tool.main([str(ROOT), str(change), "--workload", "sweep", "--command",
                      command, "--pairs", "2"])
    return code, capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command", ["eval", "curve"])
def test_same_tree_exits_0(tool, capsys, command):
    code, lines = _run(tool, ROOT, capsys, command)
    assert code == 0
    assert lines[0] == f"sweep {command}: 2 pairs, seed 1"
    assert [line.split()[:2] for line in lines[1:]] == [["parent", "min"],
                                                       ["change", "min"]]


def test_other_eval_output_exits_1(tool, capsys, tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    cli = tmp_path / "src" / "approxdbn" / "cli.py"
    text = cli.read_text()
    assert 'print(f"accuracy {acc:.6f} ({mode})")' in text
    cli.write_text(text.replace('print(f"accuracy {acc:.6f} ({mode})")',
                                'print(f"Accuracy {acc:.6f} ({mode})")'))
    code, lines = _run(tool, tmp_path, capsys)
    assert code == 1
    assert lines[-2:] == ["pair 1: change printed other standard output",
                          "pair 2: change printed other standard output"]


def test_pairs_below_two_rejected(tool):
    with pytest.raises(SystemExit):
        tool.main([str(ROOT), str(ROOT), "--workload", "sweep", "--command", "eval",
                   "--pairs", "1"])

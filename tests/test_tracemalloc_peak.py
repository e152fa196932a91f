"""``tools/tracemalloc_peak.py`` on a tiny version of a benchmark workload:
one line per command with its tracemalloc peak; a failing command ends the
run with exit 1."""

import dataclasses
import importlib.util
import sys
import types
from pathlib import Path

import pytest

from approxdbn import cli

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tool(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends entries
    spec = importlib.util.spec_from_file_location(
        "tracemalloc_peak", ROOT / "tools" / "tracemalloc_peak.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    real = module.load_workloads()
    tiny = dataclasses.replace(real.WORKLOADS["sweep"], hidden_sizes=(20, 10, 8),
                               train_count=300, test_count=30, curve_count=30)
    monkeypatch.setattr(module, "load_workloads", lambda: types.SimpleNamespace(
        WORKLOADS={"sweep": tiny}, Inputs=real.Inputs))
    return module


def test_peak_per_command(tool, capsys):
    assert tool.main([str(ROOT), "--workload", "sweep", "--seed", "1"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["command", "peak_mb"]
    rows = dict(line.split() for line in lines)
    assert list(rows) == ["train", "search", "curve", "eval"]
    peaks = {name: float(peak) for name, peak in rows.items()}
    # train, search and curve hold the 300 training images as float64, 1.8 MB
    assert all(1.8 < peaks[name] < 100 for name in ("train", "search", "curve"))
    assert 0 < peaks["eval"] < peaks["search"]


def test_failing_command_exits_1(tool, monkeypatch, capsys):
    monkeypatch.setattr(cli, "main", lambda argv: 2 if argv[0] == "search" else 0)
    assert tool.main([str(ROOT), "--workload", "sweep", "--seed", "1"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "search exited 2"


def test_refuses_another_trees_package(tool, tmp_path):
    (tmp_path / "src" / "approxdbn").mkdir(parents=True)
    (tmp_path / "src" / "approxdbn" / "cli.py").write_text("")
    with pytest.raises(SystemExit, match="already loaded"):
        tool.load_cli(tmp_path)

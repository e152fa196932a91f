"""``tools/variants.py`` on a tiny version of the ``retrain`` workload: one
row per config seed and variant, then each column's median per variant;
a failing command ends the run with exit 1."""

import dataclasses
import importlib.util
import statistics
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def tool(monkeypatch):
    spec = importlib.util.spec_from_file_location("variants", ROOT / "tools" / "variants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    real = module.load_workloads()
    tiny = dataclasses.replace(real.WORKLOADS["retrain"], hidden_sizes=(30, 15),
                               train_count=600, test_count=30)
    monkeypatch.setattr(module, "load_workloads", lambda: types.SimpleNamespace(
        WORKLOADS={"retrain": tiny}, Inputs=real.Inputs))
    return module


def _rows(lines):
    """{(seed, variant): [bits, relative accuracy, test accuracy, seconds]}"""
    return {(label, variant): [float(v) for v in values]
            for label, variant, *values in (line.split() for line in lines)}


def test_rows_and_medians(tool, capsys):
    argv = [str(ROOT), "--workload", "retrain", "--seeds", "0", "1", "2",
            "--variants", "full", "no_retrain"]
    assert tool.main(argv) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["seed", "variant", "bits", "rel_acc", "test_acc", "search_s"]
    rows = _rows(lines)
    assert list(rows) == [(seed, variant) for seed in ("0", "1", "2", "median")
                          for variant in ("full", "no_retrain")]
    for variant in ("full", "no_retrain"):
        per_seed = [rows[seed, variant] for seed in ("0", "1", "2")]
        assert all(0 <= bits == int(bits) and 0 <= test_acc <= 1 and seconds > 0
                   for bits, _, test_acc, seconds in per_seed)
        # the printed medians are those of the rows, up to the rounding
        median = rows["median", variant]
        for column, printed in enumerate(median):
            want = statistics.median(row[column] for row in per_seed)
            assert printed == pytest.approx(want, abs=0.006)


def test_failing_command_exits_1(tool, tmp_path, capsys):
    (tmp_path / "src" / "approxdbn").mkdir(parents=True)
    (tmp_path / "src" / "approxdbn" / "__main__.py").write_text("raise SystemExit(3)\n")
    assert tool.main([str(tmp_path), "--workload", "retrain", "--seeds", "0"]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "seed 0: train exited 3: "

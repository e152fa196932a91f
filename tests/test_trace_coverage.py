"""The benchmark's traced run (``perfbench/traced.py``) on tiny generated
versions of its workloads: every span the benchmark's coverage rules
expect must fire, and none that they forbid. A refactor that renames or
stops calling a function the benchmark wraps then fails here, not only
in the benchmark run."""

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import approxdbn

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SRC = Path(approxdbn.__file__).resolve().parent.parent


def _perfbench(monkeypatch, name):
    """``perfbench/<name>.py``, imported by path; its siblings import
    each other by module name."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,hidden", [("retrain", (20, 10)),
                                         ("sweep", (20, 10, 8))])
def test_traced_pipeline_covers_every_span(tmp_path, monkeypatch, name, hidden):
    workloads = _perfbench(monkeypatch, "workloads")
    run = _perfbench(monkeypatch, "run")
    # the rules depend on the layer count, the variant and the eval mode,
    # which the tiny versions keep
    workload = dataclasses.replace(
        workloads.WORKLOADS[name], hidden_sizes=hidden, train_count=400,
        test_count=50, curve_count=min(workloads.WORKLOADS[name].curve_count, 50))
    inputs = workloads.Inputs(workload, 1, str(tmp_path / "inputs"))
    inputs.write()
    out = tmp_path / "out"
    spec = {"commands": inputs.commands(str(out)),
            "spans": str(tmp_path / "spans.ndjson.gz"),
            "summary": str(tmp_path / "summary.json"),
            "search_trace": str(out / "search" / "trace.ndjson")}
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.update({var: "1" for var in run.BLAS_VARS})
    proc = subprocess.run([sys.executable, str(PERFBENCH / "traced.py"),
                           str(spec_path)], env=env, cwd=tmp_path,
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(Path(spec["summary"]).read_text())
    assert summary["missing"] == []
    assert set(summary["exit_codes"].values()) == {0}, summary["exit_codes"]
    errors = {cmd: [] for cmd, _ in spec["commands"]}
    run.check_coverage(workload, summary["calls_by_command"], errors)
    assert not any(errors.values()), errors

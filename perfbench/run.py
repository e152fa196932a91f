"""Offline benchmark for approxdbn.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload retrain|sweep --seed N --seconds S --trace 0|1

The benchmark generates MNIST-shaped inputs from the workload seed
(``gen.py``, ``workloads.py``), then drives the real CLI from this one
process, each command as a fresh ``python -m approxdbn`` child that sees
only the generated files, with BLAS pinned to one thread before Python
starts.

``--trace 0`` measures the end-to-end metrics. The whole pipeline
(train, search, curve, eval) is repeated for about ``--seconds`` seconds;
each command's time is the median of its runs. Set-up time is the
median of fresh processes, three per repetition, that import the package
and load the data. Before every child a fixed numpy kernel, the speed
probe, is timed in this process, and every time metric is scaled by
``PROBE_REF_S`` over the run's median probe time, both halves summed
(see ``speed_probe``).
Every repetition's outputs are checked (``checks.py``) and must
hash-equal the first one's.

``--trace 1`` runs the pipeline once untraced, once in-process with a
span recorder around each layer boundary (``traced.py``), and once more
``train`` with as many BLAS threads as there are CPUs. It reports the
per-layer metrics, the tracing overhead, the span-coverage self-test and
the thread-determinism probe.

The metric names and units are read from ``BENCHMARK.json``. The last
line of standard output is one JSON object: ``correct``, ``attempted``
(CLI commands run), ``failed`` (commands that exited non-zero or failed
an output check) and ``metrics``.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_PER_REP = 3
MIN_SAMPLE_S = 2.0
TIME_LIMIT_S = 170
PROBE_DENSE_ROUNDS = 7
PROBE_IMAGES = 300
# Time metrics read as seconds on a machine where the probe takes this
# long in all; about its median on a shared 2-vCPU x86_64 VM (2.1 GHz)
# with OpenBLAS on one thread.
PROBE_REF_S = 0.1

SETUP_SNIPPET = """
import sys
from approxdbn.dataset import load_idx, split
train, val = split(load_idx(sys.argv[1], sys.argv[2]), float(sys.argv[3]), int(sys.argv[4]))
test = load_idx(sys.argv[5], sys.argv[6])
for data in (train, val, test):
    data.images, data.one_hot
"""


@dataclass
class Child:
    name: str
    wall_s: float
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


def speed_probe():
    """Wall times of the two halves of a fixed kernel shaped like the
    package's own work: a mean-field layer on a 500-image batch and a
    CD-style gradient product (dense products), then a stochastic pass
    per image through 784-200-100-50 with 10 samples (small arrays, where
    numpy's per-call cost dominates).

    Neighbours on a shared host change how fast this VM runs for minutes
    at a time (the same command took 2.0 s to 3.5 s within ten minutes on
    a 2-vCPU VM), so raw wall times of runs made at different moments
    spread past any useful bound. The probe slows with them, and it does
    not change with the package's code. Dense and per-call work slow by
    different amounts at different times, and every command does both,
    so the probe times both."""
    import numpy as np

    rng = np.random.default_rng(0)
    v, w = rng.random((500, 784)), rng.standard_normal((784, 200)) * 0.05
    layers = [rng.standard_normal(shape) * 0.1
              for shape in ((784, 200), (200, 100), (100, 50))]
    start = time.perf_counter()
    for _ in range(PROBE_DENSE_ROUNDS):
        h = 1.0 / (1.0 + np.exp(-(v @ w)))
        v.T @ h
    middle = time.perf_counter()
    for i in range(PROBE_IMAGES):
        image_rng = np.random.default_rng(np.random.SeedSequence([0, i]))
        h = v[i][None, :]
        for weights in layers:
            a = 1.0 / (1.0 + np.exp(-(h @ weights)))
            h = (image_rng.random((10, a.shape[1])) < a).astype(np.float64)
    return middle - start, time.perf_counter() - middle


class Runner:
    """Starts children with a pinned BLAS thread count and the checkout's
    ``src`` as the only package path, and stops them at the deadline.
    With ``probe`` set, it times that function before every child."""

    def __init__(self, workdir, deadline):
        self.workdir = workdir
        self.deadline = deadline
        self.probe = None
        self.probe_times = []
        self.count = 0

    def run(self, name, argv, threads=BLAS_THREADS):
        if self.probe:
            self.probe_times.append(self.probe())
        env = dict(os.environ, PYTHONPATH=str(SRC))
        env.update({var: str(threads) for var in BLAS_VARS})
        self.count += 1
        out_path = self.workdir / f"child{self.count}.out"
        err_path = self.workdir / f"child{self.count}.err"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *argv], cwd=ROOT, env=env,
                                    stdout=out, stderr=err)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(name, wall, proc.returncode, out_path.read_text(),
                     err_path.read_text(), usage.ru_maxrss)


def cli_argv(argv):
    return ["-m", "approxdbn", *argv]


def check_command(child, inputs, out):
    """Failure messages for one CLI command; the test accuracy for eval."""
    import checks

    if child.code != 0:
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        return [f"{child.name}: exit code {child.code}: {tail[0]}"], None
    w = inputs.workload
    try:
        if child.name == "train":
            return checks.check_train(out), None
        if child.name == "search":
            return checks.check_search(out, w.search["max_relative_accuracy_loss"]), None
        if child.name == "curve":
            config = json.loads(Path(inputs.curve_config).read_text())
            return checks.check_curve(out, sum(w.hidden_sizes), w.curve_orders,
                                      config["curve"]["random_seeds"]), None
        acc, errors = checks.parse_eval(child.stdout, w.test_count, w.eval_mode)
        return errors, acc
    except Exception as e:  # a broken artifact is a failed command, not a crash
        return [f"{child.name}: checking outputs raised {e!r}"], None


def output_hashes(out):
    import checks

    files = {"train": "train/model.bin", "search": "search/final_model.bin",
             "search.trace": "search/trace.ndjson"}
    hashes = {}
    for key, rel in files.items():
        path = out / rel
        hashes[key] = checks.sha256(path) if path.is_file() else None
    return hashes


def run_pipeline(runner, inputs, out, repeats=None):
    """Run the four commands into ``out``, each ``repeats[name]`` times
    in a row (default once); return the children, the failure messages
    per command, the hashes and the quality figures."""
    children, errors, quality = [], {}, {}
    for name, argv in inputs.commands(str(out)):
        errors[name] = []
        for _ in range((repeats or {}).get(name, 1)):
            child = runner.run(name, cli_argv(argv))
            children.append(child)
            messages, acc = check_command(child, inputs, str(out))
            errors[name] += messages
            if acc is not None:
                quality["test_accuracy"] = acc
    if not errors["train"]:
        summary = json.loads((out / "train" / "training_summary.json").read_text())
        quality["val_accuracy"] = summary["validation_accuracy"]
    if not errors["search"]:
        report = json.loads((out / "search" / "report.json").read_text())
        quality["relative_accuracy"] = report["relative_accuracy"]
        quality["total_hidden_bits"] = report["total_hidden_bits"]
    return children, errors, output_hashes(out), quality


def compare_hashes(errors, reference, hashes, what):
    for key, digest in hashes.items():
        if digest != reference[key]:
            cmd = key.split(".")[0]
            errors[cmd].append(f"{cmd}: {key} hash {str(digest)[:12]} differs from "
                               f"{what} {str(reference[key])[:12]}")


def measure_setup(runner, inputs):
    """Wall time of one fresh process that imports the package and loads
    the workload's data the way every command does."""
    child = runner.run("setup", ["-c", SETUP_SNIPPET, inputs.train_images,
                                 inputs.train_labels,
                                 str(inputs.workload.validation_fraction), "0",
                                 inputs.test_images, inputs.test_labels])
    if child.code != 0:
        raise SystemExit(f"set-up process failed: {child.stderr.strip()}")
    return child.wall_s


def end_to_end(runner, inputs, workdir, seconds):
    measure_setup(runner, inputs)  # untimed: fills the page and bytecode caches
    runner.probe = speed_probe
    setup_times = []
    times = {name: [] for name in ("train", "search", "curve", "eval")}
    peak_kb, reference, repeats, attempted, failed = 0, None, None, 0, 0
    start = time.monotonic()
    last = 0.0
    rep = 0
    while reference is None or time.monotonic() - start + last <= seconds:
        began = time.monotonic()
        # set-up samples spread over the run, so one busy moment of the
        # host does not decide their median
        setup_times += [measure_setup(runner, inputs) for _ in range(SETUP_PER_REP)]
        out = workdir / f"iter{rep}"
        children, errors, hashes, q = run_pipeline(runner, inputs, out, repeats)
        if reference is None:
            reference, quality = hashes, q
            # a short command runs several times per repetition, so that
            # its median is drawn from about as many seconds as a long
            # command's
            repeats = {c.name: max(1, int(MIN_SAMPLE_S // c.wall_s)) for c in children}
        else:
            compare_hashes(errors, reference, hashes, "the first repetition")
            shutil.rmtree(out)
        for child in children:
            times[child.name].append(child.wall_s)
            peak_kb = max(peak_kb, child.maxrss_kb)
        attempted += len(children)
        failed += report_errors(errors)
        last = time.monotonic() - began
        rep += 1
    scale = PROBE_REF_S / statistics.median(sum(p) for p in runner.probe_times)
    print(f"# {rep} repetitions of the pipeline; each time metric is the median "
          f"of its runs times {scale:.4f}: the probe reference {PROBE_REF_S} s over "
          f"the median of {len(runner.probe_times)} probe runs")
    for k, part in enumerate(("dense", "per_call")):
        print(f"# probe_s {part}: " + " ".join(f"{p[k]:.4f}" for p in runner.probe_times))
    times["setup"] = setup_times
    for name, t in times.items():
        print(f"# {name}_s wall: {len(t)} runs, median {statistics.median(t):.4f}: "
              + " ".join(f"{x:.4f}" for x in t))
    metrics = {f"{name}_s": statistics.median(t) * scale for name, t in times.items()}
    metrics["peak_rss_mb"] = peak_kb / 1024.0
    metrics.update(quality)
    return metrics, attempted, failed


def report_errors(errors):
    """Print every failure message; return the number of failed commands."""
    for messages in errors.values():
        for message in messages:
            print(f"FAILED {message}", file=sys.stderr)
    return sum(1 for messages in errors.values() if messages)


def coverage_rules(workload):
    """(command, span name, whether it must fire) for the traced run. A
    wrapped function that is renamed or stops being called would zero its
    metrics silently, so each span must fire where its layer is exercised,
    and must not fire where the workload bypasses it."""
    plain = [f"ddbn.cd.layer{k}" for k in range(len(workload.hidden_sizes) - 1)]
    cd = plain + ["ddbn.cd.top"]
    forward = [f"ddbn.forward.layer{k}" for k in range(len(workload.hidden_sizes))]
    quantize = ["ddbn.requantize", "ddbn.quantize_columns", "fixedpoint.quantize_all"]
    rules = [("train", name, True) for name in
             cd + forward[:-1] + ["cli.train", "dataset.load_idx", "dataset.binarize",
                                  "ddbn.evaluate_accuracy", "ddbn.class_probs"]]
    rules += [("train", name, False) for name in quantize + ["ddbn.retrain_quantized"]]
    rules += [("search", name, True) for name in
              forward + quantize[1:] + ["cli.search", "search.phase1", "search.phase2",
                                        "search.neuron_order", "criticality.scores",
                                        "ddbn.apply_precision", "ddbn.evaluate_accuracy"]]
    rules += [("curve", name, True) for name in
              ["cli.curve", "criticality.scores", "ddbn.apply_precision",
               "ddbn.evaluate_accuracy"]]
    rules += [("eval", name, True) for name in
              ["cli.eval", "dataset.load_idx", "ddbn.evaluate_accuracy",
               "ddbn.confusion_counts"]]
    if workload.search["variant"] == "full":
        rules += [("search", name, True) for name in
                  cd + ["ddbn.requantize", "ddbn.retrain_quantized"]]
    else:
        rules += [("search", name, False) for name in cd + ["ddbn.retrain_quantized"]]
    if workload.eval_mode == "stochastic":
        rules.append(("eval", "ddbn.stochastic_probs", True))
    return rules


def check_coverage(workload, calls_by_command, errors):
    for cmd, name, must_fire in coverage_rules(workload):
        calls = calls_by_command.get(cmd, {}).get(name, 0)
        if (calls > 0) != must_fire:
            expected = "at least once" if must_fire else "never"
            errors[cmd].append(f"{cmd}: span {name} fired {calls} times in the traced "
                               f"run, expected {expected}")


def traced(runner, inputs, workdir):
    children, errors, reference, _ = run_pipeline(runner, inputs, workdir / "plain")
    attempted = len(children)
    failed = report_errors(errors)
    untraced_s = sum(c.wall_s for c in children)

    out = workdir / "traced"
    spec = {"commands": inputs.commands(str(out)),
            "spans": str(workdir / "spans.ndjson.gz"),
            "summary": str(workdir / "trace_summary.json"),
            "search_trace": str(out / "search" / "trace.ndjson")}
    spec_path = workdir / "trace_spec.json"
    spec_path.write_text(json.dumps(spec))
    child = runner.run("traced", [str(HERE / "traced.py"), str(spec_path)])
    attempted += len(spec["commands"])
    errors = {name: [] for name, _ in spec["commands"]}
    if child.code != 0:
        tail = child.stderr.strip().splitlines()[-1:] or [""]
        raise SystemExit(f"traced run failed: {tail[0]}")
    summary = json.loads(Path(spec["summary"]).read_text())
    for name in summary["missing"]:  # the coverage self-test counts these
        print(f"cannot wrap {name}: it no longer exists", file=sys.stderr)
    for name, code in summary["exit_codes"].items():
        if code != 0:
            errors[name].append(f"{name}: traced command exited {code}")
    compare_hashes(errors, reference, output_hashes(out), "the untraced run")
    check_coverage(inputs.workload, summary["calls_by_command"], errors)
    metrics = summary["metrics"]
    metrics["trace.overhead_ratio"] = child.wall_s / untraced_s

    # BLAS thread determinism: train again with as many threads as CPUs and
    # compare the model with the one-thread model. Known to differ with
    # OpenBLAS on a 2-vCPU VM; reported, not counted as a failure.
    nproc = len(os.sched_getaffinity(0))
    name, argv = inputs.commands(str(workdir / "probe"))[0]
    probe = runner.run(name, cli_argv(argv), threads=nproc)
    attempted += 1
    if probe.code != 0:
        errors["train"].append(f"train: {nproc}-thread probe exited {probe.code}")
    probe_hash = output_hashes(workdir / "probe")["train"]
    match = probe_hash == reference["train"]
    print(f"check thread_determinism: model.bin with {BLAS_THREADS} BLAS thread "
          f"{str(reference['train'])[:12]}, with {nproc} {str(probe_hash)[:12]}: "
          f"{'match' if match else 'MISMATCH (known, not counted as a failure)'}")
    metrics["blas.threads"] = BLAS_THREADS
    metrics["probe.threads"] = nproc
    metrics["probe.thread_hashes_match"] = int(match)
    metrics["probe.train_s"] = probe.wall_s
    metrics["probe.train_1thread_s"] = children[0].wall_s

    passes = metrics["ddbn.stochastic_probs.calls"] / inputs.workload.test_count
    if inputs.workload.eval_mode == "stochastic":
        print(f"observation: eval ran the stochastic pass {passes:g} times per test image")
    print(f"observation: in search, CD covers {metrics['search.cd_share']:.1%} and "
          f"evaluation, apply_precision and criticality cover "
          f"{metrics['search.eval_share']:.1%} of the span")
    failed += report_errors(errors)
    return metrics, attempted, failed


def main(argv=None):
    # numpy reads these once, when it is first imported
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARS})
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT_S
    if not (SRC / "approxdbn" / "cli.py").is_file():
        sys.exit(f"no approxdbn sources under {SRC}: run from the root of a checkout")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    inputs = workloads.Inputs(workloads.WORKLOADS[args.workload], args.seed,
                              str(workdir / "inputs"))
    inputs.write()
    runner = Runner(workdir, deadline)
    if args.trace:
        measured, attempted, failed = traced(runner, inputs, workdir)
    else:
        measured, attempted, failed = end_to_end(runner, inputs, workdir, args.seconds)

    if not failed:  # keep logs, spans and summaries; drop regenerable files
        for path in workdir.iterdir():
            if path.is_dir():
                shutil.rmtree(path)

    metrics = {}
    for spec in declared:
        value = measured.get(spec["name"])
        if value is None:
            if not failed:
                sys.exit(f"metric {spec['name']} was not measured")
            value = 0.0  # the command that yields it failed
        value = float(value)
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{spec['name']:40s} {value:14.6g} {spec['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()

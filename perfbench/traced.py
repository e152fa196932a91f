"""Traced in-process run of the benchmark pipeline.

Usage: python3 perfbench/traced.py SPEC.json

SPEC names the CLI argument lists to run, in order, through
``approxdbn.cli.main(argv)``, and where to write the spans and the
summary. Before the first command, the module-level functions and methods
that each layer exposes are replaced by wrappers that record a span per
call: name, start, end, parent span and run id (the CLI command the call
belongs to). Spans stay in memory and are written out once, at the end,
as gzipped NDJSON. Nothing under ``src/`` is edited; a function renamed
there stops firing here, which the span-coverage self-test in ``run.py``
reports.
"""

import functools
import gzip
import json
import math
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from approxdbn import cli, criticality, dataset, ddbn, search

NAME, START, END, PARENT, RUN, COUNT = range(6)

CD = "ddbn.cd."
EVALUATE = "ddbn.evaluate_accuracy"
APPLY = "ddbn.apply_precision"
RETRAIN = "ddbn.retrain_quantized"
CRITICALITY = "criticality.scores"


class Recorder:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.run = None
        self.missing = []

    def wrap(self, owner, attr, name, count=None, when=None, also=()):
        """Replace ``owner.attr`` (and the same name in each module of
        ``also``, which imported it directly) by a recording wrapper.
        ``name`` is a string or a function of the call's arguments;
        ``count`` gives the span a work count; a call for which ``when``
        is false is not recorded. A name that no longer exists is noted
        in ``missing``; its span then never fires."""
        fn = getattr(owner, attr, None)
        if fn is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is not None and not when(args):
                return fn(*args, **kwargs)
            span = [name if isinstance(name, str) else name(args), 0.0, 0.0,
                    stack[-1] if stack else -1, self.run,
                    count(args) if count else 0]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()

        for target in (owner, *also):
            setattr(target, attr, wrapper)


def _batches(data, config):
    return config.epochs * math.ceil(len(data) / config.batch_size)


def install(rec):
    """Wrap every layer boundary the per-layer metrics are built from."""
    for cmd in ("train", "search", "curve", "eval"):
        rec.wrap(cli, f"cmd_{cmd}", f"cli.{cmd}")
    rec.wrap(dataset, "load_idx", "dataset.load_idx")
    rec.wrap(dataset, "binarize", "dataset.binarize")
    rec.wrap(ddbn, "_train_rbm", lambda a: f"{CD}layer{a[1]}",
             count=lambda a: _batches(a[2], a[3]))
    rec.wrap(ddbn, "_train_top_rbm", f"{CD}top",
             count=lambda a: _batches(a[1], a[3]))
    # both return at once on a model without a precision map (plain
    # training), so only calls that quantize are recorded
    for attr in ("_requantize_layer", "_requantize_class"):
        rec.wrap(ddbn, attr, "ddbn.requantize",
                 when=lambda a: a[0].precision is not None)
    rec.wrap(ddbn, "_quantize_columns", "ddbn.quantize_columns",
             count=lambda a: len(np.unique(a[1])))
    # ddbn imported quantize_all by name; that is the name it calls
    rec.wrap(ddbn, "quantize_all", "fixedpoint.quantize_all",
             count=lambda a: np.size(a[0]))
    rec.wrap(ddbn.DdbnModel, "apply_precision", APPLY)
    rec.wrap(ddbn.DdbnModel, "hidden_probs", lambda a: f"ddbn.forward.layer{a[1]}")
    rec.wrap(ddbn.DdbnModel, "class_probs", "ddbn.class_probs")
    rec.wrap(ddbn.DdbnModel, "_stochastic_probs", "ddbn.stochastic_probs")
    rec.wrap(ddbn, "evaluate_accuracy", EVALUATE, count=lambda a: len(a[1]),
             also=[search])
    rec.wrap(ddbn, "confusion_counts", "ddbn.confusion_counts")
    rec.wrap(ddbn, "retrain_quantized", RETRAIN, also=[search])
    rec.wrap(criticality, "criticality_scores", CRITICALITY)
    rec.wrap(search, "phase1_uniform", "search.phase1")
    rec.wrap(search, "phase2_greedy", "search.phase2")
    rec.wrap(search, "_neuron_order", "search.neuron_order")


def _duration(span):
    return span[END] - span[START]


def summarize(spans, accepted_candidates):
    """Per-layer metrics and per-command call counts from the spans.
    ``accepted_candidates`` is the number of Phase-2 reductions the search
    committed, read from its trace."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        if s[PARENT] >= 0:
            children[s[PARENT]].append(i)
    calls, total, self_s, work = Counter(), Counter(), Counter(), Counter()
    calls_by_run = defaultdict(Counter)
    in_retrain = [False] * len(spans)
    eval_in_search = 0.0
    for i, s in enumerate(spans):
        d = _duration(s)
        name = s[NAME]
        calls[name] += 1
        total[name] += d
        self_s[name] += d - sum(_duration(spans[c]) for c in children[i])
        work[name] += s[COUNT]
        calls_by_run[s[RUN]][name] += 1
        p = s[PARENT]
        in_retrain[i] = p >= 0 and (in_retrain[p] or spans[p][NAME] == RETRAIN)
        if (s[RUN] == "search" and name in (EVALUATE, APPLY, CRITICALITY)
                and not in_retrain[i]):
            eval_in_search += d

    m = {}
    for cmd in ("train", "search", "curve", "eval"):
        m[f"cli.{cmd}.s"] = total[f"cli.{cmd}"]
        m[f"cli.{cmd}.self_s"] = self_s[f"cli.{cmd}"]
    for name in ("dataset.load_idx", "dataset.binarize", "ddbn.requantize",
                 APPLY, "ddbn.stochastic_probs", EVALUATE, RETRAIN, CRITICALITY,
                 "ddbn.quantize_columns", "fixedpoint.quantize_all"):
        m[f"{name}.calls"] = calls[name]
        m[f"{name}.s"] = total[name]
    for k in range(3):
        m[f"{CD}layer{k}.s"] = total[f"{CD}layer{k}"]
        m[f"ddbn.forward.layer{k}.s"] = total[f"ddbn.forward.layer{k}"]
    m[f"{CD}top.s"] = total[f"{CD}top"]
    m[f"{CD}batches"] = sum(v for k, v in work.items() if k.startswith(CD))
    m["ddbn.class_probs.s"] = total["ddbn.class_probs"]
    m["ddbn.confusion_counts.s"] = total["ddbn.confusion_counts"]
    m[f"{EVALUATE}.samples"] = work[EVALUATE]
    m["ddbn.quantize_columns.groups"] = (
        work["ddbn.quantize_columns"] / max(calls["ddbn.quantize_columns"], 1))
    elems = work["fixedpoint.quantize_all"]
    m["fixedpoint.quantize_all.elems"] = elems
    m["fixedpoint.quantize_all.ns_per_elem"] = (
        1e9 * total["fixedpoint.quantize_all"] / elems if elems else 0.0)

    m.update(_search_metrics(spans, children, accepted_candidates))
    search_s = total["cli.search"]
    cd_in_search = sum(_duration(s) for s in spans
                       if s[RUN] == "search" and s[NAME].startswith(CD))
    m["search.cd_share"] = cd_in_search / search_s if search_s else 0.0
    m["search.eval_share"] = eval_in_search / search_s if search_s else 0.0
    m["trace.spans"] = len(spans)
    return m, {run: dict(c) for run, c in calls_by_run.items()}


def _search_metrics(spans, children, accepted):
    """Phase timings and the useful-work ratios of Phase 2. Inside a
    Phase-2 span, a candidate is an evaluation right after an
    ``apply_precision``; each retrain is followed by one evaluation when
    it is kept and by a second one, of the pre-retrain model, when it is
    reverted."""
    m = dict.fromkeys(("search.phase1.s", "search.phase1.evals", "search.phase2.s",
                       "search.phase2.retrain_s", "search.phase2.evals",
                       "search.phase2.iterations", "search.retrains.tried",
                       "search.retrains.kept", "search.candidates.tried"), 0)
    order_s = 0.0
    for i, s in enumerate(spans):
        if s[NAME] == "search.phase1":
            m["search.phase1.s"] += _duration(s)
            m["search.phase1.evals"] += sum(
                spans[c][NAME] == EVALUATE for c in children[i])
        if s[NAME] != "search.phase2":
            continue
        m["search.phase2.s"] += _duration(s)
        previous, retrain_evals = None, None
        for c in children[i] + [None]:
            name = spans[c][NAME] if c is not None else None
            if retrain_evals is not None and name != EVALUATE:
                m["search.retrains.kept"] += retrain_evals == 1
                retrain_evals = None
            if name == EVALUATE:
                m["search.phase2.evals"] += 1
                if retrain_evals is not None:
                    retrain_evals += 1
                    m["search.phase2.retrain_s"] += _duration(spans[c])
                elif previous == APPLY:
                    m["search.candidates.tried"] += 1
            elif name == RETRAIN:
                m["search.retrains.tried"] += 1
                m["search.phase2.retrain_s"] += _duration(spans[c])
                retrain_evals = 0
            elif name == "search.neuron_order":
                m["search.phase2.iterations"] += 1
                order_s += _duration(spans[c])
            previous = name
    m["search.phase2.sweep_self_s"] = (m["search.phase2.s"] - m["search.phase2.retrain_s"]
                                       - order_s)
    m["search.candidates.accepted"] = accepted
    tried = m["search.candidates.tried"]
    m["search.candidates.accept_ratio"] = accepted / tried if tried else 0.0
    return m


def main(spec_path):
    with open(spec_path) as f:
        spec = json.load(f)
    rec = Recorder()
    install(rec)
    codes = {}
    for name, argv in spec["commands"]:
        rec.run = name
        codes[name] = cli.main(argv)
    with open(spec["search_trace"]) as f:
        accepted = sum(r["phase"] == "phase2" and r["event"] == "approximate"
                       for r in map(json.loads, f))
    metrics, calls_by_run = summarize(rec.spans, accepted)
    with gzip.open(spec["spans"], "wt") as f:
        for i, s in enumerate(rec.spans):
            f.write(json.dumps({"id": i, "name": s[NAME], "start": s[START],
                                "end": s[END], "parent": s[PARENT],
                                "run": s[RUN]}) + "\n")
    with open(spec["summary"], "w") as f:
        json.dump({"exit_codes": codes, "metrics": metrics, "missing": rec.missing,
                   "calls_by_command": calls_by_run}, f, indent=2, sort_keys=True)


if __name__ == "__main__":
    main(sys.argv[1])

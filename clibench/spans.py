"""Spans around the public functions of each idsfx module.

The program carries no instrumentation: ``install`` replaces each target
function, in every loaded ``idsfx`` module that binds it, with a wrapper that
records a span (name, start, end, parent) and the target's counts.  Spans stay
in memory and go back to the benchmark with each operation's reply.
"""

from __future__ import annotations

import functools
import os
import sys
import time

KDD = frozenset({"kdd-evaluate", "kdd-scale"})
CICIDS = frozenset({"cicids-transform"})
EVALUATE = frozenset({"kdd-evaluate"})
ALL = KDD | CICIDS
NO_KERNELS = ALL - EVALUATE


def _load_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0]), "rows": result.n_rows}


def _nmf_counts(args, kwargs, result):
    return {"iterations": result.iterations_run, "converged": int(result.converged)}


def _save_counts(args, kwargs, result):
    return {"bytes": os.path.getsize(args[1])}


def _svm_counts(args, kwargs, result):
    x, _, n_classes, epochs = args[:4]
    return {"updates": int(epochs) * x.shape[0] * int(n_classes)}


def _tree_counts(args, kwargs, result):
    return {"nodes": int(result[5])}


def _algorithm(args, kwargs, result):
    return {"algorithm": args[0].algorithm}


# (module, function, counts, workloads whose timed operations must reach it,
#  workloads whose timed operations must not)
TARGETS = (
    ("cli", "main", None, ALL, ()),
    ("data", "load_csv", _load_counts, ALL, ()),
    ("data", "train_test_split", None, KDD, ()),
    ("preprocess", "describe", None, KDD, ()),
    ("preprocess", "drop_near_zero_mean", None, KDD, ()),
    ("preprocess", "impute_fit", None, KDD, ()),
    ("preprocess", "impute_apply", None, ALL, ()),
    ("preprocess", "encode_labels", None, KDD, ()),
    ("preprocess", "encode_categoricals", None, ALL, ()),
    ("preprocess", "tfidf_fit", None, KDD, ()),
    ("preprocess", "tfidf_apply", None, ALL, ()),
    ("nmf", "nmf_fit", _nmf_counts, KDD, CICIDS),
    ("nmf", "nmf_transform", None, ALL, ()),
    ("select", "chi2_scores", None, KDD, ()),
    ("select", "select_k_best", None, KDD, ()),
    ("select", "apply_selection", None, ALL, ()),
    ("pipeline", "pipeline_fit", None, KDD, ()),
    ("pipeline", "pipeline_transform", None, ALL, ()),
    ("pipeline", "pipeline_save", _save_counts, KDD, ()),
    ("pipeline", "pipeline_load", None, CICIDS, ()),
    ("runner", "run_evaluation", None, KDD, ()),
    ("runner", "baseline_fit", None, KDD, ()),
    ("runner", "baseline_transform", None, KDD, ()),
    ("classifiers", "train", _algorithm, KDD, ()),
    ("classifiers", "predict", _algorithm, KDD, ()),
    ("kernels", "svm_sgd", _svm_counts, EVALUATE, NO_KERNELS),
    ("kernels", "grow_tree", _tree_counts, EVALUATE, NO_KERNELS),
    ("kernels", "tree_predict", None, EVALUATE, NO_KERNELS),
    ("evaluate", "export_report", None, KDD, ()),
)


class Tracer:
    """Records one flat list of spans: [name, start, end, parent, counts]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def take(self) -> list[list]:
        spans, self.spans = self.spans, []
        return spans

    def wrap(self, name: str, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else -1, {}]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if counts is not None:
                span[4] = counts(args, kwargs, result)
            return result
        return traced


def install(tracer: Tracer, targets=TARGETS) -> list[str]:
    """Wrap every target; returns the targets that no longer exist."""
    import idsfx.cli  # noqa: F401  (loads every module a target lives in)

    missing = []
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "idsfx" or n.startswith("idsfx."))]
    for module, function, counts, _, _ in targets:
        home = sys.modules.get(f"idsfx.{module}")
        original = getattr(home, function, None)
        if not callable(original):
            missing.append(f"{module}.{function}")
            continue
        traced = tracer.wrap(f"{module}.{function}", original, counts)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if value is original:
                    setattr(m, attr, traced)
    return missing


def coverage_errors(workload: str, fired: set[str]) -> list[str]:
    """Targets that the workload's timed operations should reach but did
    not, or reached but should not."""
    errors = []
    for module, function, _, reach, avoid in TARGETS:
        name = f"{module}.{function}"
        if workload in reach and name not in fired:
            errors.append(f"{name} never fired on {workload}")
        if workload in avoid and name in fired:
            errors.append(f"{name} fired on {workload}, which must bypass it")
    return errors


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(i, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append(end - start - covered)
    return out

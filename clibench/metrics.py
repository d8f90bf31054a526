"""Metric names, units and how each is derived from the operations of a run.

``END_TO_END`` come from the untraced run, ``PER_LAYER`` from the traced
run; both map a metric name to (unit, better) as ``BENCHMARK.json`` at the
root of the checkout declares them.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

from spans import self_times

_DECLARED = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: (m["unit"], m["better"]) for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: (m["unit"], m["better"]) for m in _DECLARED["per_layer"]}

ALGORITHMS = ("gaussian_nb", "logistic_regression", "linear_svm", "knn",
              "decision_tree", "random_forest")
MODULES = ("cli", "data", "preprocess", "nmf", "select", "pipeline", "runner",
           "classifiers", "kernels", "evaluate")

# metric -> the traced functions whose inclusive time it sums
SPAN_SUMS = {
    "data.load_csv.s": ("data.load_csv",),
    "data.train_test_split.s": ("data.train_test_split",),
    "preprocess.describe.s": ("preprocess.describe", "preprocess.drop_near_zero_mean"),
    "preprocess.impute.s": ("preprocess.impute_fit", "preprocess.impute_apply"),
    "preprocess.encode.s": ("preprocess.encode_labels", "preprocess.encode_categoricals"),
    "preprocess.tfidf.s": ("preprocess.tfidf_fit", "preprocess.tfidf_apply"),
    "nmf.fit.s": ("nmf.nmf_fit",),
    "nmf.transform.s": ("nmf.nmf_transform",),
    "select.chi2.s": ("select.chi2_scores", "select.select_k_best",
                      "select.apply_selection"),
    "pipeline.save.s": ("pipeline.pipeline_save",),
    "pipeline.load.s": ("pipeline.pipeline_load",),
    "runner.baseline.s": ("runner.baseline_fit", "runner.baseline_transform"),
    "kernels.svm_sgd.s": ("kernels.svm_sgd",),
    "kernels.grow_tree.s": ("kernels.grow_tree",),
    "kernels.tree_predict.s": ("kernels.tree_predict",),
    "evaluate.export_report.s": ("evaluate.export_report",),
}
for _algo in ALGORITHMS:
    SPAN_SUMS[f"classifiers.{_algo}.train_s"] = (f"classifiers.{_algo}.train",)
    SPAN_SUMS[f"classifiers.{_algo}.predict_s"] = (f"classifiers.{_algo}.predict",)

# metric -> the traced function whose self time it sums
SPAN_SELF = {
    "cli.self_s": "cli.main",
    "pipeline.fit.self_s": "pipeline.pipeline_fit",
    "pipeline.transform.self_s": "pipeline.pipeline_transform",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def module_self(spans: list[list]) -> dict[str, float]:
    """Self seconds of each module in one traced operation."""
    out = dict.fromkeys(MODULES, 0.0)
    for span, self_s in zip(spans, self_times(spans)):
        out[span[0].split(".")[0]] += self_s
    return out


def op_layers(spans: list[list], log_lines: int) -> dict[str, float]:
    """Per-layer values of one traced operation (everything but the
    run-level ``proc.*`` and ``trace.*`` metrics)."""
    incl: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    counts: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    root = 0.0
    for (name, start, end, parent, info), self_s in zip(spans, self_times(spans)):
        if "algorithm" in info:  # classifiers.train -> classifiers.<algo>.train
            module, function = name.split(".")
            name = f"{module}.{info['algorithm']}.{function}"
        incl[name] += end - start
        own[name] += self_s
        calls[name] += 1
        for key, value in info.items():
            if key != "algorithm":
                counts[f"{name}.{key}"] += value
        if parent < 0:
            root += end - start

    out = {metric: sum(incl[n] for n in names) for metric, names in SPAN_SUMS.items()}
    out.update({metric: own[name] for metric, name in SPAN_SELF.items()})
    modules = module_self(spans)
    out["runner.self_s"] = modules["runner"]
    out["cli.log_lines"] = float(log_lines)
    out["data.load_csv.mb_per_s"] = _ratio(counts["data.load_csv.bytes"] / 1e6,
                                           incl["data.load_csv"])
    out["nmf.fit.iterations"] = counts["nmf.nmf_fit.iterations"]
    out["nmf.fit.s_per_iter"] = _ratio(incl["nmf.nmf_fit"],
                                       counts["nmf.nmf_fit.iterations"])
    out["nmf.fit.converged_frac"] = _ratio(counts["nmf.nmf_fit.converged"],
                                           calls["nmf.nmf_fit"])
    out["pipeline.save.bytes"] = counts["pipeline.pipeline_save.bytes"]
    out["kernels.svm_sgd.updates"] = counts["kernels.svm_sgd.updates"]
    out["kernels.svm_sgd.ns_per_update"] = 1e9 * _ratio(
        incl["kernels.svm_sgd"], counts["kernels.svm_sgd.updates"])
    out["kernels.grow_tree.calls"] = float(calls["kernels.grow_tree"])
    out["kernels.grow_tree.nodes"] = counts["kernels.grow_tree.nodes"]
    for m in MODULES:
        out[f"share.{m}"] = _ratio(modules[m], root)
    return out


def layer_metrics(traced: list[dict], untraced: list[dict], count_ops: int) -> dict[str, float]:
    """Per-layer metrics of a traced run.

    Times are medians over every traced operation.  Counts are medians over
    the first ``count_ops`` operations, which every run makes, so they repeat
    exactly for a seed.  ``traced`` and ``untraced`` hold the replies of
    the same operations run with and without spans."""
    per_op = [op_layers(op["spans"], op["log_lines"]) for op in traced]
    out = {}
    for metric in per_op[0]:
        values = [v[metric] for v in per_op]
        if PER_LAYER[metric][0] == "count":
            values = values[:count_ops]
        out[metric] = statistics.median(values)
    out["proc.cpu_util"] = (sum(op["cpu_s"] for op in untraced)
                            / sum(op["wall_s"] for op in untraced))
    out["trace.overhead_frac"] = (
        statistics.median(op["wall_s"] for op in traced)
        / statistics.median(op["wall_s"] for op in untraced) - 1.0)
    return out


def end_to_end(rows: int, walls: list[float], setups: list[float],
               rss: list[float], quality: list[float]) -> dict[str, float]:
    """End-to-end metrics of an untraced run from its timed operations'
    wall times and peak RSS, its set-up times, and the accuracy of each
    checked timed operation."""
    wall = statistics.median(walls)
    return {
        "wall_s": wall,
        "rows_per_s": rows / wall,
        "peak_rss_mb": max(rss),
        "setup_s": statistics.median(setups),
        "mean_accuracy": statistics.fmean(quality) if quality else 0.0,
    }


def summary(values: list[float]) -> tuple[float, float, float]:
    """Median and first and third quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3

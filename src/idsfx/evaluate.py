"""Metrics and plot-ready report export: accuracy, confusion matrices,
Pearson correlation tables, and per-classifier comparison files."""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DomainError, SchemaError
from .matrix import FeatureMatrix


def accuracy(pred: np.ndarray, truth: np.ndarray) -> float:
    pred = np.asarray(pred)
    truth = np.asarray(truth)
    if pred.shape != truth.shape:
        raise SchemaError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise DomainError("accuracy undefined on empty vectors")
    return float(np.mean(pred == truth))


def confusion(pred: np.ndarray, truth: np.ndarray, k: int) -> np.ndarray:
    """k x k counts; entry (t, p) counts truth-class t predicted as p."""
    pred = np.asarray(pred, dtype=np.int64)
    truth = np.asarray(truth, dtype=np.int64)
    if pred.shape != truth.shape:
        raise SchemaError(f"length mismatch: {pred.shape} vs {truth.shape}")
    if pred.size and (pred.min() < 0 or pred.max() >= k or truth.min() < 0 or truth.max() >= k):
        raise DomainError(f"class code out of range [0, {k})")
    out = np.zeros((k, k), dtype=np.int64)
    np.add.at(out, (truth, pred), 1)
    return out


@dataclass
class CorrMatrix:
    values: np.ndarray            # (q, q) Pearson coefficients
    names: list[str]
    constant_features: list[str] = field(default_factory=list)


def pearson_corr(x) -> CorrMatrix:
    """Pairwise Pearson correlation over columns.

    Constant columns get 0 off-diagonal (with the column recorded in
    metadata) instead of NaN so exported tables stay plottable."""
    if isinstance(x, FeatureMatrix):
        xv, names = x.values, list(x.names)
    else:
        xv = np.asarray(x, dtype=np.float64)
        names = [f"f{j}" for j in range(xv.shape[1])]
    if xv.shape[0] < 2:
        raise DomainError("Pearson correlation needs at least 2 rows")
    centered = xv - xv.mean(axis=0)
    std = xv.std(axis=0)
    constant = std == 0.0
    safe_std = np.where(constant, 1.0, std)
    c = (centered.T @ centered) / (xv.shape[0] * np.outer(safe_std, safe_std))
    c = np.clip((c + c.T) / 2.0, -1.0, 1.0)
    c[constant, :] = 0.0
    c[:, constant] = 0.0
    np.fill_diagonal(c, 1.0)
    return CorrMatrix(values=c, names=names,
                      constant_features=[n for n, m in zip(names, constant) if m])


@dataclass
class EvalReport:
    dataset_id: str
    config: dict
    # (classifier, variant) -> accuracy; variants are "baseline" / "extracted"
    accuracies: dict[str, dict[str, float]] = field(default_factory=dict)
    confusions: dict[str, dict[str, list[list[int]]]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "dataset_id": self.dataset_id,
            "config": self.config,
            "accuracies": self.accuracies,
            "confusions": self.confusions,
        }


def _fmt(v: float) -> str:
    return "%.9g" % v


def export_report(report, path: str | Path, fmt: str = "csv") -> None:
    """Write an EvalReport or CorrMatrix with deterministic field order.

    CSV: correlation matrices become labeled square tables; evaluation
    reports become (classifier, variant, accuracy) rows for bar charts.
    JSON (evaluation reports only): the full report document."""
    path = Path(path)
    if fmt not in ("csv", "json"):
        raise ConfigError(f"format must be csv or json, got {fmt!r}")
    if isinstance(report, CorrMatrix) and fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow([""] + report.names)
            for name, row in zip(report.names, report.values):
                writer.writerow([name] + [_fmt(v) for v in row])
        return
    if isinstance(report, EvalReport):
        if fmt == "json":
            path.write_text(json.dumps(report.to_dict(), sort_keys=True, indent=1) + "\n",
                            encoding="utf-8")
            return
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["classifier", "variant", "accuracy"])
            for clf in sorted(report.accuracies):
                for variant in sorted(report.accuracies[clf]):
                    writer.writerow([clf, variant, _fmt(report.accuracies[clf][variant])])
        return
    raise ConfigError(f"cannot export object of type {type(report).__name__} as {fmt}")

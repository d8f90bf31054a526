"""Checks on the files each operation writes.  Every check returns a list of
error strings; an operation with any error counts as failed."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np


def n_test_rows(class_counts: list[int], test_fraction: float) -> int:
    """Rows the stratified split puts in the test set (see
    ``idsfx.data.train_test_split``)."""
    return sum(min(max(int(round(test_fraction * c)), 1), c - 1)
               for c in class_counts if c > 0)


def check_pipeline(path: Path) -> list[str]:
    from idsfx.errors import IdsfxError
    from idsfx.pipeline import pipeline_load

    try:
        fp = pipeline_load(path)  # verifies the CRC and the format version
    except (OSError, IdsfxError) as exc:
        return [f"{path.name}: {exc}"]
    trace = np.asarray(fp.nmf.objective_trace)
    if trace.size == 0:
        return [f"{path.name}: empty NMF objective trace"]
    if np.any(np.diff(trace) > 0):
        return [f"{path.name}: NMF objective trace increases"]
    return []


def check_report(path: Path, classifiers: list[str], n_test: int
                 ) -> tuple[list[str], float]:
    """Errors in report.json and the mean of its accuracies."""
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
        accuracies, confusions = doc["accuracies"], doc["confusions"]
    except (OSError, ValueError, KeyError) as exc:
        return [f"{path.name}: {exc}"], 0.0
    errors, values = [], []
    for clf in classifiers:
        for variant in ("baseline", "extracted"):
            acc = accuracies.get(clf, {}).get(variant)
            matrix = confusions.get(clf, {}).get(variant)
            if acc is None or matrix is None:
                errors.append(f"{path.name}: no result for {clf}/{variant}")
                continue
            if not 0.0 <= acc <= 1.0:
                errors.append(f"{path.name}: {clf}/{variant} accuracy {acc}")
            if int(np.sum(matrix)) != n_test:
                errors.append(f"{path.name}: {clf}/{variant} confusion sums to "
                              f"{int(np.sum(matrix))}, test size is {n_test}")
            values.append(acc)
    return errors, float(np.mean(values)) if values else 0.0


def check_transformed(path: Path, rows: int, v: int) -> tuple[list[str], np.ndarray | None]:
    try:
        x = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return [f"{path.name}: {exc}"], None
    if x.shape != (rows, v):
        return [f"{path.name}: shape {x.shape}, expected {(rows, v)}"], None
    if not np.all(np.isfinite(x)) or np.any(x < 0):
        return [f"{path.name}: values that are not finite and non-negative"], None
    return [], x


def centroid_accuracy(x: np.ndarray, y: np.ndarray) -> float:
    """Accuracy of a nearest-class-centroid rule fitted on the even rows of x
    and scored on the odd rows: how well the extracted features still
    separate the classes."""
    fit, score = slice(0, None, 2), slice(1, None, 2)
    classes = np.unique(y[fit])
    centroids = np.stack([x[fit][y[fit] == c].mean(axis=0) for c in classes])
    d2 = ((x[score][:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    return float(np.mean(classes[np.argmin(d2, axis=1)] == y[score]))


WALL_CLOCK_FILES = frozenset({"timings.json"})


def same_files(a: Path, b: Path) -> list[str]:
    """Files of two output directories that differ in name or bytes; wall
    clock timings are skipped."""
    names_a = {p.name for p in a.iterdir()} - WALL_CLOCK_FILES
    names_b = {p.name for p in b.iterdir()} - WALL_CLOCK_FILES
    if names_a != names_b:
        return [f"traced and untraced outputs differ in files: {sorted(names_a ^ names_b)}"]
    return [f"traced and untraced {n} differ" for n in sorted(names_a)
            if (a / n).read_bytes() != (b / n).read_bytes()]

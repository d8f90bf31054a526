"""Chi-square univariate scoring of non-negative features and top-k selection.

The statistic is the frequency-style chi-square used for univariate feature
selection on non-negative data: per feature, class-wise sums of the feature
values are the observed frequencies and the expected frequencies follow the
class proportions.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import DomainError, SchemaError
from .matrix import FeatureMatrix, values_of

log = logging.getLogger(__name__)


@dataclass
class Chi2Report:
    scores: np.ndarray              # one non-negative score per feature
    ranking: np.ndarray             # feature indices, score descending
    k: int
    names: list[str] = field(default_factory=list)

    @property
    def selected(self) -> np.ndarray:
        """The first k of the ranking."""
        return self.ranking[:self.k]


def chi2_scores(x, y: np.ndarray) -> np.ndarray:
    """score_j = sum_c (O_c - E_c)^2 / E_c with O_c the class-c sum of
    feature j and E_c its expectation under label-independence.  Classes with
    E_c = 0 contribute 0 (the feature is all-zero)."""
    xv = values_of(x)
    y = np.asarray(y, dtype=np.int64)
    if xv.shape[0] != y.shape[0]:
        raise SchemaError(f"{xv.shape[0]} rows but {y.shape[0]} labels")
    if (xv < 0).any():
        i, j = np.argwhere(xv < 0)[0]
        raise DomainError(f"negative entry {xv[i, j]} at ({i}, {j})")
    classes = np.unique(y)
    if classes.size < 2:
        raise DomainError("chi-square needs at least 2 distinct classes")

    p = xv.shape[0]
    onehot = (y[:, None] == classes[None, :]).astype(np.float64)   # (p, c)
    observed = onehot.T @ xv                                       # (c, q)
    totals = xv.sum(axis=0)                                        # (q,)
    class_frac = onehot.sum(axis=0) / p                            # (c,)
    expected = class_frac[:, None] * totals[None, :]               # (c, q)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = (observed - expected) ** 2 / expected
    terms[expected == 0] = 0.0
    return terms.sum(axis=0)


def select_k_best(scores: np.ndarray, k: int,
                  names: list[str] | None = None) -> Chi2Report:
    """Top-k features by descending score, ties broken by ascending index."""
    if k < 1:
        raise DomainError("k must be >= 1")
    scores = np.asarray(scores, dtype=np.float64)
    q = scores.size
    if k > q:
        log.warning("k=%d exceeds feature count %d; selecting all", k, q)
        k = q
    # stable sort on negated scores: equal scores keep ascending index order
    ranking = np.argsort(-scores, kind="stable")
    return Chi2Report(scores=scores, ranking=ranking, k=k,
                      names=list(names) if names else [])


def apply_selection(report: Chi2Report, x: FeatureMatrix) -> FeatureMatrix:
    """Keep the selected columns, in ranking order, names carried through."""
    sel = np.asarray(report.selected, dtype=np.int64)
    if sel.size and int(sel.max()) >= x.n_cols:
        raise SchemaError(
            f"selection references column {int(sel.max())} but matrix has {x.n_cols}")
    return FeatureMatrix(values=x.values[:, sel],
                         names=[x.names[int(j)] for j in sel])


def report_to_csv(report: Chi2Report, path: str | Path) -> None:
    """Two-column (feature_name, score) CSV sorted by descending score."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["feature_name", "score"])
        for j in report.ranking:
            name = report.names[int(j)] if report.names else str(int(j))
            writer.writerow([name, "%.9g" % report.scores[int(j)]])

"""Preprocessing chain: summary stats, near-zero-mean dropping, mean
imputation, label/categorical encoding and TF-IDF weighting.

Every stateful step is a fit/apply pair so that unseen rows are transformed
with frozen training statistics.  Encoding and imputation, the baseline
feature space, is one pair (``baseline_fit``/``baseline_transform``) that
the evaluation's baseline variant and the extraction pipeline both use.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .data import ColumnKind, Dataset
from .errors import PipelineError, SchemaError
from .matrix import FeatureMatrix

log = logging.getLogger(__name__)


@dataclass
class SummaryStats:
    # numeric columns: name -> {count, mean, std, min, max, missing}
    numeric: dict[str, dict[str, float]] = field(default_factory=dict)
    # categorical columns: name -> {count, distinct, missing}
    categorical: dict[str, dict[str, float]] = field(default_factory=dict)


def describe(x: Dataset) -> SummaryStats:
    """Per-column statistics over non-missing cells only."""
    stats = SummaryStats()
    n = x.n_rows
    for spec in x.schema:
        col = x.columns[spec.name]
        if spec.kind == ColumnKind.NUMERIC:
            valid = col[~np.isnan(col)]
            missing = n - valid.size
            if valid.size:
                entry = {
                    "count": float(valid.size),
                    "mean": float(valid.mean()),
                    "std": float(valid.std()),
                    "min": float(valid.min()),
                    "max": float(valid.max()),
                    "missing": float(missing),
                }
            else:
                entry = {"count": 0.0, "mean": math.nan, "std": math.nan,
                         "min": math.nan, "max": math.nan, "missing": float(missing)}
            stats.numeric[spec.name] = entry
        elif spec.kind == ColumnKind.CATEGORICAL:
            tokens = [t for t in col if str(t).strip() != ""]
            stats.categorical[spec.name] = {
                "count": float(len(tokens)),
                "distinct": float(len(set(tokens))),
                "missing": float(n - len(tokens)),
            }
    return stats


DEFAULT_DROP_THRESHOLD = 0.01


def drop_near_zero_mean(x: Dataset, stats: SummaryStats,
                        threshold: float = DEFAULT_DROP_THRESHOLD) -> tuple[Dataset, list[str]]:
    """Remove numeric columns whose max-scaled mean is approximately zero.

    The mean of each numeric column is scaled by the column max (when max > 0)
    and the column is dropped when the scaled magnitude is <= threshold.
    Categorical columns are never dropped.
    """
    if threshold < 0:
        raise PipelineError("drop threshold must be >= 0")
    dropped = []
    for spec in x.schema:
        if spec.kind != ColumnKind.NUMERIC:
            continue
        entry = stats.numeric.get(spec.name)
        if entry is None or math.isnan(entry["mean"]):
            continue
        scale = entry["max"] if entry["max"] > 0 else 1.0
        if abs(entry["mean"] / scale) <= threshold:
            dropped.append(spec.name)
    n_numeric = len(x.specs(ColumnKind.NUMERIC))
    if n_numeric and len(dropped) == n_numeric:
        raise PipelineError(
            "near-zero-mean drop removed every numeric column; lower the threshold")
    return x.select([s for s in x.schema if s.name not in dropped]), dropped


@dataclass
class ImputeModel:
    means: dict[str, float]  # fitted per-column replacement value

    def check(self, x: Dataset) -> None:
        """SchemaError for a numeric column of ``x`` without a fitted mean."""
        for spec in x.specs(ColumnKind.NUMERIC):
            if spec.name not in self.means:
                raise SchemaError(f"column {spec.name!r} was not present at fit time")


def impute_fit(x: Dataset) -> ImputeModel:
    means = {}
    for spec in x.specs(ColumnKind.NUMERIC):
        col = x.columns[spec.name]
        valid = col[~np.isnan(col)]
        if valid.size == 0:
            raise PipelineError(f"column {spec.name!r} has no non-missing cell to fit a mean")
        means[spec.name] = float(valid.mean())
    return ImputeModel(means=means)


def impute_apply(model: ImputeModel, x: Dataset, fm: FeatureMatrix) -> FeatureMatrix:
    """Fill the missing numeric cells of ``fm``, ``encode_categoricals``'s
    matrix of ``x``, with the fitted training means, in place; returns
    ``fm``.  ``x`` only names the numeric columns and is left as it is."""
    model.check(x)
    for j, spec in enumerate(x.schema):
        if spec.kind == ColumnKind.NUMERIC:
            col = fm.values[:, j]
            col[np.isnan(col)] = model.means[spec.name]
    return fm


@dataclass
class LabelEncoder:
    classes: list[str]  # lexicographic token order; code = position

    def encode(self, y: np.ndarray) -> np.ndarray:
        table = {c: i for i, c in enumerate(self.classes)}
        try:
            return np.array([table[str(v)] for v in y], dtype=np.int64)
        except KeyError as exc:
            raise SchemaError(f"unseen label token {exc.args[0]!r}") from exc


def encode_labels(y: np.ndarray) -> tuple[np.ndarray, LabelEncoder]:
    if len(y) == 0:
        raise PipelineError("empty label vector")
    enc = LabelEncoder(classes=sorted({str(v) for v in y}))
    return enc.encode(y), enc


@dataclass
class CategoricalEncoder:
    # per categorical column, lexicographic token -> code table
    tables: dict[str, dict[str, int]]


def encode_categoricals(x: Dataset, enc: CategoricalEncoder | None = None
                        ) -> tuple[FeatureMatrix, CategoricalEncoder]:
    """Turn the dataset into a fully numeric matrix, ordinal-coding categoricals.

    Columns keep schema order.  An unseen token at apply time maps to the
    reserved code equal to the fitted table size; each column with unseen
    tokens logs one warning with their count and a few examples.
    """
    cat_specs = x.specs(ColumnKind.CATEGORICAL)
    if enc is None:
        tables = {}
        for spec in cat_specs:
            tokens = sorted({str(v) for v in x.columns[spec.name]})
            tables[spec.name] = {t: i for i, t in enumerate(tokens)}
        enc = CategoricalEncoder(tables=tables)
    else:
        expected = set(enc.tables)
        got = {s.name for s in cat_specs}
        if expected != got:
            raise SchemaError(
                f"categorical columns differ from fit time: "
                f"missing {sorted(expected - got)}, extra {sorted(got - expected)}")

    out = np.empty((x.n_rows, len(x.schema)), dtype=np.float64)
    names = []
    for j, spec in enumerate(x.schema):
        names.append(spec.name)
        col = x.columns[spec.name]
        if spec.kind == ColumnKind.CATEGORICAL:
            table = enc.tables[spec.name]
            reserved = len(table)
            codes = np.empty(len(col), dtype=np.float64)
            unseen = []
            for i, tok in enumerate(col):
                code = table.get(str(tok))
                if code is None:
                    unseen.append(str(tok))
                    code = reserved
                codes[i] = code
            if unseen:
                examples = list(dict.fromkeys(unseen))[:3]
                log.warning("column %r: %d unseen cell(s) mapped to reserved code %d, "
                            "e.g. %s", spec.name, len(unseen), reserved,
                            ", ".join(map(repr, examples)))
            out[:, j] = codes
        else:
            out[:, j] = col
    return FeatureMatrix(values=out, names=names), enc


@dataclass
class BaselineModel:
    """Imputation + ordinal encoding only: the pre-extraction feature space."""
    impute: ImputeModel
    cat_encoder: CategoricalEncoder


def baseline_fit(x_train: Dataset) -> tuple[BaselineModel, FeatureMatrix]:
    """Fit the baseline; returns it and the encoded, imputed training rows."""
    imp = impute_fit(x_train)
    fm, enc = encode_categoricals(x_train)
    return BaselineModel(impute=imp, cat_encoder=enc), impute_apply(imp, x_train, fm)


def baseline_transform(bm: BaselineModel, x: Dataset) -> FeatureMatrix:
    """Encode and impute ``x`` as ``baseline_fit`` did its rows.  A numeric
    column without a fitted mean is refused before the encoding checks the
    categorical columns or warns of unseen tokens."""
    bm.impute.check(x)
    fm, _ = encode_categoricals(x, bm.cat_encoder)
    return impute_apply(bm.impute, x, fm)


@dataclass
class TfidfModel:
    idf: np.ndarray                 # weight per feature column, >= 1
    shifts: np.ndarray              # per-column offset making fit data non-negative
    names: list[str]


def tfidf_fit(x: FeatureMatrix) -> TfidfModel:
    """Fit smoothed inverse-document-frequency weights per feature column.

    Each cell plays the role of a term frequency; df(j) counts rows with a
    positive value in column j after the shift and
    idf(j) = ln((1+p)/(1+df(j))) + 1.  A rounded sum v + s is positive
    exactly when v > -s, so no shifted copy is made.
    """
    if x.n_rows == 0 or x.n_cols == 0:
        raise PipelineError("cannot fit TF-IDF on an empty matrix")
    mins = x.values.min(axis=0)
    shifts = np.where(mins < 0, -mins, 0.0)
    df = np.count_nonzero(x.values > -shifts, axis=0).astype(np.float64)
    idf = np.log((1.0 + x.n_rows) / (1.0 + df)) + 1.0
    return TfidfModel(idf=idf, shifts=shifts, names=list(x.names))


def tfidf_apply(model: TfidfModel, x: FeatureMatrix) -> FeatureMatrix:
    """Shift, clip at 0, weight by idf, then scale every row to unit L2 norm.

    Fit rows never go below 0 after the shift; a scored cell below its
    column's training minimum is clipped to 0.  The matrix is transformed
    in place: ``x.values`` is consumed and returned, so pass a copy to keep
    it."""
    if x.names != model.names:
        raise SchemaError("feature columns differ from TF-IDF fit time")
    out = x.values
    out += model.shifts
    np.maximum(out, 0.0, out=out)
    out *= model.idf
    norms = _row_norms(out)
    norms[norms == 0.0] = 1.0  # zero rows stay zero
    out /= norms
    return FeatureMatrix(values=out, names=list(x.names))


# Row norms square about this many cells (0.5 MB of float64) at a time.
NORM_BLOCK_CELLS = 1 << 16


def _row_norms(v: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(v, axis=1, keepdims=True)`` of a C-ordered matrix,
    the same bits, squaring about ``NORM_BLOCK_CELLS`` cells at a time
    instead of all."""
    norms = np.empty((v.shape[0], 1))
    step = max(1, NORM_BLOCK_CELLS // max(v.shape[1], 1))
    for lo in range(0, v.shape[0], step):
        rows = v[lo:lo + step]
        np.sqrt(np.add.reduce(rows * rows, axis=1, keepdims=True), out=norms[lo:lo + step])
    return norms

"""Six built-in classifiers with one train/predict contract.

Each classifier runs at one fixed setting, the one behind every report:
gaussian_nb floors variances at 1e-9; logistic_regression takes 500
full-batch softmax steps of 0.1 with L2 weight 1e-4; linear_svm runs 200
epochs of one-vs-rest Pegasos with lambda 1e-4; knn votes over the 5 nearest
rows; decision_tree splits every node of 2 or more rows a split improves;
random_forest grows 100 such trees on bootstrap samples, trying sqrt(m) of m
features per split.  The module constants below hold these values.

All fitting is deterministic given the ClassifierSpec seed.  The gradient-based models
(logistic regression, linear SVM) standardize features internally with
fit-time means/stds, since their fixed step sizes are meaningless across raw
intrusion-dataset feature scales; the fitted scaling is part of the model.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import ConfigError, DomainError, SchemaError
from .matrix import values_of

log = logging.getLogger(__name__)

ALGORITHMS = (
    "gaussian_nb",
    "logistic_regression",
    "linear_svm",
    "knn",
    "decision_tree",
    "random_forest",
)

GNB_VAR_FLOOR = 1e-9
LOGREG_LR, LOGREG_EPOCHS, LOGREG_L2 = 0.1, 500, 1e-4
SVM_EPOCHS, SVM_LAM = 200, 1e-4
KNN_K = 5
FOREST_TREES = 100
MIN_SAMPLES_SPLIT = 2


@dataclass
class ClassifierSpec:
    algorithm: str
    seed: int = field(default=0, kw_only=True)


@dataclass
class TrainedClassifier:
    algorithm: str
    classes: np.ndarray          # original class codes seen at training
    state: dict
    meta: dict                   # {"features": training column count}


def _as_matrix(x) -> np.ndarray:
    return np.ascontiguousarray(values_of(x))


def _standardize_fit(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    return mu, sd


def train(spec: ClassifierSpec, x, y: np.ndarray) -> TrainedClassifier:
    if spec.algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {spec.algorithm!r}")
    xv = _as_matrix(x)
    y = np.asarray(y, dtype=np.int64)
    if xv.shape[0] != y.shape[0]:
        raise SchemaError(f"{xv.shape[0]} rows but {y.shape[0]} labels")
    if xv.shape[0] < 2:
        raise DomainError("need at least 2 training rows")
    if np.isnan(xv).any():
        raise DomainError("NaN in training features")
    classes = np.unique(y)
    if classes.size < 2 and spec.algorithm != "knn":
        raise DomainError(f"{spec.algorithm} needs at least 2 classes")
    yk = np.searchsorted(classes, y)   # compact codes 0..k-1

    fitter = _FITTERS[spec.algorithm]
    state = fitter(xv, yk, classes.size, spec.seed)
    return TrainedClassifier(algorithm=spec.algorithm, classes=classes,
                             state=state, meta={"features": int(xv.shape[1])})


def predict(model: TrainedClassifier, x) -> np.ndarray:
    xv = _as_matrix(x)
    if xv.shape[1] != model.meta["features"]:
        raise SchemaError(
            f"input has {xv.shape[1]} features, model expects {model.meta['features']}")
    if np.isnan(xv).any():
        raise DomainError("NaN in prediction features")
    yk = _PREDICTORS[model.algorithm](model.state, xv)
    return model.classes[yk]


# ---------------------------------------------------------------- gaussian nb

def _fit_gnb(x, y, k, seed):
    d = x.shape[1]
    theta = np.empty((k, d))
    var = np.empty((k, d))
    prior = np.empty(k)
    for c in range(k):
        xc = x[y == c]
        theta[c] = xc.mean(axis=0)
        var[c] = np.maximum(xc.var(axis=0), GNB_VAR_FLOOR)
        prior[c] = xc.shape[0] / x.shape[0]
    return {"theta": theta, "var": var, "log_prior": np.log(prior)}


def _predict_gnb(state, x):
    theta, var = state["theta"], state["var"]
    # joint log-likelihood per class
    ll = np.empty((x.shape[0], theta.shape[0]))
    for c in range(theta.shape[0]):
        ll[:, c] = state["log_prior"][c] - 0.5 * np.sum(
            np.log(2.0 * np.pi * var[c]) + (x - theta[c]) ** 2 / var[c], axis=1)
    return np.argmax(ll, axis=1)


# ------------------------------------------------------- logistic regression

def _fit_logreg(x, y, k, seed):
    """Full-batch softmax regression on standardized features.

    The softmax lives in one class-major ``(k, n)`` buffer, so every
    reduction runs down the short class axis as a few long row operations.
    Each value is computed as the row-major ``(n, k)`` form computes it: both
    BLAS products see the same operands and layouts; the maximum is exact;
    the row totals add the classes in order below 8 classes, as numpy does
    for such short rows, and from a row-major copy at 8 or more, where numpy
    sums pairwise; and the bias gradient is the row-major copy's
    ``sum(axis=0)``, which adds the rows in order as ``mean(axis=0)`` does.
    """
    mu, sd = _standardize_fit(x)
    xs = (x - mu) / sd
    n, d = xs.shape
    w = np.zeros((k, d))
    b = np.zeros(k)
    onehot = np.zeros((k, n))
    onehot[y, np.arange(n)] = 1.0
    s = np.empty((k, n))
    diff = np.empty((n, k))   # row-major copy for the weight gradient
    for _ in range(LOGREG_EPOCHS):
        np.add((xs @ w.T).T, b[:, None], out=s)
        s -= s.max(axis=0)
        np.exp(s, out=s)
        s /= s.sum(axis=0) if k < 8 else np.ascontiguousarray(s.T).sum(axis=1)
        s -= onehot
        np.copyto(diff, s.T)
        w -= LOGREG_LR * (diff.T @ xs / n + LOGREG_L2 * w)
        b -= LOGREG_LR * (diff.sum(axis=0) / n)
    return {"w": w, "b": b, "mu": mu, "sd": sd}


def _predict_linear(state, x):
    xs = (x - state["mu"]) / state["sd"]
    return np.argmax(xs @ state["w"].T + state["b"], axis=1)


# ------------------------------------------------------------------ linear svm

def _fit_svm(x, y, k, seed):
    mu, sd = _standardize_fit(x)
    xs = np.ascontiguousarray((x - mu) / sd)
    n = xs.shape[0]
    rng = np.random.default_rng(seed)
    perms = np.empty((SVM_EPOCHS, n), dtype=np.int32)   # the kernel only takes rows with it
    for e in range(SVM_EPOCHS):
        perms[e] = rng.permutation(n)
    w, b = kernels.svm_sgd(xs, y, k, SVM_EPOCHS, SVM_LAM, perms)
    return {"w": w, "b": b, "mu": mu, "sd": sd}


# ------------------------------------------------------------------------ knn

# k-NN distance blocks hold at most KNN_BLOCK_ROWS query rows and about
# KNN_BLOCK_CELLS (query row, training row) pairs, 8 MB of float64; votes go
# over about KNN_SELECT_CELLS of them at a time, 2 MB of int64 indices.  BLAS
# needs a few dozen query rows a product to run at speed, and may round
# another block shape differently.
KNN_BLOCK_ROWS = 32
KNN_BLOCK_CELLS = 1 << 20
KNN_SELECT_CELLS = 1 << 18


def _fit_knn(x, y, k, seed):
    return {"x": x, "y": y, "k": min(KNN_K, x.shape[0]),
            "n_classes": int(max(k, 1))}


def _predict_knn(state, x):
    """Majority vote of the ``k`` training rows nearest to each row of ``x``.

    Distances are squared Euclidean, ``|q|^2 - 2 q.t + |t|^2``.  The ``k``
    nearest are every row strictly nearer than the k-th distance, then the
    lowest training indices among the rows at exactly that distance: the set
    a stable sort would put first.  Vote ties go to the lowest class code.

    Queries go in blocks of at most ``KNN_BLOCK_ROWS`` rows and about
    ``KNN_BLOCK_CELLS`` distances, each built in place in one buffer,
    allocated once, by the same operations in the same order as the
    expression above.  Each block's rows are voted on in sub-blocks of
    about ``KNN_SELECT_CELLS`` distances by ``_knn_votes``.
    """
    xt, yt = state["x"], state["y"]
    k, n_classes = state["k"], state["n_classes"]
    sq_t = np.einsum("ij,ij->i", xt, xt)
    out = np.empty(x.shape[0], dtype=np.int64)
    step = max(1, min(KNN_BLOCK_ROWS, KNN_BLOCK_CELLS // xt.shape[0]))
    sub = max(1, KNN_SELECT_CELLS // xt.shape[0])
    block = np.empty((min(step, x.shape[0]), xt.shape[0]))
    for lo in range(0, x.shape[0], step):
        xc = x[lo:lo + step]
        d2 = np.matmul(xc, xt.T, out=block[:xc.shape[0]])
        d2 *= 2.0
        np.subtract(np.einsum("ij,ij->i", xc, xc)[:, None], d2, out=d2)
        d2 += sq_t
        votes = out[lo:lo + step]
        for at in range(0, d2.shape[0], sub):
            votes[at:at + sub] = _knn_votes(d2[at:at + sub], yt, k, n_classes)
    return out


def _knn_votes(d2, yt, k, n_classes):
    """The vote of each row of distances ``d2`` to the training rows.

    A vote depends only on which rows are chosen, not on their order, so no
    row is sorted: ``argpartition`` finds the k-th distance in linear time,
    and only its first ``k`` columns are kept.  Where more than ``k`` rows
    lie within it, a running count of the rows at that distance keeps the
    lowest indices.  Rows with fewer than ``k`` comparable distances (NaN
    from overflowing or non-finite cells) are sorted.
    """
    near = np.argpartition(d2, k - 1, axis=1)[:, :k].copy()
    kth = np.take_along_axis(d2, near, axis=1).max(axis=1)[:, None]
    within = np.count_nonzero(d2 <= kth, axis=1)   # 0 where kth is NaN
    tied = np.flatnonzero(within > k)
    if tied.size:
        dt, kt = d2[tied], kth[tied]
        lt, at = dt < kt, dt == kt
        room = k - np.count_nonzero(lt, axis=1)
        keep = lt | (at & (np.cumsum(at, axis=1) <= room[:, None]))
        near[tied] = np.nonzero(keep)[1].reshape(-1, k)
    short = np.flatnonzero(within < k)
    if short.size:
        near[short] = np.argsort(d2[short], axis=1, kind="stable")[:, :k]
    cells = np.arange(near.shape[0])[:, None] * n_classes + yt[near]
    votes = np.bincount(cells.ravel(), minlength=near.shape[0] * n_classes)
    return votes.reshape(-1, n_classes).argmax(axis=1)


# -------------------------------------------------------------- decision tree

_TREE_ARRAYS = ("feature", "threshold", "left", "right", "leaf_class")


def _fit_tree(x, y, k, seed):
    *arrays, _ = kernels.grow_tree(x, y, k, x.shape[1], MIN_SAMPLES_SPLIT, seed)
    return dict(zip(_TREE_ARRAYS, arrays))


def _predict_tree(state, x):
    return kernels.tree_predict(x, *(state[name] for name in _TREE_ARRAYS))


# -------------------------------------------------------------- random forest

def _fit_forest(x, y, k, seed):
    """Draw every tree's bootstrap rows and LCG seed, then grow all trees in
    one ``kernels.grow_forest`` call."""
    n, m = x.shape
    m_try = max(1, int(np.sqrt(m)))
    rng = np.random.default_rng(seed)
    boots = np.empty((FOREST_TREES, n), np.int32)
    seeds = np.empty(FOREST_TREES, np.int64)
    short = 0   # trees whose bootstrap sample lacks a class
    for t in range(FOREST_TREES):
        boot = rng.integers(0, n, n)
        present = np.count_nonzero(np.bincount(y[boot], minlength=k))
        if present < k:
            boot = rng.integers(0, n, n)  # resample once
            present = np.count_nonzero(np.bincount(y[boot], minlength=k))
        # rare classes legitimately vanish from a bootstrap sample;
        # the tree simply never votes for them
        short += present < k
        boots[t] = boot
        seeds[t] = rng.integers(1, kernels.LCG_MOD - 1)
    if short:
        log.warning("bootstrap samples of %d of %d trees lost class(es); "
                    "grew them anyway", short, FOREST_TREES)
    *nodes, bounds = kernels.grow_forest(x, y, k, m_try, MIN_SAMPLES_SPLIT, boots, seeds)
    return {"forest": dict(zip(_TREE_ARRAYS, nodes)), "bounds": bounds, "n_classes": k}


def _predict_forest(state, x):
    forest = state["forest"]
    return kernels.forest_predict(x, *(forest[name] for name in _TREE_ARRAYS),
                                  state["bounds"], state["n_classes"])


_FITTERS = {
    "gaussian_nb": _fit_gnb,
    "logistic_regression": _fit_logreg,
    "linear_svm": _fit_svm,
    "knn": _fit_knn,
    "decision_tree": _fit_tree,
    "random_forest": _fit_forest,
}

_PREDICTORS = {
    "gaussian_nb": _predict_gnb,
    "logistic_regression": _predict_linear,
    "linear_svm": _predict_linear,
    "knn": _predict_knn,
    "decision_tree": _predict_tree,
    "random_forest": _predict_forest,
}

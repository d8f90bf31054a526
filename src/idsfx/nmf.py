"""Non-negative matrix factorization X (p x q) ~ W (p x r) . H (r x q).

Multiplicative Frobenius updates (Lee-Seung):

    H <- H * (W^T X) / (W^T W H + eps)
    W <- W * (X H^T) / (W H H^T + eps)

with eps = 1e-12 guarding the denominators.  The objective trace records the
Frobenius residual ||X - WH||_F after every iteration and is non-increasing.
All randomness is seeded; identical inputs give bit-identical factors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, SchemaError
from .matrix import FeatureMatrix, values_of

EPS = 1e-12
# the one solver setting behind every fit and transform
MAX_ITER = 200
TOL = 1e-4


@dataclass
class NmfModel:
    h: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False


def _check_nonnegative(x: np.ndarray) -> None:
    if np.isnan(x).any():
        i, j = np.argwhere(np.isnan(x))[0]
        raise DomainError(f"NaN entry at ({i}, {j})")
    if (x < 0).any():
        i, j = np.argwhere(x < 0)[0]
        raise DomainError(f"negative entry {x[i, j]} at ({i}, {j})")


def _frobenius(x: np.ndarray, w: np.ndarray, h: np.ndarray) -> float:
    return float(np.linalg.norm(x - w @ h))


def random_init(x: np.ndarray, r: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform(0,1) factors scaled by sqrt(mean(X)/r)."""
    rng = np.random.default_rng(seed)
    scale = np.sqrt(max(float(x.mean()), EPS) / r)
    w0 = rng.random((x.shape[0], r)) * scale
    h0 = rng.random((r, x.shape[1])) * scale
    return w0, h0


def nmf_fit(x, r: int, seed: int) -> NmfModel:
    """Fit W, H of rank r from a seeded random start by multiplicative
    updates; stops when the relative change of the Frobenius residual drops
    below TOL or MAX_ITER is reached.  Only H is kept."""
    if r < 1:
        raise ConfigError("component count r must be >= 1")
    xv = values_of(x)
    _check_nonnegative(xv)
    p, q = xv.shape
    if r > min(p, q):
        raise ConfigError(f"r={r} exceeds min(p, q)={min(p, q)}")

    w, h = random_init(xv, r, seed)

    trace: list[float] = []
    prev = _frobenius(xv, w, h)
    converged = False
    it = 0
    for it in range(1, MAX_ITER + 1):
        h *= (w.T @ xv) / (w.T @ w @ h + EPS)
        w *= (xv @ h.T) / (w @ (h @ h.T) + EPS)
        err = _frobenius(xv, w, h)
        trace.append(err)
        if abs(prev - err) / max(prev, EPS) < TOL:
            converged = True
            break
        prev = err
    return NmfModel(h=h, objective_trace=trace, iterations_run=it, converged=converged)


def nmf_transform(model: NmfModel, x_new) -> FeatureMatrix:
    """Project rows into the fitted r-dimensional component space.

    H stays frozen; W_new is found by the H-fixed multiplicative update from
    a deterministic row-local least-squares warm start (so identical rows map
    identically and all-zero rows stay all-zero)."""
    xv = values_of(x_new)
    if xv.shape[1] != model.h.shape[1]:
        raise SchemaError(
            f"input has {xv.shape[1]} columns, model expects {model.h.shape[1]}")
    _check_nonnegative(xv)
    h = model.h
    hht = h @ h.T
    h_sum = max(float(h.sum()), EPS)
    row_sums = xv.sum(axis=1, keepdims=True)
    # clipped least-squares projection per row; the floor keeps entries off
    # the zero fixed point of the multiplicative update
    floor = 1e-6 * row_sums / h_sum
    w = np.maximum(xv @ np.linalg.pinv(h), floor)
    w[row_sums[:, 0] == 0.0] = 0.0

    xht = xv @ h.T      # H is frozen, so the numerator is the same every iteration
    prev = _frobenius(xv, w, h)
    for _ in range(MAX_ITER):
        w *= xht / (w @ hht + EPS)
        err = _frobenius(xv, w, h)
        if abs(prev - err) / max(prev, EPS) < TOL:
            break
        prev = err
    comp_names = [f"component_{k}" for k in range(h.shape[0])]
    return FeatureMatrix(values=w, names=comp_names)

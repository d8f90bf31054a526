"""Non-negative matrix factorization X (p x q) ~ W (p x r) . H (r x q).

Multiplicative Frobenius updates (Lee-Seung):

    H <- H * (W^T X) / (W^T W H + eps)
    W <- W * (X H^T) / (W H H^T + eps)

with eps = 1e-12 guarding the denominators.  The objective trace records the
Frobenius residual ||X - WH||_F after every iteration and is non-increasing.
Each iteration takes it from the Gram terms that the updates already form,
||X||^2 - 2 <W, X H^T> + <W^T W, H H^T>, and the last entry directly.
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
    res = w @ h           # the one p x q temporary
    np.subtract(x, res, out=res)
    return float(np.linalg.norm(res))


def _residual(x, xx, w, h, xht, a, b) -> float:
    """||X - WH||_F from ||X||^2 - 2 <W, X H^T> + <a, b>, where ``xx`` is
    ||X||^2, ``xht`` is X H^T and <a, b> is <W^T W, H H^T>.  The expansion
    cancels about sqrt(eps) ||X|| of precision, so a residual below
    1e-4 ||X|| is taken directly."""
    err2 = xx - 2.0 * np.vdot(w, xht) + np.vdot(a, b)
    if err2 <= 1e-8 * xx:
        return _frobenius(x, w, h)
    return float(np.sqrt(err2))


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
    below TOL or MAX_ITER is reached.  Only H is kept.

    X H^T and the W update's quotient live in two p x r buffers filled in
    place, so the updates allocate nothing of X's row count."""
    if r < 1:
        raise ConfigError("component count r must be >= 1")
    xv = values_of(x)
    _check_nonnegative(xv)
    p, q = xv.shape
    if r > min(p, q):
        raise ConfigError(f"r={r} exceeds min(p, q)={min(p, q)}")

    w, h = random_init(xv, r, seed)
    xx = float(np.vdot(xv, xv))
    wtw = w.T @ w

    trace: list[float] = []
    prev = _frobenius(xv, w, h)
    converged = False
    it = 0
    xht, quot = np.empty_like(w), np.empty_like(w)
    for it in range(1, MAX_ITER + 1):
        h *= (w.T @ xv) / (wtw @ h + EPS)
        hht = h @ h.T
        np.matmul(xv, h.T, out=xht)
        np.matmul(w, hht, out=quot)
        quot += EPS
        np.divide(xht, quot, out=quot)
        w *= quot
        wtw = w.T @ w
        err = _residual(xv, xx, w, h, xht, wtw, hht)
        trace.append(err)
        if abs(prev - err) / max(prev, EPS) < TOL:
            converged = True
            break
        prev = err
    del xht, quot         # before the direct norm's p x q temporary
    trace[-1] = _frobenius(xv, w, h)
    return NmfModel(h=h, objective_trace=trace, iterations_run=it, converged=converged)


def nmf_transform(model: NmfModel, x_new) -> FeatureMatrix:
    """Project rows into the fitted r-dimensional component space.

    H stays frozen; W_new is found by the H-fixed multiplicative update from
    a deterministic row-local least-squares warm start (so identical rows map
    identically and all-zero rows stay all-zero).  Besides W it holds two
    p x r arrays, X H^T and W H H^T, filled in place; the update's quotient
    is formed in the W H H^T buffer, which the next product overwrites."""
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
    w = xv @ np.linalg.pinv(h)
    np.maximum(w, floor, out=w)
    w[row_sums[:, 0] == 0.0] = 0.0

    xht = xv @ h.T      # H is frozen, so the numerator is the same every iteration
    xx = float(np.vdot(xv, xv))
    whh = w @ hht       # <W, W H H^T> = <W^T W, H H^T>
    prev = _residual(xv, xx, w, h, xht, w, whh)
    for _ in range(MAX_ITER):
        whh += EPS
        np.divide(xht, whh, out=whh)
        w *= whh
        np.matmul(w, hht, out=whh)
        err = _residual(xv, xx, w, h, xht, w, whh)
        if abs(prev - err) / max(prev, EPS) < TOL:
            break
        prev = err
    comp_names = [f"component_{k}" for k in range(h.shape[0])]
    return FeatureMatrix(values=w, names=comp_names)

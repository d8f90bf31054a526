"""Non-negative matrix factorization X (p x q) ~ W (p x r) . H (r x q).

Multiplicative Frobenius updates (Lee-Seung):

    H <- H * (W^T X) / (W^T W H + eps)
    W <- W * (X H^T) / (W H H^T + eps)

with eps = 1e-12 guarding the denominators.  The objective trace records the
Frobenius residual ||X - WH||_F after every iteration and is non-increasing.
All randomness is seeded; identical inputs give bit-identical factors.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError, SchemaError
from .matrix import FeatureMatrix, values_of

log = logging.getLogger(__name__)

EPS = 1e-12


@dataclass
class NmfConfig:
    r: int = 30
    init: str = "random"          # "random" | "nndsvd"
    max_iter: int = 200
    tol: float = 1e-4
    seed: int = 0

    def validate(self) -> None:
        if self.r < 1:
            raise ConfigError("component count r must be >= 1")
        if self.max_iter < 1:
            raise ConfigError("max_iter must be >= 1")
        if not self.tol > 0:    # NaN fails too
            raise ConfigError("tol must be > 0")
        if self.init not in ("random", "nndsvd"):
            raise ConfigError(f"unknown init {self.init!r}")


@dataclass
class NmfModel:
    w: np.ndarray
    h: np.ndarray
    objective_trace: list[float] = field(default_factory=list)
    iterations_run: int = 0
    converged: bool = False
    config: NmfConfig = field(default_factory=NmfConfig)


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


def _randomized_svd(x: np.ndarray, r: int, seed: int,
                    n_power: int = 2, oversample: int = 10
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seeded randomized truncated SVD with power iteration."""
    p, q = x.shape
    k = min(r + oversample, min(p, q))
    rng = np.random.default_rng(seed)
    omega = rng.standard_normal((q, k))
    y = x @ omega
    for _ in range(n_power):
        y = x @ (x.T @ y)
    qmat, _ = np.linalg.qr(y)
    b = qmat.T @ x
    ub, s, vt = np.linalg.svd(b, full_matrices=False)
    u = qmat @ ub
    return u[:, :r], s[:r], vt[:r, :]


def nndsvd_init(x, r: int, seed: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """NNDSVDa initialization: split each singular triplet into its
    non-negative parts, then replace zeros by the matrix mean so that the
    multiplicative updates cannot lock entries at zero."""
    x = values_of(x)
    _check_nonnegative(x)
    if r > min(x.shape):
        raise ConfigError(f"r={r} exceeds min(p, q)={min(x.shape)}")
    u, s, vt = _randomized_svd(x, r, seed)
    p, q = x.shape
    w0 = np.zeros((p, r))
    h0 = np.zeros((r, q))
    # leading component: singular vectors of a non-negative matrix can be
    # taken non-negative
    w0[:, 0] = np.sqrt(s[0]) * np.abs(u[:, 0])
    h0[0, :] = np.sqrt(s[0]) * np.abs(vt[0, :])
    for j in range(1, r):
        uj, vj = u[:, j], vt[j, :]
        up, un = np.maximum(uj, 0), np.maximum(-uj, 0)
        vp, vn = np.maximum(vj, 0), np.maximum(-vj, 0)
        n_up, n_un = np.linalg.norm(up), np.linalg.norm(un)
        n_vp, n_vn = np.linalg.norm(vp), np.linalg.norm(vn)
        pos, neg = n_up * n_vp, n_un * n_vn
        if pos >= neg and pos > 0:
            scale = np.sqrt(s[j] * pos)
            w0[:, j] = scale * up / n_up
            h0[j, :] = scale * vp / n_vp
        elif neg > 0:
            scale = np.sqrt(s[j] * neg)
            w0[:, j] = scale * un / n_un
            h0[j, :] = scale * vn / n_vn
        else:
            log.warning("component %d is numerically degenerate; filled with matrix mean", j)
    mean = max(float(x.mean()), EPS)
    # randomized SVD leaves numerical dust instead of exact zeros
    cutoff = 1e-10 * max(np.sqrt(s[0]), 1.0)
    w0[w0 <= cutoff] = mean
    h0[h0 <= cutoff] = mean
    return w0, h0


def nmf_fit(x, cfg: NmfConfig) -> NmfModel:
    """Fit W, H by multiplicative updates; stops when the relative change of
    the Frobenius residual drops below cfg.tol or max_iter is reached."""
    cfg.validate()
    xv = values_of(x)
    _check_nonnegative(xv)
    p, q = xv.shape
    if cfg.r > min(p, q):
        raise ConfigError(f"r={cfg.r} exceeds min(p, q)={min(p, q)}")

    init = nndsvd_init if cfg.init == "nndsvd" else random_init
    w, h = init(xv, cfg.r, cfg.seed)

    trace: list[float] = []
    prev = _frobenius(xv, w, h)
    converged = False
    it = 0
    for it in range(1, cfg.max_iter + 1):
        h *= (w.T @ xv) / (w.T @ w @ h + EPS)
        w *= (xv @ h.T) / (w @ (h @ h.T) + EPS)
        err = _frobenius(xv, w, h)
        trace.append(err)
        if abs(prev - err) / max(prev, EPS) < cfg.tol:
            converged = True
            break
        prev = err
    return NmfModel(w=w, h=h, objective_trace=trace,
                    iterations_run=it, converged=converged, config=cfg)


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

    cfg = model.config
    xht = xv @ h.T      # H is frozen, so the numerator is the same every iteration
    prev = _frobenius(xv, w, h)
    for _ in range(cfg.max_iter):
        w *= xht / (w @ hht + EPS)
        err = _frobenius(xv, w, h)
        if abs(prev - err) / max(prev, EPS) < cfg.tol:
            break
        prev = err
    comp_names = [f"component_{k}" for k in range(h.shape[0])]
    return FeatureMatrix(values=w, names=comp_names)


def reconstruction_error(model: NmfModel, x) -> float:
    """Relative Frobenius residual ||X - WH||_F / ||X||_F (0 when ||X||_F = 0)."""
    xv = values_of(x)
    if xv.shape != (model.w.shape[0], model.h.shape[1]):
        raise SchemaError(
            f"shape {xv.shape} does not match model ({model.w.shape[0]}, {model.h.shape[1]})")
    denom = float(np.linalg.norm(xv))
    if denom == 0.0:
        return 0.0
    return _frobenius(xv, model.w, model.h) / denom

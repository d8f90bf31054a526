"""Hot numeric kernels: CART tree growth and prediction, and Pegasos SVM SGD.

Each kernel is numpy code vectorized across the axis that carries no
dependency: candidate features within one tree node, rows within one tree
level, and classes and features within one SGD step.  The SVM also evaluates
a block of upcoming SGD steps at once and keeps them up to the first step
that updates more than a decay; the buffers behind a block are capped at
``SVM_BLOCK_CELLS`` cells.  The floating-point operations and their order
are those of plain element-by-element loops, so results are bit-identical to
the scalar reference kept in ``tests/scalar_kernels.py``;
``tests/test_kernels.py`` checks that over seeded and degenerate inputs.  No
BLAS call is used, because BLAS may sum in any order.

Integer class counts drive every split comparison, which keeps tie-breaking
exact.  Feature subsampling uses a Park-Miller LCG, so a forest's trees depend
only on their integer seeds.
"""

from __future__ import annotations

import numpy as np

LCG_MOD = 2147483647   # 2^31 - 1 (Park-Miller)
LCG_MUL = 48271

# A node's split search holds a few int64/float64 arrays of about this many
# cells (rows x candidate features) at a time; on nodes with more rows, one
# feature column each.
SPLIT_BLOCK_CELLS = 4096

# The SVM evaluates as many steps at once as keep its two step-by-class-by-
# feature float64 buffers at about this many cells each.
SVM_BLOCK_CELLS = 8192


def _lcg_seed(seed):
    s = seed % (LCG_MOD - 1)
    if s < 0:
        s += LCG_MOD - 1
    return s + 1  # state in [1, LCG_MOD - 1]


def _candidate_features(m, max_features, state):
    """Partial Fisher-Yates draw of ``max_features`` of ``m`` features.

    Returns the drawn features in ascending order and the advanced LCG state;
    with ``max_features >= m`` every feature is a candidate and no draw is made.
    """
    if max_features >= m:
        return np.arange(m), state
    buf = list(range(m))
    for j in range(max_features):
        state = (state * LCG_MUL) % LCG_MOD
        pick = j + state % (m - j)
        buf[j], buf[pick] = buf[pick], buf[j]
    return np.array(sorted(buf[:max_features]), np.int64), state


def _best_split(xt, ys, rows, feats, counts):
    """Best (feature, threshold) for one node, or (-1, 0.0) if none improves.

    ``xt`` is the transposed feature matrix and ``ys`` the node's labels.
    Scores are sum(c_left^2)/n_left + sum(c_right^2)/n_right from exact int64
    class counts, taken only between distinct sorted values.  The first
    maximum in (feature, threshold) order wins, so ties resolve to the lowest
    feature, then the lowest threshold; it must beat the parent strictly.
    Features are scored in blocks of about ``SPLIT_BLOCK_CELLS`` node cells.
    """
    size = rows.size
    present = np.flatnonzero(counts)
    n_left = np.arange(1, size, dtype=np.int64)
    best_score, best_feat, best_thr = (counts @ counts) / size, -1, 0.0
    step = max(1, SPLIT_BLOCK_CELLS // size)
    for f0 in range(0, feats.size, step):
        block = feats[f0:f0 + step]
        vals = xt[block[:, None], rows]             # one row per feature
        order = vals.argsort(axis=1, kind="stable")
        vals = np.take_along_axis(vals, order, axis=1)
        labs = ys[order[:, :-1]]
        ssl = np.zeros(labs.shape, np.int64)
        ssr = np.zeros(labs.shape, np.int64)
        for c in present:
            n_c = (labs == c).cumsum(axis=1)
            ssl += n_c * n_c
            n_c = counts[c] - n_c
            ssr += n_c * n_c
        score = ssl / n_left + ssr / (size - n_left)
        # no threshold inside a run of equal values
        score[~(vals[:, :-1] < vals[:, 1:])] = -np.inf
        jf, i = divmod(int(score.argmax()), size - 1)   # first maximum
        if score[jf, i] > best_score:
            best_score = score[jf, i]
            best_feat = block[jf]
            best_thr = 0.5 * (vals[jf, i] + vals[jf, i + 1])
    return best_feat, best_thr


def grow_tree(X, y, n_classes, max_features, min_samples_split, seed):
    """Iteratively grow an unlimited-depth CART/Gini tree.

    Splits maximize sum(c_left^2)/n_left + sum(c_right^2)/n_right (equivalent
    to minimizing weighted Gini impurity); strict improvement over the parent
    is required.  Ties resolve to the lowest feature index, then the lowest
    threshold.  Leaf class is the majority with ties to the lowest class code.
    Rows ``<= threshold`` go left.  Nodes are numbered depth-first, left child
    first.

    Returns (feature, threshold, left, right, leaf_class, n_nodes); the arrays
    have capacity 2n+1, of which the first n_nodes are used, and feature is -1
    at leaves.
    """
    n, m = X.shape
    cap = 2 * n + 1
    feature = np.full(cap, -1, np.int64)
    threshold = np.zeros(cap, np.float64)
    left = np.full(cap, -1, np.int64)
    right = np.full(cap, -1, np.int64)
    leaf_class = np.full(cap, -1, np.int64)

    xt = np.ascontiguousarray(X.T, dtype=np.float64)
    idx = np.arange(n)
    stack = [(0, 0, n)]
    n_nodes = 1
    state = _lcg_seed(seed)

    while stack:
        node, lo, hi = stack.pop()
        rows = idx[lo:hi]
        size = hi - lo
        ys = y[rows]
        counts = np.bincount(ys, minlength=n_classes)
        majority = int(np.argmax(counts))
        if counts[majority] == size or size < min_samples_split:
            leaf_class[node] = majority
            continue

        feats, state = _candidate_features(m, max_features, state)
        best_feat, best_thr = _best_split(xt, ys, rows, feats, counts)
        if best_feat < 0:
            leaf_class[node] = majority
            continue

        # left rows keep their order; right rows are stored reversed
        goes_left = xt[best_feat, rows] <= best_thr
        n_left = int(np.count_nonzero(goes_left))
        idx[lo:hi] = np.concatenate((rows[goes_left], rows[~goes_left][::-1]))

        lchild = n_nodes
        rchild = n_nodes + 1
        n_nodes += 2
        feature[node] = best_feat
        threshold[node] = best_thr
        left[node] = lchild
        right[node] = rchild
        stack.append((rchild, lo + n_left, hi))
        stack.append((lchild, lo, lo + n_left))

    return feature, threshold, left, right, leaf_class, n_nodes


def tree_predict(X, feature, threshold, left, right, leaf_class):
    """Leaf class of every row, moving all rows down one tree level at a time."""
    node = np.zeros(X.shape[0], np.int64)
    active = np.flatnonzero(feature[node] >= 0)
    while active.size:
        at = node[active]
        goes_left = X[active, feature[at]] <= threshold[at]
        node[active] = np.where(goes_left, left[at], right[at])
        active = active[feature[node[active]] >= 0]
    return leaf_class[node]


def svm_sgd(X, y, n_classes, epochs, lam, perms):
    """One-vs-rest hinge-loss Pegasos SGD, one step per row for all classes.

    ``perms`` holds one precomputed sample permutation per epoch so the visit
    order is fixed by the caller's seed.  Step size is 1/(lam * t); the bias
    behaves like a weight on a constant feature (regularized), which keeps the
    huge early steps from permanently skewing it.

    The bias is kept as column 0 of one weight matrix and the rows get a
    leading 1.0, so one multiply, decay and update cover both.  Most steps
    only decay the weights, so ``b`` steps are evaluated at once: with the
    weights in ``acc[0]`` and the step decays in ``acc[1:b+1]``, one
    multiply-accumulate down the step axis gives the weights before each
    step, rounded after each decay as ``wb *= decay`` would round them.  Each
    step's margins are accumulated left to right, bias first, as a scalar
    loop would sum them.  The first step with a violated class commits its
    decayed weights and the update of the violated classes, and the next
    block starts after it; a clean block commits all ``b`` decays.  ``b``
    doubles after a clean block and halves after a hit, up to the steps whose
    weight copies fit in ``SVM_BLOCK_CELLS`` cells.
    """
    n, d = X.shape
    xa = np.ones((n, d + 1))
    xa[:, 1:] = X
    target = np.where(y[:, None] == np.arange(n_classes), 1.0, -1.0)
    cap = max(1, SVM_BLOCK_CELLS // (n_classes * (d + 1)))
    acc = np.zeros((cap + 1, n_classes, d + 1))    # acc[0] is the weights
    prod = np.empty((cap, n_classes, d + 1))
    rows = perms[:epochs].reshape(-1)
    xs = np.empty((cap, d + 1))
    wb = acc[0]
    steps = rows.size
    t = 0                                          # steps committed
    b = 1
    while t < steps:
        b = min(b, steps - t)
        idx = rows[t:t + b]
        # decay = 1 - eta * lam of each step
        acc[1:b + 1] = (1.0 - 1.0 / np.arange(t + 1, t + b + 1))[:, None, None]
        np.multiply.accumulate(acc[:b + 1], axis=0, out=acc[:b + 1])
        xa.take(idx, axis=0, out=xs[:b])
        np.multiply(acc[:b], xs[:b, None, :], out=prod[:b])
        np.add.accumulate(prod[:b], axis=2, out=prod[:b])
        violated = target[idx] * prod[:b, :, -1] < 1.0
        first = int(violated.argmax())             # in (step, class) order
        if not violated.flat[first]:
            wb[...] = acc[b]
            t += b
            b = min(2 * b, cap)
            continue
        k = first // n_classes
        t += k + 1
        wb[...] = acc[k + 1]
        eta = 1.0 / (lam * t)
        tc = target[idx[k]]
        np.add(wb, (eta * tc)[:, None] * xs[k], out=wb, where=violated[k][:, None])
        b = max(1, b // 2)
    return np.ascontiguousarray(wb[:, 1:]), wb[:, 0].copy()


def backend_name() -> str:
    return "numpy"

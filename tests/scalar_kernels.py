"""Scalar reference kernels: the oracle for ``idsfx.kernels``.

These are the element-by-element loops that ``idsfx.kernels`` replaced with
vectorized numpy code.  The arithmetic of every step is the same in both, so
``tests/test_kernels.py`` requires their outputs to be bit-identical.  Keep
these bodies as they are; they are the definition the fast kernels must meet.
``predict_knn_sorted`` is the same for k-NN prediction in
``idsfx.classifiers``: it sorts every distance row, where the fast version
selects the k nearest (``tests/test_classifiers.py``).  It also still forms
each distance block as one expression of temporaries, where the fast version
builds it in one buffer.  ``fit_logreg_rowmajor`` is the row-major softmax fit
that ``idsfx.classifiers._fit_logreg`` replaced with a class-major one.
``fit_forest_loop`` and ``predict_forest_loop`` are the random forest grown and
polled one tree at a time, which ``idsfx.kernels.grow_forest`` and
``forest_predict`` replaced with all trees at once; here each tree runs
through the scalar loops above.  ``forest_trees`` cuts a fitted forest's
arrays into the same per-tree states.  For the SVM, ``_svm_sgd_closed_impl``
is the bit-identical oracle, the closed form that ``idsfx.kernels.svm_sgd``
computes.  ``_svm_sgd_impl`` is Pegasos as first written, decaying the
weights at every step; it does other arithmetic, so the kernel must match it
to rounding only.
"""

import numpy as np

from idsfx.classifiers import (FOREST_TREES, LOGREG_EPOCHS, LOGREG_L2, LOGREG_LR,
                               MIN_SAMPLES_SPLIT)

LCG_MOD = 2147483647   # 2^31 - 1 (Park-Miller)
LCG_MUL = 48271


def _lcg_seed(seed):
    s = seed % (LCG_MOD - 1)
    if s < 0:
        s += LCG_MOD - 1
    return s + 1  # state in [1, LCG_MOD - 1]


def _grow_tree_impl(X, y, n_classes, max_features, min_samples_split, seed):
    """Iteratively grow an unlimited-depth CART/Gini tree.

    Splits maximize sum(c_left^2)/n_left + sum(c_right^2)/n_right (equivalent
    to minimizing weighted Gini impurity); strict improvement over the parent
    is required.  Candidate features are visited in ascending index order and
    thresholds in ascending value order, so ties resolve to the lowest feature
    index, then the lowest threshold.  Leaf class is the majority with ties to
    the lowest class code.

    Returns (feature, threshold, left, right, leaf_class, n_nodes); feature is
    -1 at leaves.
    """
    n, m = X.shape
    cap = 2 * n + 1
    feature = np.full(cap, -1, np.int64)
    threshold = np.zeros(cap, np.float64)
    left = np.full(cap, -1, np.int64)
    right = np.full(cap, -1, np.int64)
    leaf_class = np.full(cap, -1, np.int64)

    idx = np.arange(n)
    tmp = np.empty(n, np.int64)
    vals = np.empty(n, np.float64)
    labs = np.empty(n, np.int64)
    counts = np.zeros(n_classes, np.int64)
    left_counts = np.zeros(n_classes, np.int64)
    feat_buf = np.empty(m, np.int64)

    stack_node = np.empty(cap, np.int64)
    stack_lo = np.empty(cap, np.int64)
    stack_hi = np.empty(cap, np.int64)
    top = 0
    stack_node[top] = 0
    stack_lo[top] = 0
    stack_hi[top] = n
    top += 1
    n_nodes = 1
    state = _lcg_seed(seed)

    while top > 0:
        top -= 1
        node = stack_node[top]
        lo = stack_lo[top]
        hi = stack_hi[top]
        size = hi - lo

        for c in range(n_classes):
            counts[c] = 0
        for i in range(lo, hi):
            counts[y[idx[i]]] += 1
        majority = 0
        for c in range(1, n_classes):
            if counts[c] > counts[majority]:
                majority = c

        if counts[majority] == size or size < min_samples_split:
            leaf_class[node] = majority
            continue

        # choose candidate features (partial Fisher-Yates, then ascending)
        if max_features < m:
            for j in range(m):
                feat_buf[j] = j
            k_feats = max_features
            for j in range(k_feats):
                state = (state * LCG_MUL) % LCG_MOD
                pick = j + state % (m - j)
                t = feat_buf[j]
                feat_buf[j] = feat_buf[pick]
                feat_buf[pick] = t
            for a in range(1, k_feats):
                key = feat_buf[a]
                b = a - 1
                while b >= 0 and feat_buf[b] > key:
                    feat_buf[b + 1] = feat_buf[b]
                    b -= 1
                feat_buf[b + 1] = key
        else:
            k_feats = m
            for j in range(m):
                feat_buf[j] = j

        parent_ss = np.int64(0)
        for c in range(n_classes):
            parent_ss += counts[c] * counts[c]
        best_score = parent_ss / size
        best_feat = np.int64(-1)
        best_thr = 0.0

        for jf in range(k_feats):
            f = feat_buf[jf]
            for i in range(size):
                vals[i] = X[idx[lo + i], f]
                labs[i] = y[idx[lo + i]]
            order = np.argsort(vals[:size], kind="mergesort")
            for c in range(n_classes):
                left_counts[c] = 0
            ssl = np.int64(0)
            ssr = parent_ss
            n_left = 0
            for i in range(size - 1):
                c = labs[order[i]]
                ssl += 2 * left_counts[c] + 1
                ssr -= 2 * (counts[c] - left_counts[c]) - 1
                left_counts[c] += 1
                n_left += 1
                v0 = vals[order[i]]
                v1 = vals[order[i + 1]]
                if v0 < v1:
                    score = ssl / n_left + ssr / (size - n_left)
                    if score > best_score:
                        best_score = score
                        best_feat = f
                        best_thr = 0.5 * (v0 + v1)

        if best_feat < 0:
            leaf_class[node] = majority
            continue

        # partition node rows: <= threshold goes left
        a = 0
        b = size - 1
        for i in range(lo, hi):
            if X[idx[i], best_feat] <= best_thr:
                tmp[a] = idx[i]
                a += 1
            else:
                tmp[b] = idx[i]
                b -= 1
        for i in range(size):
            idx[lo + i] = tmp[i]

        lchild = n_nodes
        rchild = n_nodes + 1
        n_nodes += 2
        feature[node] = best_feat
        threshold[node] = best_thr
        left[node] = lchild
        right[node] = rchild

        stack_node[top] = rchild
        stack_lo[top] = lo + a
        stack_hi[top] = hi
        top += 1
        stack_node[top] = lchild
        stack_lo[top] = lo
        stack_hi[top] = lo + a
        top += 1

    return feature, threshold, left, right, leaf_class, n_nodes


def _tree_predict_impl(X, feature, threshold, left, right, leaf_class):
    n = X.shape[0]
    out = np.empty(n, np.int64)
    for i in range(n):
        node = 0
        while feature[node] >= 0:
            if X[i, feature[node]] <= threshold[node]:
                node = left[node]
            else:
                node = right[node]
        out[i] = leaf_class[node]
    return out


def _svm_sgd_impl(X, y, n_classes, epochs, lam, perms):
    """One-vs-rest hinge-loss Pegasos SGD.

    ``perms`` holds one precomputed sample permutation per epoch so the visit
    order is fixed by the caller's seed.  Step size is 1/(lam * t); the bias
    behaves like a weight on a constant feature (regularized), which keeps the
    huge early steps from permanently skewing it.
    """
    n, d = X.shape
    w = np.zeros((n_classes, d))
    b = np.zeros(n_classes)
    t = 0
    for e in range(epochs):
        for ii in range(n):
            i = perms[e, ii]
            t += 1
            eta = 1.0 / (lam * t)
            decay = 1.0 - 1.0 / t      # = 1 - eta * lam
            for c in range(n_classes):
                target = 1.0 if y[i] == c else -1.0
                s = b[c]
                for j in range(d):
                    s += w[c, j] * X[i, j]
                for j in range(d):
                    w[c, j] *= decay
                b[c] *= decay
                if target * s < 1.0:
                    step = eta * target
                    for j in range(d):
                        w[c, j] += step * X[i, j]
                    b[c] += step
    return w, b


def _svm_sgd_closed_impl(X, y, n_classes, epochs, lam, perms, ties=None):
    """``_svm_sgd_impl`` in closed form: with step 1/(lam * t) the weights
    after step t are V / (lam * t), where V sums target * x over the violated
    margins so far.  Step 1 sees zero weights and updates every class; step t
    violates class c where target * (V_c . x) < lam * (t - 1), the dot
    product summed left to right, bias first.  After step 1, the margins
    that land exactly on their threshold are appended to ``ties`` as (t, c)
    if given.
    """
    n, d = X.shape
    v = np.zeros((n_classes, d))
    vb = np.zeros(n_classes)
    t = 0
    for e in range(epochs):
        for ii in range(n):
            i = perms[e, ii]
            t += 1
            thr = lam * (t - 1)
            for c in range(n_classes):
                target = 1.0 if y[i] == c else -1.0
                s = vb[c]
                for j in range(d):
                    s += v[c, j] * X[i, j]
                if t == 1 or target * s < thr:
                    for j in range(d):
                        v[c, j] += target * X[i, j]
                    vb[c] += target
                elif ties is not None and target * s == thr:
                    ties.append((t, c))
    return v / (lam * t), vb / (lam * t)


def predict_knn_sorted(state, x, chunk: int = 512):
    xt, yt = state["x"], state["y"]
    k = state["k"]
    sq_t = np.einsum("ij,ij->i", xt, xt)
    out = np.empty(x.shape[0], dtype=np.int64)
    for lo in range(0, x.shape[0], chunk):
        xc = x[lo:lo + chunk]
        d2 = np.einsum("ij,ij->i", xc, xc)[:, None] - 2.0 * (xc @ xt.T) + sq_t
        # stable sort: equal distances resolve to the lower training index
        near = np.argsort(d2, axis=1, kind="stable")[:, :k]
        votes = yt[near]
        for i in range(votes.shape[0]):
            counts = np.bincount(votes[i], minlength=state["n_classes"])
            out[lo + i] = int(np.argmax(counts))  # vote ties: lowest class code
    return out


def fit_logreg_rowmajor(x, y, k):
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd = np.where(sd == 0.0, 1.0, sd)
    xs = (x - mu) / sd
    n, d = xs.shape
    w = np.zeros((k, d))
    b = np.zeros(k)
    onehot = np.zeros((n, k))
    onehot[np.arange(n), y] = 1.0
    for _ in range(LOGREG_EPOCHS):
        scores = xs @ w.T + b
        scores -= scores.max(axis=1, keepdims=True)
        p = np.exp(scores)
        p /= p.sum(axis=1, keepdims=True)
        diff = p - onehot
        w -= LOGREG_LR * (diff.T @ xs / n + LOGREG_L2 * w)
        b -= LOGREG_LR * diff.mean(axis=0)
    return {"w": w, "b": b, "mu": mu, "sd": sd}


def _tree_state(arrays):
    feature, threshold, left, right, leaf_class, n_nodes = arrays
    return {
        "feature": feature[:n_nodes].copy(),
        "threshold": threshold[:n_nodes].copy(),
        "left": left[:n_nodes].copy(),
        "right": right[:n_nodes].copy(),
        "leaf_class": leaf_class[:n_nodes].copy(),
    }


def forest_trees(state):
    """Each tree of a fitted random forest as a decision tree state of its
    own: its slice of ``state["forest"]`` by ``state["bounds"]``."""
    bounds = state["bounds"]
    return [{name: a[lo:hi] for name, a in state["forest"].items()}
            for lo, hi in zip(bounds[:-1], bounds[1:])]


def fit_forest_loop(x, y, k, seed):
    """Returns the forest state and the count of trees whose bootstrap
    sample lacks a class."""
    n, m = x.shape
    m_try = max(1, int(np.sqrt(m)))
    rng = np.random.default_rng(seed)
    trees = []
    short = 0   # trees whose bootstrap sample lacks a class
    for _ in range(FOREST_TREES):
        boot = rng.integers(0, n, n)
        if np.unique(y[boot]).size < k:
            boot = rng.integers(0, n, n)  # resample once
        # rare classes legitimately vanish from a bootstrap sample;
        # the tree simply never votes for them
        short += np.unique(y[boot]).size < k
        tree_seed = int(rng.integers(1, LCG_MOD - 1))
        trees.append(_tree_state(_grow_tree_impl(
            x[boot], y[boot], k, m_try, MIN_SAMPLES_SPLIT, tree_seed)))
    return {"trees": trees, "n_classes": k}, short


def predict_forest_loop(state, x):
    votes = np.zeros((x.shape[0], state["n_classes"]), dtype=np.int64)
    for tree in state["trees"]:
        pred = _tree_predict_impl(x, tree["feature"], tree["threshold"], tree["left"],
                                  tree["right"], tree["leaf_class"])
        votes[np.arange(x.shape[0]), pred] += 1
    return np.argmax(votes, axis=1)  # ties: lowest class code

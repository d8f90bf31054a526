"""Kernel-level checks: split-search correctness against a brute-force
oracle, determinism, and bit-identical agreement of the vectorized kernels
with the scalar reference loops in ``scalar_kernels.py``."""

import tracemalloc

import numpy as np
import pytest

import scalar_kernels
from idsfx import kernels


def _gini_weighted(y_left, y_right):
    def gini(y):
        if len(y) == 0:
            return 0.0
        _, counts = np.unique(y, return_counts=True)
        p = counts / len(y)
        return 1.0 - np.sum(p ** 2)
    n = len(y_left) + len(y_right)
    return len(y_left) / n * gini(y_left) + len(y_right) / n * gini(y_right)


def brute_force_best_split(X, y):
    """Exhaustive scan over all features and midpoints; same tie rules."""
    best = (None, None, _gini_weighted(y, np.array([])))
    for f in range(X.shape[1]):
        vals = np.unique(X[:, f])
        for a, b in zip(vals[:-1], vals[1:]):
            thr = 0.5 * (a + b)
            mask = X[:, f] <= thr
            imp = _gini_weighted(y[mask], y[~mask])
            if imp < best[2] - 1e-12:
                best = (f, thr, imp)
    return best


def _stump(X, y, n_classes):
    arrays = kernels.grow_tree(X, y, n_classes, X.shape[1], len(y) + 1, 0)
    # min_samples_split > n would make a leaf; instead use full grow and read root
    return arrays


class TestTreeKernel:
    def test_root_split_matches_brute_force(self):
        rng = np.random.default_rng(0)
        for trial in range(25):
            n = int(rng.integers(5, 30))
            X = np.round(rng.random((n, 3)) * 4, 1)
            y = rng.integers(0, 3, n)
            if np.unique(y).size < 2:
                continue
            feature, threshold, left, right, leaf, n_nodes = kernels.grow_tree(
                X, y, 3, 3, 2, 0)
            bf_f, bf_thr, _ = brute_force_best_split(X, y)
            if bf_f is None:
                assert feature[0] == -1
            else:
                assert feature[0] == bf_f
                assert threshold[0] == pytest.approx(bf_thr, abs=1e-12)

    def test_memorizes_unique_rows(self):
        rng = np.random.default_rng(3)
        X = rng.random((40, 4))
        y = rng.integers(0, 4, 40)
        arrays = kernels.grow_tree(X, y, 4, 4, 2, 0)
        pred = kernels.tree_predict(X, *[a[: arrays[5]] for a in arrays[:5]])
        assert np.array_equal(pred, y)

    def test_pure_labels_single_leaf(self):
        X = np.random.default_rng(1).random((10, 3))
        y = np.full(10, 2, dtype=np.int64)
        arrays = kernels.grow_tree(X, y, 3, 3, 2, 0)
        assert arrays[5] == 1
        assert arrays[0][0] == -1
        assert arrays[4][0] == 2

    def test_deterministic_with_subsampling(self):
        rng = np.random.default_rng(5)
        X = rng.random((60, 8))
        y = rng.integers(0, 3, 60)
        a = kernels.grow_tree(X, y, 3, 2, 2, 42)
        b = kernels.grow_tree(X, y, 3, 2, 2, 42)
        for u, v in zip(a[:5], b[:5]):
            assert np.array_equal(u, v)


class TestSvmKernel:
    def test_separable_two_class(self):
        rng = np.random.default_rng(2)
        X = np.vstack([rng.normal(-2, 0.3, (20, 2)), rng.normal(2, 0.3, (20, 2))])
        y = np.array([0] * 20 + [1] * 20, dtype=np.int64)
        perms = np.vstack([rng.permutation(40) for _ in range(50)]).astype(np.int64)
        w, b = kernels.svm_sgd(X, y, 2, 50, 1e-4, perms)
        pred = np.argmax(X @ w.T + b, axis=1)
        assert np.array_equal(pred, y)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.random((30, 3))
        y = rng.integers(0, 2, 30).astype(np.int64)
        perms = np.vstack([rng.permutation(30) for _ in range(10)]).astype(np.int64)
        w1, b1 = kernels.svm_sgd(X, y, 2, 10, 1e-3, perms)
        w2, b2 = kernels.svm_sgd(X, y, 2, 10, 1e-3, perms)
        assert np.array_equal(w1, w2) and np.array_equal(b1, b2)


# Each case index picks one degenerate shape (case % len(SHAPES)) and a seed.
SHAPES = ("random", "rounded", "constant_columns", "single_class",
          "missing_classes", "min_split_above_n", "two_rows", "one_feature",
          "all_constant", "one_epoch")
N_CASES = 60


def _case(case):
    """A seeded kernel input for one case: (shape, X, y, n_classes, rng)."""
    shape = SHAPES[case % len(SHAPES)]
    rng = np.random.default_rng(1000 + case)
    n = 2 if shape == "two_rows" else int(rng.integers(3, 70))
    m = 1 if shape == "one_feature" else int(rng.integers(2, 7))
    n_classes = int(rng.integers(2, 6))
    X = rng.random((n, m))
    y = rng.integers(0, n_classes, n)
    if shape == "rounded":
        X = np.round(X * 3) / 3
    elif shape == "constant_columns":
        X[:, rng.random(m) < 0.5] = 0.25
        X[:, 0] = 1.0
    elif shape == "all_constant":
        X[:] = 0.5
    elif shape == "single_class":
        y[:] = n_classes - 1
    elif shape == "missing_classes":
        # a bootstrap sample that lost classes: codes 0 and k-1 only
        n_classes += 2
        y = np.where(rng.random(n) < 0.5, 0, n_classes - 1)
    elif shape == "two_rows":
        y = np.array([0, 1])
    return shape, X, y, n_classes, rng


def _assert_same_tree(got, want):
    assert got[5] == want[5]
    for a, b in zip(got[:5], want[:5]):
        assert a.dtype == b.dtype
        assert np.array_equal(a, b)


@pytest.mark.parametrize("case", range(N_CASES))
def test_tree_kernels_match_scalar_oracle(case):
    shape, X, y, n_classes, rng = _case(case)
    n, m = X.shape
    max_features = 1 + case % m                     # every value in 1..m
    min_split = n + 1 if shape == "min_split_above_n" else int(rng.integers(2, 5))
    seed = int(rng.integers(0, kernels.LCG_MOD))
    got = kernels.grow_tree(X, y, n_classes, max_features, min_split, seed)
    want = scalar_kernels._grow_tree_impl(X, y, n_classes, max_features, min_split,
                                          seed)
    _assert_same_tree(got, want)

    # training rows, fresh rows, and rows exactly on the tree's thresholds
    tree = [a[:got[5]] for a in got[:5]]
    cuts = np.append(tree[1][tree[0] >= 0], 0.5)
    Xq = np.vstack([X, rng.random((25, m)), rng.choice(cuts, (25, m))])
    pred = kernels.tree_predict(Xq, *tree)
    assert np.array_equal(pred, scalar_kernels._tree_predict_impl(Xq, *tree))


@pytest.mark.parametrize("case", range(N_CASES))
def test_svm_kernel_matches_scalar_oracle(case):
    shape, X, y, n_classes, rng = _case(case)
    if shape != "one_feature":
        # widths up to NSL-KDD's 41 features
        X = np.hstack([X, rng.random((len(y), int(rng.integers(0, 40))))])
    X = (X - 0.5) * 4.0                             # both signs
    epochs = 1 if shape == "one_epoch" else int(rng.integers(1, 6))
    lam = float(10.0 ** rng.uniform(-5, -1))
    perms = np.vstack([rng.permutation(len(y)) for _ in range(epochs)])
    w, b = kernels.svm_sgd(X, y, n_classes, epochs, lam, perms)
    w0, b0 = scalar_kernels._svm_sgd_impl(X, y, n_classes, epochs, lam, perms)
    assert w.shape == w0.shape and b.shape == b0.shape
    assert np.array_equal(w, w0)
    assert np.array_equal(b, b0)


def test_forest_trees_match_scalar_oracle():
    """The forest's calls: bootstrap rows, sqrt(m) candidate features and
    LCG seeds drawn as in the classifier, on values with many ties."""
    rng = np.random.default_rng(7)
    X = np.round(rng.random((80, 9)) * 4) / 4
    y = rng.integers(0, 4, 80)
    for _ in range(10):
        boot = rng.integers(0, 80, 80)
        seed = int(rng.integers(1, kernels.LCG_MOD - 1))
        Xb, yb = np.ascontiguousarray(X[boot]), y[boot]
        _assert_same_tree(kernels.grow_tree(Xb, yb, 4, 3, 2, seed),
                          scalar_kernels._grow_tree_impl(Xb, yb, 4, 3, 2, seed))


def test_split_search_blocks_match_scalar_oracle(monkeypatch):
    """Nodes wider than one block of features score the features in several
    blocks; the winner must still be the first maximum over all of them."""
    monkeypatch.setattr(kernels, "SPLIT_BLOCK_CELLS", 40)
    rng = np.random.default_rng(9)
    X = np.round(rng.random((60, 8)) * 2) / 2     # many equal scores across features
    y = rng.integers(0, 3, 60)
    _assert_same_tree(kernels.grow_tree(X, y, 3, 8, 2, 0),
                      scalar_kernels._grow_tree_impl(X, y, 3, 8, 2, 0))


def _svm_block_input(kind):
    """25 rows and an epoch count that leaves a partial last block at caps of
    2 and 3 steps and at the default cap."""
    rng = np.random.default_rng(21)
    n, n_classes, epochs, lam = 25, 3, 151, 1e-4
    y = np.arange(n) % n_classes
    centers = np.array([[-3.0, 0.0, 1.0, 0.0], [3.0, 0.0, -1.0, 0.0], [0.0, 3.0, 0.0, -1.0]])
    X = centers[y] + rng.normal(0, 0.3, (n, 4))
    if kind == "high_lam":                # hits every few steps
        lam, epochs = 0.5, 31
    elif kind == "noisy_labels":
        y = np.where(rng.random(n) < 0.3, rng.integers(0, n_classes, n), y)
        epochs = 53
    elif kind == "absent_classes":        # class codes 1 and 3 never occur
        y, n_classes = y * 2, 5
        epochs = 61
    perms = np.vstack([rng.permutation(n) for _ in range(epochs)])
    return X, y, n_classes, epochs, lam, perms


@pytest.mark.parametrize("cap", [1, 2, 3, None])
@pytest.mark.parametrize("kind", ["separable", "high_lam", "noisy_labels", "absent_classes"])
def test_svm_blocks_match_scalar_oracle(monkeypatch, kind, cap):
    """Blocks capped at 1, 2 and 3 steps, and at the default size, where
    separable rows give clean runs long enough to reach it."""
    X, y, n_classes, epochs, lam, perms = _svm_block_input(kind)
    if cap is not None:
        monkeypatch.setattr(kernels, "SVM_BLOCK_CELLS", cap * n_classes * (X.shape[1] + 1))
    w, b = kernels.svm_sgd(X, y, n_classes, epochs, lam, perms)
    w0, b0 = scalar_kernels._svm_sgd_impl(X, y, n_classes, epochs, lam, perms)
    assert np.array_equal(w, w0)
    assert np.array_equal(b, b0)


def test_svm_memory_is_bounded_by_the_block():
    rng = np.random.default_rng(0)
    n, d, n_classes = 3000, 41, 5
    y = rng.integers(0, n_classes, n)
    X = rng.normal(size=(n, d))
    X[np.arange(n), y] += 8.0                 # separable: blocks grow to their cap
    perms = rng.permutation(n)[None]
    tracemalloc.start()
    try:
        kernels.svm_sgd(X, y, n_classes, 1, 1e-4, perms)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the rows with a leading 1.0 and the +-1 targets, then a few buffers of
    # one block each, allocated once
    inputs = 8 * n * (d + 1) + 8 * n * n_classes
    assert peak < inputs + 4 * 8 * kernels.SVM_BLOCK_CELLS

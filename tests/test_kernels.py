"""Kernel-level checks: split-search correctness against a brute-force
oracle, determinism, bit-identical agreement of the vectorized kernels with
the scalar reference loops in ``scalar_kernels.py``, SVM weights that do not
depend on the BLAS thread count, and the memory the kernels hold."""

import gc
import logging
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rss_probe
import scalar_kernels
from idsfx import classifiers, kernels


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
        pred = kernels.tree_predict(X, *arrays[:5])
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
    """The kernel's five arrays hold exactly the tree's nodes, and they are
    the scalar oracle's, whose arrays are padded past its ``n_nodes``."""
    n_nodes = want[5]
    assert got[5] == n_nodes
    for a, b in zip(got[:5], want[:5]):
        assert a.dtype == b.dtype
        assert a.shape == (n_nodes,)
        assert np.array_equal(a, b[:n_nodes])


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
    tree = got[:5]
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
    _assert_same_svm(w, b, X, y, n_classes, epochs, lam, perms)


def _assert_same_svm(w, b, *args):
    """Bit-equal to the closed-form scalar loop, and within rounding of the
    decay-form Pegasos loop; one step decided otherwise would move the
    weights by far more than that."""
    w1, b1 = scalar_kernels._svm_sgd_closed_impl(*args)
    assert w.shape == w1.shape and b.shape == b1.shape
    assert np.array_equal(w, w1)
    assert np.array_equal(b, b1)
    w0, b0 = scalar_kernels._svm_sgd_impl(*args)
    got, want = np.column_stack([b, w]), np.column_stack([b0, w0])
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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
        monkeypatch.setattr(kernels, "SVM_BLOCK_CELLS", cap * (X.shape[1] + 1))
    w, b = kernels.svm_sgd(X, y, n_classes, epochs, lam, perms)
    _assert_same_svm(w, b, X, y, n_classes, epochs, lam, perms)


@pytest.mark.parametrize("cap", [1, 3, None])
@pytest.mark.parametrize("seed", range(4))
def test_svm_margins_on_their_threshold_are_not_violations(monkeypatch, seed, cap):
    """Integer features and lam = 1 put margins exactly on their integer
    thresholds in any summation order.  Such margins are within the rounding
    bound, so the kernel sums them again, and they must not count as
    violations."""
    rng = np.random.default_rng(40 + seed)
    n, d, n_classes, epochs = 30, 4, 3, 4
    X = rng.integers(-2, 3, (n, d)).astype(np.float64)
    y = rng.integers(0, n_classes, n)
    perms = np.vstack([rng.permutation(n) for _ in range(epochs)])
    if cap is not None:
        monkeypatch.setattr(kernels, "SVM_BLOCK_CELLS", cap * (d + 1))
    ties = []
    scalar_kernels._svm_sgd_closed_impl(X, y, n_classes, epochs, 1.0, perms, ties)
    assert ties
    w, b = kernels.svm_sgd(X, y, n_classes, epochs, 1.0, perms)
    w1, b1 = scalar_kernels._svm_sgd_closed_impl(X, y, n_classes, epochs, 1.0, perms)
    assert np.array_equal(w, w1) and np.array_equal(b, b1)


# Fits the SVM on the inputs saved by the test below and saves the weights.
SVM_CHILD = """
import sys
import numpy as np
from idsfx import kernels
inputs = np.load(sys.argv[1])
out = {}
for n in inputs["sizes"]:
    X, y, perms = inputs[f"x{n}"], inputs[f"y{n}"], inputs[f"p{n}"]
    w, b = kernels.svm_sgd(X, y, 5, perms.shape[0], 1e-4, perms)
    out[f"w{n}"], out[f"b{n}"] = w, b
np.savez(sys.argv[2], **out)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="needs 2 cores: on one, BLAS at 2 threads may run as at 1")
def test_svm_weights_do_not_depend_on_blas_threads(tmp_path):
    rng = np.random.default_rng(5)
    sizes = (90, 3000, 12597)
    inputs = {"sizes": np.array(sizes)}
    for n in sizes:
        y = rng.integers(0, 5, n)
        X = rng.normal(size=(n, 41))
        X[:, :5] += 2.0 * (y[:, None] == np.arange(5))
        epochs = 20 if n < 1000 else 1
        inputs[f"x{n}"], inputs[f"y{n}"] = X, y
        inputs[f"p{n}"] = np.vstack([rng.permutation(n) for _ in range(epochs)])
    np.savez(tmp_path / "inputs.npz", **inputs)
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    fits = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}.npz"
        child = subprocess.run(
            [sys.executable, "-c", SVM_CHILD, str(tmp_path / "inputs.npz"), str(out)],
            capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                 "OMP_NUM_THREADS": threads})
        assert child.returncode == 0, child.stderr[-2000:]
        with np.load(out) as fit:
            fits.append(dict(fit))
    assert fits[0].keys() == fits[1].keys()
    for key in fits[0]:
        assert fits[0][key].tobytes() == fits[1][key].tobytes(), key


def test_svm_int32_visit_order_gives_the_int64_weights():
    # the kernel only takes rows with the order, whatever its integer width
    rng = np.random.default_rng(12)
    X = rng.normal(size=(300, 6))
    y = rng.integers(0, 3, 300)
    perms = np.stack([rng.permutation(300) for _ in range(5)])
    w64, b64 = kernels.svm_sgd(X, y, 3, 5, 1e-4, perms)
    w32, b32 = kernels.svm_sgd(X, y, 3, 5, 1e-4, perms.astype(np.int32))
    assert w32.tobytes() == w64.tobytes() and b32.tobytes() == b64.tobytes()


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


def _forest_case(seed, n_trees):
    """A seeded forest input: values with ties and constant columns, labels
    that may leave classes out of a bootstrap sample, every ``max_features``
    from 1 to past m, and the trees' bootstrap rows and LCG seeds."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 121 if n_trees < 100 else 25))
    m = int(rng.integers(1, 8))
    n_classes = int(rng.integers(2, 6))
    X = rng.random((n, m))
    if rng.random() < 0.5:
        X = np.round(X * 3) / 3                       # ties
    X[:, rng.random(m) < 0.25] = 0.5                  # constant columns
    y = rng.integers(0, n_classes, n)
    if rng.random() < 0.3:
        y[y == 1] = 0                                 # a class no tree sees
    max_features = int(rng.integers(1, m + 3))
    min_split = int(rng.integers(2, 5))
    boots = rng.integers(0, n, (n_trees, n)).astype(np.int32)
    seeds = rng.integers(0, kernels.LCG_MOD, n_trees)
    return X, y, n_classes, max_features, min_split, boots, seeds


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trees=st.sampled_from([1, 7, 100]),
       cells=st.sampled_from([None, 40]))
def test_grow_forest_matches_scalar_trees(seed, n_trees, cells):
    """Each tree of a batch is the scalar tree of its bootstrap rows.  At 40
    cells a node's (node, feature) rows straddle chunks and one wave spans
    several chunks."""
    X, y, n_classes, max_features, min_split, boots, seeds = _forest_case(seed, n_trees)
    with mock.patch.object(kernels, "SPLIT_BLOCK_CELLS", cells or kernels.SPLIT_BLOCK_CELLS):
        *nodes, bounds = kernels.grow_forest(X, y, n_classes, max_features, min_split,
                                             boots.copy(), seeds)
    assert bounds[0] == 0 and bounds.size == n_trees + 1
    for t in range(n_trees):
        want = scalar_kernels._grow_tree_impl(X[boots[t]], y[boots[t]], n_classes,
                                              max_features, min_split, int(seeds[t]))
        assert bounds[t + 1] - bounds[t] == want[5]
        for got, ref in zip(nodes, want[:5]):
            assert got.dtype == ref.dtype
            assert np.array_equal(got[bounds[t]:bounds[t + 1]], ref[:want[5]])


def test_grow_forest_refuses_other_boots():
    X, y = np.random.default_rng(0).random((6, 2)), np.array([0, 1, 0, 1, 0, 1])
    for boots in (np.zeros((2, 6), np.int64), np.zeros((6, 2), np.int32).T):
        with pytest.raises(ValueError, match="C-contiguous int32"):
            kernels.grow_forest(X, y, 2, 1, 2, boots, [1, 2])


def _forest_fixture(seed, n=40, m=9, n_classes=3):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, n)
    y[0] = n_classes                              # a one-row class most trees lose
    X = np.round(rng.normal(y[:, None] * 0.5, 1.0, (n, m)) * 4) / 4
    return X, y, n_classes + 1


@pytest.mark.parametrize("seed", [1, 2])
def test_forest_matches_tree_by_tree_loop(seed, caplog):
    """The classifier's batched forest against the loop it replaced: the same
    bootstrap draws and lost-class count, trees and votes."""
    X, y, k = _forest_fixture(seed)
    with caplog.at_level(logging.WARNING, logger="idsfx.classifiers"):
        state = classifiers._fit_forest(X, y, k, seed)
    want, short = scalar_kernels.fit_forest_loop(X, y, k, seed)
    assert f"samples of {short} of {classifiers.FOREST_TREES} trees" in caplog.text
    trees = scalar_kernels.forest_trees(state)
    assert len(trees) == len(want["trees"])
    for got, ref in zip(trees, want["trees"]):
        assert got.keys() == ref.keys()
        for name in ref:
            assert np.array_equal(got[name], ref[name])

    rng = np.random.default_rng(seed + 10)
    cuts = np.unique(state["forest"]["threshold"])
    queries = np.vstack([X, rng.normal(0.5, 1.5, (60, X.shape[1])),
                         rng.choice(cuts, (30, X.shape[1]))])
    assert np.array_equal(classifiers._predict_forest(state, queries),
                          scalar_kernels.predict_forest_loop(want, queries))


def _traced_peak(fn, *args):
    gc.collect()
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _structured(n, m, n_classes, seed=0):
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, n)
    return np.round(rng.normal(y[:, None] * 0.4, 1.0, (n, m)), 2), y


# tracemalloc peak of the tree-by-tree forest fit on the 90 x 20 fixture
# below, measured before the trees grew as one batch
TREE_BY_TREE_FIT_PEAK = 310 * 1024


def test_forest_fit_memory():
    """The batch holds the int32 row table, a few work arrays of one chunk
    (six slots, the argsort output and the index ramp), and compact node
    records, on top of what the tree-by-tree fit held."""
    X, y = _structured(90, 20, 4)
    classifiers._fit_forest(X, y, 4, 0)               # numpy's first-call set-up
    state, peak = _traced_peak(classifiers._fit_forest, X, y, 4, 0)
    table = 4 * classifiers.FOREST_TREES * X.shape[0]
    work = 8 * 8 * kernels.SPLIT_BLOCK_CELLS
    records = 32 * int(state["bounds"][-1])
    assert peak < TREE_BY_TREE_FIT_PEAK + table + work + records


def test_forest_predict_memory_stays_within_a_group():
    """On many rows the trees descend one at a time: the peak is the votes,
    the result and thirteen arrays of one tree's (tree, row) pairs, however
    many trees vote."""
    X, y = _structured(90, 20, 4)
    state = classifiers._fit_forest(X, y, 4, 0)
    queries = np.random.default_rng(1).normal(0.6, 1.0, (20000, 20))
    classifiers._predict_forest(state, queries[:50])
    _, peak = _traced_peak(classifiers._predict_forest, state, queries)
    rows = queries.shape[0]
    assert peak < 8 * (13 * rows + 2 * 4 * rows + rows)
    assert peak < 8 * rows * classifiers.FOREST_TREES / 4


@pytest.mark.skipif(rss_probe.heap_in_use() is None, reason="glibc mallinfo2 not available")
def test_forest_fits_do_not_grow_the_retained_heap():
    """numpy keeps freed buffers below 1 KiB, up to seven of each byte size;
    a fit whose small arrays took ever new sizes would keep more heap on
    every call."""
    X, y = _structured(90, 20, 4)
    for _ in range(3):
        classifiers._predict_forest(classifiers._fit_forest(X, y, 4, 0), X)
    gc.collect()
    before = rss_probe.heap_in_use()
    for _ in range(5):
        classifiers._predict_forest(classifiers._fit_forest(X, y, 4, 0), X)
    gc.collect()
    assert rss_probe.heap_in_use() - before < 16 * 1024

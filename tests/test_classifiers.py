import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsfx import classifiers
from idsfx.classifiers import (ALGORITHMS, ClassifierSpec, TrainedClassifier,
                               predict, train)
from idsfx.errors import ConfigError, DomainError, SchemaError
from scalar_kernels import fit_logreg_rowmajor, forest_trees, predict_knn_sorted


def blobs(n_per=20, centers=((-2, -2), (2, 2)), spread=0.3, seed=0):
    rng = np.random.default_rng(seed)
    xs, ys = [], []
    for c, center in enumerate(centers):
        xs.append(rng.normal(center, spread, (n_per, len(center))))
        ys.append(np.full(n_per, c))
    return np.vstack(xs), np.concatenate(ys).astype(np.int64)


def knn_state(x, y, k, n_classes):
    """The k-NN state ``train`` builds, at any k: training runs at KNN_K."""
    return {"x": x, "y": y, "k": min(k, len(x)), "n_classes": n_classes}


def knn_block_rows(n):
    """Query rows in one k-NN distance block against ``n`` training rows."""
    return max(1, min(classifiers.KNN_BLOCK_ROWS, classifiers.KNN_BLOCK_CELLS // n))


def knn_predict_peak(n, queries=2000, features=20):
    """tracemalloc's peak over one k-NN predict against ``n`` training rows."""
    rng = np.random.default_rng(0)
    x = rng.random((n, features))
    model = train(ClassifierSpec("knn"), x, rng.integers(0, 3, n))
    q = rng.random((queries, features))
    tracemalloc.start()
    try:
        predict(model, q)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def knn1(x, y):
    classes = np.unique(y)
    state = knn_state(x, np.searchsorted(classes, y), 1, classes.size)
    return TrainedClassifier("knn", classes, state, {"features": x.shape[1]})


class TestContracts:
    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_blobs_high_accuracy(self, algo):
        x, y = blobs(n_per=25, centers=((-2, -2), (2, 2), (-2, 2)))
        model = train(ClassifierSpec(algo, seed=1), x, y)
        acc = np.mean(predict(model, x) == y)
        assert acc == 1.0

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_deterministic(self, algo):
        x, y = blobs(seed=3)
        p1 = predict(train(ClassifierSpec(algo, seed=5), x, y), x)
        p2 = predict(train(ClassifierSpec(algo, seed=5), x, y), x)
        assert np.array_equal(p1, p2)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_permutation_equivariance(self, algo):
        x, y = blobs(seed=4)
        model = train(ClassifierSpec(algo, seed=2), x, y)
        q = np.random.default_rng(0).random((15, 2)) * 4 - 2
        perm = np.random.default_rng(1).permutation(15)
        assert np.array_equal(predict(model, q)[perm], predict(model, q[perm]))

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_predicts_only_seen_codes(self, algo):
        x, y = blobs(seed=6)
        y = y * 3 + 4  # codes {4, 7}
        model = train(ClassifierSpec(algo, seed=0), x, y)
        assert set(predict(model, x)) <= {4, 7}

    def test_nan_rejected(self):
        x, y = blobs()
        x[0, 0] = np.nan
        with pytest.raises(DomainError):
            train(ClassifierSpec("gaussian_nb"), x, y)

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_nan_rejected_in_prediction(self, algo):
        x, y = blobs()
        model = train(ClassifierSpec(algo, seed=0), x, y)
        q = x[:3].copy()
        q[1, 1] = np.nan
        with pytest.raises(DomainError, match="NaN in prediction features"):
            predict(model, q)

    def test_feature_count_mismatch(self):
        x, y = blobs()
        model = train(ClassifierSpec("knn"), x, y)
        with pytest.raises(SchemaError):
            predict(model, np.ones((2, 5)))

    def test_single_class_rejected_except_knn(self):
        x = np.random.default_rng(0).random((8, 2))
        y = np.zeros(8, dtype=np.int64)
        with pytest.raises(DomainError):
            train(ClassifierSpec("decision_tree"), x, y)
        model = train(ClassifierSpec("knn"), x, y)
        assert (predict(model, x) == 0).all()

    def test_unknown_algorithm(self):
        x, y = blobs()
        with pytest.raises(ConfigError, match="unknown algorithm 'boosted_trees'"):
            train(ClassifierSpec("boosted_trees"), x, y)

    def test_seed_is_keyword_only(self):
        # a settings dict in the second place must not pass as the seed
        with pytest.raises(TypeError):
            ClassifierSpec("knn", {"k": 1})


class TestLinearSvm:
    def test_separable_training_accuracy_one(self):
        # perceptron oracle: verify the fixture is linearly separable first
        x, y = blobs(n_per=10, centers=((-3, 0), (3, 0)), spread=0.4, seed=9)
        w = np.zeros(3)
        aug = np.hstack([x, np.ones((20, 1))])
        t = np.where(y == 1, 1.0, -1.0)
        for _ in range(200):
            for i in range(20):
                if t[i] * (aug[i] @ w) <= 0:
                    w += t[i] * aug[i]
        assert np.all(t * (aug @ w) > 0), "fixture not separable"
        model = train(ClassifierSpec("linear_svm", seed=0), x, y)
        assert np.mean(predict(model, x) == y) == 1.0


class TestLogisticRegression:
    @staticmethod
    def fixture(seed, n, d, k):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, d)) * 10.0 ** rng.uniform(-4, 4, d)
        if d > 1:
            x[:, rng.integers(0, d)] = rng.normal()    # a constant column
        y = np.concatenate([np.arange(k), rng.integers(0, k - 1, n - k)])
        return x, y[rng.permutation(n)]                # class k-1 has one row

    @staticmethod
    def assert_matches_oracle(x, y, k):
        got = classifiers._fit_logreg(x, y, k, 0)
        want = fit_logreg_rowmajor(x, y, k)
        assert got.keys() == want.keys()
        for name in want:
            assert np.array_equal(got[name], want[name]), name

    # numpy sums a row of 8 or more classes pairwise and a shorter one in
    # order; more than 128 classes also takes its pairwise recursion
    @pytest.mark.parametrize("k", [*range(2, 13), 131])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_class_major_fit_matches_row_major_oracle(self, k, seed):
        x, y = self.fixture(seed, n=2 * k + 40, d=1 + seed * 6, k=k)
        self.assert_matches_oracle(x, y, k)

    def test_two_rows_match_row_major_oracle(self):
        self.assert_matches_oracle(np.array([[3.0], [-1.0]]), np.array([1, 0]), 2)


class TestKnn:
    def test_k1_memorizes_single_point(self):
        x = np.tile([[1.0, 2.0]], (3, 1))
        y = np.array([5, 5, 5], dtype=np.int64)
        model = knn1(x, y)
        q = np.random.default_rng(2).random((4, 2)) * 10
        assert (predict(model, q) == 5).all()

    def test_k1_zero_training_error_unique_rows(self):
        rng = np.random.default_rng(8)
        x = rng.random((30, 3))
        y = rng.integers(0, 4, 30)
        model = knn1(x, y)
        assert np.array_equal(predict(model, x), y)

    def test_distance_tie_lower_index_wins(self):
        x = np.array([[0.0], [2.0]])  # query at 1.0 is equidistant
        y = np.array([3, 7], dtype=np.int64)
        model = knn1(x, y)
        assert predict(model, np.array([[1.0]]))[0] == 3

    def test_train_votes_over_knn_k_rows_or_all(self):
        x, y = blobs()
        for rows in (3, len(x)):
            state = train(ClassifierSpec("knn"), x[:rows], y[:rows]).state
            assert state.keys() == knn_state(x, y, 1, 2).keys()
            assert state["k"] == min(classifiers.KNN_K, rows)

    @pytest.mark.parametrize("block_rows", [None, 1, 7])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_stable_sort_oracle(self, block_rows, seed):
        rng = np.random.default_rng(seed)
        d = int(rng.integers(1, 5))
        grid = rng.random() < 0.5   # cells from {0, 1, 2}: many equal distances

        def draw(rows):
            if grid:
                return rng.integers(0, 3, (rows, d)).astype(float)
            return np.round(rng.random((rows, d)) * 3, 1)

        x = draw(int(rng.integers(1, 30)))
        x = np.vstack([x, x[rng.integers(0, len(x), rng.integers(1, 12))]])
        n = len(x)
        present = int(rng.integers(1, 5))
        n_classes = present + int(rng.integers(0, 2))
        y = rng.integers(0, present, n)
        k = int(rng.choice([1, rng.integers(1, n + 4), n, n + 3]))
        state = knn_state(x, y, k, n_classes)
        q = np.vstack([draw(int(rng.integers(0, 12))),
                       x[rng.integers(0, n, rng.integers(0, 6))]])
        q = q[rng.permutation(len(q))]
        if rng.random() < 0.1:
            q = q[:0]
        if len(q) and rng.random() < 0.5:
            odd = rng.integers(0, q.size, rng.integers(1, 4))
            q.flat[odd] = rng.choice([np.nan, np.inf, -np.inf, 1e200, -1e200],
                                     odd.size)
        if block_rows is None:
            rows, cells = classifiers.KNN_BLOCK_ROWS, classifiers.KNN_BLOCK_CELLS
            select = classifiers.KNN_SELECT_CELLS
        else:
            # the row cap or a cell budget of 1 to 8 rows sets the block, and
            # votes go in sub-blocks of 1 to 8 rows, which need not divide it
            rows, cells = block_rows, int(rng.integers(1, 9)) * n
            select = int(rng.integers(1, 9)) * n
        # the oracle gets the same row blocks, so both see the same distance
        # bits: BLAS may round a product differently for another block shape
        chunk = max(1, min(rows, cells // n))
        with mock.patch.object(classifiers, "KNN_BLOCK_ROWS", rows), \
                mock.patch.object(classifiers, "KNN_BLOCK_CELLS", cells), \
                mock.patch.object(classifiers, "KNN_SELECT_CELLS", select), \
                np.errstate(over="ignore", invalid="ignore"):
            got = classifiers._predict_knn(state, q)
            want = predict_knn_sorted(state, q, chunk)
        assert np.array_equal(got, want)

    def test_predict_memory_is_bounded_by_the_block(self):
        n = 20000
        # a few float64/int64 arrays of one block, not one per 512 query rows
        assert knn_predict_peak(n) < 6 * 8 * knn_block_rows(n) * n

    def test_predict_builds_each_distance_block_in_one_buffer(self):
        n = 20000
        select_rows = min(max(1, classifiers.KNN_SELECT_CELLS // n), knn_block_rows(n))
        # one distance block, allocated once, and the partition indices of one
        # selection sub-block, freed once its k nearest columns are copied
        assert knn_predict_peak(n) < 8 * (knn_block_rows(n) + 1.15 * select_rows) * n

    def test_predict_blocks_hold_at_most_the_row_cap(self):
        n = 3000    # the cell budget alone would make blocks of 349 rows
        assert knn_block_rows(n) == classifiers.KNN_BLOCK_ROWS
        # the distance block and its partition indices, plus O(n)
        assert knn_predict_peak(n) < 8 * (2 * classifiers.KNN_BLOCK_ROWS + 8) * n


class TestGaussianNb:
    def test_midpoint_boundary_on_symmetric_fixture(self):
        # closed-form posterior oracle: equal variances and priors put the
        # decision boundary at the midpoint of the two means
        rng = np.random.default_rng(0)
        a = rng.normal(0, 1, (500, 1))
        x = np.vstack([a - 3, a + 3])
        y = np.array([0] * 500 + [1] * 500, dtype=np.int64)
        model = train(ClassifierSpec("gaussian_nb"), x, y)
        grid = np.linspace(-6, 6, 201).reshape(-1, 1)
        pred = predict(model, grid)
        mid = 0.5 * (model.state["theta"][0, 0] + model.state["theta"][1, 0])
        assert np.array_equal(pred, (grid[:, 0] > mid).astype(int))

    def test_log_posterior_matches_direct_formula(self):
        rng = np.random.default_rng(3)
        x = rng.random((40, 3)) * 2
        y = rng.integers(0, 3, 40)
        model = train(ClassifierSpec("gaussian_nb"), x, y)
        q = rng.random((10, 3))
        theta, var = model.state["theta"], model.state["var"]
        lp = model.state["log_prior"]
        direct = np.empty((10, 3))
        for i in range(10):
            for c in range(3):
                s = lp[c]
                for j in range(3):
                    s += -0.5 * np.log(2 * np.pi * var[c, j]) \
                         - (q[i, j] - theta[c, j]) ** 2 / (2 * var[c, j])
                direct[i, c] = s
        pred = predict(model, q)
        assert np.array_equal(pred, model.classes[np.argmax(direct, axis=1)])
        from idsfx.classifiers import _predict_gnb
        ll_pred = _predict_gnb(model.state, q)
        # numeric agreement of the likelihood computation itself
        assert np.allclose(
            direct.max(axis=1),
            [max(direct[i]) for i in range(10)], atol=1e-9)
        assert np.array_equal(ll_pred, np.argmax(direct, axis=1))


class TestTrees:
    def test_pure_labels_single_leaf_zero_error(self):
        x = np.random.default_rng(1).random((12, 3))
        y = np.full(12, 1, dtype=np.int64)
        y[0] = 0  # two classes required; make one impure then prune check on pure subset
        model = train(ClassifierSpec("decision_tree"), x, y)
        assert np.array_equal(predict(model, x), y)

    def test_memorizes_unique_rows(self):
        rng = np.random.default_rng(2)
        x = rng.random((50, 4))
        y = rng.integers(0, 5, 50)
        model = train(ClassifierSpec("decision_tree"), x, y)
        assert np.array_equal(predict(model, x), y)

    def test_forest_vote_matches_brute_force_tally(self):
        x, y = blobs(n_per=15, centers=((-2, 0), (2, 0)), seed=11)
        spec = ClassifierSpec("random_forest", seed=3)
        model = train(spec, x, y)
        q = np.random.default_rng(1).random((20, 2)) * 4 - 2
        from idsfx.classifiers import _predict_tree
        votes = np.zeros((20, 2), dtype=int)
        for tree in forest_trees(model.state):
            for i, p in enumerate(_predict_tree(tree, q)):
                votes[i, p] += 1
        expect = np.argmax(votes, axis=1)
        assert np.array_equal(predict(model, q), model.classes[expect])

    def test_forest_survives_rare_class_bootstrap(self, caplog):
        rng = np.random.default_rng(4)
        x = rng.random((60, 3))
        y = np.zeros(60, dtype=np.int64)
        y[:30] = 1
        y[0] = 2  # singleton class will vanish from most bootstrap samples
        with caplog.at_level("WARNING", logger="idsfx.classifiers"):
            model = train(ClassifierSpec("random_forest", seed=1), x, y)
        assert predict(model, x).shape == (60,)
        # one line for the forest, however many of its trees lost the class
        assert len(caplog.records) == 1
        assert "of 100 trees lost class(es)" in caplog.records[0].getMessage()

import csv
import json
import weakref

import numpy as np
import pytest

from idsfx import runner
from idsfx.errors import ConfigError, DomainError, SchemaError
from idsfx.evaluate import (CorrMatrix, EvalReport, accuracy, confusion,
                            export_report, pearson_corr)
from idsfx.matrix import FeatureMatrix
from idsfx.pipeline import PipelineConfig
from idsfx.runner import run_evaluation
from tests.conftest import make_blob_dataset


class TestAccuracy:
    def test_perfect(self):
        assert accuracy(np.array([1, 2, 3]), np.array([1, 2, 3])) == 1.0

    def test_three_of_four(self):
        assert accuracy(np.array([0, 1, 1, 0]), np.array([0, 1, 0, 0])) == 0.75

    def test_all_wrong(self):
        assert accuracy(np.array([1, 1]), np.array([0, 0])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(SchemaError):
            accuracy(np.array([1]), np.array([1, 2]))

    def test_empty(self):
        with pytest.raises(DomainError):
            accuracy(np.array([]), np.array([]))


class TestConfusion:
    def test_hand_example(self):
        # truth 0 predicted 0 once and 1 once; truth 1 predicted 1 once
        c = confusion(np.array([0, 1, 1]), np.array([0, 0, 1]), 2)
        assert c.tolist() == [[1, 1], [0, 1]]

    def test_brute_force_oracle(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            k = int(rng.integers(2, 6))
            pred = rng.integers(0, k, n)
            truth = rng.integers(0, k, n)
            got = confusion(pred, truth, k)
            want = np.zeros((k, k), dtype=int)
            for p, t in zip(pred, truth):
                want[t, p] += 1
            assert np.array_equal(got, want)

    def test_trace_over_total_equals_accuracy(self):
        rng = np.random.default_rng(3)
        pred = rng.integers(0, 4, 200)
        truth = rng.integers(0, 4, 200)
        c = confusion(pred, truth, 4)
        assert np.trace(c) / c.sum() == pytest.approx(accuracy(pred, truth))

    def test_out_of_range_code(self):
        with pytest.raises(DomainError):
            confusion(np.array([0, 5]), np.array([0, 1]), 2)


def brute_force_pearson(x):
    """Covariance-formula oracle with plain loops."""
    n, q = x.shape
    out = np.eye(q)
    for a in range(q):
        for b in range(q):
            xa, xb = x[:, a], x[:, b]
            cov = np.mean((xa - xa.mean()) * (xb - xb.mean()))
            sa, sb = xa.std(), xb.std()
            out[a, b] = cov / (sa * sb) if sa > 0 and sb > 0 else (1.0 if a == b else 0.0)
    return out


class TestPearson:
    def test_identical_columns_plus_one(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        c = pearson_corr(x)
        assert c.values[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_negated_column_minus_one(self):
        x = np.array([[1.0, -1.0], [2.0, -2.0], [5.0, -5.0]])
        c = pearson_corr(x)
        assert c.values[0, 1] == pytest.approx(-1.0, abs=1e-12)

    def test_oracle_random_fixtures(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            x = rng.random((50, 5)) * 3
            got = pearson_corr(x).values
            assert np.allclose(got, brute_force_pearson(x), atol=1e-10)

    def test_constant_column_sentinel(self):
        x = np.column_stack([np.arange(5.0), np.full(5, 2.0)])
        c = pearson_corr(FeatureMatrix(x, ["a", "b"]))
        assert c.values[0, 1] == 0.0 and c.values[1, 0] == 0.0
        assert c.values[1, 1] == 1.0
        assert c.constant_features == ["b"]

    def test_symmetric_unit_diagonal_bounded(self):
        x = np.random.default_rng(9).random((30, 6))
        c = pearson_corr(x).values
        assert np.array_equal(c, c.T)
        assert np.allclose(np.diag(c), 1.0)
        assert np.all(np.abs(c) <= 1.0)

    def test_single_row_rejected(self):
        with pytest.raises(DomainError):
            pearson_corr(np.ones((1, 3)))


class TestExport:
    def _report(self):
        return EvalReport(
            dataset_id="demo", config={"u": 3, "v": 2},
            accuracies={"knn": {"baseline": 0.5, "extracted": 0.75},
                        "gaussian_nb": {"baseline": 0.25, "extracted": 1.0}},
            confusions={"knn": {"baseline": [[1, 1], [0, 2]]}})

    def test_json_round_trip(self, tmp_path):
        rep = self._report()
        path = tmp_path / "report.json"
        export_report(rep, path, fmt="json")
        assert json.loads(path.read_text()) == rep.to_dict()

    def test_json_has_no_timings(self):
        assert "timings" not in self._report().to_dict()

    def test_csv_accuracy_rows(self, tmp_path):
        path = tmp_path / "report.csv"
        export_report(self._report(), path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["classifier", "variant", "accuracy"]
        assert len(rows) == 5  # header + 2 classifiers x 2 variants
        assert rows[1][:2] == ["gaussian_nb", "baseline"]

    def test_corr_csv_square_table(self, tmp_path):
        x = np.random.default_rng(0).random((10, 3))
        c = pearson_corr(FeatureMatrix(x, ["a", "b", "c"]))
        path = tmp_path / "corr.csv"
        export_report(c, path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["", "a", "b", "c"]
        assert len(rows) == 4
        assert float(rows[1][1]) == 1.0

    def test_six_by_two_gives_twelve_rows(self, tmp_path):
        accs = {f"clf{i}": {"baseline": 0.1 * i, "extracted": 0.1 * i + 0.05}
                for i in range(6)}
        rep = EvalReport(dataset_id="d", config={}, accuracies=accs)
        path = tmp_path / "r.csv"
        export_report(rep, path)
        assert len(list(csv.reader(path.open()))) == 13

    def test_bad_format(self, tmp_path):
        with pytest.raises(ConfigError):
            export_report(self._report(), tmp_path / "x", fmt="xml")

    def test_deterministic_bytes(self, tmp_path):
        rep = self._report()
        export_report(rep, tmp_path / "a.json", fmt="json")
        export_report(rep, tmp_path / "b.json", fmt="json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestRunEvaluation:
    @pytest.mark.parametrize("seed", range(20))
    def test_class_with_one_member_is_trained_on(self, seed):
        d = make_blob_dataset(60, 4, 3, seed=seed)
        d.columns["label"][seed % 60] = "lone"
        report, fp, _ = run_evaluation(d, PipelineConfig(u=3, v=2, seed=seed),
                                       algorithms=["gaussian_nb"])
        assert "lone" in fp.label_encoder.classes
        matrix = np.array(report.confusions["gaussian_nb"]["extracted"])
        assert matrix[fp.label_encoder.classes.index("lone")].sum() == 0

    @pytest.mark.parametrize("algorithms,match", [
        (["knn", "knn"], "'knn' listed more than once"),
        (["gaussian_nb", "knn", "gaussian_nb"], "'gaussian_nb' listed more than once"),
        (["knn", 5], "unknown classifier 5"),
        ([], r"no classifier given; choose from \['gaussian_nb'")])
    def test_bad_classifier_list_is_refused_before_the_split(self, algorithms, match,
                                                             monkeypatch):
        def no_split(*args):
            raise AssertionError("data split despite a bad classifier list")
        monkeypatch.setattr("idsfx.runner.train_test_split", no_split)
        d = make_blob_dataset(60, 4, 3, seed=0)
        with pytest.raises(ConfigError, match=match):
            run_evaluation(d, PipelineConfig(u=3, v=2), algorithms=algorithms)

    def test_unsplit_table_is_released_after_the_split(self, monkeypatch):
        refs, alive = [], []

        def tracked():
            d = make_blob_dataset(60, 4, 3, seed=0)
            refs.append(weakref.ref(d))
            refs.extend(weakref.ref(c) for c in d.columns.values())
            return d

        real = runner.pipeline_fit

        def spy(*args):    # the stage after the split
            alive.append(sum(r() is not None for r in refs))
            return real(*args)
        monkeypatch.setattr(runner, "pipeline_fit", spy)
        run_evaluation(tracked(), PipelineConfig(u=3, v=2), algorithms=["gaussian_nb"])
        assert len(refs) == 7 and alive == [0]

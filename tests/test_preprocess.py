import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsfx.data import ColumnKind, ColumnSpec, Dataset
from idsfx.errors import PipelineError, SchemaError
from idsfx import preprocess
from idsfx.matrix import FeatureMatrix
from idsfx.preprocess import (_row_norms, describe, drop_near_zero_mean,
                              encode_categoricals, encode_labels, impute_apply,
                              impute_fit, tfidf_apply, tfidf_fit)

from conftest import make_blob_dataset


def num_dataset(**cols) -> Dataset:
    schema = [ColumnSpec(n, ColumnKind.NUMERIC) for n in cols]
    return Dataset(schema=schema,
                   columns={n: np.array(v, dtype=np.float64) for n, v in cols.items()})


class TestDescribe:
    def test_basic_moments(self):
        s = describe(num_dataset(a=[1, 2, 3]))
        assert s.numeric["a"]["mean"] == 2.0
        assert s.numeric["a"]["min"] == 1.0
        assert s.numeric["a"]["max"] == 3.0

    def test_missing_excluded(self):
        s = describe(num_dataset(a=[1, np.nan, 3]))
        assert s.numeric["a"]["count"] == 2
        assert s.numeric["a"]["missing"] == 1
        assert s.numeric["a"]["mean"] == 2.0

    def test_categorical_distinct(self, blob_dataset):
        from idsfx.data import split_xy
        x, _ = split_xy(blob_dataset)
        s = describe(x)
        assert s.categorical["proto"]["distinct"] >= 2


class TestDropNearZeroMean:
    def test_land_like_column_dropped(self):
        # binary land-like column: mean 0.001, max 1 -> scaled mean below 0.01
        d = num_dataset(land=[0.0] * 999 + [1.0],
                        duration=[218.0] * 990 + [4000.0] * 10)
        out, dropped = drop_near_zero_mean(d, describe(d), 0.01)
        assert dropped == ["land"]
        assert [s.name for s in out.schema] == ["duration"]

    def test_zero_threshold(self):
        d = num_dataset(z=[0, 0, 0], p=[1, 2, 3])
        out, dropped = drop_near_zero_mean(d, describe(d), 0.0)
        assert dropped == ["z"]

    def test_nothing_dropped_when_positive(self):
        d = num_dataset(a=[1, 2], b=[3, 4])
        _, dropped = drop_near_zero_mean(d, describe(d), 0.0)
        assert dropped == []

    def test_all_dropped_is_error(self):
        d = num_dataset(a=[0.0, 0.0])
        with pytest.raises(PipelineError, match="threshold"):
            drop_near_zero_mean(d, describe(d), 0.5)

    def test_categorical_never_dropped(self):
        d = make_blob_dataset(n_rows=20, seed=1)
        d.columns["num_0"] = np.zeros(20)
        from idsfx.data import split_xy
        x, _ = split_xy(d)
        out, dropped = drop_near_zero_mean(x, describe(x), 0.01)
        assert "num_0" in dropped
        assert ColumnSpec("proto", ColumnKind.CATEGORICAL) in out.schema


def imputed(model, x):
    """``x`` encoded, then imputed in the encoding's matrix."""
    fm, _ = encode_categoricals(x)
    out = impute_apply(model, x, fm)
    assert out is fm
    return out


class TestImpute:
    def test_mean_fill(self):
        d = num_dataset(a=[1, np.nan, 3])
        model = impute_fit(d)
        assert model.means["a"] == 2.0
        out = imputed(model, d)
        assert list(out.values[:, 0]) == [1.0, 2.0, 3.0]
        assert np.isnan(d.columns["a"][1])   # the dataset is left as it is

    def test_unseen_rows_use_training_means(self):
        model = impute_fit(num_dataset(a=[1, 3]))
        out = imputed(model, num_dataset(a=[np.nan, 10]))
        assert list(out.values[:, 0]) == [2.0, 10.0]

    def test_random_holes_oracle(self):
        rng = np.random.default_rng(8)
        base = rng.random((5, 3)) * 10
        holes = rng.random((5, 3)) < 0.2
        cols = {}
        for j in range(3):
            c = base[:, j].copy()
            c[holes[:, j]] = np.nan
            if np.isnan(c).all():
                c[0] = base[0, j]
            cols[f"c{j}"] = c
        d = num_dataset(**cols)
        model = impute_fit(d)
        out = imputed(model, d)
        for j in range(3):
            c = d.columns[f"c{j}"]
            expected = np.nanmean(c)  # independent recomputation
            filled = out.values[:, j][np.isnan(c)]
            assert np.allclose(filled, expected)

    def test_idempotent(self):
        d = num_dataset(a=[1, np.nan, 4, np.nan])
        model = impute_fit(d)
        once = imputed(model, d).values.copy()
        twice = impute_apply(model, d, FeatureMatrix(values=once.copy(), names=["a"]))
        assert np.array_equal(once, twice.values)

    def test_unfitted_numeric_column_is_refused_first(self, caplog):
        cat = np.array(["tcp", "udp"], dtype=object)
        train = Dataset(schema=[ColumnSpec("a", ColumnKind.NUMERIC),
                                ColumnSpec("proto", ColumnKind.CATEGORICAL)],
                        columns={"a": np.array([1.0, 2.0]), "proto": cat})
        bm, _ = preprocess.baseline_fit(train)
        unseen = np.array(["gre", "sctp"], dtype=object)
        for cat_name in ("proto", "flag"):   # unseen tokens; another categorical
            x = Dataset(schema=[ColumnSpec("b", ColumnKind.NUMERIC),
                                ColumnSpec(cat_name, ColumnKind.CATEGORICAL)],
                        columns={"b": np.array([1.0, np.nan]), cat_name: unseen})
            with caplog.at_level("WARNING", logger="idsfx.preprocess"), \
                    pytest.raises(SchemaError, match="'b' was not present at fit time"):
                preprocess.baseline_transform(bm, x)
            assert not caplog.records
            fm = FeatureMatrix(values=np.zeros((2, 2)), names=["b", cat_name])
            with pytest.raises(SchemaError, match="'b' was not present at fit time"):
                impute_apply(bm.impute, x, fm)

    def test_all_missing_column_errors(self):
        with pytest.raises(PipelineError, match="bad"):
            impute_fit(num_dataset(bad=[np.nan, np.nan]))


class TestEncodeLabels:
    def test_lexicographic(self):
        codes, enc = encode_labels(np.array(["normal", "anomaly", "normal"], dtype=object))
        assert list(codes) == [1, 0, 1]
        assert enc.classes == ["anomaly", "normal"]

    @given(st.lists(st.sampled_from(["a", "b", "c", "dd", "e"]), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property(self, tokens):
        y = np.array(tokens, dtype=object)
        codes, enc = encode_labels(y)
        assert [enc.classes[c] for c in codes] == tokens


class TestEncodeCategoricals:
    def _cat_dataset(self, tokens):
        schema = [ColumnSpec("proto", ColumnKind.CATEGORICAL)]
        return Dataset(schema=schema,
                       columns={"proto": np.array(tokens, dtype=object)})

    def test_lexicographic_codes(self):
        fm, enc = encode_categoricals(self._cat_dataset(["tcp", "udp", "tcp", "icmp"]))
        assert list(fm.values[:, 0]) == [1.0, 2.0, 1.0, 0.0]
        assert enc.tables["proto"] == {"icmp": 0, "tcp": 1, "udp": 2}

    def test_reserved_code_for_unseen(self, caplog):
        _, enc = encode_categoricals(self._cat_dataset(["icmp", "tcp", "udp"]))
        fm, _ = encode_categoricals(self._cat_dataset(["sctp"]), enc)
        assert fm.values[0, 0] == 3.0

    def test_unseen_cells_log_one_line_per_column(self, caplog):
        _, enc = encode_categoricals(self._cat_dataset(["icmp", "tcp", "udp"]))
        tokens = ["sctp", "tcp", "gre"] * 300 + [f"x{i}" for i in range(50)]
        with caplog.at_level("WARNING", logger="idsfx.preprocess"):
            fm, _ = encode_categoricals(self._cat_dataset(tokens), enc)
        assert (fm.values[:, 0] == 3.0).sum() == 650
        assert len(caplog.records) == 1
        assert caplog.records[0].getMessage() == (
            "column 'proto': 650 unseen cell(s) mapped to reserved code 3, "
            "e.g. 'sctp', 'gre', 'x0'")

    def test_column_mismatch(self):
        _, enc = encode_categoricals(self._cat_dataset(["a"]))
        other = Dataset(schema=[ColumnSpec("flag", ColumnKind.CATEGORICAL)],
                        columns={"flag": np.array(["x"], dtype=object)})
        with pytest.raises(SchemaError):
            encode_categoricals(other, enc)

    def test_output_fully_numeric_nonnegative(self, blob_dataset):
        from idsfx.data import split_xy
        from idsfx.preprocess import impute_fit, impute_apply
        x, _ = split_xy(blob_dataset)
        fm, _ = encode_categoricals(x)
        impute_apply(impute_fit(x), x, fm)
        assert fm.values.shape == (blob_dataset.n_rows, 6)
        assert not np.isnan(fm.values).any()
        assert (fm.values >= 0).all()


class TestTfidf:
    def test_hand_computed_2x2(self):
        # df = [2, 1]; idf = [ln(3/3)+1, ln(3/2)+1]
        fm = FeatureMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]), ["a", "b"])
        model = tfidf_fit(fm)
        assert model.idf[0] == pytest.approx(1.0, abs=1e-12)
        assert model.idf[1] == pytest.approx(math.log(3 / 2) + 1, abs=1e-12)
        out = tfidf_apply(model, fm)
        assert out.values[0, 0] == pytest.approx(1.0)
        assert out.values[0, 1] == 0.0

    def test_all_zero_column(self):
        fm = FeatureMatrix(np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]), ["a", "z"])
        model = tfidf_fit(fm)
        assert model.idf[1] == pytest.approx(math.log(1 + 3) + 1)
        out = tfidf_apply(model, fm)
        assert (out.values[:, 1] == 0.0).all()

    def test_row_norms_property(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            m = rng.random((rng.integers(1, 12), rng.integers(1, 6)))
            m[rng.random(m.shape) < 0.3] = 0.0
            fm = FeatureMatrix(m, [f"f{j}" for j in range(m.shape[1])])
            out = tfidf_apply(tfidf_fit(fm), fm)
            norms = np.linalg.norm(out.values, axis=1)
            assert np.all((np.abs(norms - 1.0) < 1e-12) | (norms == 0.0))
            assert (out.values >= 0).all()

    def test_negative_columns_shifted(self):
        fm = FeatureMatrix(np.array([[-2.0, 1.0], [0.0, 2.0]]), ["a", "b"])
        model = tfidf_fit(fm)
        assert model.shifts[0] == 2.0
        out = tfidf_apply(model, fm)
        assert (out.values >= 0).all()

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_shift_clips_rows_below_the_training_minimum(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.normal(0.0, 2.0, (int(rng.integers(1, 12)), int(rng.integers(1, 6))))
        m[rng.random(m.shape) < 0.3] = 0.0
        fm = FeatureMatrix(m, [f"f{j}" for j in range(m.shape[1])])
        model = tfidf_fit(fm)
        # on the fit rows the clip changes no bit
        expected = (m + model.shifts) * model.idf
        norms = np.linalg.norm(expected, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        # scored rows reach below the training minimum; drawn before the
        # apply below transforms m in place
        below = m - rng.random(m.shape) * 4.0
        assert np.array_equal(tfidf_apply(model, fm).values, expected / norms)
        out = tfidf_apply(model, FeatureMatrix(below, fm.names)).values
        assert np.isfinite(out).all() and (out >= 0).all()

    def test_apply_reuses_fitted_state(self):
        fit_fm = FeatureMatrix(np.array([[1.0, 0.0], [1.0, 1.0]]), ["a", "b"])
        model = tfidf_fit(fit_fm)
        new = FeatureMatrix(np.array([[0.0, 5.0]]), ["a", "b"])
        out = tfidf_apply(model, new)
        expected = 5.0 * model.idf[1]
        assert out.values[0, 1] == pytest.approx(expected / abs(expected))

    def test_fit_and_apply_make_no_table_sized_temporary(self):
        rng = np.random.default_rng(5)
        m = rng.normal(0.0, 2.0, (40000, 25))
        fm = FeatureMatrix(m, [f"f{j}" for j in range(25)])
        tracemalloc.start()
        try:
            out = tfidf_apply(tfidf_fit(fm), fm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.values is m     # transformed in place
        # df's comparison is a bool table, an eighth of the matrix; the row
        # norms square one block of rows at a time
        assert peak < 0.25 * m.nbytes

    @pytest.mark.parametrize("cols", [1, 7, 8, 9, 41, 130])
    def test_row_norms_are_numpys_bits(self, cols, monkeypatch):
        rng = np.random.default_rng(cols)
        v = rng.lognormal(0.0, 3.0, (301, cols))
        for block_cells in (1, 64, 1 << 16):
            monkeypatch.setattr(preprocess, "NORM_BLOCK_CELLS", block_cells)
            got = _row_norms(v)
            assert got.tobytes() == np.linalg.norm(v, axis=1, keepdims=True).tobytes()

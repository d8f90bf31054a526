import numpy as np
import pytest

from idsfx.errors import ConfigError, DomainError, SchemaError
from idsfx.matrix import FeatureMatrix
from idsfx.nmf import (NmfConfig, nmf_fit, nmf_transform, nndsvd_init,
                       reconstruction_error)


def rank5_fixture(seed=1):
    rng = np.random.default_rng(seed)
    return rng.random((100, 5)) @ rng.random((5, 20))


class TestNmfFit:
    def test_rank1_exact(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0]])
        m = nmf_fit(x, NmfConfig(r=1, max_iter=500, tol=1e-12, seed=0))
        assert reconstruction_error(m, x) < 1e-6

    def test_shape_contract(self):
        x = np.abs(np.random.default_rng(0).random((40, 12)))
        m = nmf_fit(x, NmfConfig(r=7, max_iter=10, tol=1e-9, seed=0))
        assert m.w.shape == (40, 7)
        assert m.h.shape == (7, 12)

    def test_rank5_derived_error(self):
        x = rank5_fixture()
        m = nmf_fit(x, NmfConfig(r=5, max_iter=200, tol=1e-9, seed=1))
        # oracle: independent Frobenius quotient
        rel = np.linalg.norm(x - m.w @ m.h) / np.linalg.norm(x)
        assert rel < 1e-2

    def test_trace_non_increasing(self):
        x = rank5_fixture(3)
        m = nmf_fit(x, NmfConfig(r=5, max_iter=150, tol=1e-12, seed=2))
        tr = np.array(m.objective_trace)
        assert np.all(np.diff(tr) <= 1e-10)

    def test_factors_nonnegative(self):
        x = rank5_fixture(4)
        m = nmf_fit(x, NmfConfig(r=4, max_iter=50, tol=1e-9, seed=5))
        assert (m.w >= 0).all() and (m.h >= 0).all()

    def test_deterministic_bit_identical(self):
        x = rank5_fixture(6)
        cfg = NmfConfig(r=3, max_iter=40, tol=1e-9, seed=9)
        m1 = nmf_fit(x, cfg)
        m2 = nmf_fit(x, cfg)
        assert np.array_equal(m1.w, m2.w)
        assert np.array_equal(m1.h, m2.h)

    def test_scale_consistency(self):
        x = rank5_fixture(7)
        c = 4.0     # the seeded random start scales both factors by sqrt(c) = 2 exactly
        cfg = NmfConfig(r=4, max_iter=30, tol=1e-15, seed=0)
        m1 = nmf_fit(x, cfg)
        m2 = nmf_fit(c * x, cfg)
        ratio = np.array(m2.objective_trace) / np.array(m1.objective_trace)
        assert np.allclose(ratio, c, rtol=1e-8)

    def test_negative_entry_rejected(self):
        x = np.array([[1.0, -0.5], [0.2, 0.3]])
        with pytest.raises(DomainError, match=r"\(0, 1\)"):
            nmf_fit(x, NmfConfig(r=1))

    def test_r_too_large(self):
        with pytest.raises(ConfigError):
            nmf_fit(np.ones((3, 2)), NmfConfig(r=3))


class TestNmfTransform:
    def test_self_consistency_objective(self):
        x = rank5_fixture()
        m = nmf_fit(x, NmfConfig(r=5, max_iter=400, tol=1e-12, seed=1))
        w = nmf_transform(m, x)
        obj_t = np.linalg.norm(x - w.values @ m.h)
        assert abs(obj_t - m.objective_trace[-1]) / np.linalg.norm(x) < 1e-6

    def test_zero_row_stays_zero(self):
        m = nmf_fit(rank5_fixture(), NmfConfig(r=5, max_iter=50, tol=1e-9, seed=1))
        out = nmf_transform(m, np.zeros((2, 20)))
        assert (out.values == 0.0).all()

    def test_duplicated_rows_identical(self):
        x = rank5_fixture()
        m = nmf_fit(x, NmfConfig(r=5, max_iter=50, tol=1e-9, seed=1))
        out = nmf_transform(m, np.vstack([x[3], x[3], x[3]]))
        assert np.array_equal(out.values[0], out.values[1])
        assert np.array_equal(out.values[1], out.values[2])

    def test_column_mismatch(self):
        m = nmf_fit(rank5_fixture(), NmfConfig(r=2, max_iter=5, tol=1e-9, seed=1))
        with pytest.raises(SchemaError):
            nmf_transform(m, np.ones((3, 7)))

    def test_component_names(self):
        m = nmf_fit(rank5_fixture(), NmfConfig(r=3, max_iter=5, tol=1e-9, seed=1))
        out = nmf_transform(m, rank5_fixture())
        assert out.names == ["component_0", "component_1", "component_2"]


class TestNndsvdInit:
    def test_diagonal_analytic(self):
        x = np.diag([3.0, 2.0, 1.0])
        w0, h0 = nndsvd_init(x, 2, seed=0)
        # columns proportional to e1, e2 scaled by sqrt(3), sqrt(2), up to the
        # NNDSVDa mean fill of exact zeros
        mean = x.mean()
        assert w0[0, 0] == pytest.approx(np.sqrt(3.0), rel=1e-8)
        assert w0[1, 1] == pytest.approx(np.sqrt(2.0), rel=1e-8)
        assert h0[0, 0] == pytest.approx(np.sqrt(3.0), rel=1e-8)
        assert h0[1, 1] == pytest.approx(np.sqrt(2.0), rel=1e-8)
        off = np.array([w0[1, 0], w0[2, 0], w0[0, 1], w0[2, 1]])
        assert np.allclose(off, mean)

    def test_nonnegative_and_no_zeros(self):
        x = np.abs(np.random.default_rng(5).random((30, 10)))
        w0, h0 = nndsvd_init(x, 6, seed=3)
        assert (w0 > 0).all() and (h0 > 0).all()

    def test_seeded_deterministic(self):
        x = np.abs(np.random.default_rng(6).random((30, 10)))
        a = nndsvd_init(x, 4, seed=2)
        b = nndsvd_init(x, 4, seed=2)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestReconstructionError:
    def test_exact_case(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0]])
        m = nmf_fit(x, NmfConfig(r=1, max_iter=500, tol=1e-12, seed=0))
        assert reconstruction_error(m, x) < 1e-6

    def test_zero_factors(self):
        from idsfx.nmf import NmfModel
        x = np.ones((2, 2))
        m = NmfModel(w=np.zeros((2, 1)), h=np.zeros((1, 2)))
        assert reconstruction_error(m, x) == 1.0

    def test_zero_matrix(self):
        from idsfx.nmf import NmfModel
        m = NmfModel(w=np.zeros((2, 1)), h=np.zeros((1, 2)))
        assert reconstruction_error(m, np.zeros((2, 2))) == 0.0

    def test_matches_direct_quotient(self):
        x = rank5_fixture(8)
        m = nmf_fit(x, NmfConfig(r=5, max_iter=60, tol=1e-9, seed=3))
        direct = np.linalg.norm(x - m.w @ m.h) / np.linalg.norm(x)
        assert reconstruction_error(m, x) == pytest.approx(direct, abs=1e-12)

    def test_shape_mismatch(self):
        m = nmf_fit(rank5_fixture(), NmfConfig(r=2, max_iter=5, tol=1e-9, seed=1))
        with pytest.raises(SchemaError):
            reconstruction_error(m, np.ones((3, 3)))

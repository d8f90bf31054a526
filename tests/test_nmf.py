import tracemalloc

import numpy as np
import pytest

from idsfx import nmf
from idsfx.errors import ConfigError, DomainError, SchemaError
from idsfx.nmf import EPS, nmf_fit, nmf_transform, random_init


def rank5_fixture(seed=1):
    rng = np.random.default_rng(seed)
    return rng.random((100, 5)) @ rng.random((5, 20))


def replay_w(x, m, r, seed):
    """The training rows' W, which nmf_fit does not keep: replay its start and
    its updates, check that H comes out bit-equal and that W and the last
    trace value agree with the direct residual."""
    w, h = random_init(x, r, seed)
    for _ in range(m.iterations_run):
        h *= (w.T @ x) / (w.T @ w @ h + EPS)
        w *= (x @ h.T) / (w @ (h @ h.T) + EPS)
    assert np.array_equal(h, m.h)
    assert (w >= 0).all()
    assert np.linalg.norm(x - w @ h) == m.objective_trace[-1]
    return w


class TestNmfFit:
    def test_rank1_exact(self):
        x = np.array([[1.0, 2.0], [2.0, 4.0]])
        m = nmf_fit(x, 1, 0)
        assert m.objective_trace[-1] / np.linalg.norm(x) < 1e-6

    def test_shape_contract(self):
        x = np.abs(np.random.default_rng(0).random((40, 12)))
        m = nmf_fit(x, 7, 0)
        assert replay_w(x, m, 7, 0).shape == (40, 7)
        assert m.h.shape == (7, 12)

    def test_rank5_derived_error(self):
        x = rank5_fixture()
        m = nmf_fit(x, 5, 1)
        # oracle: independent Frobenius quotient
        rel = np.linalg.norm(x - replay_w(x, m, 5, 1) @ m.h) / np.linalg.norm(x)
        assert rel < 1e-2

    def test_trace_non_increasing(self):
        x = rank5_fixture(3)
        m = nmf_fit(x, 5, 2)
        tr = np.array(m.objective_trace)
        assert tr.size == m.iterations_run
        assert np.all(np.diff(tr) <= 1e-10)

    def test_factors_nonnegative(self):
        x = rank5_fixture(4)
        m = nmf_fit(x, 4, 5)
        assert (replay_w(x, m, 4, 5) >= 0).all() and (m.h >= 0).all()

    def test_deterministic_bit_identical(self):
        x = rank5_fixture(6)
        m1 = nmf_fit(x, 3, 9)
        m2 = nmf_fit(x, 3, 9)
        assert np.array_equal(m1.h, m2.h)
        assert m1.objective_trace == m2.objective_trace

    def test_scale_consistency(self):
        x = rank5_fixture(7)
        c = 4.0     # the seeded random start scales both factors by sqrt(c) = 2 exactly
        m1 = nmf_fit(x, 4, 0)
        m2 = nmf_fit(c * x, 4, 0)
        assert m1.iterations_run == m2.iterations_run
        ratio = np.array(m2.objective_trace) / np.array(m1.objective_trace)
        assert np.allclose(ratio, c, rtol=1e-8)

    def test_stops_at_the_fixed_setting(self, monkeypatch):
        x = rank5_fixture(3)
        m = nmf_fit(x, 5, 2)
        assert (m.iterations_run, m.converged) == (nmf.MAX_ITER, False)
        monkeypatch.setattr(nmf, "TOL", 1e-2)
        loose = nmf_fit(x, 5, 2)
        assert loose.converged and loose.iterations_run < nmf.MAX_ITER

    def test_negative_entry_rejected(self):
        x = np.array([[1.0, -0.5], [0.2, 0.3]])
        with pytest.raises(DomainError, match=r"\(0, 1\)"):
            nmf_fit(x, 1, 0)

    def test_r_too_large(self):
        with pytest.raises(ConfigError, match=r"^r=3 exceeds min\(p, q\)=2$"):
            nmf_fit(np.ones((3, 2)), 3, 0)

    @pytest.mark.parametrize("r", [0, -2])
    def test_r_below_one(self, r):
        with pytest.raises(ConfigError, match="^component count r must be >= 1$"):
            nmf_fit(np.ones((3, 2)), r, 0)


class TestNmfTransform:
    def test_self_consistency_objective(self):
        x = rank5_fixture()
        m = nmf_fit(x, 5, 1)
        w = nmf_transform(m, x)
        obj_t = np.linalg.norm(x - w.values @ m.h)
        assert abs(obj_t - m.objective_trace[-1]) / np.linalg.norm(x) < 1e-6

    def test_zero_row_stays_zero(self):
        m = nmf_fit(rank5_fixture(), 5, 1)
        out = nmf_transform(m, np.zeros((2, 20)))
        assert (out.values == 0.0).all()

    def test_duplicated_rows_identical(self):
        x = rank5_fixture()
        m = nmf_fit(x, 5, 1)
        out = nmf_transform(m, np.vstack([x[3], x[3], x[3]]))
        assert np.array_equal(out.values[0], out.values[1])
        assert np.array_equal(out.values[1], out.values[2])

    def test_column_mismatch(self):
        m = nmf_fit(rank5_fixture(), 2, 1)
        with pytest.raises(SchemaError):
            nmf_transform(m, np.ones((3, 7)))

    def test_component_names(self):
        m = nmf_fit(rank5_fixture(), 3, 1)
        out = nmf_transform(m, rank5_fixture())
        assert out.names == ["component_0", "component_1", "component_2"]


class TestReconstructionError:
    """The relative residual ||X - WH||_F / ||X||_F, read from the trace."""

    def test_exact_case(self):
        rng = np.random.default_rng(11)
        x = np.outer(rng.random(30) + 0.1, rng.random(8) + 0.1)
        m = nmf_fit(x, 1, 0)
        assert m.converged and m.objective_trace[-1] / np.linalg.norm(x) < 1e-6

    def test_zero_factors(self):
        x = rank5_fixture(8)
        x[:, 4] = 0.0     # a column no row uses gets a zero column of H
        m = nmf_fit(x, 5, 3)
        replay_w(x, m, 5, 3)
        assert (m.h[:, 4] == 0.0).all() and (m.h[:, :4] > 0.0).any()

    def test_zero_matrix(self):
        m = nmf_fit(np.zeros((4, 3)), 2, 0)
        assert m.converged and m.objective_trace[-1] == 0.0
        assert (m.h == 0.0).all()

    def test_matches_direct_quotient(self):
        x = rank5_fixture(8)
        m = nmf_fit(x, 5, 3)
        direct = np.linalg.norm(x - replay_w(x, m, 5, 3) @ m.h) / np.linalg.norm(x)
        assert m.objective_trace[-1] / np.linalg.norm(x) == direct


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMemory:
    def test_frobenius_forms_one_p_by_q_array(self):
        rng = np.random.default_rng(2)
        x, w, h = rng.random((20000, 20)), rng.random((20000, 3)), rng.random((3, 20))
        assert _traced_peak(nmf._frobenius, x, w, h) < 1.2 * x.nbytes

    def test_transform_holds_a_fixed_number_of_p_by_r_arrays(self, monkeypatch):
        rng = np.random.default_rng(3)
        p, q, r = 20000, 12, 10
        x = rng.random((p, r)) @ rng.random((r, q)) + 0.1 * rng.random((p, q))
        model = nmf_fit(x[:2000], r, 0)
        peaks = {}
        for iterations in (1, nmf.MAX_ITER):
            monkeypatch.setattr(nmf, "MAX_ITER", iterations)
            peaks[iterations] = _traced_peak(nmf_transform, model, x)
        # W, X H^T, W H H^T and the quotient, plus a few p-vectors
        p_by_r = 8 * p * r
        assert max(peaks.values()) < 4.5 * p_by_r
        assert abs(peaks[1] - peaks[nmf.MAX_ITER]) < 0.05 * p_by_r

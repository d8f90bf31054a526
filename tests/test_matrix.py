import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsfx import matrix
from idsfx.matrix import CSV_BLOCK_CELLS, FeatureMatrix, write_csv


def _check(values) -> None:
    """The writer's text of each value is '%.17g' % value, the reference."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    got = matrix._format_block(values).tobytes().decode().splitlines()
    assert got == ["%.17g" % x for x in values.ravel().tolist()]


def _neighbours(x: float, ulps: int) -> list[float]:
    below = above = np.float64(x)
    out = [x]
    for _ in range(ulps):
        below, above = np.nextafter(below, -np.inf), np.nextafter(above, np.inf)
        out += [float(below), float(above)]
    return out


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
def test_random_bit_patterns(words):
    _check(np.array(words, dtype=np.uint64).view(np.float64))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), min_size=1, max_size=64))
def test_any_float(values):
    _check(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(1e-12, 1e16) | st.floats(-1e16, -1e-12), min_size=1, max_size=64))
def test_floats_near_the_fast_window(values):
    _check(values)


def test_every_decimal_exponent():
    rng = np.random.default_rng(7)
    values = []
    for k in range(-324, 309):
        values += [float(f"{d}e{k}") for d in rng.uniform(1, 10, 20).round(rng.integers(0, 17))]
        values += [float(f"1e{k}"), float(f"9.9999999999999999e{k}")]
    values = np.array(values)
    _check(np.concatenate([values, -values]))


def test_neighbours_of_powers_of_ten_and_the_window_edges():
    edges = [float(f"1e{k}") for k in range(-325, 309)]
    edges += [float(f"{d}e{k}") for d in (5, 9.5, 9.99999999999999999)
              for k in (matrix._E_MIN, matrix._E_MAX, matrix._E_MAX + 1)]
    values = [y for x in edges for y in _neighbours(x, 4)]
    _check(values + [-v for v in values])


def test_edge_values():
    tiny, huge = 5e-324, sys.float_info.max
    _check([0.0, -0.0, tiny, -tiny, 2.2250738585072009e-308, sys.float_info.min, huge,
            -huge, np.inf, -np.inf, np.nan, 1.0, -1.0, 0.1, 1e15, 1e16, 1e17, 123456789012345680])


def test_exact_ties_round_half_even():
    # m * 2**-k whose exact value has 18 significant digits, the last a 5:
    # the 17-digit text is a tie, such as 2**-25 = 2.98023223876953125e-08
    candidates = [float(np.ldexp(m, -k)) for k in range(18, 60) for m in range(1, 2000, 2)]
    ties = [x for x in candidates if len(Decimal(x).as_tuple().digits) == 18]
    assert 2.0 ** -25 in ties
    assert len(ties) > 100
    # both ways: the 17th digit is even after rounding down and after up
    up = {Decimal("%.17g" % x) > Decimal(x) for x in ties}
    assert up == {False, True}
    _check(ties + [-x for x in ties])


def _savetxt_bytes(x, names, path):
    np.savetxt(path, x, fmt="%.17g", delimiter=",", header=",".join(names), comments="",
               encoding="utf-8")
    return path.read_bytes()


@pytest.mark.parametrize("shape", [
    (0, 3), (1, 1), (5, 1), (7, 3),
    (CSV_BLOCK_CELLS - 1, 1), (CSV_BLOCK_CELLS, 1), (CSV_BLOCK_CELLS + 1, 1),
    (CSV_BLOCK_CELLS // 7 - 1, 7), (CSV_BLOCK_CELLS // 7 + 1, 7)])
def test_file_bytes_match_savetxt(tmp_path, shape):
    rng = np.random.default_rng(shape[0])
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-14, 18, shape)
    flat = x.ravel()                            # a view: x is C-contiguous
    flat[::11] = 0.0
    flat[5::13] = np.round(flat[5::13], 2)
    flat[7::97] = np.resize([np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.5e-310],
                            flat[7::97].size)
    names = [f"component_{j}" for j in range(shape[1])]
    write_csv(FeatureMatrix(x, names), tmp_path / "w.csv")
    assert (tmp_path / "w.csv").read_bytes() == _savetxt_bytes(x, names, tmp_path / "s.csv")


def test_file_of_non_ascii_names_and_negative_values(tmp_path):
    x = -np.abs(np.random.default_rng(1).normal(size=(4, 2)))
    names = ["débit", "größe"]
    write_csv(FeatureMatrix(x, names), tmp_path / "w.csv")
    assert (tmp_path / "w.csv").read_bytes() == _savetxt_bytes(x, names, tmp_path / "s.csv")
    assert np.array_equal(np.loadtxt(tmp_path / "w.csv", delimiter=",", skiprows=1), x)


def test_writer_memory_is_bounded_by_the_block(tmp_path):
    rng = np.random.default_rng(0)
    peaks = []
    for rows in (1000, 50000):
        # mostly in the fast window, some cells formatted by Python
        x = rng.random((rows, 20)) * 10.0 ** rng.integers(-14, 17, (rows, 20))
        fm = FeatureMatrix(x, [f"c{j}" for j in range(20)])
        tracemalloc.start()
        try:
            write_csv(fm, tmp_path / "w.csv")
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.05 * peaks[0]
    assert peaks[1] < 512 * CSV_BLOCK_CELLS

"""Tests of the benchmark itself: generator, span arithmetic, metric names.

    python3 -m pytest -q clibench

Run from the root of a source checkout (the worker test imports ``src/``).
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import generate  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402


@pytest.mark.parametrize("shape", sorted(generate.SHAPES))
def test_generator_same_seed_same_bytes(tmp_path, shape):
    a, b, c = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "c.csv"
    generate.write(a, shape, 300, 7, "timed", 3)
    generate.write(b, shape, 300, 7, "timed", 3)
    generate.write(c, shape, 300, 7, "timed", 4)
    assert a.read_bytes() == b.read_bytes()
    assert a.read_bytes() != c.read_bytes()


@pytest.mark.parametrize("shape,classes", [("nsl-kdd", generate.KDD_CLASSES),
                                           ("cicids2017", generate.CICIDS_CLASSES)])
def test_class_counts_depend_on_rows_only(tmp_path, shape, classes):
    expected = generate.largest_remainder(500, [c for _, c in classes])
    assert sum(expected) == 500
    for seed in (1, 2, 3):
        _, y = generate.write(tmp_path / "x.csv", shape, 500, seed, "timed", 0)
        assert np.bincount(y, minlength=len(classes)).tolist() == expected


def test_largest_remainder_gives_leftovers_to_largest_remainders():
    assert generate.largest_remainder(10, [1, 1, 1]) == [4, 3, 3]
    assert generate.largest_remainder(7, [5, 3, 2]) == [4, 2, 1]
    assert generate.largest_remainder(0, [5, 3]) == [0, 0]


def test_generated_files_load_with_the_expected_shape(tmp_path):
    from idsfx.data import ColumnKind, load_csv

    _, y = generate.write(tmp_path / "k.csv", "nsl-kdd", 200, 1, "timed", 0)
    d = load_csv(tmp_path / "k.csv", "nsl-kdd")
    assert d.n_rows == 200 and len(d.specs(ColumnKind.CATEGORICAL)) == 3
    assert len(d.specs(ColumnKind.NUMERIC)) == 38
    _, y = generate.write(tmp_path / "c.csv", "cicids2017", 200, 1, "timed", 0)
    d = load_csv(tmp_path / "c.csv", "cicids2017")
    assert d.n_rows == 200 and len(d.specs(ColumnKind.NUMERIC)) == 78
    assert d.label_column == "Label"


def test_n_test_rows_matches_the_program_split(tmp_path):
    from idsfx.data import load_csv, train_test_split

    _, y = generate.write(tmp_path / "k.csv", "nsl-kdd", 180, 1, "timed", 0)
    _, test = train_test_split(load_csv(tmp_path / "k.csv", "nsl-kdd"), 0.25, 0)
    assert test.n_rows == checks.n_test_rows(np.bincount(y).tolist(), 0.25)


def test_self_time_on_hand_built_tree():
    tree = [
        ["cli.main", 0.0, 10.0, -1, {}],
        ["data.load_csv", 1.0, 3.0, 0, {}],
        ["pipeline.pipeline_fit", 4.0, 9.0, 0, {}],
        ["nmf.nmf_fit", 5.0, 7.0, 2, {}],
        ["nmf.nmf_transform", 6.0, 8.0, 2, {}],    # overlaps its sibling
        ["select.chi2_scores", 8.5, 9.5, 2, {}],   # runs past its parent
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.5, 2.0, 2.0, 1.0])


def test_op_layers_sums_groups_and_shares():
    tree = [
        ["cli.main", 0.0, 10.0, -1, {}],
        ["data.load_csv", 1.0, 3.0, 0, {"bytes": 4e6, "rows": 10}],
        ["classifiers.train", 3.0, 9.0, 0, {"algorithm": "linear_svm"}],
        ["kernels.svm_sgd", 4.0, 8.0, 2, {"updates": 2000}],
    ]
    values = metrics.op_layers(tree, log_lines=3)
    assert values["data.load_csv.mb_per_s"] == pytest.approx(2.0)
    assert values["classifiers.linear_svm.train_s"] == pytest.approx(6.0)
    assert values["kernels.svm_sgd.ns_per_update"] == pytest.approx(2e6)
    assert values["share.kernels"] == pytest.approx(0.4)
    assert values["share.cli"] == pytest.approx(0.2)
    assert sum(values[f"share.{m}"] for m in metrics.MODULES) == pytest.approx(1.0)


def _declared(section: str) -> set[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in bench[section]}


def test_printed_metrics_equal_declared_metrics():
    assert set(metrics.end_to_end(10, [1.0], [2.0], [50.0], [0.9])) == _declared("end_to_end")
    op = {"spans": [["cli.main", 0.0, 1.0, -1, {}]], "log_lines": 0,
          "wall_s": 1.0, "cpu_s": 1.0}
    assert set(metrics.layer_metrics([op], [op], 2)) == _declared("per_layer")


def test_coverage_errors_name_missing_and_forbidden_spans():
    everything = {f"{m}.{f}" for m, f, *_ in spans.TARGETS}
    assert spans.coverage_errors("kdd-evaluate", everything) == []
    errors = spans.coverage_errors("kdd-scale", everything - {"data.load_csv"})
    assert "data.load_csv never fired on kdd-scale" in errors
    assert any(e.startswith("kernels.svm_sgd fired on kdd-scale") for e in errors)
    assert any(e.startswith("nmf.nmf_fit fired on cicids-transform")
               for e in spans.coverage_errors("cicids-transform", everything))


def test_install_reports_a_target_that_no_longer_exists():
    missing = spans.install(spans.Tracer(), targets=[("data", "no_such_loader", None, (), ())])
    assert missing == ["data.no_such_loader"]


def test_traced_worker_wraps_every_target(tmp_path):
    cmd = [sys.executable, str(BENCH / "worker.py"), str(tmp_path / "o.log"),
           str(tmp_path / "e.log"), "--trace"]
    done = subprocess.run(cmd, input="", capture_output=True, text=True, timeout=60,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, cwd=ROOT)
    hello = json.loads(done.stdout.splitlines()[0])
    assert hello == {"ready": True, "missing": []}

"""Release acceptance suite.

Each test covers one exit criterion and prints exactly one status line
(run with ``pytest -s tests/test_acceptance.py`` to see them on success).
Criteria needing the public benchmark files skip with a notice when the
files are absent; see tests/conftest.py for the expected locations.
"""

import time
from contextlib import contextmanager

import numpy as np
import pytest

from idsfx.cli import main
from idsfx.data import ColumnKind, load_csv, split_xy
from idsfx.errors import IntegrityError
from idsfx.evaluate import pearson_corr
from idsfx.nmf import nmf_fit
from idsfx.pipeline import (PipelineConfig, pipeline_fit, pipeline_load,
                            pipeline_save, pipeline_transform)
from idsfx.preprocess import encode_labels
from idsfx.runner import baseline_fit, run_evaluation
from idsfx.select import chi2_scores
from tests.conftest import (CICIDS_NAMES, NSL_KDD_NAMES, find_data_file,
                            make_blob_dataset, write_dataset_csv)
from tests.test_eval import brute_force_pearson
from tests.test_select import brute_force_chi2


@contextmanager
def criterion(num, title):
    try:
        yield
    except BaseException as exc:
        status = "SKIP" if exc.__class__.__name__ == "Skipped" else "FAIL"
        print(f"\n[criterion {num}] {title}: {status}")
        raise
    print(f"\n[criterion {num}] {title}: PASS")


def _require(names, what):
    path = find_data_file(names)
    if path is None:
        pytest.skip(f"{what} not present (see tests/conftest.py for locations)")
    return path


def test_criterion_1_nmf_convergence():
    with criterion(1, "NMF convergence and monotone objective"):
        rng = np.random.default_rng(1)
        x = rng.random((100, 5)) @ rng.random((5, 20))  # exact rank 5
        t0 = time.perf_counter()
        model = nmf_fit(x, 5, 1)
        elapsed = time.perf_counter() - t0
        assert model.objective_trace[-1] / np.linalg.norm(x) < 1e-2
        trace = np.array(model.objective_trace)
        assert np.all(np.diff(trace) <= 1e-10)
        assert elapsed < 5.0


def test_criterion_2_chi2_oracle():
    with criterion(2, "chi-square scores match brute-force oracle"):
        rng = np.random.default_rng(20)
        t0 = time.perf_counter()
        for _ in range(50):
            p = int(rng.integers(4, 21))
            q = int(rng.integers(1, 9))
            x = rng.random((p, q)) * 3
            x[rng.random((p, q)) < 0.25] = 0.0
            y = rng.integers(0, int(rng.integers(2, 5)), p)
            while np.unique(y).size < 2:
                y = rng.integers(0, 4, p)
            assert np.allclose(chi2_scores(x, y), brute_force_chi2(x, y),
                               atol=1e-9)
        const = np.hstack([np.full((8, 1), 2.5), rng.random((8, 1))])
        assert chi2_scores(const, np.array([0] * 4 + [1] * 4))[0] == 0.0
        assert time.perf_counter() - t0 < 1.0


# reference descending score order for the raw-feature chi-square mode on
# the 41-feature benchmark corpus
REFERENCE_RANKING = [
    "duration", "flag", "wrong_fragment", "num_outbound_cmds",
    "protocol_type", "logged_in", "num_access_files", "hot", "service",
    "srv_count", "dst_bytes",
]


def test_criterion_3_raw_score_ranking():
    with criterion(3, "raw-feature score ranking agrees with reference"):
        path = _require(NSL_KDD_NAMES, "41-feature benchmark training file")
        d = load_csv(path, "nsl-kdd")
        x, yv = split_xy(d)
        _, fm = baseline_fit(x)
        codes, _ = encode_labels(yv)
        scores = chi2_scores(fm, codes)
        by_name = dict(zip(fm.names, scores))
        ours = sorted(REFERENCE_RANKING, key=lambda n: -by_name[n])
        assert ours.index("duration") < ours.index("flag") < ours.index("dst_bytes")
        agree = sum(a == b for a, b in zip(ours, REFERENCE_RANKING))
        assert agree >= 7, f"only {agree}/11 rows in reference position: {ours}"


def test_criterion_4_end_to_end_delta():
    with criterion(4, "extracted features hold accuracy within 2 points"):
        path = _require(NSL_KDD_NAMES, "41-feature benchmark training file")
        d = load_csv(path, "nsl-kdd")
        n_features = sum(1 for s in d.schema
                         if s.kind in (ColumnKind.NUMERIC, ColumnKind.CATEGORICAL))
        assert n_features == 41
        cfg = PipelineConfig(u=30, v=20, seed=7)
        t0 = time.perf_counter()
        report, fp, _ = run_evaluation(d, cfg, test_fraction=0.25,
                                       dataset_id=path.name)
        elapsed = time.perf_counter() - t0
        assert fp.chi2.k == 20
        held = 0
        for clf, accs in report.accuracies.items():
            print(f"  {clf}: baseline {accs['baseline']:.4f} "
                  f"extracted {accs['extracted']:.4f}")
            if accs["extracted"] >= accs["baseline"] - 0.02:
                held += 1
        assert held >= 4, f"only {held}/6 classifiers within 2 points"
        assert elapsed < 600.0


def test_criterion_5_evaluate_determinism(tmp_path):
    with criterion(5, "repeated evaluation runs are byte-identical"):
        d = make_blob_dataset(n_rows=150, n_numeric=6, n_classes=3, seed=4)
        csv_path = write_dataset_csv(d, tmp_path / "data.csv")
        flags = ["--dataset", str(csv_path), "--components", "5",
                 "--select", "4", "--seed", "3"]
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["evaluate", *flags, "--out", str(a)]) == 0
        assert main(["evaluate", *flags, "--out", str(b)]) == 0
        for name in ("pipeline.json", "report.csv", "report.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_criterion_6_pearson_oracle():
    with criterion(6, "Pearson correlation matches direct formula"):
        rng = np.random.default_rng(6)
        for _ in range(20):
            x = rng.random((50, 5)) * 4 - 1
            got = pearson_corr(x).values
            assert np.allclose(got, brute_force_pearson(x), atol=1e-10)
            assert np.array_equal(got, got.T)
            assert np.allclose(np.diag(got), 1.0)


def test_criterion_7_persistence_round_trip(tmp_path):
    with criterion(7, "saved pipeline round-trips bit-identically"):
        d = make_blob_dataset(n_rows=100, seed=2)
        cfg = PipelineConfig(u=4, v=3, seed=2)
        fp, _, _ = pipeline_fit(d, cfg)
        path = tmp_path / "pipeline.json"
        pipeline_save(fp, path)
        back = pipeline_load(path)
        assert np.array_equal(pipeline_transform(fp, d).values,
                              pipeline_transform(back, d).values)
        raw = bytearray(path.read_bytes())
        raw[100] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(IntegrityError):
            pipeline_load(path)


def test_criterion_8_loader_counts():
    with criterion(8, "loader row and class counts match the public corpora"):
        checked = False
        kdd = find_data_file(NSL_KDD_NAMES)
        if kdd is not None:
            d = load_csv(kdd, "nsl-kdd")
            assert d.n_rows == 25192
            checked = True
        cicids = find_data_file(CICIDS_NAMES)
        if cicids is not None:
            d = load_csv(cicids, "cicids2017")
            _, yv = split_xy(d)
            _, counts = np.unique(yv.astype(str), return_counts=True)
            assert sorted(counts.tolist(), reverse=True) == [168186, 1507, 652, 21]
            checked = True
        if not checked:
            pytest.skip("no public benchmark files present "
                        "(see tests/conftest.py for locations)")

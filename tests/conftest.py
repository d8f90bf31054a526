import csv
import os
from pathlib import Path

import numpy as np
import pytest

from idsfx.data import ColumnKind, ColumnSpec, Dataset

NSL_KDD_NAMES = ("KDDTrain+_20Percent.txt", "KDDTrain+_20Percent.csv")
CICIDS_NAMES = ("Thursday-WorkingHours-Morning-WebAttacks.pcap_ISCX.csv",)


def _data_dirs():
    dirs = []
    env = os.environ.get("IDSFX_DATA_DIR")
    if env:
        dirs.append(Path(env))
    dirs.append(Path(__file__).resolve().parent.parent / "data")
    return dirs


def find_data_file(names) -> Path | None:
    for d in _data_dirs():
        for n in names:
            p = d / n
            if p.exists():
                return p
    return None


@pytest.fixture(scope="session")
def nsl_kdd_path():
    p = find_data_file(NSL_KDD_NAMES)
    if p is None:
        pytest.skip("NSL-KDD 20% training file not present "
                    "(put KDDTrain+_20Percent.txt under ./data or $IDSFX_DATA_DIR)")
    return p


@pytest.fixture(scope="session")
def cicids_path():
    p = find_data_file(CICIDS_NAMES)
    if p is None:
        pytest.skip("CICIDS Thursday web-attack file not present "
                    "(put it under ./data or $IDSFX_DATA_DIR)")
    return p


def make_blob_dataset(n_rows=120, n_numeric=5, n_classes=3, seed=0,
                      missing_frac=0.0, with_categorical=True) -> Dataset:
    """Synthetic labeled table: per-class Gaussian blobs shifted positive,
    one categorical column correlated with the label."""
    rng = np.random.default_rng(seed)
    y = rng.integers(0, n_classes, n_rows)
    centers = rng.random((n_classes, n_numeric)) * 6.0 + 1.0
    x = np.abs(centers[y] + rng.normal(0, 0.4, (n_rows, n_numeric)))
    if missing_frac > 0:
        mask = rng.random(x.shape) < missing_frac
        x[mask] = np.nan

    schema = [ColumnSpec(f"num_{j}", ColumnKind.NUMERIC) for j in range(n_numeric)]
    columns = {f"num_{j}": x[:, j].copy() for j in range(n_numeric)}
    if with_categorical:
        tokens = np.array(["alpha", "beta", "gamma", "delta"], dtype=object)
        noisy = np.where(rng.random(n_rows) < 0.8, y % len(tokens),
                         rng.integers(0, len(tokens), n_rows))
        schema.append(ColumnSpec("proto", ColumnKind.CATEGORICAL))
        columns["proto"] = tokens[noisy]
    schema.append(ColumnSpec("label", ColumnKind.LABEL))
    columns["label"] = np.array([f"class_{c}" for c in y], dtype=object)
    return Dataset(schema=schema, columns=columns)


def write_dataset_csv(d: Dataset, path: Path) -> Path:
    """Write the table with a header row; missing cells are empty."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([s.name for s in d.schema])
        for i in range(d.n_rows):
            row = []
            for spec in d.schema:
                v = d.columns[spec.name][i]
                if spec.kind == ColumnKind.NUMERIC:
                    if np.isnan(v):
                        row.append("")
                    elif v == int(v) and abs(v) < 1e15:
                        row.append(str(int(v)))
                    else:
                        row.append(repr(float(v)))
                else:
                    row.append(str(v))
            writer.writerow(row)
    return path


@pytest.fixture
def blob_dataset():
    return make_blob_dataset()

"""The byte contract: seeded look-alike inputs give output files whose bytes
are recorded in ``byte_digests.json``.

A child process at one BLAS thread writes small look-alikes with
``clibench/generate.py`` and runs the CLI on them: a six-classifier
``evaluate`` of 180 NSL-KDD rows, a ``--profile generic`` ``evaluate`` of a
headered NSL-KDD file, and a CICIDS-2017 ``fit`` and ``transform`` under the
``cicids2017`` and ``generic`` profiles.  The SHA-256 of each output file must
match the table's entry for this numpy version, BLAS library and CPU
architecture; elsewhere the test skips, since the bytes are promised only
within one such environment.

A change that alters output bytes on purpose records the new digests with

    PYTHONPATH=src python3 tests/test_byte_contract.py

and says why in CHANGES.md.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TABLE = Path(__file__).resolve().parent / "byte_digests.json"

# Writes the look-alikes into the directory it is given, runs each command
# through idsfx.cli.main and prints the SHA-256 of every output file.
CHILD = """
import hashlib, json, sys
from pathlib import Path
import generate
import idsfx.cli
from idsfx.data import KDD_FEATURES

work = Path(sys.argv[1])
kdd, _ = generate.kdd_text(generate.rng_for(1, "timed", 0), 600)
header = ",".join(KDD_FEATURES + ["label", "difficulty"])
(work / "kdd-600.csv").write_text(header + "\\n" + kdd, encoding="utf-8")
generate.write(work / "kdd-180.csv", "nsl-kdd", 180, 1, "timed", 0)
generate.write(work / "cicids-fit.csv", "cicids2017", 2000, 1, "prereq", 0)
generate.write(work / "cicids.csv", "cicids2017", 2000, 1, "timed", 0)
(work / "three.json").write_text(json.dumps(
    {"classifiers": ["gaussian_nb", "logistic_regression", "knn"]}), encoding="utf-8")

shape = ["--components", "30", "--select", "20"]
runs = {"kdd-evaluate": ["evaluate", "--profile", "nsl-kdd", "--dataset",
                         work / "kdd-180.csv", *shape, "--test-fraction", "0.5"],
        "generic-evaluate": ["evaluate", "--profile", "generic", "--dataset",
                             work / "kdd-600.csv", *shape, "--config", work / "three.json"]}
for profile in ("cicids2017", "generic"):
    runs[f"{profile}-fit"] = ["fit", "--profile", profile, "--dataset",
                              work / "cicids-fit.csv", *shape]
    runs[f"{profile}-transform"] = ["transform", "--profile", profile, "--pipeline",
                                    work / f"{profile}-fit" / "pipeline.json",
                                    "--dataset", work / "cicids.csv"]
digests = {}
for name, argv in runs.items():
    out = work / name
    if idsfx.cli.main([str(a) for a in argv] + ["--out", str(out)]) != 0:
        sys.exit(f"{name} failed")
    for path in sorted(out.iterdir()):
        if path.name in ("report.csv", "report.json", "pipeline.json",
                         "chi2_scores.csv", "transformed.csv"):
            digests[f"{name}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
print(json.dumps(digests))
"""


def environment() -> str:
    """The numpy version, BLAS library and CPU architecture the bytes hold for."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"numpy {np.__version__}, {blas['name']} {blas['version']}, {platform.machine()}"


def digests(work: Path) -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(ROOT / "clibench"),
                                         os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", CHILD, str(work)], capture_output=True,
                           text=True, timeout=300,
                           env={**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": "1"})
    assert child.returncode == 0, child.stderr[-2000:]
    return json.loads(child.stdout.splitlines()[-1])


def test_outputs_match_the_recorded_digests(tmp_path):
    env = environment()
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    if env not in table:
        pytest.skip(f"no digests recorded for {env}; recorded: {sorted(table)}")
    assert digests(tmp_path) == table[env]


if __name__ == "__main__":
    import tempfile
    table = json.loads(TABLE.read_text(encoding="utf-8")) if TABLE.exists() else {}
    with tempfile.TemporaryDirectory() as work:
        table[environment()] = digests(Path(work))
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {len(table[environment()])} digests for {environment()} in {TABLE}")

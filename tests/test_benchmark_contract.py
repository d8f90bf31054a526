"""The traced benchmark (``clibench/spans.py``) wraps idsfx functions by
module and name, and a target it cannot find fails its coverage check.  So
every target it lists must stay a callable of that idsfx module, and the
benchmark's commands must still run, and reach every target, with its
wrappers installed."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.conftest import make_blob_dataset, write_dataset_csv

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "clibench" / "spans.py"

# Installs the tracer, runs each command line through idsfx.cli.main and
# prints what install reported missing, the exit codes and the spans fired.
TRACED_CHILD = """
import json, sys
import spans
tracer = spans.Tracer()
missing = spans.install(tracer)
import idsfx.cli
rcs = [idsfx.cli.main(argv) for argv in json.loads(sys.argv[1])]
print(json.dumps({"missing": missing, "rcs": rcs,
                  "fired": sorted({span[0] for span in tracer.spans})}))
"""


def _span_targets():
    spec = importlib.util.spec_from_file_location("clibench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, function) for module, function, *_ in spans.TARGETS]


@pytest.mark.parametrize("module,function", _span_targets())
def test_span_target_is_an_idsfx_callable(module, function):
    assert callable(getattr(importlib.import_module(f"idsfx.{module}"), function, None))


def test_commands_run_and_reach_every_target_under_the_tracer(tmp_path):
    csv_path = write_dataset_csv(make_blob_dataset(n_rows=100, n_numeric=4, n_classes=2,
                                                   seed=1), tmp_path / "blobs.csv")
    flags = ["--dataset", str(csv_path), "--components", "4", "--select", "3"]
    runs = [["evaluate", *flags, "--out", str(tmp_path / "evaluate")],
            ["fit", *flags, "--out", str(tmp_path / "fit")],
            ["transform", "--pipeline", str(tmp_path / "fit" / "pipeline.json"),
             "--dataset", str(csv_path), "--out", str(tmp_path / "transform")]]
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), str(SPANS.parent),
                                         os.environ.get("PYTHONPATH")]))
    child = subprocess.run([sys.executable, "-c", TRACED_CHILD, json.dumps(runs)],
                           capture_output=True, text=True, timeout=120,
                           env={**os.environ, "PYTHONPATH": path})
    assert child.returncode == 0, child.stderr[-2000:]
    result = json.loads(child.stdout.splitlines()[-1])
    assert result["missing"] == []
    assert result["rcs"] == [0, 0, 0]
    assert set(result["fired"]) == {f"{m}.{f}" for m, f in _span_targets()}

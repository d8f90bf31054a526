"""The traced benchmark (``clibench/spans.py``) wraps idsfx functions by
module and name, and a target it cannot find fails its coverage check.  So
every target it lists must stay a callable of that idsfx module."""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "clibench" / "spans.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("clibench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, function) for module, function, *_ in spans.TARGETS]


@pytest.mark.parametrize("module,function", _span_targets())
def test_span_target_is_an_idsfx_callable(module, function):
    assert callable(getattr(importlib.import_module(f"idsfx.{module}"), function, None))

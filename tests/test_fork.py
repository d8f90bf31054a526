"""evaluate's baseline variant gives the same files and the same errors
whether it runs in a forked child or in-process, and leaves no child behind.

``runner._fork_baseline`` holds every fork decision; the tests patch it to
force either path, so they run on one CPU too.
"""

from __future__ import annotations

import importlib.util
import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from idsfx import classifiers, runner
from idsfx.cli import main
from idsfx.errors import DatasetError, DomainError

ROOT = Path(__file__).resolve().parent.parent
PATHS = {"in-process": False, "forked": True}
OUTPUTS = ("report.csv", "report.json", "pipeline.json")
THREE = ["gaussian_nb", "logistic_regression", "knn"]
DROPPED_ALL = ("error: stage 'pipeline_fit': stage 'drop_near_zero_mean': near-zero-mean "
               "drop removed every numeric column; lower the threshold\n")


def _generate():
    spec = importlib.util.spec_from_file_location("generate", ROOT / "clibench" / "generate.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _lookalike(work: Path, rows: int, picked=None) -> list[str]:
    """Write an NSL-KDD look-alike; returns evaluate's arguments bar ``--out``."""
    dataset = work / f"kdd-{rows}.csv"
    _generate().write(dataset, "nsl-kdd", rows, 3, "timed", 0)
    argv = ["evaluate", "--profile", "nsl-kdd", "--dataset", str(dataset),
            "--components", "30", "--select", "20", "--seed", "5", "--test-fraction", "0.5"]
    if picked:
        config = work / "config.json"
        config.write_text(json.dumps({"classifiers": picked}), encoding="utf-8")
        argv += ["--config", str(config)]
    return argv


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(params=sorted(PATHS))
def path(request, monkeypatch):
    monkeypatch.setattr(runner, "_fork_baseline", lambda: PATHS[request.param])
    return request.param


def _failing(monkeypatch, fails, action=None):
    """Make the (classifier, variant) pairs in ``fails`` raise, or run ``action``."""
    real = classifiers.train

    def train(spec, x, y):
        variant = "extracted" if x.names[0].startswith("component_") else "baseline"
        if (spec.algorithm, variant) in fails:
            if action is None:
                raise DomainError(f"{spec.algorithm} broke on the {variant} variant")
            action()
        return real(spec, x, y)
    monkeypatch.setattr(classifiers, "train", train)


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    return _lookalike(tmp_path_factory.mktemp("small"), 180)


class TestSameOutputs:
    @pytest.mark.parametrize("rows,picked", [(180, THREE), (3000, None)])
    def test_files_do_not_depend_on_the_path(self, tmp_path, monkeypatch, caplog, rows, picked):
        argv = _lookalike(tmp_path, rows, picked)
        caplog.set_level(logging.INFO, logger="idsfx")
        logged = {}
        for name, forked in PATHS.items():
            monkeypatch.setattr(runner, "_fork_baseline", lambda forked=forked: forked)
            caplog.clear()
            assert main([*argv, "--out", str(tmp_path / name)]) == 0
            logged[name] = sorted((r.name, r.levelname, r.getMessage())
                                  for r in caplog.records if r.name.startswith("idsfx"))
        a, b = (tmp_path / name for name in PATHS)
        for name in OUTPUTS:
            assert (a / name).read_bytes() == (b / name).read_bytes(), name
        assert (json.loads((a / "timings.json").read_text()).keys()
                == json.loads((b / "timings.json").read_text()).keys())
        assert logged["forked"] == logged["in-process"]      # each record once

    def test_decision(self, monkeypatch):
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        assert not runner._fork_baseline()
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert runner._fork_baseline()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")      # OpenBLAS's own setting wins
        assert not runner._fork_baseline()
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert runner._fork_baseline()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert not runner._fork_baseline()


class TestSameErrors:
    """Each message is the one the serial loop over sorted classifiers, baseline
    before extracted, printed; every error exits 1."""

    @pytest.mark.parametrize("fails,first", [
        ({("knn", "baseline")}, "knn/baseline"),
        ({("knn", "baseline"), ("gaussian_nb", "extracted")}, "gaussian_nb/extracted"),
        ({("gaussian_nb", "baseline"), ("knn", "extracted")}, "gaussian_nb/baseline"),
        ({("knn", "baseline"), ("knn", "extracted")}, "knn/baseline"),
        ({("random_forest", "extracted")}, "random_forest/extracted")])
    def test_first_failing_pair(self, small, tmp_path, monkeypatch, capsys, path, fails, first):
        _failing(monkeypatch, fails)
        assert main([*small, "--out", str(tmp_path / "run")]) == 1
        algo, variant = first.split("/")
        assert capsys.readouterr().err == (
            f"error: stage '{first}': {algo} broke on the {variant} variant\n")

    def test_baseline_error_waits_for_the_pipeline(self, small, tmp_path, monkeypatch,
                                                   capsys, path):
        def broken(x):
            raise DatasetError("no baseline")
        monkeypatch.setattr(runner, "baseline_fit", broken)
        assert main([*small, "--out", str(tmp_path / "a")]) == 1
        assert capsys.readouterr().err == "error: stage 'baseline_fit': no baseline\n"
        assert main([*small, "--out", str(tmp_path / "b"), "--threshold", "1e9"]) == 1
        assert capsys.readouterr().err == DROPPED_ALL

    def test_pipeline_error_stops_the_child(self, small, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(runner, "_fork_baseline", lambda: True)
        _failing(monkeypatch, {("decision_tree", "baseline")}, lambda: time.sleep(60))
        start = time.perf_counter()
        assert main([*small, "--out", str(tmp_path / "run"), "--threshold", "1e9"]) == 1
        assert time.perf_counter() - start < 30
        assert capsys.readouterr().err == DROPPED_ALL

    def test_killed_child(self, small, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(runner, "_fork_baseline", lambda: True)
        _failing(monkeypatch, {("knn", "baseline")}, lambda: os.kill(os.getpid(), 9))
        assert main([*small, "--out", str(tmp_path / "run")]) == 1
        assert capsys.readouterr().err == ("error: the baseline variant's process was "
                                           "killed by signal 9 before sending a result\n")


# Runs evaluate with the fork forced on (argv[1] "fork") or off.
CHILD = """
import sys
from idsfx import cli, runner
runner._fork_baseline = lambda: sys.argv[1] == "fork"
sys.exit(cli.main(sys.argv[2:]))
"""


@pytest.mark.skipif(len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
                    reason="two BLAS threads need two CPUs")
def test_fork_at_two_blas_threads(tmp_path):
    """Forking after OpenBLAS has started its 2-thread pool neither hangs nor
    changes a bit of the outputs."""
    argv = _lookalike(tmp_path, 600)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "2",
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                       os.environ.get("PYTHONPATH")]))}
    for mode in ("fork", "serial"):
        child = subprocess.run([sys.executable, "-c", CHILD, mode, *argv, "--out",
                                str(tmp_path / mode)], capture_output=True, text=True,
                               timeout=120, env=env)
        assert child.returncode == 0, child.stderr[-2000:]
    for name in OUTPUTS:
        assert (tmp_path / "fork" / name).read_bytes() == (tmp_path / "serial" / name).read_bytes()

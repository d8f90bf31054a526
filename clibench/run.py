"""End-to-end benchmark of the idsfx command line.

    python3 clibench/run.py --workload kdd-evaluate --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program under test is ``src/``.
One client drives ``idsfx.cli.main`` in worker processes as a closed loop, one
operation at a time, on files generated from ``--seed``; see README.md for the
workloads and metrics.  With ``--trace 0`` it prints the end-to-end metrics;
with ``--trace 1`` it runs every operation twice, in a plain and in a traced
worker, and prints the per-layer metrics.  Every operation's outputs are
checked.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import numpy as np  # noqa: E402  (after the BLAS thread count is fixed)

import checks  # noqa: E402
import generate  # noqa: E402
import metrics  # noqa: E402
import spans  # noqa: E402

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
SETUPS = 3           # set-ups per untraced run; setup_s is their median
MIN_OPS = 2          # traced operations every traced run makes
OP_TIMEOUT_S = 150.0
DEADLINE_S = 120.0   # no timed operation starts later than this into a run
U, V = 30, 20        # NMF components and selected features
TEST_FRACTION = 0.5  # half the rows train, so the SVM kernel runs shorter


@dataclass(frozen=True)
class Workload:
    shape: str
    rows: int
    classifiers: tuple[str, ...] = ()   # empty: the operation is `transform`
    fit_rows: int = 0                   # `transform`: rows the set-up fits on


WORKLOADS = {
    # all six classifiers on a small table: the interpreted kernels dominate
    "kdd-evaluate": Workload("nsl-kdd", 180, metrics.ALGORITHMS),
    # the numpy layers at scale, no kernel-backed classifier
    "kdd-scale": Workload("nsl-kdd", 6000, ("gaussian_nb", "logistic_regression", "knn")),
    # the scoring path: load, apply a fitted pipeline, write the matrix
    "cicids-transform": Workload("cicids2017", 10000, fit_rows=5000),
}


class Worker:
    """A worker process (worker.py) and its request/reply pipes."""

    def __init__(self, work: Path, name: str, traced: bool = False) -> None:
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        cmd = [sys.executable, str(BENCH / "worker.py"),
               str(work / f"{name}.out.log"), str(work / f"{name}.err.log")]
        self.err_log = work / f"{name}.err.log"
        self.proc = subprocess.Popen(cmd + (["--trace"] if traced else []), env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)
        hello = self._reply()
        if not hello.get("ready"):
            self.close()
            raise RuntimeError(f"worker did not start:\n{hello.get('error')}")
        self.missing = hello["missing"]

    def _reply(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], OP_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            self.close()
            tail = self.err_log.read_text(errors="replace")[-2000:] if self.err_log.exists() else ""
            raise RuntimeError(f"worker gave no reply\n{tail}")
        return json.loads(line)

    def run(self, argv: list[str]) -> dict:
        self.proc.stdin.write(json.dumps({"argv": argv}) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.close()
                self.proc.wait(timeout=30)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


class Run:
    """One benchmark run: inputs, operations, checks and their tallies."""

    def __init__(self, name: str, seed: int, work: Path) -> None:
        self.name, self.wl, self.seed, self.work = name, WORKLOADS[name], seed, work
        self.started = time.perf_counter()
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.quality: list[float] = []    # per checked timed operation
        self.input_bytes: list[int] = []  # per timed operation
        self.config = None
        if self.wl.classifiers and set(self.wl.classifiers) != set(metrics.ALGORITHMS):
            self.config = work / "run_config_in.json"
            self.config.write_text(json.dumps({"classifiers": list(self.wl.classifiers)}))

    def make_input(self, stream: str, index: int) -> tuple[Path, np.ndarray]:
        path = self.work / f"{stream}-{index}.csv"
        rows = self.wl.fit_rows if stream == "prereq" else self.wl.rows
        size, y = generate.write(path, self.wl.shape, rows, self.seed, stream, index)
        if stream == "timed":
            self.input_bytes.append(size)
        return path, y

    def argv(self, dataset: Path, out: Path, pipeline: Path | None = None) -> list[str]:
        """The operation's command line: `transform` when given a fitted
        pipeline, else the workload's `evaluate`, or `fit` for `transform`."""
        if pipeline is not None:
            # each operation reads its own copy, so no operation rereads a file
            out.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(pipeline, out / "pipeline.json")
            return ["transform", "--profile", self.wl.shape, "--pipeline",
                    str(out / "pipeline.json"), "--dataset", str(dataset), "--out", str(out)]
        common = ["--profile", self.wl.shape, "--dataset", str(dataset),
                  "--components", str(U), "--select", str(V), "--out", str(out)]
        if not self.wl.classifiers:
            return ["fit"] + common
        return (["evaluate"] + common + ["--test-fraction", str(TEST_FRACTION)]
                + (["--config", str(self.config)] if self.config else []))

    def operation(self, worker: Worker, argv: list[str], out: Path,
                  y: np.ndarray | None, timed: bool) -> dict:
        """Run one operation and check what it wrote."""
        self.attempted += 1
        reply = worker.run(argv)
        errors, quality = [], 0.0
        if reply["rc"] != 0:
            tail = worker.err_log.read_text(errors="replace")[-1000:]
            errors.append(f"{argv[0]} exited {reply['rc']}: {reply['error'] or tail}")
        elif argv[0] in ("fit", "evaluate"):
            errors += checks.check_pipeline(out / "pipeline.json")
        if not errors and argv[0] == "evaluate":
            counts = np.bincount(y).tolist()
            report_errors, quality = checks.check_report(
                out / "report.json", list(self.wl.classifiers),
                checks.n_test_rows(counts, TEST_FRACTION))
            errors += report_errors
        elif not errors and argv[0] == "transform":
            transformed_errors, x = checks.check_transformed(
                out / "transformed.csv", len(y), V)
            errors += transformed_errors
            quality = checks.centroid_accuracy(x, y) if x is not None else 0.0
        if errors:
            self.errors += errors
            self.failed += 1
        elif timed and argv[0] != "fit":
            self.quality.append(quality)
        reply["ok"] = not errors
        return reply

    def late(self) -> bool:
        """Whether the run is too far along to start another timed operation."""
        return time.perf_counter() - self.started > DEADLINE_S

    def prerequisite(self) -> Path | None:
        """For `transform`: fit a pipeline in a process of its own, on the
        file written by ``make_input("prereq", 0)``."""
        if self.wl.classifiers:
            return None
        dataset = self.work / "prereq-0.csv"
        out = self.work / f"prereq-{self.attempted}"
        fitter = Worker(self.work, out.name)
        try:
            self.operation(fitter, self.argv(dataset, out), out, None, timed=False)
        finally:
            fitter.close()
        return out / "pipeline.json"


def untraced_run(run: Run, seconds: float) -> dict[str, float]:
    """Set up a worker, give it a third of the timed operations, and again
    twice.  Set-ups and timed operations are spread over the whole run, so
    their medians span the machine's slow and fast spells alike."""
    warm_input, warm_y = run.make_input("warmup", 0)
    if run.wl.fit_rows:
        run.make_input("prereq", 0)
    setups, walls, rss, spent, i = [], [], [], 0.0, 0
    for k in range(SETUPS):
        t0 = time.perf_counter()
        pipeline = run.prerequisite()
        worker = Worker(run.work, f"worker-{k}")
        try:
            out = run.work / f"warmup-out-{k}"
            run.operation(worker, run.argv(warm_input, out, pipeline), out, warm_y,
                          timed=False)
            setups.append(time.perf_counter() - t0)
            while True:
                dataset, y = run.make_input("timed", i)
                out = run.work / f"timed-out-{i}"
                reply = run.operation(worker, run.argv(dataset, out, pipeline), out, y,
                                      timed=True)
                # a failed operation still took the user's time; the run is
                # marked incorrect all the same
                spent += reply["wall_s"]
                walls.append(reply["wall_s"])
                rss.append(reply["maxrss_mb"])
                shutil.rmtree(out, ignore_errors=True)
                dataset.unlink()
                i += 1
                if spent >= (k + 1) * seconds / SETUPS or run.late():
                    break
        finally:
            worker.close()

    report("wall_s", walls)
    report("setup_s", setups)
    return metrics.end_to_end(run.wl.rows, walls, setups, rss, run.quality)


def traced_run(run: Run, seconds: float) -> dict[str, float]:
    if run.wl.fit_rows:
        run.make_input("prereq", 0)
    pipeline = run.prerequisite()
    workers = []
    try:
        plain = Worker(run.work, "untraced")
        workers.append(plain)
        traced = Worker(run.work, "traced", traced=True)
        workers.append(traced)
        run.errors += [f"wrapped call site {m} no longer exists" for m in traced.missing]
        warm_input, warm_y = run.make_input("warmup", 0)
        for k, w in enumerate((plain, traced)):
            out = run.work / f"warmup-out-{k}"
            run.operation(w, run.argv(warm_input, out, pipeline), out, warm_y, timed=False)

        untraced_ops, traced_ops, spent, i = [], [], 0.0, 0
        while i < MIN_OPS or (spent < seconds and not run.late()):
            dataset, y = run.make_input("timed", i)
            out = run.work / f"timed-out-{i}"
            # alternate which side goes first, so neither always runs on a
            # freshly written input
            first, second = (plain, traced) if i % 2 == 0 else (traced, plain)
            replies = {first: run.operation(first, run.argv(dataset, out, pipeline),
                                            out, y, timed=first is plain)}
            moved = out.rename(out.with_name(out.name + "-first"))
            replies[second] = run.operation(second, run.argv(dataset, out, pipeline),
                                            out, y, timed=second is plain)
            plain_op, traced_op = replies[plain], replies[traced]
            if plain_op["ok"] and traced_op["ok"]:
                mismatch = checks.same_files(moved, out)
                run.errors += mismatch
                run.failed += bool(mismatch)
                untraced_ops.append(plain_op)
                traced_ops.append(traced_op)
            spent += plain_op["wall_s"] + traced_op["wall_s"]
            shutil.rmtree(out, ignore_errors=True)
            shutil.rmtree(moved, ignore_errors=True)
            dataset.unlink()
            i += 1
    finally:
        for worker in workers:
            worker.close()
    if not traced_ops:
        raise RuntimeError("no timed operation succeeded")

    fired = {span[0] for op in traced_ops for span in op["spans"]}
    run.errors += spans.coverage_errors(run.name, fired)
    values = metrics.layer_metrics(traced_ops, untraced_ops, MIN_OPS)
    report("traced wall_s", [op["wall_s"] for op in traced_ops])
    report("untraced wall_s", [op["wall_s"] for op in untraced_ops])
    own = [metrics.module_self(op["spans"]) for op in traced_ops]
    print("self time by module, median s: " + ", ".join(
        f"{m} {statistics.median(o[m] for o in own):.4f}" for m in metrics.MODULES))
    note = reason_check(run.name, values)
    if note:
        print(f"reason check: {note}")
    return values


# The module each workload was built around: it should hold the largest
# self-time share.  A miss is reported, not failed, because a change that
# speeds up that module is expected to move the largest share elsewhere.
REASONS = {"kdd-evaluate": "kernels", "cicids-transform": "data"}


def reason_check(workload: str, values: dict[str, float]) -> str | None:
    expect = REASONS.get(workload)
    if expect is None:
        return None
    shares = {m: values[f"share.{m}"] for m in metrics.MODULES}
    top = max(shares, key=shares.get)
    verdict = "holds" if top == expect else "does not hold"
    return (f"{verdict}: {top} has the largest self-time share on {workload} "
            f"({shares[top]:.3f}; {expect} {shares[expect]:.3f})")


def report(name: str, values: list[float]) -> None:
    median, q1, q3 = metrics.summary(values)
    print(f"{name}: median {median:.4f} s, quartiles {q1:.4f}..{q3:.4f}, n={len(values)}")


def environment(run: Run) -> dict:
    import idsfx.kernels

    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha, "src_sha256": src.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}", "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(), "kernels_backend": idsfx.kernels.backend_name(),
        "workload": run.name, "seed": run.seed, "rows_per_op": run.wl.rows,
        "bytes_per_op": run.input_bytes,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "idsfx" / "cli.py").is_file():
        print(f"error: no idsfx source under {ROOT / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    work = ROOT / ".clibench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    run = Run(args.workload, args.seed, work)
    try:
        if args.trace:
            values, table = traced_run(run, args.seconds), metrics.PER_LAYER
        else:
            values, table = untraced_run(run, args.seconds), metrics.END_TO_END
    except RuntimeError as exc:
        print(f"error: {exc}\nlogs kept in {work}", file=sys.stderr)
        return 1
    for err in run.errors:
        print(f"check failed: {err}", file=sys.stderr)
    for name, (unit, _) in table.items():
        print(f"{name} = {values[name]:.6g} {unit}")
    print("env " + json.dumps(environment(run), sort_keys=True))
    if not run.errors:
        shutil.rmtree(work)
        try:
            work.parent.rmdir()
        except OSError:  # another run is using it
            pass
    print(json.dumps({
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in table.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Peak and retained memory of idsfx commands.

    python3 tests/rss_probe.py [--ops 60] [--seed 1] [--rows 180]
        [--classifiers gaussian_nb,logistic_regression,knn]
    python3 tests/rss_probe.py --command fit|transform|evaluate
        [--shape nsl-kdd|cicids2017] [--rows 170366] [--seed 1]
        [--classifiers ...] [--test-fraction 0.5]

Without ``--command`` it writes NSL-KDD look-alikes with
``clibench/generate.py`` (one file per operation, as the ``kdd-evaluate`` and
``kdd-scale`` workloads do) and runs ``idsfx evaluate`` on them with those
workloads' arguments, one after another in this fresh process, after one
warm-up operation.  ``--classifiers`` picks the classifiers (all six by
default), so ``--rows 6000 --classifiers gaussian_nb,logistic_regression,knn``
replays ``kdd-scale``'s mix.  Every 10 operations it prints the process's
peak resident set (VmHWM) and glibc's heap in use (``mallinfo2``'s
``uordblks``), so a rise in either can be read over more operations than a
20 s benchmark run makes.  VmHWM includes the generator, which writes each
input in this same process.

``--command`` runs one command once on one look-alike of ``--shape`` with
``--rows`` rows, written in a child process (which also fits the pipeline
that ``transform`` applies), so the VmHWM is the command's own.  It prints
the VmHWM each time ``load_csv``, the pipeline's impute/encode, TF-IDF,
``nmf_fit`` or ``nmf_transform`` returns (and, in ``evaluate``, the
baseline's and each classifier's train and predict), and at the end.  Set
``OPENBLAS_NUM_THREADS=1`` to measure at one BLAS thread.

The program's output and log lines are dropped.  This is a script, not a
test; ``heap_in_use`` is also what the retained-heap test reads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import logging
import multiprocessing
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


class _MallInfo2(ctypes.Structure):
    _fields_ = [(name, ctypes.c_size_t) for name in (
        "arena", "ordblks", "smblks", "hblks", "hblkhd", "usmblks", "fsmblks",
        "uordblks", "fordblks", "keepcost")]


def _mallinfo2():
    try:
        fn = ctypes.CDLL(None).mallinfo2
    except (OSError, AttributeError):
        return None
    fn.argtypes = []
    fn.restype = _MallInfo2
    return fn


_MALLINFO2 = _mallinfo2()


def heap_in_use() -> int | None:
    """Bytes of glibc heap in use, or None where glibc's mallinfo2 is absent."""
    return None if _MALLINFO2 is None else int(_MALLINFO2().uordblks)


def peak_rss_kb() -> int | None:
    """This process's VmHWM in kB, or None where /proc is absent."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return None


def _import_paths() -> None:
    sys.path.insert(0, str(ROOT / "clibench"))
    sys.path.insert(0, str(ROOT / "src"))


def _quiet_main(argv: list[str]) -> None:
    """``idsfx.cli.main`` with its output dropped; exits unless it returns 0."""
    from idsfx import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        raise SystemExit(f"{argv[0]} exited {rc}")


def _prepare(dataset: Path, shape: str, rows: int, seed: int, fit_argv: list[str]) -> None:
    """Child process: write the look-alike and, given ``fit_argv``, fit on it."""
    _import_paths()
    import generate

    logging.disable(logging.WARNING)
    generate.write(dataset, shape, rows, seed, "timed", 0)
    if fit_argv:
        _quiet_main(fit_argv)


def _hook_stages() -> None:
    """Print the VmHWM each time one of the command's stages returns."""
    from idsfx import classifiers, cli, pipeline, runner

    out = sys.stdout      # the command's own output is redirected

    def hooked(module, name, label, by_algorithm=False):
        fn = getattr(module, name)

        def stage(*args, **kwargs):
            result = fn(*args, **kwargs)
            text = f"{label} {args[0].algorithm}" if by_algorithm else label
            print(f"{text:<28} {peak_rss_kb() / 1024:>10.1f}", file=out, flush=True)
            return result
        setattr(module, name, stage)

    hooked(cli, "load_csv", "load_csv")
    hooked(pipeline, "baseline_fit", "impute_encode")
    hooked(pipeline, "baseline_transform", "impute_encode")
    hooked(pipeline, "tfidf_apply", "tfidf")
    hooked(pipeline, "nmf_fit", "nmf_fit")
    hooked(pipeline, "nmf_transform", "nmf_transform")
    hooked(runner, "baseline_fit", "baseline_fit")
    hooked(runner, "baseline_transform", "baseline_transform")
    hooked(classifiers, "train", "train", by_algorithm=True)
    hooked(classifiers, "predict", "predict", by_algorithm=True)


def run_command(args, work: Path, picked: list[str]) -> None:
    dataset, run = work / f"{args.shape}-{args.rows}.csv", work / "run"
    common = [*picked, "--profile", args.shape, "--dataset", str(dataset),
              "--components", "30", "--select", "20", "--out", str(run)]
    if args.command == "transform":
        argv = ["transform", "--profile", args.shape, "--pipeline",
                str(run / "pipeline.json"), "--dataset", str(dataset),
                "--out", str(work / "transformed")]
    elif args.command == "evaluate":
        argv = ["evaluate", *common, "--test-fraction", str(args.test_fraction)]
    else:
        argv = ["fit", *common]
    child = multiprocessing.get_context("spawn").Process(
        target=_prepare, args=(dataset, args.shape, args.rows, args.seed,
                               ["fit", *common] if args.command == "transform" else []))
    child.start()
    child.join()
    if child.exitcode != 0:
        raise SystemExit(f"preparing {dataset.name} exited {child.exitcode}")
    _hook_stages()
    print(f"{'after':<28} {'VmHWM_MB':>10}")
    _quiet_main(argv)
    print(f"{'end':<28} {peak_rss_kb() / 1024:>10.1f}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rows", type=int, default=180)
    parser.add_argument("--classifiers", default=None,
                        help="comma-separated classifiers (default: all six)")
    parser.add_argument("--command", choices=("fit", "transform", "evaluate"),
                        help="run this command once and print the VmHWM by stage")
    parser.add_argument("--shape", choices=("nsl-kdd", "cicids2017"), default="nsl-kdd",
                        help="--command's look-alike (default: nsl-kdd)")
    parser.add_argument("--test-fraction", type=float, default=0.5, dest="test_fraction",
                        help="--command evaluate's test fraction (default: 0.5)")
    args = parser.parse_args(argv)

    _import_paths()
    import generate

    logging.disable(logging.WARNING)   # the program's own log lines
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        picked = []
        if args.classifiers:
            config = work / "config.json"
            config.write_text(json.dumps({"classifiers": args.classifiers.split(",")}))
            picked = ["--config", str(config)]
        if args.command:
            run_command(args, work, picked)
            return 0

        def evaluate(stream: str, index: int) -> None:
            dataset = work / f"{stream}-{index}.csv"
            generate.write(dataset, "nsl-kdd", args.rows, args.seed, stream, index)
            _quiet_main(["evaluate", *picked, "--profile", "nsl-kdd",
                         "--dataset", str(dataset), "--components", "30",
                         "--select", "20", "--out", str(work / "out"),
                         "--test-fraction", "0.5"])
            dataset.unlink()

        evaluate("warmup", 0)
        print(f"{'ops':>5} {'VmHWM_kB':>10} {'heap_in_use_kB':>15}")
        for i in range(1, args.ops + 1):
            evaluate("timed", i - 1)
            if i % 10 == 0 or i == args.ops:
                heap = heap_in_use()
                print(f"{i:>5} {peak_rss_kb()!s:>10} "
                      f"{'n/a' if heap is None else heap // 1024:>15}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

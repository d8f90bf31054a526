"""Peak and retained memory of repeated evaluates in one process.

    python3 tests/rss_probe.py [--ops 60] [--seed 1] [--rows 180]
        [--classifiers gaussian_nb,logistic_regression,knn]

Writes NSL-KDD look-alikes with ``clibench/generate.py`` (one file per
operation, as the ``kdd-evaluate`` and ``kdd-scale`` workloads do) and runs
``idsfx evaluate`` on them with those workloads' arguments, one after another
in this fresh process, after one warm-up operation.  ``--classifiers`` picks
the classifiers (all six by default), so ``--rows 6000 --classifiers
gaussian_nb,logistic_regression,knn`` replays ``kdd-scale``'s mix.  Every 10
operations it prints the process's peak resident set (VmHWM) and glibc's heap
in use (``mallinfo2``'s ``uordblks``), so a rise in either can be read over
more operations than a 20 s benchmark run makes.  VmHWM includes the
generator, which writes each input in this same process.  The program's
output and log lines are dropped.  This is a script, not a test;
``heap_in_use`` is also what the retained-heap test reads.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import logging
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


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=60)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rows", type=int, default=180)
    parser.add_argument("--classifiers", default=None,
                        help="comma-separated classifiers (default: all six)")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "clibench"))
    sys.path.insert(0, str(ROOT / "src"))
    import generate
    from idsfx import cli

    logging.disable(logging.WARNING)   # the program's own log lines
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        picked = []
        if args.classifiers:
            config = work / "config.json"
            config.write_text(json.dumps({"classifiers": args.classifiers.split(",")}))
            picked = ["--config", str(config)]

        def evaluate(stream: str, index: int) -> None:
            dataset = work / f"{stream}-{index}.csv"
            generate.write(dataset, "nsl-kdd", args.rows, args.seed, stream, index)
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["evaluate", *picked, "--profile", "nsl-kdd",
                               "--dataset", str(dataset), "--components", "30",
                               "--select", "20", "--out", str(work / "out"),
                               "--test-fraction", "0.5"])
            if rc != 0:
                raise SystemExit(f"evaluate exited {rc} on {dataset.name}")
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

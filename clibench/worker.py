"""One benchmark worker: a fresh interpreter that runs ``idsfx.cli.main`` once
per request, as the ``idsfx`` command would.

    python3 clibench/worker.py OUT_LOG ERR_LOG [--trace]

Requests arrive on stdin, one JSON object per line: {"argv": [...]}.  Each
reply is one JSON line on the original stdout with the exit code, wall and CPU
seconds, the log lines the operation wrote, the peak RSS so far and, with
``--trace``, the operation's spans.  The program's own stdout and stderr,
logging included, go to OUT_LOG and ERR_LOG.  The worker exits at EOF.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback


def _redirect(fd: int, path: str) -> None:
    target = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    os.dup2(target, fd)
    os.close(target)


def main(argv: list[str]) -> int:
    out_log, err_log = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    reply = os.fdopen(os.dup(1), "w", buffering=1, encoding="utf-8")
    sys.stdout.flush()
    sys.stderr.flush()
    _redirect(1, out_log)
    _redirect(2, err_log)

    tracer = None
    try:
        import idsfx.cli
        if traced:
            import spans
            tracer = spans.Tracer()
            missing = spans.install(tracer)
        else:
            missing = []
    except Exception:
        reply.write(json.dumps({"ready": False, "error": traceback.format_exc()}) + "\n")
        return 1
    reply.write(json.dumps({"ready": True, "missing": missing}) + "\n")

    log_offset = os.path.getsize(err_log)
    for line in sys.stdin:
        request = json.loads(line)
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            rc = idsfx.cli.main(request["argv"])
        except SystemExit as exc:  # argparse rejects the arguments
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            rc, error = -1, traceback.format_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        sys.stdout.flush()
        sys.stderr.flush()
        with open(err_log, "rb") as fh:
            fh.seek(log_offset)
            written = fh.read()
        log_offset += len(written)
        reply.write(json.dumps({
            "rc": rc, "wall_s": wall, "cpu_s": cpu, "error": error,
            "log_lines": written.count(b"\n"),
            "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "spans": tracer.take() if tracer else [],
        }) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

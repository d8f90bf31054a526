"""Dual-variant evaluation: every classifier is trained on the raw
preprocessed features (baseline) and on the pipeline-extracted features over
the same split and seed, so the reported accuracy delta is apples-to-apples.

The baseline is ``preprocess.baseline_fit``/``baseline_transform``, the same
impute-and-encode step the pipeline runs after its near-zero-mean drop.
"""

from __future__ import annotations

import logging
import os
import pickle

from . import classifiers as clf
from .data import Dataset, require_label, split_xy, train_test_split
from .errors import ConfigError, PipelineError
from .evaluate import EvalReport, accuracy, confusion
from .pipeline import FittedPipeline, PipelineConfig, pipeline_fit, pipeline_transform, stage
from .preprocess import baseline_fit, baseline_transform, encode_labels

log = logging.getLogger(__name__)


def check_algorithms(algorithms: list[str]) -> None:
    """Raise ConfigError unless the names are known classifiers, at least one,
    each given once."""
    if not algorithms:
        raise ConfigError(f"no classifier given; choose from {list(clf.ALGORITHMS)}")
    for a in algorithms:
        if a not in clf.ALGORITHMS:
            raise ConfigError(f"unknown classifier {a!r}; choose from {list(clf.ALGORITHMS)}")
    repeated = sorted({a for a in algorithms if algorithms.count(a) > 1})
    if repeated:
        raise ConfigError(f"classifier(s) {', '.join(map(repr, repeated))} "
                          "listed more than once")


def _fork_baseline() -> bool:
    """Fork only where each process gets a core: 2+ CPUs and BLAS on one thread."""
    threads = os.environ.get("OPENBLAS_NUM_THREADS", os.environ.get("OMP_NUM_THREADS"))
    return (threads == "1" and hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def _score(algorithms, variant, x_train, x_test, y_train, seed, timings):
    """Train and predict every classifier on one variant, timing each into
    ``timings``; returns the predictions and the first error, which ends the loop."""
    preds = {}
    for algo in algorithms:
        try:
            with stage(f"{algo}/{variant}", timings):
                model = clf.train(clf.ClassifierSpec(algorithm=algo, seed=seed), x_train, y_train)
                preds[algo] = clf.predict(model, x_test)
        except Exception as exc:
            return preds, exc
    return preds, None


def _fork(*args):
    """Run ``_score(*args)`` in a forked child, which pickles its result, its copy
    of the timings and its log records into a pipe; returns its pid and read end."""
    r, w = os.pipe()
    pid = os.fork()
    if pid:
        os.close(w)
        return pid, os.fdopen(r, "rb")
    try:
        records = []
        logging.Logger.handle = lambda self, record: records.append(record)
        result = _score(*args)
        for record in records:
            record.msg, record.args = record.getMessage(), None
        with os.fdopen(w, "wb") as pipe:
            pickle.dump((result, args[-1], records), pipe)
        os._exit(0)
    finally:
        os._exit(1)


def run_evaluation(d: Dataset, cfg: PipelineConfig,
                   algorithms: list[str] | None = None,
                   test_fraction: float = 0.25, dataset_id: str = "dataset"
                   ) -> tuple[EvalReport, FittedPipeline, dict[str, float]]:
    """Train/score every classifier twice (baseline vs extracted features).

    The split and the classifiers are seeded with ``cfg.seed``.  Returns the
    report, the fitted pipeline and the wall-clock timings of each step; an
    error names the step, and a dataset without labels is refused before the
    first.  Timings live outside the report so report files stay
    byte-reproducible.  ``d`` is let go after the split, before the pipeline.
    The baseline variant runs first, in a forked child where ``_fork_baseline``
    allows.  Outputs and errors do not depend on where it ran: the pipeline's
    stages fail first, then the baseline's, then the pairs in report order.
    """
    algorithms = list(clf.ALGORITHMS if algorithms is None else algorithms)
    check_algorithms(algorithms)
    algorithms.sort()
    cfg.validate()
    require_label(d)
    timings: dict[str, float] = {}

    with stage("split", timings):
        train_d, test_d = train_test_split(d, test_fraction, cfg.seed)
        del d           # the split copied its rows
        x_train, y_train_tokens = split_xy(train_d)
        x_test, y_test_tokens = split_xy(test_d)
    held = pid = pipe = None
    try:
        with stage("baseline_fit", timings):
            bm, x_train_base = baseline_fit(x_train)
            y_train, _ = encode_labels(y_train_tokens)
        with stage("baseline_transform", timings):
            x_test_base = baseline_transform(bm, x_test)
    except Exception as exc:
        held = exc      # raised once the pipeline's stages pass
    else:
        args = (algorithms, "baseline", x_train_base, x_test_base, y_train, cfg.seed, timings)
        if _fork_baseline():
            pid, pipe = _fork(*args)
        else:
            baseline = _score(*args)
        del args, x_train_base, x_test_base
    try:
        with stage("pipeline_fit", timings):
            fp, x_train_ext, _ = pipeline_fit(train_d, cfg)
        with stage("pipeline_transform", timings):
            y_test = fp.label_encoder.encode(y_test_tokens)
            x_test_ext = pipeline_transform(fp, x_test)
        if held is not None:
            raise held
        extracted = _score(algorithms, "extracted", x_train_ext, x_test_ext, y_train,
                           cfg.seed, timings)
        if pid is not None:
            with pipe:              # to EOF before reaping: the result can outgrow the pipe
                data = pipe.read()
    except BaseException:
        if pid is not None:         # no child outlives the error
            pipe.close()
            os.kill(pid, 9)         # SIGKILL
            os.waitpid(pid, 0)
        raise
    if pid is not None:
        code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if code:
            cause = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
            raise PipelineError(f"the baseline variant's process {cause} before sending a result")
        baseline, child_timings, records = pickle.loads(data)
        timings.update(child_timings)
        for record in records:      # each reaches the handlers once
            logging.getLogger(record.name).handle(record)

    k = len(fp.label_encoder.classes)
    report = EvalReport(dataset_id=dataset_id, config=cfg.to_dict())
    sides = {"baseline": baseline, "extracted": extracted}
    for algo in algorithms:
        report.accuracies[algo] = {}
        report.confusions[algo] = {}
        for variant in sorted(sides):
            preds, error = sides[variant]
            if algo not in preds:       # the first failing pair in report order
                raise error
            acc = accuracy(preds[algo], y_test)
            report.accuracies[algo][variant] = acc
            report.confusions[algo][variant] = confusion(preds[algo], y_test, k).tolist()
            log.info("%s/%s: accuracy %.4f", algo, variant, acc)
    return report, fp, timings

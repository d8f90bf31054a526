"""Dual-variant evaluation: every classifier is trained on the raw
preprocessed features (baseline) and on the pipeline-extracted features over
the same split and seed, so the reported accuracy delta is apples-to-apples.

The baseline is ``preprocess.baseline_fit``/``baseline_transform``, the same
impute-and-encode step the pipeline runs after its near-zero-mean drop.
"""

from __future__ import annotations

import logging

from . import classifiers as clf
from .data import Dataset, require_label, split_xy, train_test_split
from .errors import ConfigError
from .evaluate import EvalReport, accuracy, confusion
from .pipeline import FittedPipeline, PipelineConfig, pipeline_fit, pipeline_transform, stage
from .preprocess import baseline_fit, baseline_transform

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
        x_train, _ = split_xy(train_d)
        x_test, y_test_tokens = split_xy(test_d)
    with stage("pipeline_fit", timings):
        fp, x_train_ext, y_train = pipeline_fit(train_d, cfg)
    with stage("pipeline_transform", timings):
        y_test = fp.label_encoder.encode(y_test_tokens)
        x_test_ext = pipeline_transform(fp, x_test)
    with stage("baseline_fit", timings):
        bm, x_train_base = baseline_fit(x_train)
    with stage("baseline_transform", timings):
        x_test_base = baseline_transform(bm, x_test)

    k = len(fp.label_encoder.classes)
    report = EvalReport(dataset_id=dataset_id, config=cfg.to_dict())
    variants = {
        "baseline": (x_train_base, x_test_base),
        "extracted": (x_train_ext, x_test_ext),
    }
    for algo in algorithms:
        report.accuracies[algo] = {}
        report.confusions[algo] = {}
        for variant in sorted(variants):
            xtr, xte = variants[variant]
            with stage(f"{algo}/{variant}", timings):
                model = clf.train(clf.ClassifierSpec(algorithm=algo, seed=cfg.seed),
                                  xtr, y_train)
                pred = clf.predict(model, xte)
            acc = accuracy(pred, y_test)
            report.accuracies[algo][variant] = acc
            report.confusions[algo][variant] = confusion(pred, y_test, k).tolist()
            log.info("%s/%s: accuracy %.4f", algo, variant, acc)
    return report, fp, timings

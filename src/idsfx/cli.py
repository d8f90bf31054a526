"""Command-line front end.

Subcommands: inspect, fit, transform, evaluate, corr, chi2.  Runs are driven
by a JSON config file (--config) with CLI flags overriding file values; the
fully resolved config is echoed into the output directory so every run can be
replayed; ``--seed`` and a top-level ``seed`` set ``pipeline.seed``.  Exit
codes: 0 success, 2 usage/config error or empty dataset, 1 runtime error.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .classifiers import ALGORITHMS
from .data import ColumnKind, Profile, load_csv, split_xy
from .errors import ConfigError, EmptyDatasetError, IdsfxError
from .evaluate import export_report, pearson_corr
from .matrix import write_csv
from .pipeline import (PipelineConfig, check_field_types, pipeline_fit,
                       pipeline_load, pipeline_save, pipeline_transform)
from .preprocess import baseline_fit, describe, encode_labels
from .runner import check_algorithms, run_evaluation
from .select import chi2_scores, report_to_csv, select_k_best

log = logging.getLogger(__name__)

_PROFILES = [p.value for p in Profile]


@dataclass
class RunConfig:
    dataset: str = ""
    profile: str = "generic"
    out: str = "runs/out"
    test_fraction: float = 0.25
    classifiers: list[str] = field(default_factory=lambda: list(ALGORITHMS))
    pipeline: PipelineConfig = field(default_factory=PipelineConfig)

    def to_dict(self) -> dict:
        return {**asdict(self), "pipeline": self.pipeline.to_dict()}


def _check_keys(d: dict, known, where: str) -> None:
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ConfigError(f"unknown {where} key(s): {', '.join(map(repr, unknown))}")


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise ConfigError(f"config file not found: {path}")
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(doc, dict):
            raise ConfigError("config file must hold a JSON object")
        known = cfg.to_dict()
        _check_keys(doc, [*known, "seed"], "config")
        for name in ("dataset", "profile", "out", "test_fraction", "classifiers"):
            setattr(cfg, name, doc.get(name, getattr(cfg, name)))
        pipe = doc.get("pipeline", {})
        cfg.pipeline = PipelineConfig.from_dict(pipe)
        _check_keys(pipe, known["pipeline"], "pipeline")
        # nmf.r and nmf.seed are accepted and ignored, as in 1.0 pipeline files
        _check_keys(pipe.get("nmf", {}), [*known["pipeline"]["nmf"], "r", "seed"], "pipeline.nmf")
        if "seed" in doc:
            if doc["seed"] != pipe.get("seed", doc["seed"]):
                raise ConfigError(f"seed {doc['seed']!r} and pipeline.seed "
                                  f"{pipe['seed']!r} differ; give one")
            cfg.pipeline.seed = doc["seed"]

    # each flag's dest is the name of the field it overrides
    for target in (cfg, cfg.pipeline):
        for f in fields(target):
            if getattr(args, f.name, None) is not None:
                setattr(target, f.name, getattr(args, f.name))
    check_field_types(cfg)
    if cfg.profile not in _PROFILES:
        raise ConfigError(f"unknown profile {cfg.profile!r}")
    if not 0 < cfg.test_fraction < 1:    # NaN fails too
        raise ConfigError(f"test_fraction must be in (0,1), got {cfg.test_fraction}")
    if not isinstance(cfg.classifiers, list):
        raise ConfigError(f"classifiers must be a list of {list(ALGORITHMS)}, "
                          f"got {cfg.classifiers!r}")
    check_algorithms(cfg.classifiers)
    if not cfg.dataset:
        raise ConfigError("no dataset given; use --dataset or a config file")
    cfg.pipeline.validate()
    return cfg


def _out_dir(cfg: RunConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "run_config.json").write_text(
        json.dumps(cfg.to_dict(), sort_keys=True, indent=1) + "\n", encoding="utf-8")
    return out


def cmd_inspect(args) -> int:
    d = load_csv(args.dataset, args.profile or "generic")
    print(f"rows: {d.n_rows}")
    label = d.label_column
    if label is not None:
        tokens = d.columns[label].astype(str)
        classes, counts = np.unique(tokens, return_counts=True)
        print(f"label column: {label}")
        print(f"classes: {classes.size}")
        order = np.argsort(-counts, kind="stable")
        for i in order:
            print(f"  {classes[i]}: {counts[i]}")
    x = d if label is None else split_xy(d)[0]
    stats = describe(x)
    print("columns:")
    for spec in x.schema:
        if spec.kind == ColumnKind.NUMERIC:
            s = stats.numeric[spec.name]
            print(f"  {spec.name} numeric count={s['count']:.0f} mean={s['mean']:.6g} "
                  f"std={s['std']:.6g} min={s['min']:.6g} max={s['max']:.6g} "
                  f"missing={s['missing']:.0f}")
        elif spec.kind == ColumnKind.CATEGORICAL:
            s = stats.categorical[spec.name]
            print(f"  {spec.name} categorical distinct={s['distinct']:.0f} "
                  f"missing={s['missing']:.0f}")
    return 0


def cmd_fit(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(cfg)
    fp, _, _ = pipeline_fit(load_csv(cfg.dataset, cfg.profile), cfg.pipeline)
    pipeline_save(fp, out / "pipeline.json")
    report_to_csv(fp.chi2, out / "chi2_scores.csv")
    print(f"pipeline written to {out / 'pipeline.json'}")
    return 0


def cmd_transform(args) -> int:
    fp = pipeline_load(args.pipeline)
    fm = pipeline_transform(fp, load_csv(args.dataset, args.profile or "generic"))
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    path = out / "transformed.csv"
    write_csv(fm, path)
    print(f"transformed matrix written to {path}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(cfg)
    report, fp, timings = run_evaluation(
        load_csv(cfg.dataset, cfg.profile), cfg.pipeline, algorithms=cfg.classifiers,
        test_fraction=cfg.test_fraction, dataset_id=Path(cfg.dataset).name)
    pipeline_save(fp, out / "pipeline.json")
    export_report(report, out / "report.csv", fmt="csv")
    export_report(report, out / "report.json", fmt="json")
    # wall-clock timings are inherently non-reproducible; sidecar file keeps
    # report files byte-identical across reruns
    (out / "timings.json").write_text(
        json.dumps(timings, sort_keys=True, indent=1) + "\n", encoding="utf-8")
    for clf_name in sorted(report.accuracies):
        for variant in sorted(report.accuracies[clf_name]):
            print(f"{clf_name}/{variant}: accuracy "
                  f"{report.accuracies[clf_name][variant]:.4f}")
    return 0


def cmd_corr(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(cfg)
    d = load_csv(cfg.dataset, cfg.profile)
    x, _ = split_xy(d)
    before = pearson_corr(baseline_fit(x)[1])
    export_report(before, out / "corr_before.csv", fmt="csv")
    if args.pipeline_file:
        after = pipeline_transform(pipeline_load(args.pipeline_file), x)
    else:
        _, after, _ = pipeline_fit(d, cfg.pipeline)
    export_report(pearson_corr(after), out / "corr_after.csv", fmt="csv")
    print(f"correlation tables written to {out}")
    return 0


def cmd_chi2(args) -> int:
    cfg = _resolve_config(args)
    out = _out_dir(cfg)
    d = load_csv(cfg.dataset, cfg.profile)
    x, y = split_xy(d)
    _, fm = baseline_fit(x)
    codes, _ = encode_labels(y)
    scores = chi2_scores(fm, codes)
    report = select_k_best(scores, len(fm.names), names=fm.names)
    report_to_csv(report, out / "chi2_raw.csv")
    print(f"raw-feature chi-square scores written to {out / 'chi2_raw.csv'}")
    return 0


def _add_config_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON run-config file")
    p.add_argument("--dataset", help="dataset CSV path")
    p.add_argument("--profile", choices=_PROFILES)
    p.add_argument("--components", type=int, dest="u", metavar="U", help="NMF component count")
    p.add_argument("--select", type=int, dest="v", metavar="V", help="selected feature count")
    p.add_argument("--seed", type=int)
    p.add_argument("--test-fraction", type=float, dest="test_fraction")
    p.add_argument("--out", help="output directory")
    p.add_argument("--threshold", type=float, dest="drop_threshold", metavar="THRESHOLD",
                   help="near-zero-mean drop threshold")
    p.add_argument("--no-tfidf", action="store_false", dest="tfidf_enabled", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idsfx",
        description="Feature extraction and classification for intrusion-detection datasets")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("inspect", help="summarize a dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--profile", choices=_PROFILES)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("fit", help="fit the extraction pipeline")
    _add_config_flags(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("transform", help="apply a saved pipeline to new rows")
    p.add_argument("--pipeline", required=True, help="saved pipeline file")
    p.add_argument("--dataset", required=True)
    p.add_argument("--profile", choices=_PROFILES)
    p.add_argument("--out")
    p.set_defaults(func=cmd_transform)

    p = sub.add_parser("evaluate", help="train classifiers on baseline and extracted features")
    _add_config_flags(p)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("corr", help="export before/after correlation matrices")
    _add_config_flags(p)
    p.add_argument("--pipeline", dest="pipeline_file",
                   help="reuse a saved pipeline instead of fitting")
    p.set_defaults(func=cmd_corr)

    p = sub.add_parser("chi2", help="raw-feature chi-square score table")
    _add_config_flags(p)
    p.set_defaults(func=cmd_chi2)
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, EmptyDatasetError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (IdsfxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

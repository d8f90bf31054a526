"""End-to-end fit/transform pipeline with single-file JSON persistence.

Stage order is fixed: describe -> drop near-zero-mean -> impute and encode
(the baseline feature space, ``preprocess.baseline_fit``/``baseline_transform``)
-> TF-IDF -> NMF (U components) -> chi-square select (V features).  The
chi-square stage is supervised, so labels are consumed at fit time only;
transform applies every fitted stage without refitting.

The persisted file is one JSON document with full-precision floats followed
by a trailing CRC-32 checksum line.  It keeps no per-training-row values
(NMF's W), so its size does not grow with the training rows.
"""

from __future__ import annotations

import json
import numbers
import time
import zlib
from contextlib import contextmanager
from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .data import Dataset, split_xy
from .errors import (ConfigError, DomainError, IdsfxError, IntegrityError, PipelineError,
                     SchemaError, VersionError)
from .matrix import FeatureMatrix
from .nmf import MAX_ITER, TOL, NmfModel, nmf_fit, nmf_transform
from .preprocess import (DEFAULT_DROP_THRESHOLD, BaselineModel, CategoricalEncoder,
                         ImputeModel, LabelEncoder, TfidfModel, baseline_fit,
                         baseline_transform, describe, drop_near_zero_mean,
                         encode_labels, tfidf_apply, tfidf_fit)
from .select import Chi2Report, apply_selection, chi2_scores, select_k_best

FORMAT_VERSION = "2.0"
_READABLE_MAJORS = ("1", "2")    # 1.x files carry extra keys that loading ignores

# the NMF solver setting, written under "nmf" and the only one accepted there
_NMF_SETTING = {"init": "random", "max_iter": MAX_ITER, "tol": TOL}
_KINDS = {bool: bool, int: numbers.Integral, float: numbers.Real, str: str}


def check_field_types(obj) -> None:
    """ConfigError unless each field holds a value of its default's kind;
    an int passes for a float, a bool only for a bool."""
    for f in fields(obj):
        kind = _KINDS.get(type(f.default))
        value = getattr(obj, f.name)
        if kind is not None and (not isinstance(value, kind)
                                 or isinstance(value, bool) != (kind is bool)):
            raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")


@dataclass
class PipelineConfig:
    """Each setting has one field: ``u`` is also the NMF rank and ``seed`` the
    NMF seed.  The NMF solver runs at one fixed setting, recorded under the
    ``"nmf"`` key."""
    u: int = 30                    # NMF component count
    v: int = 20                    # univariate-selected feature count
    drop_threshold: float = DEFAULT_DROP_THRESHOLD
    tfidf_enabled: bool = True
    seed: int = 0

    def validate(self) -> None:
        check_field_types(self)
        if self.u < 1:
            raise ConfigError("component count r must be >= 1")
        if not (1 <= self.v <= self.u):
            raise ConfigError(f"V must satisfy 1 <= V <= U, got V={self.v}, U={self.u}")
        if not self.drop_threshold >= 0:    # NaN fails too
            raise ConfigError("drop_threshold must be >= 0")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def to_dict(self) -> dict:
        return {**asdict(self), "nmf": dict(_NMF_SETTING)}

    @classmethod
    def from_dict(cls, d: dict) -> "PipelineConfig":
        """Missing keys take the defaults; an ``nmf`` value other than the
        fixed one is a ConfigError; 1.0 files' ``nmf.r``/``nmf.seed`` are ignored."""
        if not isinstance(d, dict) or not isinstance(d.get("nmf", {}), dict):
            raise ConfigError("pipeline settings and their 'nmf' entry must be JSON objects")
        for key, fixed in _NMF_SETTING.items():
            value = d.get("nmf", {}).get(key, fixed)
            if type(value) is not type(fixed) or value != fixed:
                raise ConfigError(f"nmf {key!r} is fixed at {fixed!r}, got {value!r}")
        names = {f.name for f in fields(cls)}
        return cls(**{k: v for k, v in d.items() if k in names})


def _fingerprint(x: Dataset) -> dict:
    return {"rows": x.n_rows, "schema": [[s.name, s.kind.value] for s in x.schema]}


@dataclass
class FittedPipeline:
    config: PipelineConfig
    fingerprint: dict               # training rows and the [name, kind] schema
    dropped_columns: list[str]
    baseline: BaselineModel         # impute and encode the columns left after the drop
    label_encoder: LabelEncoder
    tfidf: TfidfModel | None
    nmf: NmfModel
    chi2: Chi2Report


@contextmanager
def stage(name: str, timings: dict[str, float] | None = None):
    """Name the stage in its errors; a ConfigError passes through unchanged.
    Given a dict, a stage that succeeds records its wall seconds under ``name``."""
    t0 = time.perf_counter()
    try:
        yield
    except ConfigError:
        raise
    except IdsfxError as exc:
        raise PipelineError(f"stage {name!r}: {exc}") from exc
    if timings is not None:
        timings[name] = time.perf_counter() - t0


def _check_unshifted(fm: FeatureMatrix) -> None:
    """Without TF-IDF the encoded columns reach NMF as they are; name the
    columns that hold negative values."""
    negative = np.flatnonzero((fm.values < 0).any(axis=0))
    if negative.size:
        names = ", ".join(repr(fm.names[j]) for j in negative)
        raise DomainError(f"negative values in column(s) {names}; only the TF-IDF "
                          "stage shifts columns to be non-negative")


def pipeline_fit(d: Dataset, cfg: PipelineConfig
                 ) -> tuple[FittedPipeline, FeatureMatrix, np.ndarray]:
    """Fit every stage in order; returns the fitted pipeline, the final
    rows x V matrix and the encoded labels.  The raw columns are let go once
    encoded, so a ``d`` the caller does not keep is freed before TF-IDF."""
    cfg.validate()
    x, y = split_xy(d)
    del d
    fingerprint = _fingerprint(x)

    with stage("drop_near_zero_mean"):
        x, dropped = drop_near_zero_mean(x, describe(x), cfg.drop_threshold)
    with stage("impute_encode"):
        baseline, fm = baseline_fit(x)
    with stage("encode_labels"):
        codes, label_enc = encode_labels(y)
    del x, y
    tfidf = None
    if cfg.tfidf_enabled:
        with stage("tfidf"):
            tfidf = tfidf_fit(fm)
            fm = tfidf_apply(tfidf, fm)
    with stage("nmf"):
        if tfidf is None:
            _check_unshifted(fm)
        model = nmf_fit(fm, cfg.u, cfg.seed)
        w = nmf_transform(model, fm)
    with stage("chi2_select"):
        scores = chi2_scores(w, codes)
        report = select_k_best(scores, cfg.v, names=w.names)
        final = apply_selection(report, w)

    fp = FittedPipeline(config=cfg, fingerprint=fingerprint,
                        dropped_columns=dropped, baseline=baseline, label_encoder=label_enc,
                        tfidf=tfidf, nmf=model, chi2=report)
    return fp, final, codes


def _check_schema(fp: FittedPipeline, x: Dataset) -> None:
    expected = [tuple(p) for p in fp.fingerprint["schema"]]
    got = [(s.name, s.kind.value) for s in x.schema]
    if expected != got:
        missing = [n for n, _ in expected if n not in {g for g, _ in got}]
        extra = [n for n, _ in got if n not in {e for e, _ in expected}]
        raise SchemaError(
            f"schema mismatch: missing columns {missing}, extra columns {extra}")


def pipeline_transform(fp: FittedPipeline, d: Dataset) -> FeatureMatrix:
    """Apply all fitted stages to a dataset, ignoring any label column; output
    is rows x V.  As in ``pipeline_fit``, the raw columns are let go once encoded."""
    if d.label_column is not None:
        d = split_xy(d)[0]
    _check_schema(fp, d)
    keep = [s for s in d.schema if s.name not in set(fp.dropped_columns)]
    with stage("impute_encode"):
        fm = baseline_transform(fp.baseline, d.select(keep))
    del d
    if fp.tfidf is not None:
        with stage("tfidf"):
            fm = tfidf_apply(fp.tfidf, fm)
    with stage("nmf"):
        if fp.tfidf is None:
            _check_unshifted(fm)
        w = nmf_transform(fp.nmf, fm)
    with stage("chi2_select"):
        return apply_selection(fp.chi2, w)


# ------------------------------------------------------------- persistence

def _floats(a: np.ndarray) -> list:
    return [float(v) for v in np.asarray(a).ravel()]


def _to_doc(fp: FittedPipeline) -> dict:
    tfidf = None
    if fp.tfidf is not None:
        tfidf = {"idf": _floats(fp.tfidf.idf), "shifts": _floats(fp.tfidf.shifts),
                 "names": fp.tfidf.names}
    return {
        "format_version": FORMAT_VERSION,
        "config": fp.config.to_dict(),
        "fingerprint": fp.fingerprint,
        "stages": {
            "dropped_columns": fp.dropped_columns,
            "impute_means": fp.baseline.impute.means,
            "categorical_tables": fp.baseline.cat_encoder.tables,
            "label_classes": fp.label_encoder.classes,
            "tfidf": tfidf,
            "nmf": {
                "h": {"rows": int(fp.nmf.h.shape[0]), "cols": int(fp.nmf.h.shape[1]),
                      "data": _floats(fp.nmf.h)},
                "objective_trace": _floats(np.array(fp.nmf.objective_trace)),
                "iterations_run": fp.nmf.iterations_run,
                "converged": fp.nmf.converged,
            },
            "chi2": {
                "scores": _floats(fp.chi2.scores),
                "ranking": [int(v) for v in fp.chi2.ranking],
                "names": fp.chi2.names,
            },
        },
    }


def _from_doc(doc: dict) -> FittedPipeline:
    """Reads only keys that every 1.x and 2.x file carries; a bad setting is
    a ConfigError."""
    cfg = PipelineConfig.from_dict(doc["config"])
    cfg.validate()
    st = doc["stages"]
    tfidf = None
    if st["tfidf"] is not None:
        t = st["tfidf"]
        tfidf = TfidfModel(idf=np.array(t["idf"]), shifts=np.array(t["shifts"]),
                           names=list(t["names"]))
    nd = st["nmf"]
    h = np.array(nd["h"]["data"], dtype=np.float64).reshape(nd["h"]["rows"], nd["h"]["cols"])
    if h.shape[0] != cfg.u:
        raise ConfigError(f"U={cfg.u} but the stored NMF factor has {h.shape[0]} components")
    nmf = NmfModel(h=h, objective_trace=list(nd["objective_trace"]),
                   iterations_run=nd["iterations_run"], converged=nd["converged"])
    cd = st["chi2"]
    chi2 = Chi2Report(scores=np.array(cd["scores"]),
                      ranking=np.array(cd["ranking"], dtype=np.int64),
                      k=cfg.v, names=list(cd["names"]))
    return FittedPipeline(
        config=cfg, fingerprint={k: doc["fingerprint"][k] for k in ("rows", "schema")},
        dropped_columns=list(st["dropped_columns"]),
        baseline=BaselineModel(
            impute=ImputeModel(means=dict(st["impute_means"])),
            cat_encoder=CategoricalEncoder(
                tables={k: dict(v) for k, v in st["categorical_tables"].items()})),
        label_encoder=LabelEncoder(classes=list(st["label_classes"])),
        tfidf=tfidf, nmf=nmf, chi2=chi2)


def serialize_pipeline(fp: FittedPipeline) -> bytes:
    body = json.dumps(_to_doc(fp), sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    return (body + "\ncrc32 %08x\n" % crc).encode("utf-8")


def pipeline_save(fp: FittedPipeline, path: str | Path) -> None:
    Path(path).write_bytes(serialize_pipeline(fp))


def pipeline_load(path: str | Path) -> FittedPipeline:
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IntegrityError(f"pipeline file is not valid UTF-8: {exc}") from exc
    stripped = text.rstrip("\n")
    if "\n" not in stripped:
        raise IntegrityError("truncated pipeline file (no checksum line)")
    body, crc_line = stripped.rsplit("\n", 1)
    if not crc_line.startswith("crc32 "):
        raise IntegrityError("pipeline file is missing its crc32 trailer")
    try:
        expected = int(crc_line.split()[1], 16)
    except (IndexError, ValueError) as exc:
        raise IntegrityError("malformed crc32 trailer") from exc
    actual = zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF
    if actual != expected:
        raise IntegrityError(
            f"checksum mismatch: file says {expected:08x}, content is {actual:08x}")
    try:
        doc = json.loads(body)
        version = doc.get("format_version", "")
        if version.split(".")[0] not in _READABLE_MAJORS:
            raise VersionError(
                f"pipeline file format {version!r} is not readable by "
                f"{FORMAT_VERSION!r} code; re-fit or upgrade")
        return _from_doc(doc)
    except ConfigError as exc:
        raise IntegrityError(f"pipeline file holds invalid settings: {exc}") from exc
    except (AttributeError, IndexError, KeyError, TypeError, ValueError) as exc:
        raise IntegrityError(
            f"pipeline file holds no pipeline document ({type(exc).__name__}: {exc})") from exc

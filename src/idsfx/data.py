"""Dataset loading, schema handling and deterministic splitting.

Supported inputs are comma-delimited CSV files from three intrusion-detection
dataset families (NSL-KDD, CICIDS-2017, the Kaggle military-environment dump)
plus a header-driven generic profile, whose label column ``load_csv`` finds
by name or takes from its ``label_column`` argument.  Numeric cells are stored
as float64 with NaN standing for the explicit Missing state; the recognized
missing markers are "", "nan", "infinity" and "-infinity" (case-insensitive),
and every other non-finite value is Missing too.

The file is split into lines once; the header (or the first data row of a
headerless NSL-KDD file) is read with the csv module.  Every data cell is
read by ``np.loadtxt``, numpy's C reader, with quoting and no comment
character, which reads the same cells as the csv module.  Where numpy refuses
a file (empty cells, ``1_000``, non-ASCII digits, a word in a generic column,
a row of the wrong width), it reads the lines again with a Python converter
per cell; the csv module reads them only to name a row of the wrong width.
"""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path

import numpy as np

from .errors import ConfigError, DatasetError, EmptyDatasetError, SchemaError

log = logging.getLogger(__name__)

MISSING_MARKERS = frozenset({"", "nan", "infinity", "-infinity", "+infinity", "inf", "-inf"})

# Canonical 41 NSL-KDD / KDD'99 connection features, in file order.
KDD_FEATURES = [
    "duration", "protocol_type", "service", "flag", "src_bytes", "dst_bytes",
    "land", "wrong_fragment", "urgent", "hot", "num_failed_logins", "logged_in",
    "num_compromised", "root_shell", "su_attempted", "num_root",
    "num_file_creations", "num_shells", "num_access_files", "num_outbound_cmds",
    "is_host_login", "is_guest_login", "count", "srv_count", "serror_rate",
    "srv_serror_rate", "rerror_rate", "srv_rerror_rate", "same_srv_rate",
    "diff_srv_rate", "srv_diff_host_rate", "dst_host_count",
    "dst_host_srv_count", "dst_host_same_srv_rate", "dst_host_diff_srv_rate",
    "dst_host_same_src_port_rate", "dst_host_srv_diff_host_rate",
    "dst_host_serror_rate", "dst_host_srv_serror_rate", "dst_host_rerror_rate",
    "dst_host_srv_rerror_rate",
]
KDD_CATEGORICAL = frozenset({"protocol_type", "service", "flag"})


class ColumnKind(Enum):
    NUMERIC = "numeric"
    CATEGORICAL = "categorical"
    LABEL = "label"
    IGNORED = "ignored"


class Profile(Enum):
    NSL_KDD = "nsl-kdd"
    CICIDS2017 = "cicids2017"
    MILITARY_KAGGLE = "military-kaggle"
    GENERIC = "generic"


@dataclass(frozen=True)
class ColumnSpec:
    name: str
    kind: ColumnKind


@dataclass
class Dataset:
    """Immutable-by-convention tabular container.

    ``columns`` maps column name to a float64 array (numeric, NaN = missing)
    or an object array of str (categorical / label).
    """

    schema: list[ColumnSpec] = field(default_factory=list)
    columns: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def n_rows(self) -> int:
        for spec in self.schema:
            return len(self.columns[spec.name])
        return 0

    def specs(self, kind: ColumnKind) -> list[ColumnSpec]:
        return [s for s in self.schema if s.kind == kind]

    @property
    def label_column(self) -> str | None:
        labels = self.specs(ColumnKind.LABEL)
        return labels[0].name if labels else None

    def select(self, specs: list[ColumnSpec]) -> "Dataset":
        """The given columns, in the given order; the arrays are shared."""
        return Dataset(schema=list(specs), columns={s.name: self.columns[s.name] for s in specs})

    def subset(self, row_idx: np.ndarray) -> "Dataset":
        cols = {s.name: self.columns[s.name][row_idx] for s in self.schema}
        return Dataset(schema=list(self.schema), columns=cols)


def _is_missing(token: str) -> bool:
    return token.strip().lower() in MISSING_MARKERS


def _parse_numeric(token: str) -> float:
    token = token.strip()
    if _is_missing(token):
        return float("nan")
    try:
        v = float(token)
    except ValueError as exc:
        raise DatasetError(f"cell {token!r} is not numeric") from exc
    return v if np.isfinite(v) else float("nan")


def _read_lines(path: str | Path) -> list[str]:
    """The file's text split into lines, as ``str.splitlines`` splits them."""
    p = Path(path)
    if not p.exists():
        raise DatasetError(f"no such file: {p}")
    raw = p.read_bytes()
    if not raw.strip():
        raise EmptyDatasetError(f"empty dataset: {p}")
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetError(
            f"{p}: not valid UTF-8 at byte offset {exc.start}") from exc
    del raw                             # the bytes need not outlive the text
    return text.splitlines()


def _next_row(reader) -> tuple[int, list[str] | None]:
    """The index of the line where the reader's next non-empty CSV row
    starts, and that row (None at the end)."""
    start = reader.line_num
    for row in reader:
        if row:
            return start, row
        start = reader.line_num
    return start, None


def _keep_stripped(col: list[str]):
    """A converter that appends the stripped token to ``col``, one str object
    per distinct token, and stores 0.0 in its place."""
    seen = {}

    def convert(token: str) -> float:
        token = token.strip()
        col.append(seen.setdefault(token, token))
        return 0.0
    return convert


def _lenient(bad: dict, j: int):
    """A converter that parses a numeric cell with ``_parse_numeric``, and
    stores NaN for a bad cell, keeping column ``j``'s first error in ``bad``."""
    def convert(token: str) -> float:
        try:
            return _parse_numeric(token)
        except DatasetError as exc:
            bad.setdefault(j, exc)
            return np.nan
    return convert


def _loadtxt(lines: list[str], converters: dict) -> np.ndarray | None:
    """The cells of the lines as numpy reads them; None where it refuses them."""
    try:
        return np.loadtxt(lines, delimiter=",", comments=None, quotechar='"', ndmin=2,
                          encoding=None, converters=converters)
    except ValueError:
        return None


def _width_error(lines: list[str], width: int) -> DatasetError:
    """The error naming the first CSV row whose width is not ``width``."""
    for i, row in enumerate(filter(None, csv.reader(lines))):
        if len(row) != width:
            return DatasetError(f"row {i}: expected {width} cells, found {len(row)}")
    return DatasetError(f"the rows could not be read as {width} cells each")


def _parse_lines(lines: list[str], schema: list[ColumnSpec],
                 guessed: bool = False) -> dict[str, np.ndarray]:
    """Columns of the data lines under the schema, read by ``np.loadtxt``.

    Token columns pass through a converter that keeps the stripped token.
    Where numpy refuses the lines, it reads them again with each numeric
    column through ``_lenient``, or, if their kinds are ``guessed``, as tokens
    whose kinds ``_infer_numeric`` picks.  Errors come as from a parse column
    by column: a row of the wrong width first, then the first bad cell or
    missing label of the first such column in schema order.  ``lines`` is
    emptied before the cells are copied into column order.
    """
    # the csv module reads nothing from an empty line, even inside a quoted
    # cell, where numpy would end the cell
    lines[:] = filter(None, lines)
    tokens = {j: [] for j, s in enumerate(schema) if s.kind != ColumnKind.NUMERIC}
    cells = _loadtxt(lines, {j: _keep_stripped(col) for j, col in tokens.items()})
    bad = {}                        # column -> its first bad cell
    if cells is None:
        if guessed:
            schema[:] = [ColumnSpec(s.name, ColumnKind.CATEGORICAL)
                         if s.kind == ColumnKind.NUMERIC else s for s in schema]
        tokens = {j: [] for j, s in enumerate(schema) if s.kind != ColumnKind.NUMERIC}
        cells = _loadtxt(lines, {j: _keep_stripped(tokens[j]) if j in tokens else _lenient(bad, j)
                                 for j in range(len(schema))})
    if cells is None or cells.shape[1] != len(schema):
        raise _width_error(lines, len(schema))
    for j, spec in enumerate(schema):
        if j in bad:
            raise DatasetError(f"column {spec.name!r}: {bad[j]}") from bad[j]
        if spec.kind == ColumnKind.LABEL and any(map(_is_missing, set(tokens[j]))):
            raise DatasetError(f"missing label in column {spec.name!r}")
    lines.clear()
    by_column = cells.T.copy()      # one block, a row per column
    del cells
    np.copyto(by_column, np.nan, where=~np.isfinite(by_column))
    columns = {spec.name: (np.array(tokens[j], dtype=object) if j in tokens else by_column[j])
               for j, spec in enumerate(schema)}
    if guessed:
        _infer_numeric(schema, columns)
    return columns


def _kdd_schema(n_cols: int, label_column: str | None) -> list[ColumnSpec]:
    """The 41 features, then the label and the difficulty column of
    KDDTrain+ style files where present; 41 columns have no label, and
    ``label_column`` may name only the label."""
    specs = [
        ColumnSpec(n, ColumnKind.CATEGORICAL if n in KDD_CATEGORICAL else ColumnKind.NUMERIC)
        for n in KDD_FEATURES
    ]
    tail = [ColumnSpec("label", ColumnKind.LABEL), ColumnSpec("difficulty", ColumnKind.IGNORED)]
    extra = n_cols - len(specs)
    if not 0 <= extra <= len(tail):
        raise SchemaError(f"expected {len(specs)} to {len(specs) + len(tail)} "
                          f"columns for this profile, found {n_cols}")
    schema = specs + tail[:extra]
    if label_column is not None and ColumnSpec(label_column, ColumnKind.LABEL) not in schema:
        raise SchemaError(f"no label column {label_column!r} in this profile's {n_cols} "
                          "columns; only column 42, 'label', can be named")
    return schema


# the label names of each header-driven profile
_LABEL_NAMES = {Profile.CICIDS2017: ("label",),
                Profile.GENERIC: ("label", "class", "target", "labels")}


def _header_schema(header: list[str], label_names: tuple[str, ...],
                   label_column: str | None) -> list[ColumnSpec]:
    """The schema a header names: stripped names, the k-th repeat of a name
    renamed ``name.k`` as pandas names it, and every column numeric but the
    label.  The label is ``label_column`` if given, else the first column
    whose name is one of ``label_names``, in any case; there may be none."""
    names, repeats = [], {}
    for h in header:
        n = h.strip()
        repeats[n] = k = repeats.get(n, -1) + 1
        names.append(f"{n}.{k}" if k else n)
    if len(set(names)) != len(names):
        raise SchemaError(f"header names collide after renaming repeats: {names}")
    if label_column is None:
        label_column = next((n for n in names if n.lower() in label_names), None)
    elif label_column not in names:
        raise SchemaError(f"no label column {label_column!r} in the header")
    return [ColumnSpec(n, ColumnKind.LABEL if n == label_column else ColumnKind.NUMERIC)
            for n in names]


def _infer_numeric(schema: list[ColumnSpec], columns: dict[str, np.ndarray]) -> None:
    """Make numeric, in place, each categorical column whose distinct tokens
    all pass ``_parse_numeric``, mapping its tokens to float64."""
    for k, spec in enumerate(schema):
        if spec.kind != ColumnKind.CATEGORICAL:
            continue
        col = columns[spec.name]
        try:
            value = {t: _parse_numeric(t) for t in set(col)}
        except DatasetError:
            continue
        columns[spec.name] = np.fromiter(map(value.__getitem__, col), np.float64, len(col))
        schema[k] = ColumnSpec(spec.name, ColumnKind.NUMERIC)


def load_csv(path: str | Path, profile: Profile | str,
             label_column: str | None = None) -> Dataset:
    """Load a CSV file under the schema rules of the given profile.

    NSL-KDD / MilitaryKaggle files carry the 41 canonical connection features,
    then the label and an optional trailing difficulty column (marked
    Ignored); a file of the 41 features alone has no label column.  A header
    row is detected and skipped when present.  CICIDS-2017 and generic files
    start with a header (``_header_schema``): the k-th repeat of a name
    becomes ``name.k``, and the label is ``label_column``, else the first
    column named Label (CICIDS-2017) or label, class, target or labels
    (generic); naming none gives a features-only dataset.  ``label_column``
    may name only the label under NSL-KDD / MilitaryKaggle.  Generic guesses
    every other column numeric; where numpy refuses the file, a column is
    numeric when each of its tokens is a number or a missing marker.  A file
    with no data row raises EmptyDatasetError.
    """
    if isinstance(profile, str):
        try:
            profile = Profile(profile)
        except ValueError as exc:
            raise ConfigError(f"unknown profile {profile!r}") from exc
    lines = _read_lines(path)
    reader = csv.reader(lines)
    start, first = _next_row(reader)
    if first is None:
        raise EmptyDatasetError(f"empty dataset: {path}")
    label_names = _LABEL_NAMES.get(profile)
    schema = _header_schema(first, label_names, label_column) if label_names else None
    if label_names or first[0].strip().lower() == KDD_FEATURES[0]:
        start, first = _next_row(reader)   # skip the header
    if first is None:
        raise EmptyDatasetError(f"empty dataset: {path}")
    if schema is None:
        schema = _kdd_schema(len(first), label_column)
    del lines[:start]
    columns = _parse_lines(lines, schema, guessed=profile is Profile.GENERIC)
    return Dataset(schema=schema, columns=columns)


def require_label(d: Dataset) -> str:
    """The label column's name; a SchemaError naming the labels looked for
    when the dataset has none."""
    if d.label_column is None:
        raise SchemaError("dataset has no label column: none is named label, class, "
                          "target or labels (Label in CICIDS-2017 files); NSL-KDD "
                          "and Military Kaggle files carry it as column 42")
    return d.label_column


def split_xy(d: Dataset) -> tuple[Dataset, np.ndarray]:
    """Separate the features from the label tokens (an object array of str);
    Ignored columns are dropped."""
    label = require_label(d)
    x = d.select([s for s in d.schema if s.kind in (ColumnKind.NUMERIC, ColumnKind.CATEGORICAL)])
    return x, d.columns[label]


def train_test_split(d: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Deterministic train/test partition, stratified by label when possible.

    Each class with at least 2 members keeps a row on each side; a class with
    one member stays in train.  Without labels, or when no class has 2
    members, all rows are one class: a plain seeded shuffle.
    """
    if not (0.0 < test_fraction < 1.0):
        raise ConfigError(f"test_fraction must be in (0,1), got {test_fraction}")
    n = d.n_rows
    if n < 2:
        raise DatasetError("need at least 2 rows to split")
    rng = np.random.default_rng(seed)
    one_class = np.full(n, "")
    keys = one_class if d.label_column is None else d.columns[d.label_column].astype(str)
    _, counts = np.unique(keys, return_counts=True)
    if counts.max() < 2:
        log.warning("no class has 2 members; falling back to plain shuffle")
        keys = one_class
    elif (counts == 1).any():
        log.warning("%d classes with one member kept in train", int((counts == 1).sum()))

    test_parts = []
    for cls in sorted(set(keys)):
        idx = np.flatnonzero(keys == cls)
        idx = rng.permutation(idx)
        k = int(round(test_fraction * len(idx)))
        k = min(max(k, 1), len(idx) - 1)
        test_parts.append(idx[:k])
    test_idx = np.sort(np.concatenate(test_parts))

    mask = np.zeros(n, dtype=bool)
    mask[test_idx] = True
    train_idx = np.flatnonzero(~mask)
    return d.subset(train_idx), d.subset(test_idx)

"""The csv-module row parser: the oracle for ``idsfx.data._parse_lines``.

``_parse_rows`` read every data cell before numpy's C reader did, with the
csv module and ``_parse_numeric``.  Keep its body as it is; it is the
definition the numpy reader must meet, messages and error order included.
``parse_lines`` takes the place of ``_parse_lines`` on the same arguments.
Where the numeric kinds are guessed (the generic profile), it reads every
non-label column as tokens and ``_infer_numeric`` then picks each one's kind,
as the generic profile did before it guessed.
"""

import csv
from array import array
from collections.abc import Iterable

import numpy as np

from idsfx.data import ColumnKind, ColumnSpec, _infer_numeric, _is_missing, _parse_numeric
from idsfx.errors import DatasetError


def _parse_rows(rows: Iterable[list[str]], schema: list[ColumnSpec]) -> dict[str, np.ndarray]:
    """Columns of the data rows under the schema.

    Numeric cells go into one float buffer as each row is read, so the table
    is never held as one str object per cell.  Errors come as from a parse
    column by column: a row of the wrong width first, then the first bad cell
    or missing label of the first such column in schema order.
    """
    numeric = [j for j, s in enumerate(schema) if s.kind == ColumnKind.NUMERIC]
    tokens = {j: [] for j, s in enumerate(schema) if s.kind != ColumnKind.NUMERIC}
    cells, bad = array("d"), {}     # row-major numeric cells; column -> first bad cell
    for n_rows, row in enumerate(rows, 1):
        if len(row) != len(schema):
            raise DatasetError(f"row {n_rows - 1}: expected {len(schema)} cells, found {len(row)}")
        for j in numeric:
            try:
                cells.append(_parse_numeric(row[j]))
            except DatasetError as exc:
                bad.setdefault(j, exc)
                cells.append(np.nan)
        for j, col in tokens.items():
            col.append(row[j].strip())
    by_column = np.frombuffer(cells).reshape(n_rows, len(numeric)).T.copy()  # one block
    columns = {}
    for j, spec in enumerate(schema):
        if j in bad:
            raise DatasetError(f"column {spec.name!r}: {bad[j]}") from bad[j]
        if spec.kind == ColumnKind.LABEL and any(_is_missing(v) for v in tokens[j]):
            raise DatasetError(f"missing label in column {spec.name!r}")
        columns[spec.name] = (np.array(tokens[j], dtype=object) if j in tokens
                              else by_column[numeric.index(j)])
    return columns


def parse_lines(lines: list[str], schema: list[ColumnSpec],
                guessed: bool = False) -> dict[str, np.ndarray]:
    if guessed:
        schema[:] = [ColumnSpec(s.name, ColumnKind.CATEGORICAL)
                     if s.kind == ColumnKind.NUMERIC else s for s in schema]
    # the csv module joins a quoted cell's lines with nothing between them
    # once the empty lines are dropped, as the numpy reader's input is
    columns = _parse_rows(filter(None, csv.reader(filter(None, lines))), schema)
    if guessed:
        _infer_numeric(schema, columns)
    return columns

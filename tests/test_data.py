import random
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsfx import data
from idsfx.data import (KDD_FEATURES, ColumnKind, ColumnSpec, Dataset, Profile,
                        load_csv, split_xy, train_test_split)
from idsfx.errors import (ConfigError, DatasetError, EmptyDatasetError, IdsfxError,
                          SchemaError)

import row_parser
from conftest import make_blob_dataset, write_dataset_csv


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    return p


def _kdd_row(label="normal", difficulty=None):
    cells = []
    for name in KDD_FEATURES:
        if name in ("protocol_type",):
            cells.append("tcp")
        elif name == "service":
            cells.append("http")
        elif name == "flag":
            cells.append("SF")
        else:
            cells.append("1")
    cells.append(label)
    if difficulty is not None:
        cells.append(str(difficulty))
    return ",".join(cells)


class TestLoadCsv:
    def test_generic_minimal(self, tmp_path):
        p = _write(tmp_path, "t.csv", "a,b,label\n1,2,x\n3,4,y\n5,6,x\n")
        d = load_csv(p, "generic")
        assert d.n_rows == 3
        kinds = [s.kind for s in d.schema]
        assert kinds == [ColumnKind.NUMERIC, ColumnKind.NUMERIC, ColumnKind.LABEL]
        assert list(d.columns["a"]) == [1.0, 3.0, 5.0]

    def test_kdd_profile_with_difficulty(self, tmp_path):
        rows = "\n".join([_kdd_row("normal", 21), _kdd_row("neptune", 15)])
        d = load_csv(_write(tmp_path, "k.csv", rows + "\n"), Profile.NSL_KDD)
        assert d.n_rows == 2
        assert ColumnSpec("difficulty", ColumnKind.IGNORED) in d.schema
        assert ColumnSpec("protocol_type", ColumnKind.CATEGORICAL) in d.schema
        assert d.label_column == "label"
        assert len([s for s in d.schema if s.kind != ColumnKind.IGNORED]) == 42

    def test_kdd_profile_without_difficulty(self, tmp_path):
        d = load_csv(_write(tmp_path, "k.csv", _kdd_row() + "\n"), "nsl-kdd")
        assert len(d.schema) == 42

    @pytest.mark.parametrize("width,message", [
        (40, "expected 41 to 43 columns for this profile, found 40"),
        (44, "expected 41 to 43 columns for this profile, found 44")])
    def test_kdd_profile_refuses_other_widths(self, tmp_path, width, message):
        row = (_kdd_row(difficulty=3) + ",7").split(",")[:width]
        with pytest.raises(SchemaError, match=f"^{message}$"):
            load_csv(_write(tmp_path, "k.csv", ",".join(row) + "\n"), "nsl-kdd")

    def test_kdd_profile_features_only(self, tmp_path):
        # the 41 features alone, with or without their header, have no label
        row = ",".join(_kdd_row().split(",")[:41])
        for text in (row, ",".join(KDD_FEATURES) + "\n" + row):
            d = load_csv(_write(tmp_path, "k.csv", text + "\n"), "nsl-kdd")
            assert d.label_column is None and d.n_rows == 1
            assert [s.name for s in d.schema] == KDD_FEATURES

    def test_kdd_header_detected(self, tmp_path):
        header = ",".join(KDD_FEATURES + ["class"])
        text = header + "\n" + _kdd_row("anomaly") + "\n"
        d = load_csv(_write(tmp_path, "k.csv", text), "military-kaggle")
        assert d.n_rows == 1

    def test_missing_markers_case_insensitive(self, tmp_path):
        p = _write(tmp_path, "t.csv", "a,label\nNaN,x\nInfinity,y\n-infinity,x\n,y\n7,x\n")
        d = load_csv(p, "generic")
        col = d.columns["a"]
        assert np.isnan(col[:4]).all()
        assert col[4] == 7.0

    def test_cicids_header_trimmed(self, tmp_path):
        p = _write(tmp_path, "c.csv", " Flow Duration , Total Fwd Packets ,Label\n3,4,BENIGN\n")
        d = load_csv(p, "cicids2017")
        assert [s.name for s in d.schema] == ["Flow Duration", "Total Fwd Packets", "Label"]
        assert ColumnSpec("Label", ColumnKind.LABEL) in d.schema

    def test_malformed_row_names_index(self, tmp_path):
        p = _write(tmp_path, "t.csv", "a,b,label\n1,2,x\n1,2\n")
        with pytest.raises(DatasetError, match="row 1"):
            load_csv(p, "generic")

    @pytest.mark.parametrize("text, message", [
        ("a,b,label\n1,x,y\n2\n", "row 1: expected 3 cells"),  # width before cells
        ("a,b,label\n1,x,y\nz,2,y\n", "column 'a': cell 'z'"),  # column order, not row
        ("a,label\nz,\n", "column 'a'"),
        ("label,a\n,z\n", "missing label in column 'label'"),
        ("a,Label\n1,x\n2, NaN \n", "missing label in column 'Label'"),  # cells all valid
        # one row too wide or too narrow, or every row too wide
        ("a,b,c,Label\n1,2,3,x\n1,2,3,4,x\n4,5,6,y\n", "^row 1: expected 4 cells, found 5$"),
        ("a,b,c,Label\n1,2,3,x\n1,x\n4,5,6,y\n", "^row 1: expected 4 cells, found 2$"),
        ("a,b,c,Label\n1,2,3,x,5\n4,5,6,y,7\n", "^row 0: expected 4 cells, found 5$"),
    ])
    def test_errors_come_in_column_order(self, tmp_path, text, message):
        with pytest.raises(DatasetError, match=message):
            load_csv(_write(tmp_path, "c.csv", text), "cicids2017")

    @pytest.mark.parametrize("text, message", [
        ("a,b,label\n1,2,x\n \n3,4,y\n", "^row 1: expected 3 cells, found 1$"),
        ("label,a,b\nx,1,2\ny,3\n", "^row 1: expected 3 cells, found 2$"),
        ("a,b,label\n1,2,x,9\n", "^row 0: expected 3 cells, found 4$"),
    ])
    def test_generic_rows_of_the_wrong_width(self, tmp_path, text, message):
        with pytest.raises(DatasetError, match=message):
            load_csv(_write(tmp_path, "g.csv", text), "generic")

    def test_generic_kinds_come_from_the_tokens(self, tmp_path):
        text = "a,b,c,label\n1,tcp,1_000,x\n,udp, Infinity ,y\n1,7,2,x\n"
        d = load_csv(_write(tmp_path, "g.csv", text), "generic")
        assert [s.kind for s in d.schema] == [ColumnKind.NUMERIC, ColumnKind.CATEGORICAL,
                                              ColumnKind.NUMERIC, ColumnKind.LABEL]
        assert np.array_equal(d.columns["a"], [1, np.nan, 1], equal_nan=True)
        assert d.columns["b"].tolist() == ["tcp", "udp", "7"]
        assert np.array_equal(d.columns["c"], [1000, np.nan, 2], equal_nan=True)

    @pytest.mark.parametrize("profile", ["cicids2017", "generic"])
    def test_repeated_names_keep_their_own_columns(self, tmp_path, profile):
        text = "a,b,a,Label\n1,2,3,x\n4,5,6,y\n7,8,9,x\n10,11,12,y\n"
        d = load_csv(_write(tmp_path, "r.csv", text), profile)
        assert [s.name for s in d.schema] == ["a", "b", "a.1", "Label"]
        assert d.columns["a"].tolist() == [1, 4, 7, 10]
        assert d.columns["a.1"].tolist() == [3, 6, 9, 12]
        d = load_csv(_write(tmp_path, "r.csv", " a ,a,a,Label\n1,2,3,x\n"), profile)
        assert [s.name for s in d.schema] == ["a", "a.1", "a.2", "Label"]

    @pytest.mark.parametrize("profile", ["cicids2017", "generic"])
    def test_repeated_names_that_collide_are_refused(self, tmp_path, profile):
        with pytest.raises(SchemaError, match="collide after renaming repeats"):
            load_csv(_write(tmp_path, "r.csv", "a,a,a.1,Label\n1,2,3,x\n"), profile)

    def test_label_override_under_cicids(self, tmp_path):
        p = _write(tmp_path, "c.csv", "a,Label,Attack\n1,0,DoS\n2,1,BENIGN\n")
        d = load_csv(p, "cicids2017", label_column="Attack")
        assert [s.kind for s in d.schema] == [ColumnKind.NUMERIC, ColumnKind.NUMERIC,
                                              ColumnKind.LABEL]
        assert d.columns["Attack"].tolist() == ["DoS", "BENIGN"]

    def test_numeric_columns_are_separate_writable_arrays(self, tmp_path):
        d = load_csv(_write(tmp_path, "c.csv", "a,b,Label\n1,2,x\n3,4,y\n"), "cicids2017")
        a, b = d.columns["a"], d.columns["b"]
        assert a.dtype == np.float64 and a.flags.c_contiguous and a.flags.writeable
        a[0] = 9.0
        assert a.tolist() == [9.0, 3.0] and b.tolist() == [2.0, 4.0]

    def test_load_holds_no_python_object_per_cell(self, tmp_path):
        cells = np.random.default_rng(0).uniform(0, 1e5, size=(400, 40))
        lines = [",".join(f"c{j}" for j in range(40)) + ",Label"]
        lines += [",".join(f"{v:.3f}" for v in row) + ",BENIGN" for row in cells]
        p = _write(tmp_path, "c.csv", "\n".join(lines) + "\n")
        tracemalloc.start()
        try:
            d = load_csv(p, "cicids2017")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.allclose(d.columns["c39"], cells[:, 39], atol=1e-3)
        # the file's bytes, text and lines plus two float copies of the cells
        # come to about 3x the file; one str per cell would be about 10x
        assert peak < 5 * p.stat().st_size

    def test_no_label_column(self, tmp_path):
        # a features-only file loads; what needs labels is refused by name
        p = _write(tmp_path, "t.csv", "a,b,c\n1,2,3\n")
        for d in (load_csv(p, "generic"), load_csv(p, "cicids2017")):
            assert d.label_column is None
            assert [(s.name, s.kind) for s in d.schema] == [
                (n, ColumnKind.NUMERIC) for n in "abc"]
            with pytest.raises(SchemaError, match="no label column: none is named label"):
                split_xy(d)

    def test_named_label_column_missing(self, tmp_path):
        p = _write(tmp_path, "t.csv", "a,b,c\n1,2,3\n")
        with pytest.raises(SchemaError, match="no label column 'label' in the header"):
            load_csv(p, "generic", label_column="label")

    def test_label_override(self, tmp_path):
        p = _write(tmp_path, "t.csv", "a,b,c\n1,2,x\n")
        d = load_csv(p, "generic", label_column="c")
        assert d.label_column == "c"

    @pytest.mark.parametrize("profile", ["nsl-kdd", "military-kaggle"])
    def test_fixed_schemas_take_only_their_label_by_name(self, tmp_path, profile):
        p = _write(tmp_path, "k.csv", "\n".join([_kdd_row("normal", 3), _kdd_row("dos", 5)]))
        assert load_csv(p, profile, label_column="label").label_column == "label"
        for name in ("no_such_column", "difficulty", "duration"):
            with pytest.raises(SchemaError, match=f"^no label column '{name}' in this profile's "
                                                  "43 columns; only column 42"):
                load_csv(p, profile, label_column=name)
        features = _write(tmp_path, "f.csv", ",".join(_kdd_row().split(",")[:41]) + "\n")
        with pytest.raises(SchemaError, match="^no label column 'label' in this profile's 41 "):
            load_csv(features, profile, label_column="label")

    def test_empty_file(self, tmp_path):
        with pytest.raises(DatasetError, match="empty dataset"):
            load_csv(_write(tmp_path, "e.csv", "\n"), "generic")

    @pytest.mark.parametrize("text, profile", [
        (" \n\n", "generic"),                          # blank bytes
        ("\x1c\n", "generic"),                         # lines but no cells
        (",".join(KDD_FEATURES) + "\n", "nsl-kdd"),     # header only
        ("Flow ID, Label\n", "cicids2017"),             # header only
        ("a,b,label\n\n", "generic"),                   # header only
    ])
    def test_every_empty_input_raises_empty_dataset_error(self, tmp_path, text, profile):
        with pytest.raises(EmptyDatasetError, match="empty dataset"):
            load_csv(_write(tmp_path, "e.csv", text), profile)

    def test_non_utf8_reports_offset(self, tmp_path):
        p = tmp_path / "b.csv"
        p.write_bytes(b"a,label\n1,x\n\xff\xfe,y\n")
        with pytest.raises(DatasetError, match="byte offset 12"):
            load_csv(p, "generic")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DatasetError, match="no such file"):
            load_csv(tmp_path / "nope.csv", "generic")

    def test_roundtrip_generic(self, tmp_path):
        p = _write(tmp_path, "t.csv", "a,tok,label\n1,foo,x\n,bar,y\n2.5,baz,x\n")
        d = load_csv(p, "generic")
        d2 = load_csv(write_dataset_csv(d, tmp_path / "rt.csv"), "generic")
        for spec in d.schema:
            a, b = d.columns[spec.name], d2.columns[spec.name]
            if spec.kind == ColumnKind.NUMERIC:
                assert np.array_equal(a, b, equal_nan=True)
            else:
                assert list(a) == list(b)


# Pieces of cells for the differential test: number syntax, the missing
# markers, blanks and quotes, a comment sign, cells that Python's float()
# reads but numpy does not ("1_000", Arabic-Indic digits), and line breaks,
# which a quoted cell may span.
_PIECES = ["0", "7", "42", ".", "e", "E", "+", "-", "nan", "NaN", "inf", "-Inf",
           "Infinity", "-infinity", "", " ", '"', '""', "#", "_", "\u0661", "x",
           "\x0c", "a\n\nb"]
_TOKENS = ["tcp", "http", "SF", "normal", " x ", '"a,b"', "#a", '"q""r"']
_NUMBERS = ["0", "3", "1e3", "2.5", "-0", "nan", "Infinity", "-inf", "1e400", "0.125"]


def _fuzz_csv(seed: int, profile: str) -> str:
    """A small CSV text under the profile, valid or broken, drawn from the seed."""
    rng = random.Random(seed)
    if profile in ("nsl-kdd", "military-kaggle"):
        width = rng.choice([42, 43])
        tokens = {1, 2, 3, 41, 42}
        header = KDD_FEATURES + ["class", "difficulty"][:width - 41]
        header = header if rng.random() < 0.3 else None
    else:
        width = rng.choice([1, 1, 2, 3, 4])
        at = rng.randrange(width)
        name = "Label" if profile == "cicids2017" else "label"
        header = [name if k == at else f" c{k} " for k in range(width)]
        tokens = {at} | ({k for k in range(width) if rng.random() < 0.3}
                         if profile == "generic" else set())
    dirt = rng.choice([0.0, 0.0, 0.01, 0.1, 0.5])

    def cell(k):
        if rng.random() >= dirt:
            return rng.choice(_TOKENS if k in tokens else _NUMBERS)
        text = "".join(rng.choice(_PIECES) for _ in range(rng.randint(1, 3)))
        return f'"{text}"' if rng.random() < 0.3 else text

    lines = [",".join(header)] if header else []
    for _ in range(rng.randint(1, 5)):
        if rng.random() < 0.25:
            lines.append(rng.choice(["", "", " ", "\t", '""']))
        n = width + (rng.choice([-1, 1]) if rng.random() < 0.05 else 0)
        lines.append(",".join(cell(k) for k in range(n)))
    ends = rng.choice(["\n", "\r\n", "\r", None])
    text = "".join(line + (ends or rng.choice(["\n", "\r\n", "\r"])) for line in lines)
    return text[:-1] if rng.random() < 0.2 else text


def _outcome(path, profile):
    """What load_csv makes of the file: the schema and each column's bytes or
    tokens, or the exception's type and message."""
    try:
        d = load_csv(path, profile)
    except IdsfxError as exc:       # the error is the outcome; any other is a crash
        return type(exc), str(exc)
    return [(s.name, s.kind, d.columns[s.name].dtype,
             d.columns[s.name].tobytes() if s.kind == ColumnKind.NUMERIC
             else d.columns[s.name].tolist()) for s in d.schema]


class TestLoadtxtPath:
    """The numpy reader against the csv-module row parser
    (``tests/row_parser.py``) that read every cell before it."""

    @pytest.mark.parametrize("profile", [p.value for p in Profile])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_loads_as_the_row_parser(self, tmp_path_factory, profile, seed):
        path = tmp_path_factory.mktemp("fuzz") / "f.csv"
        path.write_bytes(_fuzz_csv(seed, profile).encode("utf-8"))
        with mock.patch.object(data, "_parse_lines", row_parser.parse_lines):
            expected = _outcome(path, profile)
        assert _outcome(path, profile) == expected

    @pytest.mark.parametrize("chunk", [1, 2])
    @pytest.mark.parametrize("profile", [p.value for p in Profile])
    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_loads_as_the_row_parser_in_small_chunks(self, tmp_path_factory, profile, chunk,
                                                     seed):
        # the fuzzed files have up to 5 rows, so chunk boundaries fall
        # between good rows, bad cells and rows of the wrong width
        path = tmp_path_factory.mktemp("fuzz") / "f.csv"
        path.write_bytes(_fuzz_csv(seed, profile).encode("utf-8"))
        with mock.patch.object(data, "_parse_lines", row_parser.parse_lines):
            expected = _outcome(path, profile)
        with mock.patch.object(data, "LOAD_CHUNK_LINES", chunk):
            assert _outcome(path, profile) == expected

    def test_chunks_fill_one_block_of_contiguous_columns(self, tmp_path):
        text = "a,b,Label\n" + "".join(f"{i},{i}.5,x{i % 3}\n" for i in range(7))
        with mock.patch.object(data, "LOAD_CHUNK_LINES", 3):
            d = load_csv(_write(tmp_path, "c.csv", text), "cicids2017")
        a, b = d.columns["a"], d.columns["b"]
        assert a.tolist() == list(range(7)) and b.tolist() == [i + 0.5 for i in range(7)]
        assert a.flags.c_contiguous and b.flags.c_contiguous
        assert a.base is b.base         # rows of one (columns, rows) block
        assert d.columns["Label"].tolist() == [f"x{i % 3}" for i in range(7)]

    @pytest.mark.parametrize("bad_row, message", [
        ("5,6,7,x", "^row 4: expected 3 cells, found 4$"),
        ("5,z,x", "^column 'b': cell 'z' is not numeric$"),
    ])
    def test_error_in_a_later_chunk(self, tmp_path, bad_row, message):
        text = "a,b,Label\n1,2,x\n3,4,y\n1,2,x\n3,4,y\n" + bad_row + "\n"
        with mock.patch.object(data, "LOAD_CHUNK_LINES", 2):
            with pytest.raises(DatasetError, match=message):
                load_csv(_write(tmp_path, "c.csv", text), "cicids2017")

    @pytest.mark.parametrize("profile", [p.value for p in Profile])
    def test_clean_files_never_reach_the_row_parser(self, tmp_path, profile):
        # numpy reads a clean file in one pass, with no Python call per
        # numeric cell; a generic file is clean when every column but the
        # label is numeric
        kdd = profile in ("nsl-kdd", "military-kaggle")
        text = ("\n".join([_kdd_row("normal", 3), _kdd_row("neptune", 9)]) if kdd
                else "a, b ,label\n1,2.5,x\n\n3,Infinity,y\r\n")
        with (mock.patch.object(data, "_lenient", side_effect=AssertionError),
              mock.patch.object(data, "_parse_numeric", side_effect=AssertionError)):
            d = load_csv(_write(tmp_path, "c.csv", text + "\n"), profile)
        assert d.n_rows == 2
        assert len(d.specs(ColumnKind.NUMERIC)) == (38 if kdd else 2)

    def test_generic_column_with_a_late_word_is_categorical(self, tmp_path):
        lines = ["a,b,label"] + [f"{i}, {i}.5 ,x" for i in range(50)] + ["50, tcp ,y", "51,,x"]
        path = _write(tmp_path, "g.csv", "\n".join(lines) + "\n")
        d = load_csv(path, "generic")
        assert [s.kind for s in d.schema] == [ColumnKind.NUMERIC, ColumnKind.CATEGORICAL,
                                              ColumnKind.LABEL]
        assert d.columns["a"].tolist() == list(range(52))
        assert d.columns["b"].tolist() == [f"{i}.5" for i in range(50)] + ["tcp", ""]
        expected = _outcome(path, "generic")
        with mock.patch.object(data, "_parse_lines", row_parser.parse_lines):
            assert _outcome(path, "generic") == expected

    def test_blank_cell_then_a_bad_cell_in_a_later_column(self, tmp_path):
        # numpy refuses the blank cell; the lenient read finds column b's word
        text = "a,b,c,Label\n1,2,3,x\n,4,5,y\n6,z,w,x\n"
        with pytest.raises(DatasetError, match="^column 'b': cell 'z' is not numeric$"):
            load_csv(_write(tmp_path, "c.csv", text), "cicids2017")

    def test_rows_numpy_cannot_read_at_any_width(self, tmp_path):
        # the csv module finds every row 2 cells wide, so no row is named
        with mock.patch.object(data.np, "loadtxt", side_effect=ValueError):
            with pytest.raises(DatasetError, match="^the rows could not be read as 2 cells each$"):
                load_csv(_write(tmp_path, "c.csv", "a,Label\n1,x\n"), "cicids2017")

    def test_wrong_width_in_a_headerless_kdd_file(self, tmp_path):
        text = "\n".join([_kdd_row(), _kdd_row(), _kdd_row(difficulty=3)]) + "\n"
        with pytest.raises(DatasetError, match="^row 2: expected 42 cells, found 43$"):
            load_csv(_write(tmp_path, "k.csv", text), "nsl-kdd")

    def test_empty_cell_loads_as_nan(self, tmp_path):
        d = load_csv(_write(tmp_path, "c.csv", "a,b,Label\n1,,x\n,2,y\n"), "cicids2017")
        nan = np.float64("nan").tobytes()
        assert d.columns["a"].tobytes() == np.float64(1).tobytes() + nan
        assert d.columns["b"].tobytes() == nan + np.float64(2).tobytes()

    def test_python_number_syntax_still_loads(self, tmp_path):
        text = "a,b,Label\n1_000,\u0661\u0662,x\n"
        d = load_csv(_write(tmp_path, "c.csv", text), "cicids2017")
        assert d.columns["a"].tolist() == [1000.0] and d.columns["b"].tolist() == [12.0]

    def test_hash_in_a_token_is_kept_whole(self, tmp_path):
        d = load_csv(_write(tmp_path, "c.csv", "a,Label\n1,#x y\n2, a#b \n"), "cicids2017")
        assert d.columns["Label"].tolist() == ["#x y", "a#b"]
        assert d.columns["a"].tolist() == [1.0, 2.0]

    def test_quoted_cells(self, tmp_path):
        text = 'a,Label\n"1","x,y"\n" 2 ","say ""hi"""\n'
        d = load_csv(_write(tmp_path, "c.csv", text), "cicids2017")
        assert d.columns["a"].tolist() == [1.0, 2.0]
        assert d.columns["Label"].tolist() == ["x,y", 'say "hi"']

    @pytest.mark.parametrize("profile", ["cicids2017", "generic"])
    def test_quoted_cell_spanning_a_blank_line(self, tmp_path, profile):
        # the lines are joined with nothing between them, as the csv module
        # joins them; numpy alone would end the cell at the blank line
        d = load_csv(_write(tmp_path, "c.csv", 'Label\n"x\n\ny"\nz\n'), profile)
        assert d.columns["Label"].tolist() == ["xy", "z"]


class TestSplitXy:
    def test_counts_and_kinds(self, blob_dataset):
        x, y = split_xy(blob_dataset)
        assert x.n_rows == blob_dataset.n_rows == len(y)
        assert x.label_column is None
        assert len(x.schema) == 6  # 5 numeric + 1 categorical

    def test_excludes_ignored(self, tmp_path):
        rows = "\n".join(_kdd_row(difficulty=20) for _ in range(3))
        (tmp_path / "k.csv").write_text(rows + "\n")
        d = load_csv(tmp_path / "k.csv", "nsl-kdd")
        x, y = split_xy(d)
        assert len(x.schema) == 41
        assert len(y) == 3

    def test_row_alignment_hand_fixture(self):
        # shuffled 10-row fixture; oracle is direct indexing
        rng = np.random.default_rng(3)
        labels = [f"L{i}" for i in rng.permutation(10)]
        d = make_blob_dataset(n_rows=10, seed=1)
        d.columns["label"] = np.array(labels, dtype=object)
        x, y = split_xy(d)
        for i in range(10):
            assert y[i] == labels[i]
            assert x.columns["num_0"][i] == d.columns["num_0"][i]

    def test_no_label_raises(self, blob_dataset):
        x, _ = split_xy(blob_dataset)
        with pytest.raises(SchemaError):
            split_xy(x)


def _skewed_labels(seed, singletons):
    """A shuffled label column: 2-6 classes of 2 to 60 rows (skewed sizes),
    plus the given number of one-member classes."""
    rng = np.random.default_rng(seed)
    counts = [int(c) for c in rng.geometric(0.08, rng.integers(2, 7)).clip(2, 60)]
    counts += [1] * singletons
    labels = np.repeat([f"c{i}" for i in range(len(counts))], counts).astype(object)
    return rng.permutation(labels)


def _labelled_rows(labels):
    return Dataset(schema=[ColumnSpec("row", ColumnKind.NUMERIC),
                           ColumnSpec("label", ColumnKind.LABEL)],
                   columns={"row": np.arange(labels.size), "label": labels})


class TestTrainTestSplit:
    def test_exact_partition(self):
        d = make_blob_dataset(n_rows=100, seed=5)
        a, b = train_test_split(d, 0.25, seed=7)
        assert a.n_rows == 75 and b.n_rows == 25
        # union equals original, disjoint (set-equality oracle on a key column)
        key = "num_0"
        merged = sorted(list(a.columns[key]) + list(b.columns[key]))
        assert merged == sorted(list(d.columns[key]))

    def test_deterministic(self):
        d = make_blob_dataset(n_rows=60, seed=2)
        a1, b1 = train_test_split(d, 0.3, seed=11)
        a2, b2 = train_test_split(d, 0.3, seed=11)
        assert np.array_equal(a1.columns["num_0"], a2.columns["num_0"])
        assert np.array_equal(b1.columns["num_0"], b2.columns["num_0"])

    def test_stratification_brute_force(self):
        d = make_blob_dataset(n_rows=4, seed=0, with_categorical=False)
        d.columns["label"] = np.array(["a", "a", "b", "b"], dtype=object)
        a, b = train_test_split(d, 0.5, seed=1)
        assert sorted(a.columns["label"]) == ["a", "b"]
        assert sorted(b.columns["label"]) == ["a", "b"]

    @pytest.mark.parametrize("seed", range(8))
    def test_partition_property_all_seeds(self, seed):
        d = make_blob_dataset(n_rows=37, seed=9)
        a, b = train_test_split(d, 0.4, seed=seed)
        assert a.n_rows + b.n_rows == 37
        merged = sorted(list(a.columns["num_1"]) + list(b.columns["num_1"]))
        assert merged == sorted(list(d.columns["num_1"]))

    @pytest.mark.parametrize("seed", range(24))
    def test_singleton_classes_stay_in_train_and_the_rest_stratify(self, seed):
        labels = _skewed_labels(seed, singletons=1 + seed % 3)
        frac = (0.2, 0.25, 0.5)[seed % 3]
        train, test = train_test_split(_labelled_rows(labels), frac, seed)
        rows = np.concatenate([train.columns["row"], test.columns["row"]])
        assert sorted(rows) == list(range(labels.size))
        classes, counts = np.unique(labels, return_counts=True)
        for cls, count in zip(classes, counts):
            in_test = int(np.sum(test.columns["label"] == cls))
            assert in_test == min(max(int(round(frac * count)), 1), count - 1)
        assert set(test.columns["label"]) <= set(train.columns["label"])

    @pytest.mark.parametrize("seed", range(20))
    def test_split_unchanged_when_every_class_has_two_members(self, seed):
        labels = _skewed_labels(seed, singletons=0)
        _, test = train_test_split(_labelled_rows(labels), 0.25, seed)
        rng = np.random.default_rng(seed)
        expected = []
        for cls in sorted(set(labels)):
            idx = rng.permutation(np.flatnonzero(labels == cls))
            k = min(max(int(round(0.25 * idx.size)), 1), idx.size - 1)
            expected.append(idx[:k])
        assert np.array_equal(test.columns["row"], np.sort(np.concatenate(expected)))

    @pytest.mark.parametrize("seed", range(10))
    def test_unlabelled_and_all_singleton_splits_are_one_shuffle(self, seed, caplog):
        # a plain seeded shuffle: the first k of one permutation of all rows
        n = 2 + 5 * seed
        k = min(max(int(round(0.3 * n)), 1), n - 1)
        expected = np.sort(np.random.default_rng(seed).permutation(n)[:k])
        singletons = _labelled_rows(np.array([f"r{i}" for i in range(n)], dtype=object))
        for d in (singletons.select(singletons.schema[:1]), singletons):
            train, test = train_test_split(d, 0.3, seed)
            assert np.array_equal(test.columns["row"], expected)
            assert np.array_equal(train.columns["row"], np.setdiff1d(np.arange(n), expected))
        assert caplog.text.count("no class has 2 members") == 1

    @pytest.mark.parametrize("frac", [0.0, 1.0, -0.1, 2.0])
    def test_bad_fraction(self, frac):
        d = make_blob_dataset(n_rows=10)
        with pytest.raises(ConfigError):
            train_test_split(d, frac, seed=0)

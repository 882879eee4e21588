"""Tables, CSV round trips, time-series featurization, and splitting."""

from __future__ import annotations

import csv
import io
import math
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_table
from errlens import data as data_module
from errlens import (
    FeatureSpec,
    LabeledTable,
    SeriesFrame,
    concat_tables,
    featurize_rolling,
    load_csv,
    load_series_csv,
    resample_series,
    split,
    write_csv,
)
from errlens.errors import (
    DataError,
    DegenerateSplit,
    EmptySeries,
    InvalidLabel,
    MissingColumn,
    NonNumericCell,
    SeriesTooShort,
)


# --- FeatureSpec and LabeledTable -------------------------------------------


@pytest.mark.parametrize("name", ["", "a b", "a,b", 'a"b', "a\tb"])
def test_feature_names_reject_whitespace_commas_and_quotes(name: str) -> None:
    with pytest.raises(DataError):
        FeatureSpec(name, "continuous")


def test_feature_spec_rejects_unknown_kind() -> None:
    with pytest.raises(DataError):
        FeatureSpec("f", "ordinal")


def test_table_exposes_rows_columns_and_lookup() -> None:
    table = make_table(
        [[1.0, 2.0], ["a", "b"]], [0, 1],
        kinds=["continuous", "categorical"], names=["x", "c"],
    )
    assert table.n_rows == 2
    assert table.feature_names == ("x", "c")
    assert table.index_of("c") == 1
    assert table.column("x").tolist() == [1.0, 2.0]
    assert table.row_values(1) == (2.0, "b")


def test_table_rejects_bad_labels_and_misaligned_columns() -> None:
    with pytest.raises(DataError):
        make_table([[1.0, 2.0]], [0, 2])
    with pytest.raises(DataError):
        make_table([[1.0, 2.0], [1.0]], [0, 1])
    with pytest.raises(DataError):
        make_table([[1.0]], [0, 1])


def test_table_rejects_duplicate_row_ids_and_non_finite_values() -> None:
    with pytest.raises(DataError):
        make_table([[1.0, 2.0]], [0, 1], row_ids=["r", "r"])
    with pytest.raises(DataError):
        make_table([[1.0, math.nan]], [0, 1])
    with pytest.raises(DataError):
        make_table([[1.0, math.inf]], [0, 1])


def test_table_arrays_are_read_only() -> None:
    table = make_table([[1.0, 2.0]], [0, 1])
    with pytest.raises(ValueError):
        table.columns[0][0] = 9.0
    with pytest.raises(ValueError):
        table.labels[0] = 1


def test_subset_reorders_rows_and_keeps_ids() -> None:
    table = make_table([[1.0, 2.0, 3.0]], [0, 1, 0], row_ids=["a", "b", "c"])
    sub = table.subset([2, 0])
    assert sub.row_ids == ("c", "a")
    assert sub.column("f0").tolist() == [3.0, 1.0]
    assert sub.labels.tolist() == [0, 0]


def test_concat_requires_matching_schemas() -> None:
    first = make_table([[1.0]], [0], row_ids=["a"])
    second = make_table([[2.0]], [1], row_ids=["b"])
    stacked = concat_tables([first, second])
    assert stacked.row_ids == ("a", "b")
    assert stacked.column("f0").tolist() == [1.0, 2.0]

    other = make_table([[2.0]], [1], names=["g0"], row_ids=["b"])
    with pytest.raises(DataError):
        concat_tables([first, other])


# --- CSV ----------------------------------------------------------------------


def test_csv_round_trip_preserves_values_exactly(tmp_path) -> None:
    table = make_table(
        [[0.1 + 0.2, 1.0 / 3.0, -1e-17], ["a", "b\rc", "u\r\nv"]],
        [0, 1, 1],
        kinds=["continuous", "categorical"],
        names=["x", "c"],
        row_ids=["r0", "r1", "r2"],
    )
    path = str(tmp_path / "t.csv")
    write_csv(table, path, include_row_id=True)
    # a lone "\r", which a reader takes for a line end, is quoted like "\r\n"
    with open(path, encoding="utf-8", newline="") as fh:
        assert fh.read() == ("row_id,x,c,label\nr0,0.30000000000000004,a,0\n"
                             'r1,0.3333333333333333,"b\rc",1\nr2,-1e-17,"u\r\nv",1\n')
    back = load_csv(path, id_column="row_id", categorical=["c"])
    assert back.schema == table.schema
    assert back.row_ids == table.row_ids
    assert back.labels.tolist() == table.labels.tolist()
    assert back.column("x").tolist() == table.column("x").tolist()
    assert back.column("c").tolist() == table.column("c").tolist()


def test_csv_without_id_column_numbers_rows(tmp_path) -> None:
    table = make_table([[5.0, 6.0]], [1, 0])
    path = str(tmp_path / "t.csv")
    write_csv(table, path)
    back = load_csv(path)
    assert back.schema == table.schema
    assert back.row_ids == ("0", "1")


def write_csv_per_row(table: LabeledTable, path: str, include_row_id: bool) -> None:
    """``write_csv`` as it wrote a table before it went a column at a time:
    a row at a time, cell by cell.  Each row is formatted with a "\r\n" line
    end, so that a cell holding a lone "\r" is quoted, and written with "\n"."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        def writerow(row: list[str]) -> None:
            line = io.StringIO()
            csv.writer(line, lineterminator="\r\n").writerow(row)
            fh.write(line.getvalue().removesuffix("\r\n") + "\n")

        header = ["row_id"] if include_row_id else []
        header += [f.name for f in table.schema] + ["label"]
        writerow(header)
        for i in range(table.n_rows):
            row: list[str] = [table.row_ids[i]] if include_row_id else []
            for spec, col in zip(table.schema, table.columns):
                row.append(repr(float(col[i])) if spec.kind == "continuous"
                           else str(col[i]))
            row.append(str(int(table.labels[i])))
            writerow(row)


# cells a CSV writer must quote, or keep as they are, around text and numbers
AWKWARD_TEXT = st.one_of(st.sampled_from(["", "icu,a", 'ward "b"', "ünit\r\nx", " a ", "\r",
                                          "\n", '"', ",", "ß"]),
                         st.text(st.sampled_from('ab ,"\r\nü'), max_size=4))
AWKWARD_FLOATS = st.one_of(st.sampled_from([-0.0, 5e-324, 1e16, 0.1 + 0.2]),
                           st.floats(allow_nan=False, allow_infinity=False))


@given(kinds=st.lists(st.booleans(), min_size=1, max_size=4), n=st.integers(0, 12),
       data=st.data())
def test_write_csv_matches_the_per_row_writer_and_reads_back(kinds: list[bool], n: int,
                                                             data) -> None:
    names = [f"f{j}" for j in range(len(kinds))]
    columns = [data.draw(st.lists(AWKWARD_TEXT if cat else AWKWARD_FLOATS,
                                  min_size=n, max_size=n)) for cat in kinds]
    table = make_table(columns, data.draw(st.lists(st.sampled_from([0, 1]), min_size=n,
                                                   max_size=n)),
                       kinds=["categorical" if cat else "continuous" for cat in kinds],
                       names=names,
                       row_ids=data.draw(st.lists(AWKWARD_TEXT, min_size=n, max_size=n,
                                                  unique=True)))
    categorical = [name for name, cat in zip(names, kinds) if cat]
    with tempfile.TemporaryDirectory() as tmp:
        for include_row_id in (False, True):
            path, oracle = os.path.join(tmp, "t.csv"), os.path.join(tmp, "oracle.csv")
            write_csv(table, path, include_row_id=include_row_id)
            write_csv_per_row(table, oracle, include_row_id)
            with open(path, "rb") as got, open(oracle, "rb") as expected:
                assert got.read() == expected.read()
            back = load_csv(path, id_column="row_id" if include_row_id else None,
                            categorical=categorical)
            assert back.schema == table.schema
            assert back.labels.tolist() == table.labels.tolist()
            assert back.row_ids == (table.row_ids if include_row_id
                                    else tuple(map(str, range(n))))
            for got_col, col in zip(back.columns, table.columns):
                assert got_col.dtype.kind == col.dtype.kind
                assert (got_col.tobytes() == col.tobytes() if col.dtype.kind == "f"
                        else got_col.tolist() == col.tolist())


def test_load_csv_rejects_missing_column_bad_label_and_ragged_row(tmp_path) -> None:
    path = tmp_path / "t.csv"

    path.write_text("x,y\n1.0,0\n", encoding="utf-8")
    with pytest.raises(MissingColumn):
        load_csv(str(path))

    path.write_text("x,label\n1.0,yes\n", encoding="utf-8")
    with pytest.raises(InvalidLabel):
        load_csv(str(path))

    path.write_text("x,label\n1.0\n", encoding="utf-8")
    with pytest.raises(DataError):
        load_csv(str(path))

    path.write_text("x,label\noops,0\n", encoding="utf-8")
    with pytest.raises(NonNumericCell):
        load_csv(str(path))


def write_rows(path, rows: list[list[str]]) -> str:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return str(path)


def table_with_bad_cells(path, bad: dict[tuple[int, int], str], n: int = 600) -> str:
    """An ``n``-row table of x0, x1, c and label with ``bad``'s (row, column)
    cells in place of good ones, a row of one cell for column -1."""
    rows = [[repr(i / 7), repr(-i / 3), f"k{i % 5}", str(i % 2)] for i in range(n)]
    for (i, j), cell in bad.items():
        if j < 0:
            rows[i] = [cell]
        else:
            rows[i][j] = cell
    return write_rows(path, [["x0", "x1", "c", "label"], *rows])


@pytest.mark.parametrize("bad, error, message", [
    ({(550, 1): "oops"}, NonNumericCell, "row 550, column 'x1': 'oops'"),
    ({(550, 1): "oops", (560, 3): "2"}, NonNumericCell, "row 550, column 'x1': 'oops'"),
    ({(550, 3): " 2 ", (550, 1): "oops"}, NonNumericCell, "row 550, column 'x1': 'oops'"),
    ({(520, 3): " 2 ", (550, 0): "oops"}, InvalidLabel, "row 520: '2'"),
    ({(599, 0): "nan"}, NonNumericCell, "row 599, column 'x0': 'nan'"),
    # a short row is found while its chunk is read, before any of its cells
    ({(10, 0): "oops", (300, -1): "1"}, NonNumericCell, "row 10, column 'x0': 'oops'"),
    ({(10, 0): "oops", (20, -1): "1"}, DataError, "row 20: expected 4 cells"),
])
def test_load_csv_names_the_first_bad_cell_of_a_three_chunk_file(
        tmp_path, bad: dict, error: type, message: str) -> None:
    path = table_with_bad_cells(tmp_path / "t.csv", bad)
    with pytest.raises(error) as info:
        load_csv(path, categorical=["c"])
    assert str(info.value) == f"{path}: {message}"


@pytest.mark.parametrize("cell", ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "", " ",
                                  "1.5\x00", "0x10"])
def test_load_csv_rejects_cells_that_are_not_finite_numbers(tmp_path, cell: str) -> None:
    path = write_rows(tmp_path / "t.csv", [["x", "label"], ["1.0", "0"], [cell, "1"]])
    with pytest.raises(NonNumericCell) as info:
        load_csv(path)
    assert str(info.value) == f"{path}: row 1, column 'x': {cell!r}"


def test_load_csv_parses_numbers_and_labels_as_float_and_strip_do(tmp_path) -> None:
    cells = [" 1.5 ", "1_0", "1e3", "-0", "+.5", "\t7\n"]
    path = write_rows(tmp_path / "t.csv",
                      [["x", "label"], *([cell, label] for cell, label in
                                         zip(cells, [" 1 ", "0", "1\t", " 0", "1", "0"]))])
    table = load_csv(path)
    assert table.column("x").tobytes() == np.asarray([float(c) for c in cells]).tobytes()
    assert table.labels.tolist() == [1, 0, 1, 0, 1, 0]


@pytest.mark.parametrize("text", ["f0,label\n0.5,1\n2,0\n", "label,f0\n1,0.5\n0,2\n"])
def test_load_csv_skips_a_leading_byte_order_mark(tmp_path, text: str) -> None:
    # spreadsheet "CSV UTF-8" exports start with one; it is no part of the
    # first column's name
    (tmp_path / "plain.csv").write_text(text, encoding="utf-8")
    (tmp_path / "bom.csv").write_text("\ufeff" + text, encoding="utf-8")
    plain, table = (load_csv(str(tmp_path / name)) for name in ("plain.csv", "bom.csv"))
    assert table.feature_names == ("f0",)
    assert table.column("f0").tobytes() == plain.column("f0").tobytes()
    assert table.labels.tolist() == plain.labels.tolist() == [1, 0]


def test_load_csv_reads_a_header_only_file_and_an_id_column(tmp_path) -> None:
    empty = load_csv(write_rows(tmp_path / "e.csv", [["x", "c", "label"]]), categorical=["c"])
    assert empty.n_rows == 0
    assert [col.dtype.kind for col in empty.columns] == ["f", "U"]
    assert empty.labels.dtype == np.int64 and empty.labels.shape == (0,)
    table = load_csv(write_rows(tmp_path / "t.csv", [["x", "id", "label"], ["1.0", "r7", "1"],
                                                      ["2.0", "r3", "0"]]),
                     id_column="id")
    assert table.feature_names == ("x",)
    assert table.row_ids == ("r7", "r3")
    assert table.labels.tolist() == [1, 0]


def reference_load(path: str, categorical: list[str],
                   id_column: str | None) -> tuple | tuple[type, str]:
    """``load_csv`` cell by cell in row order, as it read a file before it
    went a chunk at a time: its columns, labels and row ids, or its error."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    keys = ("label",) if id_column is None else ("label", id_column)
    names = [name for name in header if name not in keys]
    cols: list[list] = [[] for _ in names]
    labels, ids = [], []
    for i, row in enumerate(rows):
        for j, name in enumerate(names):
            cell = row[header.index(name)]
            if name in categorical:
                cols[j].append(cell)
                continue
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                return NonNumericCell, f"{path}: row {i}, column {name!r}: {cell!r}"
            cols[j].append(value)
        label = row[header.index("label")].strip()
        if label not in ("0", "1"):
            return InvalidLabel, f"{path}: row {i}: {label!r}"
        labels.append(int(label))
        ids.append(str(i) if id_column is None else row[header.index(id_column)])
    return ([np.asarray(c, dtype=str if name in categorical else np.float64)
             for name, c in zip(names, cols)], np.asarray(labels, dtype=np.int64), tuple(ids))


GOOD_NUMBERS = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                         st.sampled_from(["1", " 1.5 ", "1_0", "1e3", "-0", "+.5"]))
BAD_NUMBERS = st.sampled_from(["nan", "-inf", "", "x", "1e400", "1.5\x00"])


@given(kinds=st.lists(st.booleans(), min_size=1, max_size=4), n=st.integers(0, 13),
       chunk=st.integers(1, 5), with_ids=st.booleans(), data=st.data())
def test_load_csv_matches_the_cell_by_cell_parse(kinds: list[bool], n: int, chunk: int,
                                                 with_ids: bool, data) -> None:
    names = [f"f{j}" for j in range(len(kinds))]
    categorical = [name for name, cat in zip(names, kinds) if cat]
    rows = [[data.draw(st.text("ab ,\"", max_size=3) if cat else GOOD_NUMBERS)
             for cat in kinds] + [data.draw(st.sampled_from(["0", "1", " 1 ", "0\t"]))]
            for _ in range(n)]
    for _ in range(data.draw(st.integers(0, 2)) if n else 0):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, len(kinds)))
        if j == len(kinds):
            rows[i][j] = data.draw(st.sampled_from(["2", "", "yes", " 1 0"]))
        elif not kinds[j]:
            rows[i][j] = data.draw(BAD_NUMBERS)
    header = [*names, "label"]
    if with_ids:
        header.insert(data.draw(st.integers(0, len(header))), "id")
        at = header.index("id")
        rows = [[*row[:at], f"r{i}", *row[at:]] for i, row in enumerate(rows)]
    id_column = "id" if with_ids else None
    with tempfile.TemporaryDirectory() as tmp:
        path = write_rows(os.path.join(tmp, "t.csv"), [header, *rows])
        expected = reference_load(path, categorical, id_column)
        with mock.patch.object(data_module, "_CHUNK_ROWS", chunk):
            try:
                table = load_csv(path, id_column=id_column, categorical=categorical)
                got = ([(c.dtype, c.tobytes()) for c in table.columns],
                       table.labels.tobytes(), table.row_ids)
            except DataError as exc:
                got = (type(exc), str(exc))
    if len(expected) == 3:
        cols, labels, ids = expected
        expected = ([(c.dtype, c.tobytes()) for c in cols], labels.tobytes(), ids)
    assert got == expected


# --- time-series resampling and featurization ----------------------------------


def series(ts: list[int], values: list[float], label: int = 0,
           static: dict[str, str] | None = None) -> SeriesFrame:
    return SeriesFrame(
        entity_id="e",
        timestamps=np.asarray(ts, dtype=np.int64),
        channels={"hr": np.asarray(values, dtype=np.float64)},
        label=label,
        static=static or {},
    )


def test_resample_averages_within_each_bin() -> None:
    out = resample_series(series([0, 60, 120, 180, 240], [0, 1, 2, 3, 4]),
                          interval_s=300)
    assert out.timestamps.tolist() == [0]
    assert out.channels["hr"].tolist() == [2.0]


def test_resample_forward_fills_empty_bins() -> None:
    out = resample_series(series([0, 600], [1.0, 5.0]), interval_s=300)
    assert out.timestamps.tolist() == [0, 300, 600]
    assert out.channels["hr"].tolist() == [1.0, 1.0, 5.0]


def test_resample_grid_starts_at_first_observation_bin() -> None:
    out = resample_series(series([650, 920], [2.0, 4.0]), interval_s=300)
    assert out.timestamps.tolist() == [600, 900]
    assert out.channels["hr"].tolist() == [2.0, 4.0]


def test_resample_takes_intervals_below_2_to_the_63() -> None:
    for interval in (2**63, 10**20):
        with pytest.raises(DataError, match="below 2"):
            resample_series(series([0, 600], [1.0, 5.0]), interval_s=interval)
    out = resample_series(series([0, 600], [1.0, 5.0]), interval_s=2**63 - 1)
    assert out.timestamps.tolist() == [0] and out.channels["hr"].tolist() == [3.0]


def test_resample_rejects_bad_interval_and_empty_series() -> None:
    with pytest.raises(DataError):
        resample_series(series([0], [1.0]), interval_s=0)
    with pytest.raises(EmptySeries):
        resample_series(
            SeriesFrame(entity_id="e", timestamps=np.asarray([], dtype=np.int64),
                        channels={"hr": np.asarray([], dtype=np.float64)}, label=0)
        )


def test_resample_refuses_a_grid_too_large_to_allocate() -> None:
    # 3e16 bins between the ends of int64 time: refused before any allocation
    ends = series([0, 9_000_000_000_000_000_000], [1.0, 2.0])
    with pytest.raises(DataError) as info:
        resample_series(ends, interval_s=300)
    assert str(info.value) == ("series 'e': 30000000000000001 bins of 300 s, "
                               f"more than {data_module.MAX_RESAMPLE_BINS}")
    # the bound is inclusive
    with mock.patch.object(data_module, "MAX_RESAMPLE_BINS", 3):
        assert resample_series(series([0, 600], [1.0, 5.0])).timestamps.tolist() == [
            0, 300, 600]
        with pytest.raises(DataError):
            resample_series(series([0, 900], [1.0, 5.0]))


def test_resample_refuses_a_grid_starting_before_int64_time() -> None:
    # the bin holding -2**63 + 1 starts below -2**63, where the grid would wrap
    early = series([-2**63 + 1, -2**63 + 11], [1.0, 2.0])
    with pytest.raises(DataError) as info:
        resample_series(early, interval_s=300)
    assert str(info.value) == (f"series 'e': the first bin of 300 s starts at "
                               f"{(-2**63 + 1) // 300 * 300}, before the int64 timestamps")
    # a grid that starts exactly at -2**63 fits
    out = resample_series(early, interval_s=2**62)
    assert out.timestamps.tolist() == [-2**63] and out.channels["hr"].tolist() == [1.5]


@given(
    st.lists(st.integers(min_value=0, max_value=5000), min_size=1, max_size=40,
             unique=True),
    st.integers(min_value=1, max_value=600),
)
def test_resample_always_yields_a_uniform_grid(ts: list[int], interval: int) -> None:
    ts = sorted(ts)
    out = resample_series(series(ts, [float(t) for t in ts]), interval_s=interval)
    grid = out.timestamps
    assert grid[0] == (ts[0] // interval) * interval
    assert grid[-1] == (ts[-1] // interval) * interval
    assert np.all(np.diff(grid) == interval)
    assert np.isfinite(out.channels["hr"]).all()


def test_featurize_emits_trailing_stats_and_lags() -> None:
    table = featurize_rolling(series([0, 300, 600, 900], [1, 2, 3, 4], label=1),
                              windows=(3,), lags=(1,))
    assert table.feature_names == ("hr", "hr_mean_3", "hr_std_3", "hr_lag_1")
    assert table.row_ids == ("e:600", "e:900")
    assert table.labels.tolist() == [1, 1]
    assert table.column("hr").tolist() == [3.0, 4.0]
    assert table.column("hr_mean_3").tolist() == [2.0, 3.0]
    assert table.column("hr_std_3") == pytest.approx([math.sqrt(2 / 3)] * 2)
    assert table.column("hr_lag_1").tolist() == [2.0, 3.0]


def test_featurize_drops_rows_without_full_history() -> None:
    table = featurize_rolling(series(list(range(0, 3000, 300)), list(range(10))),
                              windows=(3, 6), lags=(1, 2))
    # max(window) = 6 needs 5 steps of history; the first 5 rows drop
    assert table.n_rows == 5
    assert table.row_ids[0] == "e:1500"
    # per channel: the value, every window's mean, then every window's std, then the lags
    assert table.feature_names == ("hr", "hr_mean_3", "hr_mean_6", "hr_std_3", "hr_std_6",
                                   "hr_lag_1", "hr_lag_2")


def test_featurize_replicates_static_attributes_as_categorical() -> None:
    table = featurize_rolling(
        series([0, 300, 600], [1, 2, 3], static={"unit": "icu"}),
        windows=(2,), lags=(1,),
    )
    assert table.schema[-1] == FeatureSpec("unit", "categorical")
    assert table.column("unit").tolist() == ["icu", "icu"]


def test_featurize_rejects_short_and_irregular_series() -> None:
    with pytest.raises(SeriesTooShort):
        featurize_rolling(series([0, 300], [1, 2]), windows=(6,), lags=(1,))
    with pytest.raises(DataError):
        featurize_rolling(series([0, 300, 500], [1, 2, 3]), windows=(2,), lags=(1,))
    # a channel named like another channel's feature
    twin = SeriesFrame("e", np.asarray([0, 300, 600]), {"hr": [1, 2, 3], "hr_lag_1": [4, 5, 6]},
                       label=0)
    with pytest.raises(DataError, match="^feature name 'hr_lag_1' repeats$"):
        featurize_rolling(twin, windows=(2,), lags=(1,))


def test_load_series_csv_groups_sorts_and_validates(tmp_path) -> None:
    path = tmp_path / "s.csv"
    path.write_text(
        "entity_id,timestamp_s,hr,label,unit\n"
        "a,600,2.0,1,icu\n"
        "a,0,1.0,1,icu\n"
        "b,0,9.0,0,ward\n",
        encoding="utf-8",
    )
    frames = load_series_csv(str(path), channel_columns=["hr"],
                             static_columns=["unit"])
    assert [f.entity_id for f in frames] == ["a", "b"]
    assert frames[0].timestamps.tolist() == [0, 600]
    assert frames[0].channels["hr"].tolist() == [1.0, 2.0]
    assert frames[0].label == 1 and frames[0].static == {"unit": "icu"}

    path.write_text("entity_id,timestamp_s,hr,label\na,0,1.0,1\na,60,2.0,0\n",
                    encoding="utf-8")
    with pytest.raises(InvalidLabel) as info:
        load_series_csv(str(path), channel_columns=["hr"])
    assert str(info.value) == f"{path}: entity 'a' has conflicting labels"

    path.write_text("entity_id,timestamp_s,hr,label,unit\na,0,1.0,1,icu\na,60,2.0,1,ward\n",
                    encoding="utf-8")
    with pytest.raises(DataError) as info:
        load_series_csv(str(path), channel_columns=["hr"], static_columns=["unit"])
    assert str(info.value) == f"{path}: entity 'a' has conflicting static attributes"

    path.write_text("entity_id,timestamp_s,label\na,0,1\n", encoding="utf-8")
    with pytest.raises(MissingColumn):
        load_series_csv(str(path), channel_columns=["hr"])


@pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400", "oops"])
def test_load_series_csv_names_a_channel_cell_that_is_not_a_finite_number(tmp_path,
                                                                          cell: str) -> None:
    path = write_rows(tmp_path / "s.csv", [["entity_id", "timestamp_s", "hr", "label"],
                                           ["a", "0", "1.0", "1"], ["a", "300", cell, "1"]])
    with pytest.raises(NonNumericCell) as info:
        load_series_csv(path, channel_columns=["hr"])
    assert str(info.value) == f"{path}: row 1, column 'hr': {cell!r}"


@pytest.mark.parametrize("content", [
    pytest.param(b"entity_id,timestamp_s,hr,label\na,0,1.0,1,extra\n", id="extra_cell"),
    pytest.param(b"entity_id,timestamp_s,hr,label\na,0\n", id="short_row"),
    pytest.param(b"entity_id,timestamp_s,hr,hr,label\na,0,1.0,2.0,1\n", id="repeated_name"),
    pytest.param(b"entity_id,timestamp_s,hr,label\n\xe9,0,1.0,1\n", id="latin1_bytes"),
    pytest.param(b"", id="empty_file"),
])
def test_series_csv_rejects_malformed_files(tmp_path, content: bytes) -> None:
    path = tmp_path / "s.csv"
    path.write_bytes(content)
    with pytest.raises(DataError):
        load_series_csv(str(path), channel_columns=["hr"])


def test_load_series_csv_names_the_entity_and_time_of_a_repeated_timestamp(tmp_path) -> None:
    path = write_rows(tmp_path / "s.csv", [["entity_id", "timestamp_s", "hr", "label"],
                                           ["a", "0", "1.0", "1"], ["b", "300", "1.0", "0"],
                                           ["a", "600", "2.0", "1"], ["b", "300", "3.0", "0"],
                                           ["a", "600", "4.0", "1"]])
    with pytest.raises(DataError) as info:
        load_series_csv(path, channel_columns=["hr"])
    assert str(info.value) == f"{path}: entity 'a' repeats timestamp 600"


def reference_series_load(path: str, channels: list[str], statics: list[str]) -> list | tuple:
    """``load_series_csv`` row by row, as it read a file before it went a chunk
    at a time, with its errors in the order its docstring states: its frames
    as (entity, timestamps, channels, label, static), or its error."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    grouped: dict[str, dict] = {}
    conflict = None
    for row_idx, cells in enumerate(rows):
        row = dict(zip(header, cells))
        ent = row["entity_id"]
        rec = grouped.setdefault(ent, {"t": [], "ch": {c: [] for c in channels},
                                       "label": None, "static": None})
        try:
            t = int(row["timestamp_s"])
        except ValueError:
            t = None
        if t is None or not -2**63 <= t < 2**63:
            return NonNumericCell, (f"{path}: row {row_idx}, column 'timestamp_s': "
                                    f"{row['timestamp_s']!r}")
        rec["t"].append(t)
        for c in channels:
            try:
                value = float(row[c])
            except ValueError:
                value = math.nan
            if not math.isfinite(value):
                return NonNumericCell, f"{path}: row {row_idx}, column {c!r}: {row[c]!r}"
            rec["ch"][c].append(value)
        label = row["label"].strip()
        if label not in ("0", "1"):
            return InvalidLabel, f"{path}: row {row_idx}: {label!r}"
        static = {c: row[c] for c in statics}
        if rec["label"] is None:
            rec["label"], rec["static"] = int(label), static
        elif conflict is None and rec["label"] != int(label):
            conflict = InvalidLabel, f"{path}: entity {ent!r} has conflicting labels"
        elif conflict is None and rec["static"] != static:
            conflict = DataError, f"{path}: entity {ent!r} has conflicting static attributes"
    if conflict is not None:
        return conflict
    frames = []
    for ent, rec in grouped.items():
        order = np.argsort(np.asarray(rec["t"]), kind="stable")
        ts = np.asarray(rec["t"], dtype=np.int64)[order]
        repeats = ts[1:][ts[1:] == ts[:-1]]
        if repeats.size:
            return DataError, f"{path}: entity {ent!r} repeats timestamp {repeats[0]}"
        frames.append((ent, ts.tobytes(), {c: np.asarray(v, dtype=np.float64)[order].tobytes()
                                           for c, v in rec["ch"].items()},
                       rec["label"], rec["static"]))
    return frames


BAD_TIMES = st.sampled_from(["1.5", "", "x", "1e3", "99999999999999999999", str(2**63),
                             str(-2**63 - 1)])


@given(n=st.integers(0, 13), n_channels=st.integers(1, 2), with_static=st.booleans(),
       chunk=st.integers(1, 5), data=st.data())
def test_load_series_csv_matches_the_row_by_row_parse(n: int, n_channels: int,
                                                      with_static: bool, chunk: int,
                                                      data) -> None:
    channels = [f"c{j}" for j in range(n_channels)]
    statics = ["unit"] if with_static else []
    entities = data.draw(st.lists(st.text("ab ,\"", max_size=2), min_size=1, max_size=3,
                                  unique=True))
    label_of = {e: data.draw(st.sampled_from(["0", "1", " 1 ", "0\t"])) for e in entities}
    unit_of = {e: data.draw(st.sampled_from(["icu", "ward", " "])) for e in entities}
    start = data.draw(st.integers(-2**63, 2**63 - 1 - n))
    times = data.draw(st.permutations(range(start, start + n)))
    rows = []
    for t in times:
        ent = data.draw(st.sampled_from(entities))
        rows.append([ent, data.draw(st.sampled_from([str(t), f" {t} ", f"{t:_}"])),
                     *(data.draw(GOOD_NUMBERS) for _ in channels), label_of[ent],
                     *(unit_of[ent] for _ in statics)])
    # column j of row i: a bad cell or a conflicting label or static value,
    # or for j = 0 the time of a row of the same entity
    for _ in range(data.draw(st.sampled_from([0, 0, 1, 2])) if n else 0):
        i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, len(rows[0]) - 1))
        if j == 0:
            rows[i][1] = data.draw(st.sampled_from([row[1] for row in rows
                                                    if row[0] == rows[i][0]]))
            continue
        rows[i][j] = data.draw(
            BAD_TIMES if j == 1 else BAD_NUMBERS if j <= n_channels
            else st.sampled_from(["0", "1", "2", "", "yes"]) if j == n_channels + 2
            else st.sampled_from(["icu", "ward"]))
    header = ["entity_id", "timestamp_s", *channels, "label", *statics]
    at = data.draw(st.permutations(range(len(header))))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_rows(os.path.join(tmp, "s.csv"),
                          [[line[k] for k in at] for line in [header, *rows]])
        expected = reference_series_load(path, channels, statics)
        with mock.patch.object(data_module, "_CHUNK_ROWS", chunk):
            try:
                got = [(f.entity_id, f.timestamps.tobytes(),
                        {c: v.tobytes() for c, v in f.channels.items()}, f.label, f.static)
                       for f in load_series_csv(path, channels, static_columns=statics)]
            except DataError as exc:
                got = (type(exc), str(exc))
    assert got == expected


# --- train/test split ------------------------------------------------------------


@pytest.mark.parametrize(
    ("n", "fraction", "expected"),
    [(10, 0.2, (8, 2)), (10, 0.95, (1, 9)), (10, 0.3, (7, 3)), (5, 0.5, (3, 2))],
)
def test_split_sizes_round_in_favor_of_training(
    n: int, fraction: float, expected: tuple[int, int]
) -> None:
    table = make_table([list(range(n))], [i % 2 for i in range(n)])
    train, test = split(table, test_fraction=fraction, seed=0)
    assert (train.n_rows, test.n_rows) == expected


def test_split_is_deterministic_per_seed() -> None:
    table = make_table([list(range(30))], [i % 2 for i in range(30)])
    first = split(table, test_fraction=0.25, seed=4)
    second = split(table, test_fraction=0.25, seed=4)
    third = split(table, test_fraction=0.25, seed=5)
    assert first[1].row_ids == second[1].row_ids
    assert first[1].row_ids != third[1].row_ids


@given(st.integers(min_value=2, max_value=200),
       st.floats(min_value=0.01, max_value=0.99),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_split_partitions_the_rows(n: int, fraction: float, seed: int) -> None:
    table = make_table([list(range(n))], [0] * (n - 1) + [1])
    try:
        train, test = split(table, test_fraction=fraction, seed=seed)
    except DegenerateSplit:
        n_test = int(math.floor(n * fraction + 1e-9))
        assert n_test == 0 or n_test == n
        return
    assert train.n_rows + test.n_rows == n
    assert sorted(train.row_ids + test.row_ids) == sorted(table.row_ids)


def test_split_rejects_degenerate_fractions() -> None:
    table = make_table([[1.0, 2.0]], [0, 1])
    for fraction in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(DegenerateSplit):
            split(table, test_fraction=fraction, seed=0)


def test_split_rejects_a_negative_seed() -> None:
    table = make_table([[1.0, 2.0, 3.0, 4.0]], [0, 1, 0, 1])
    with pytest.raises(DataError, match="seed"):
        split(table, test_fraction=0.5, seed=-3)

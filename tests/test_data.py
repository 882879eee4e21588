"""Tables, CSV round trips, time-series featurization, and splitting."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import make_table
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
        [[0.1 + 0.2, 1.0 / 3.0, -1e-17], ["a", "b", "a"]],
        [0, 1, 1],
        kinds=["continuous", "categorical"],
        names=["x", "c"],
        row_ids=["r0", "r1", "r2"],
    )
    path = str(tmp_path / "t.csv")
    write_csv(table, path, include_row_id=True)
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


def test_resample_rejects_bad_interval_and_empty_series() -> None:
    with pytest.raises(DataError):
        resample_series(series([0], [1.0]), interval_s=0)
    with pytest.raises(EmptySeries):
        resample_series(
            SeriesFrame(entity_id="e", timestamps=np.asarray([], dtype=np.int64),
                        channels={"hr": np.asarray([], dtype=np.float64)}, label=0)
        )


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
    with pytest.raises(InvalidLabel):
        load_series_csv(str(path), channel_columns=["hr"])

    path.write_text("entity_id,timestamp_s,label\na,0,1\n", encoding="utf-8")
    with pytest.raises(MissingColumn):
        load_series_csv(str(path), channel_columns=["hr"])


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

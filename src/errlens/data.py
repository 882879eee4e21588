"""Tabular and time-series data handling.

The core container is :class:`LabeledTable`: a columnar, immutable table of
continuous (float64) and categorical (str) feature columns plus binary labels
and unique row ids.  Time-series inputs are carried by :class:`SeriesFrame`
and turned into labeled tables via :func:`resample_series` and
:func:`featurize_rolling`.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Literal, NoReturn, Sequence

import numpy as np
# numpy imports numpy.random on first use, for the first split or draw;
# importing it with errlens puts that cost in start-up, not in the run
import numpy.random  # noqa: F401

from .errors import (
    DataError,
    DegenerateSplit,
    DuplicateRowId,
    EmptySeries,
    InvalidLabel,
    MissingColumn,
    NonNumericCell,
    SeriesTooShort,
    UnknownFeature,
)

FeatureKind = Literal["continuous", "categorical"]

_NAME_FORBIDDEN = set(' \t\n\r,"')


def _check_feature_name(name: str) -> None:
    if not name or any(c in _NAME_FORBIDDEN for c in name):
        raise DataError(
            f"feature name {name!r} must be non-empty and contain no "
            "whitespace, commas, or quotes"
        )


@dataclass(frozen=True, slots=True)
class FeatureSpec:
    """Name and kind of a single feature column."""

    name: str
    kind: FeatureKind

    def __post_init__(self) -> None:
        _check_feature_name(self.name)
        if self.kind not in ("continuous", "categorical"):
            raise DataError(f"unknown feature kind {self.kind!r}")


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def category_codes(col: Sequence, cats: np.ndarray) -> np.ndarray:
    """Index of each value of ``col``, as a string, in the sorted ``cats``, or -1 if absent."""
    col = np.asarray(col, dtype=str)
    if cats.size == 0:
        return np.full(len(col), -1, dtype=np.intp)
    at = np.minimum(np.searchsorted(cats, col), cats.size - 1)
    return np.where(cats[at] == col, at, -1)


def feature_index(schema: Sequence[FeatureSpec], feature: str) -> int:
    """Position of ``feature`` in ``schema``; UnknownFeature if it is absent."""
    for i, spec in enumerate(schema):
        if spec.name == feature:
            return i
    raise UnknownFeature(f"unknown feature {feature!r}")


@dataclass(frozen=True)
class LabeledTable:
    """Immutable columnar table with binary labels and unique row ids.

    ``columns[j]`` holds feature ``schema[j]``: float64 for continuous
    features, str for categorical ones.  All columns, ``labels``, and
    ``row_ids`` have the same length.
    """

    schema: tuple[FeatureSpec, ...]
    columns: tuple[np.ndarray, ...]
    labels: np.ndarray
    row_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.schema:
            raise DataError("a table needs at least one feature")
        names = [f.name for f in self.schema]
        if len(set(names)) != len(names):
            raise DataError("feature names must be unique")
        if len(self.columns) != len(self.schema):
            raise DataError("one column per schema entry required")
        n = len(self.row_ids)
        labels = np.asarray(self.labels, dtype=np.int64)
        if labels.shape != (n,):
            raise DataError("labels must align with rows")
        if not np.isin(labels, (0, 1)).all():
            raise DataError("labels must be 0 or 1")
        cols = []
        for spec, col in zip(self.schema, self.columns):
            if spec.kind == "continuous":
                col = np.asarray(col, dtype=np.float64)
                if col.shape != (n,):
                    raise DataError(f"column {spec.name!r} must align with rows")
                if not np.isfinite(col).all():
                    raise DataError(f"column {spec.name!r} contains non-finite values")
            else:
                col = np.asarray(col, dtype=str)
                if col.shape != (n,):
                    raise DataError(f"column {spec.name!r} must align with rows")
            cols.append(_frozen(col))
        if len(set(self.row_ids)) != n:
            first: dict[str, int] = {}
            for i, rid in enumerate(self.row_ids):
                if first.setdefault(rid, i) != i:
                    raise DuplicateRowId(f"row {i}: row id {rid!r} repeats row {first[rid]}")
        object.__setattr__(self, "columns", tuple(cols))
        object.__setattr__(self, "labels", _frozen(labels))
        object.__setattr__(self, "row_ids", tuple(str(r) for r in self.row_ids))

    @property
    def n_rows(self) -> int:
        return len(self.row_ids)

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(f.name for f in self.schema)

    def index_of(self, feature: str) -> int:
        return feature_index(self.schema, feature)

    def column(self, feature: str) -> np.ndarray:
        return self.columns[self.index_of(feature)]

    def row_values(self, i: int) -> tuple[float | str, ...]:
        """Feature values of row ``i``, in schema order."""
        return tuple(col[i] for col in self.columns)

    def subset(self, indices: Sequence[int] | np.ndarray) -> "LabeledTable":
        idx = np.asarray(indices, dtype=np.intp)
        return LabeledTable(
            schema=self.schema,
            columns=tuple(col[idx] for col in self.columns),
            labels=self.labels[idx],
            row_ids=tuple(self.row_ids[i] for i in idx),
        )


def concat_tables(tables: Sequence[LabeledTable]) -> LabeledTable:
    """Stack tables with identical schemas; row ids must stay unique."""
    if not tables:
        raise DataError("nothing to concatenate")
    schema = tables[0].schema
    for t in tables[1:]:
        if t.schema != schema:
            raise DataError("all tables must share one schema")
    return LabeledTable(
        schema=schema,
        columns=tuple(
            np.concatenate([t.columns[j] for t in tables]) for j in range(len(schema))
        ),
        labels=np.concatenate([t.labels for t in tables]),
        row_ids=tuple(r for t in tables for r in t.row_ids),
    )


# --- CSV reading -------------------------------------------------------------


def read_csv(path: str, required: Iterable[str] = ()) -> Iterator[list[str]]:
    """The header row of a UTF-8 CSV file, then its data rows as they are read;
    a leading byte-order mark, as spreadsheet exports write, is skipped.

    Raises MissingColumn for an empty file or a ``required`` name the header
    lacks, and DataError for a name the header repeats, a row whose cell
    count differs from the header's, or a file that is not UTF-8 CSV.  Each
    message starts with ``path``.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if header is None:
                raise MissingColumn(f"{path}: empty file: header row required")
            for name in required:
                if name not in header:
                    raise MissingColumn(f"{path}: column {name!r} not in header")
            for name in header:
                if header.count(name) > 1:
                    raise DataError(f"{path}: column {name!r} repeats in header")
            yield header
            for row_idx, row in enumerate(reader):
                if len(row) != len(header):
                    raise DataError(f"{path}: row {row_idx}: expected {len(header)} cells")
                yield row
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"{path}: not UTF-8 CSV: {exc}") from None


# Rows parsed at once: 256 rows of 7 to 9 repr-formatted cells hold about
# 120-140 KB of cell strings, however long the file is.
_CHUNK_ROWS = 256
_LABEL_CODES = {"0": 0, "1": 1}

# How a column's cells are read: finite floats, integer seconds within int64,
# stripped 0/1 labels, numpy str, or (ids and series attributes) the strings
# themselves: numpy's fixed-width str drops trailing NULs and pads every cell
# to the longest
ColumnKind = Literal["continuous", "time", "label", "categorical", "text"]


def _read_columns(path: str, header: list[str], rows: Iterator[list[str]],
                  kinds: Sequence[tuple[str, ColumnKind]]) -> list[np.ndarray]:
    """The ``(name, kind)`` columns of the data rows left in ``rows``, under
    ``header``, converted 256 rows at a time, a column at a time; a chunk with
    a bad cell goes to :func:`_raise_first_bad_cell`."""
    columns = [(name, header.index(name), kind) for name, kind in kinds]
    # each column's chunks after an empty one of its kind, so a header-only
    # file concatenates too
    parts = [[_convert((), kind)] for _, _, kind in columns]
    start = 0
    while chunk := list(itertools.islice(rows, _CHUNK_ROWS)):
        cells = list(zip(*chunk))
        for part, (_, at, kind) in zip(parts, columns):
            if (col := _convert(cells[at], kind)) is None:
                _raise_first_bad_cell(path, chunk, start, columns)
            part.append(col)
        start += len(chunk)
    return [np.concatenate(p) for p in parts]


def _convert(cells: Sequence[str], kind: ColumnKind) -> np.ndarray | None:
    """``cells`` as one column of ``kind``, or None if any of them is bad."""
    if kind in ("categorical", "text"):
        return np.asarray(cells, dtype=str if kind == "categorical" else object)
    try:
        if kind == "label":
            codes = {cell: _LABEL_CODES[cell.strip()] for cell in set(cells)}
            return np.fromiter(map(codes.__getitem__, cells), np.int64, len(cells))
        col = np.fromiter(map(int if kind == "time" else float, cells),
                          np.int64 if kind == "time" else np.float64, len(cells))
    except (KeyError, ValueError, OverflowError):
        return None
    return col if np.isfinite(col).all() else None


def _raise_first_bad_cell(path: str, rows: list[list[str]], start: int,
                          columns: Sequence[tuple[str, int, ColumnKind]]) -> NoReturn:
    """NonNumericCell, or InvalidLabel for a label, for the first bad cell of
    ``rows``, data rows ``start`` on, in row and then ``columns`` order; the
    rows must hold one."""
    for row_idx, row in enumerate(rows, start):
        for name, at, kind in columns:
            if _convert((cell := row[at],), kind) is None:
                if kind == "label":
                    raise InvalidLabel(f"{path}: row {row_idx}: {cell.strip()!r}")
                raise NonNumericCell(f"{path}: row {row_idx}, column {name!r}: {cell!r}")
    raise AssertionError("no bad cell in the chunk")


def load_csv(path: str, *, label_column: str = "label", id_column: str | None = None,
             categorical: Sequence[str] = ()) -> LabeledTable:
    """Read a labeled table from a CSV file with a header row.

    Every column but the label and id columns is a feature, in header order:
    categorical if named in ``categorical``, else continuous.  Continuous
    cells must parse as finite numbers, labels must be 0 or 1.  Without
    ``id_column``, row ids are the 0-based data-row indices.

    Rows are parsed a chunk of 256 at a time, column by column, so a short
    row (or a file that is not UTF-8 CSV) later in the same chunk is
    reported before a bad cell or label above it; within a chunk, the first
    bad cell or label in row order is reported.
    """
    keys = (label_column,) if id_column is None else (label_column, id_column)
    rows = read_csv(path, (*keys, *categorical))
    header = next(rows)
    schema = tuple(FeatureSpec(name, "categorical" if name in categorical else "continuous")
                   for name in header if name not in keys)
    kinds: list[tuple[str, ColumnKind]] = [*((f.name, f.kind) for f in schema),
                                           (label_column, "label")]
    if id_column is not None:
        kinds.append((id_column, "text"))
    cols = _read_columns(path, header, rows, kinds)
    features, (labels, *ids) = cols[:len(schema)], cols[len(schema):]
    row_ids = tuple(ids[0] if ids else map(str, range(labels.size)))
    try:
        return LabeledTable(schema, tuple(features), labels, row_ids)
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None


def write_csv(table: LabeledTable, path: str, include_row_id: bool = False) -> None:
    """Write a table as CSV (features in schema order, then the label).

    Continuous cells use shortest round-trip formatting, so a write/load
    cycle reproduces the table exactly.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        header = ["row_id"] if include_row_id else []
        header += [f.name for f in table.schema] + ["label"]
        writer.writerow(header)
        for i in range(table.n_rows):
            row: list[str] = [table.row_ids[i]] if include_row_id else []
            for spec, col in zip(table.schema, table.columns):
                row.append(repr(float(col[i])) if spec.kind == "continuous"
                           else str(col[i]))
            row.append(str(int(table.labels[i])))
            writer.writerow(row)


# --- time series -------------------------------------------------------------


@dataclass(frozen=True)
class SeriesFrame:
    """One entity's multichannel time series with a single binary label.

    ``static`` carries per-entity categorical attributes that are replicated
    onto every featurized row (e.g. demographic fields).
    """

    entity_id: str
    timestamps: np.ndarray  # int64 seconds, strictly increasing
    channels: dict[str, np.ndarray]  # name -> float64, aligned with timestamps
    label: int
    static: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        ts = np.asarray(self.timestamps, dtype=np.int64)
        if ts.ndim != 1:
            raise DataError("timestamps must be one-dimensional")
        if not (ts[1:] > ts[:-1]).all():
            raise DataError("timestamps must be strictly increasing")
        chans = {}
        for name, values in self.channels.items():
            _check_feature_name(name)
            arr = np.asarray(values, dtype=np.float64)
            if arr.shape != ts.shape:
                raise DataError(f"channel {name!r} must align with timestamps")
            if not np.isfinite(arr).all():
                raise DataError(f"channel {name!r} contains non-finite values")
            chans[name] = _frozen(arr)
        if not chans:
            raise DataError("a series needs at least one channel")
        if self.label not in (0, 1):
            raise InvalidLabel(f"series {self.entity_id!r}: label {self.label!r}")
        object.__setattr__(self, "timestamps", _frozen(ts))
        object.__setattr__(self, "channels", chans)

    @property
    def n_samples(self) -> int:
        return int(self.timestamps.size)


# Most bins one series resamples onto (95 years of 300 s bins, 80 MB a float
# column): a longer grid is a DataError naming the entity, before any allocation.
MAX_RESAMPLE_BINS = 10_000_000


def resample_series(series: SeriesFrame, interval_s: int = 300) -> SeriesFrame:
    """Aggregate a series onto a regular grid of ``interval_s``-second bins.

    Each output sample sits at a bin start ``k * interval_s`` and holds the
    arithmetic mean of the raw samples falling in ``[k*i, (k+1)*i)``; bins
    without samples are forward-filled from the previous bin.  The grid starts
    at the bin containing the first raw sample, so there is nothing to fill
    before the first observation.  At most :data:`MAX_RESAMPLE_BINS` bins.
    """
    if not 0 < interval_s < 2**63:  # the grid's timestamps are int64
        raise DataError("interval_s must be positive and below 2**63")
    if series.n_samples == 0:
        raise EmptySeries(series.entity_id)
    ts = series.timestamps
    k0 = int(ts[0] // interval_s)
    k1 = int(ts[-1] // interval_s)
    n_bins = k1 - k0 + 1
    if n_bins > MAX_RESAMPLE_BINS:
        raise DataError(f"series {series.entity_id!r}: {n_bins} bins of {interval_s} s, "
                        f"more than {MAX_RESAMPLE_BINS}")
    if k0 * interval_s < -2**63:
        raise DataError(f"series {series.entity_id!r}: the first bin of {interval_s} s "
                        f"starts at {k0 * interval_s}, before the int64 timestamps")
    bin_idx = (ts // interval_s - k0).astype(np.intp)
    counts = np.bincount(bin_idx, minlength=n_bins)
    # Index of the latest non-empty bin at or before each position: the
    # forward-fill source (bin 0 is non-empty by construction).
    fill_src = np.maximum.accumulate(
        np.where(counts > 0, np.arange(n_bins), 0)
    )
    channels = {}
    for name, values in series.channels.items():
        sums = np.bincount(bin_idx, weights=values, minlength=n_bins)
        means = np.divide(sums, counts, out=np.zeros(n_bins), where=counts > 0)
        channels[name] = means[fill_src]
    return SeriesFrame(
        entity_id=series.entity_id,
        timestamps=(np.arange(k0, k1 + 1, dtype=np.int64) * interval_s),
        channels=channels,
        label=series.label,
        static=dict(series.static),
    )


def featurize_rolling(
    series: SeriesFrame,
    windows: Sequence[int] = (3, 6),
    lags: Sequence[int] = (1, 2),
) -> LabeledTable:
    """Expand a uniformly spaced series into per-time-step feature rows.

    Per channel the features are: the current value, trailing means and
    population standard deviations over each window (window includes the
    current step), and lagged values.  Only steps with full history for the
    largest window and lag produce a row; the series label is replicated to
    every row, as are the entity's static categorical attributes.  Row ids
    are ``"<entity_id>:<timestamp>"``.
    """
    windows = tuple(int(w) for w in windows)
    lags = tuple(int(a) for a in lags)
    if any(w <= 0 for w in windows) or any(a <= 0 for a in lags):
        raise DataError("windows and lags must be positive")
    ts = series.timestamps
    steps = np.diff(ts)
    if (steps[1:] != steps[:-1]).any():
        raise DataError("series must be uniformly spaced; resample it first")
    first = max(max(windows, default=1) - 1, max(lags, default=0))
    n_out = series.n_samples - first
    if n_out <= 0:
        raise SeriesTooShort(
            f"{series.entity_id!r}: {series.n_samples} samples, "
            f"need more than {first}"
        )

    names = list(series.channels)
    schema: list[FeatureSpec] = [FeatureSpec(c, "continuous") for c in names]
    columns: list[np.ndarray] = [series.channels[c][first:] for c in names]
    for c in names:
        values = series.channels[c]
        for w in windows:
            view = np.lib.stride_tricks.sliding_window_view(values, w)
            schema.append(FeatureSpec(f"{c}_mean_{w}", "continuous"))
            columns.append(view.mean(axis=1)[first - (w - 1):][:n_out])
        for w in windows:
            view = np.lib.stride_tricks.sliding_window_view(values, w)
            schema.append(FeatureSpec(f"{c}_std_{w}", "continuous"))
            columns.append(view.std(axis=1)[first - (w - 1):][:n_out])
        for a in lags:
            schema.append(FeatureSpec(f"{c}_lag_{a}", "continuous"))
            columns.append(values[first - a: series.n_samples - a])
    for key in series.static:
        schema.append(FeatureSpec(key, "categorical"))
        columns.append(np.full(n_out, series.static[key]))

    return LabeledTable(
        schema=tuple(schema),
        columns=tuple(columns),
        labels=np.full(n_out, series.label, dtype=np.int64),
        row_ids=tuple(f"{series.entity_id}:{t}" for t in ts[first:]),
    )


def load_series_csv(
    path: str,
    channel_columns: Sequence[str],
    entity_column: str = "entity_id",
    time_column: str = "timestamp_s",
    label_column: str = "label",
    static_columns: Sequence[str] = (),
) -> list[SeriesFrame]:
    """Read long-format time-series CSV into one :class:`SeriesFrame` per entity.

    Expected columns: entity id, integer timestamp in seconds (within int64),
    one column per channel, a per-entity label, and optional per-entity
    static categorical columns.  Rows may appear in any order; they are
    sorted by timestamp within each entity.  Entities appear in the output in
    first-seen order.

    Cells are read as by :func:`load_csv`: a bad label is quoted stripped, and a
    short row is reported before a bad cell above it in its 256-row chunk.
    Then the first row whose label (InvalidLabel) or static value (DataError)
    differs from its entity's first row, and then the first entity to repeat
    a timestamp (DataError), are reported.
    """
    rows = read_csv(path, (entity_column, time_column, label_column, *channel_columns,
                           *static_columns))
    header = next(rows)
    ent, t, *cols = _read_columns(path, header, rows, [
        (entity_column, "text"), (time_column, "time"),
        *((c, "continuous") for c in channel_columns), (label_column, "label"),
        *((c, "text") for c in static_columns)])
    chans, (labels, *statics) = cols[:len(channel_columns)], cols[len(channel_columns):]
    # each row's entity as the index of that entity's first row
    seen: dict[str, int] = {}
    first = np.fromiter((seen.setdefault(e, i) for i, e in enumerate(ent)), np.intp, ent.size)
    off = [col != col[first] for col in (labels, *statics)]
    if (bad := np.flatnonzero(np.logical_or.reduce(off))).size:
        i = bad[0]
        if off[0][i]:
            raise InvalidLabel(f"{path}: entity {ent[i]!r} has conflicting labels")
        raise DataError(f"{path}: entity {ent[i]!r} has conflicting static attributes")
    # entities in first-seen order, rows by timestamp, ties stable
    order = np.lexsort((t, first))
    t, first = t[order], first[order]
    if (repeat := np.flatnonzero((first[1:] == first[:-1]) & (t[1:] == t[:-1]))).size:
        i = repeat[0]
        raise DataError(f"{path}: entity {ent[first[i]]!r} repeats timestamp {t[i]}")
    starts = np.flatnonzero(np.diff(first, prepend=-1))
    return [SeriesFrame(entity_id=ent[first[lo]], timestamps=t[lo:hi],
                        channels={c: col[order[lo:hi]] for c, col in zip(channel_columns, chans)},
                        label=int(labels[first[lo]]),
                        static={c: col[first[lo]] for c, col in zip(static_columns, statics)})
            for lo, hi in zip(starts, [*starts[1:], t.size])]


# --- train/test split --------------------------------------------------------


def check_seed(seed: int, error: type[DataError] = DataError) -> None:
    """Seeds are unsigned 64-bit integers, so none is reduced onto another."""
    if not 0 <= seed < 2**64:
        raise error("seed must be within [0, 2**64)")


def split(
    table: LabeledTable, test_fraction: float, seed: int
) -> tuple[LabeledTable, LabeledTable]:
    """Deterministic seeded shuffle split; train gets ceil(n*(1-f)) rows."""
    if not 0.0 < test_fraction < 1.0:
        raise DegenerateSplit(f"test_fraction {test_fraction!r} not in (0, 1)")
    check_seed(seed)
    n = table.n_rows
    # ceil(n*(1-f)) == n - floor(n*f); nudge so e.g. n=10, f=0.3 puts
    # exactly 3 rows in the test side despite 10*0.3 != 3.0 in binary.
    n_train = n - int(math.floor(n * test_fraction + 1e-9))
    if n_train <= 0 or n_train >= n:
        raise DegenerateSplit(f"split of {n} rows leaves an empty side")
    perm = np.random.default_rng(seed).permutation(n)
    return table.subset(perm[:n_train]), table.subset(perm[n_train:])

"""Hourly SCADA-style sensor matrices: the DatasetFrame, CSV ingestion
and writing, and robust scaling. EDGE_FEATURES names the columns of each
edge area; `DatasetFrame.select` cuts an edge's frame out of a full one.
Finiteness, of a frame's values and of what the C reader read, is tested
by `errors._all_finite`, the package's one finiteness test. A frame's
time axis is a `range`, which holds one uniform step by its type and
cannot wrap: a frame checks only its length and the sign of its step."""

from __future__ import annotations

import csv
import math
import re
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DimensionError, IngestionError, NumericError, _all_finite,
                     _check_binary, _check_number)

LABEL_COLUMN = "ATT_FLAG"
DATETIME_COLUMN = "DATETIME"

# Feature subsets belonging to the three edge areas of the C-Town network.
EDGE_FEATURES: dict[int, tuple[str, ...]] = {
    1: (
        "L_T1", "F_PU1", "S_PU1", "F_PU2", "S_PU2", "F_PU3", "S_PU3",
        "P_J280", "P_J269",
    ),
    2: (
        "L_T2", "L_T3", "L_T4", "F_PU4", "S_PU4", "F_PU5", "S_PU5",
        "P_J300", "P_J256", "F_PU6", "S_PU6", "F_PU7", "S_PU7",
        "P_J289", "P_J415", "P_J14", "P_J422", "F_V2", "S_V2",
    ),
    3: (
        "L_T5", "L_T6", "L_T7", "F_PU8", "S_PU8", "F_PU9", "S_PU9",
        "P_J302", "P_J306", "F_PU10", "S_PU10", "F_PU11", "S_PU11",
        "P_J307", "P_J317",
    ),
}


@dataclass
class DatasetFrame:
    """A time-indexed matrix of sensor features with optional attack labels.

    values has shape (T, F), one finite column per name in feature_names,
    which must be unique; timestamps are the integer hours of the rows, a
    `range` of T stamps (default `range(T)`) with a positive step when T
    >= 2, kept as given; anything but a range is refused by type. A range
    holds one uniform step and Python ints, so the check is O(1) and no
    stamp wraps. Labels, if present, must be 0 or 1 per row. feature_names
    and datetimes may be lists or tuples; a str, which would be read as one
    name or stamp per character, is refused. Derived frames (`select`,
    `with_values`, `apply_scaler`) are built by this constructor too, so
    every frame has passed every check.
    """

    feature_names: list[str]
    values: np.ndarray
    labels: np.ndarray | None = None
    timestamps: range | None = None
    datetimes: list[str] | None = None

    def __post_init__(self):
        for field_name in ("feature_names", "datetimes"):
            if isinstance(getattr(self, field_name), str):
                raise ConfigError(f"{field_name} must be a list, got str")
        names = self.feature_names
        self.values = values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise DimensionError(f"values must be 2-D, got shape {values.shape}")
        if len(names) != values.shape[1]:
            raise DimensionError(f"{len(names)} feature names for {values.shape[1]} columns")
        if len(set(names)) != len(names):
            raise IngestionError("duplicate feature names")
        if not _all_finite(values):
            raise NumericError("values contain non-finite entries")
        n = values.shape[0]
        stamps = self.timestamps
        if stamps is None:
            self.timestamps = range(n)
        elif not isinstance(stamps, range):
            raise ConfigError(f"timestamps must be a range, got {type(stamps).__name__}")
        # Compared, not measured: len() of a range beyond sys.maxsize raises.
        elif stamps != range(stamps.start, stamps.start + n * stamps.step, stamps.step):
            raise DimensionError("timestamps length must equal row count")
        elif stamps.step < 0 and n > 1:
            raise ConfigError("timestamps must be strictly increasing with uniform spacing")
        if self.labels is not None:
            labels = np.asarray(self.labels)
            if labels.shape != (n,):
                raise DimensionError("labels length must equal row count")
            _check_binary(labels)
            self.labels = labels.astype(np.int64, copy=False)
        if self.datetimes is not None and len(self.datetimes) != n:
            raise DimensionError("datetimes length must equal row count")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @property
    def stamps(self) -> list[str] | range:
        """The time column of the CSVs written from this frame: the
        DATETIME cells when the frame has them, else the timestamps."""
        return self.timestamps if self.datetimes is None else self.datetimes

    def select(self, names: list[str] | tuple[str, ...]) -> "DatasetFrame":
        """Frame restricted to the given columns, in the given order."""
        missing = [n for n in names if n not in self.feature_names]
        if missing:
            raise IngestionError(f"missing features: {', '.join(missing)}")
        idx = [self.feature_names.index(n) for n in names]
        return self.with_values(self.values[:, idx], names)

    def with_values(self, values, feature_names=None) -> "DatasetFrame":
        """A frame with the given values (and column names, if given) over
        copies of this frame's labels and datetimes and its timestamps, a
        range, which is shared. It is built, and checked, by the constructor."""
        return DatasetFrame(
            list(self.feature_names if feature_names is None else feature_names), values,
            None if self.labels is None else self.labels.copy(), self.timestamps,
            None if self.datetimes is None else list(self.datetimes),
        )


def _check_attack_free(frame: DatasetFrame) -> None:
    """Raise ConfigError when the frame's labels mark an hour as attacked
    (a label of 1), naming the count of such hours and the first one's row
    and stamp: a model or threshold fitted on attacked hours learns the
    attacks as normal. A frame without labels passes, and so do BATADAL's
    negative sentinels, which load_csv reads as 0."""
    if frame.labels is None:
        return
    attacked = np.flatnonzero(frame.labels == 1)
    if attacked.size:
        first = int(attacked[0])
        raise ConfigError(
            f"training data has {attacked.size} of {frame.n_rows} hours labelled as "
            f"attacked ({LABEL_COLUMN} = 1), the first at row {first} "
            f"(stamp {frame.stamps[first]}); train on attack-free data"
        )


@dataclass(frozen=True)
class RobustScalerParams:
    """Per-feature median and interquartile range fitted on training data.

    Frozen, over read-only float64 copies of `median` and `iqr`, one entry
    per feature. The one check of a scaler, fitted, loaded or built by hand:
    `errors._check_number` checks each feature's median and then its IQR,
    >= 0, named `<feature>.median` and `<feature>.iqr`. Division uses
    `divisors`, fixed at construction: the IQR, with a zero IQR replaced
    by 1.0 so that constant features are centred but not rescaled.
    """

    feature_names: list[str]
    median: np.ndarray
    iqr: np.ndarray
    divisors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        names = list(self.feature_names)
        # Each entry reaches its check as it was given: a list's as objects.
        entries = [v if isinstance(v, np.ndarray) else np.array(v, dtype=object)
                   for v in (self.median, self.iqr)]
        if any(e.shape != (len(names),) for e in entries):
            raise DimensionError("median/iqr must have one entry per feature")
        for name, m, q in zip(names, *(e.tolist() for e in entries)):
            _check_number(m, f"{name}.median")
            _check_number(q, f"{name}.iqr", 0.0)
        median, iqr = _read_only(self.median), _read_only(self.iqr)
        object.__setattr__(self, "feature_names", names)
        object.__setattr__(self, "median", median)
        object.__setattr__(self, "iqr", iqr)
        object.__setattr__(self, "divisors", _read_only(np.where(iqr > 0.0, iqr, 1.0)))


def _read_only(values) -> np.ndarray:
    """A read-only float64 copy of values."""
    out = np.array(values, dtype=np.float64)
    out.flags.writeable = False
    return out


def fit_scaler(train: DatasetFrame) -> RobustScalerParams:
    """Median and IQR per feature, linear interpolation between order
    statistics, fitted on training data only (labels are ignored)."""
    if train.n_rows == 0 or train.n_features == 0:
        raise ConfigError("cannot fit a scaler on an empty dataset")
    if train.n_rows < 4:
        raise ConfigError(f"need >= 4 rows to fit the scaler, got {train.n_rows}")
    median = np.percentile(train.values, 50.0, axis=0)
    p25 = np.percentile(train.values, 25.0, axis=0)
    p75 = np.percentile(train.values, 75.0, axis=0)
    return RobustScalerParams(list(train.feature_names), median, p75 - p25)


def apply_scaler(params: RobustScalerParams, frame: DatasetFrame) -> DatasetFrame:
    """(value - median) / divisor per feature; labels pass through.

    Not idempotent: applying it to an already-scaled frame shifts and
    rescales again. Scale exactly once, with parameters fitted on the
    training slice.
    """
    if list(frame.feature_names) != params.feature_names:
        unknown = [n for n in frame.feature_names if n not in params.feature_names]
        raise ConfigError(
            "frame features do not match the fitted scaler"
            + (f" (unknown: {', '.join(unknown)})" if unknown else " (order differs)")
        )
    values = frame.values - params.median
    values /= params.divisors
    return frame.with_values(values)


# The whitespace float() ignores around a number: what str.strip() removes
# but \x1c-\x1f, which float() rejects.
_FLOAT_PADDING = re.compile(r"\A[^\S\x1c-\x1f]+|[^\S\x1c-\x1f]+\Z")


def _parse_cell(cell: str, row_number: int, column: str) -> float:
    """float(cell), which may be padded with whitespace, or an IngestionError
    that shows the cell without the padding float() ignores."""
    try:
        value = float(cell)
    except ValueError:
        shown = _FLOAT_PADDING.sub("", cell)
        raise IngestionError(
            f"row {row_number}: cannot parse {column}={shown!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise IngestionError(f"row {row_number}: non-finite value in {column}")
    return value


def _blank(row: list[str]) -> bool:
    return len(row) == 0 or (len(row) == 1 and row[0].strip() == "")


def load_csv(path) -> DatasetFrame:
    """Read an hourly sensor CSV into a DatasetFrame.

    Expects a UTF-8 file with a header row; a DATETIME column (any case)
    is kept as strings, an ATT_FLAG column (any case) becomes the label
    vector. Negative label sentinels count as 0. Blank lines are skipped.

    Every cell is checked: a ragged row, a cell that is not a number and
    a non-finite cell each raise IngestionError. When a file has several,
    the error names the first in file order: rows top to bottom, and
    within a row the feature cells left to right, then the label cell.
    Row numbers in error messages are 1-based and include the header.
    Every error message starts with the file's path.

    The file is read by read_numeric_table.
    """
    header, values, datetimes = read_numeric_table(path, _layout)
    header, feature_idx, label_idx, time_idx = _columns(header)
    try:
        return DatasetFrame(
            feature_names=[header[i] for i in feature_idx],
            values=values.take(feature_idx, axis=1),
            labels=(values[:, label_idx] > 0.5).astype(np.int64) if label_idx is not None else None,
            datetimes=datetimes if time_idx is not None else None,
        )
    except IngestionError as exc:  # duplicate feature names
        raise IngestionError(f"{path}: {exc}") from None


def _columns(header: list[str]) -> tuple[list[str], list[int], int | None, int | None]:
    """The stripped header cells, the feature columns, and the label and
    DATETIME columns (None when absent), named in any case. A second cell
    naming either raises IngestionError."""
    header = [h.strip() for h in header]
    found = []
    for name in (LABEL_COLUMN, DATETIME_COLUMN):
        cols = [i for i, h in enumerate(header) if h.upper() == name]
        if len(cols) > 1:
            raise IngestionError(
                f"header names the {name} column twice: columns {cols[0] + 1} "
                f"({header[cols[0]]!r}) and {cols[1] + 1} ({header[cols[1]]!r})"
            )
        found.append(cols[0] if cols else None)
    label_idx, time_idx = found
    feature_idx = [i for i in range(len(header)) if i not in (label_idx, time_idx)]
    return header, feature_idx, label_idx, time_idx


def _layout(header: list[str]) -> tuple[list[int], int | None]:
    """load_csv's columns: the features, then the label; DATETIME as text."""
    _, feature_idx, label_idx, time_idx = _columns(header)
    return feature_idx + ([] if label_idx is None else [label_idx]), time_idx


def read_numeric_table(path, layout, header=()) -> tuple[list[str], np.ndarray, list[str]]:
    """(header, values, texts) of a UTF-8 CSV table whose header starts
    with `header`. `layout(header)` gives the columns to parse, in the order
    their cells are checked, and the column kept as text (None for none):
    `texts` holds its stripped cells. `values` has one float64 column per
    header cell, 0 in the text column and in any column not parsed.

    numpy's C text reader reads the file. A file it refuses, or might read
    otherwise than csv.reader and float() do, goes to the reference reader,
    which raises at the first bad cell, rows top to bottom; either way the
    table is the one the reference gives. Errors are IngestionErrors that
    start with the path."""
    path = Path(path)
    try:
        return _read_numbers(path, layout, header) or _read_csv_reference(path, layout, header)
    except UnicodeDecodeError:
        message = "not UTF-8 text"
    except (csv.Error, IngestionError) as exc:
        message = str(exc)
    raise IngestionError(f"{path}: {message}") from None


def _read_csv_reference(path: Path, layout, header):
    """read_numeric_table's reference reader, in one pass: the header by
    csv.reader, the rows by read_table and each cell by _parse_cell."""
    with path.open(newline="", encoding="utf-8-sig") as fh:
        names = next(csv.reader(fh), None)
    if names is None:
        raise IngestionError("empty file")
    names = [h.strip() for h in names]
    if all(h == "" for h in names):
        raise IngestionError("header row is empty")
    columns, text_idx = layout(names)
    row_values, values, texts = [0.0] * len(names), array("d"), []
    for row_number, row in read_table(path, header):
        for i in columns:
            row_values[i] = _parse_cell(row[i], row_number, names[i])
        values.extend(row_values)
        if text_idx is not None:
            texts.append(row[text_idx].strip())
    if not values:
        raise IngestionError("no data rows")
    return names, np.frombuffer(values).reshape(-1, len(names)), texts


# Bytes on which numpy's C text reader, called without quoting, and
# csv.reader with float() can disagree. A quote: csv.reader unquotes a
# cell, and a quoted cell may span lines. NUL: csv.reader rejects it before
# Python 3.11. \x1c-\x1f: numpy strips them around a number as whitespace,
# float() does not.
_REFERENCE_ONLY_BYTES = (b'"', b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


def _c_reader_agrees(path: Path) -> bool:
    """Whether numpy's C reader can read the file only as csv.reader and
    float() do: it has none of _REFERENCE_ONLY_BYTES, and a line break in
    every full block of half csv.field_size_limit() bytes (at most 64 KiB),
    so that no line, and so no cell, is longer than csv.reader allows.
    Reads the file in such blocks."""
    span = max(min(csv.field_size_limit(), 1 << 17) // 2, 1)
    with path.open("rb") as fh:
        while block := fh.read(span):
            if any(byte in block for byte in _REFERENCE_ONLY_BYTES):
                return False
            if len(block) == span and b"\n" not in block and b"\r" not in block:
                return False
    return True


def _read_numbers(path: Path, layout, prefix):
    """read_numeric_table's table as numpy's C text reader reads it, with
    every cell outside the text column a finite number. None when that
    reader refuses the table or might read it otherwise than the reference
    reader does, and for a ragged row, no data row, no numeric column or
    a header row that is blank or does not start with `prefix`."""
    if not _c_reader_agrees(path):
        return None
    texts = []

    def keep(cell: str) -> float:
        texts.append(cell.strip())
        return 0.0

    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            header = next(csv.reader([fh.readline()]))
            text_idx = layout(header)[1]
            # No numeric column (for one text column, csv.reader reads a
            # whitespace-only line as blank, numpy as a cell), or a header
            # that the reference reader refuses.
            if (len(header) - (text_idx is not None) < 1 or header[: len(prefix)] != list(prefix)
                    or all(h.strip() == "" for h in header)):
                return None
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
                # encoding="utf-8" hands the converter str cells; numpy < 2
                # defaults to "bytes", which hands it latin-1 bytes. The
                # open stream's own encoding is what decodes the file.
                values = np.loadtxt(
                    fh, dtype=np.float64, delimiter=",", comments=None, ndmin=2,
                    encoding="utf-8",
                    converters=None if text_idx is None else {text_idx: keep},
                )
    except ValueError:  # UnicodeDecodeError included
        return None
    if values.shape[0] == 0 or values.shape[1] != len(header) or not _all_finite(values):
        return None
    return header, values, texts


def save_csv(frame: DatasetFrame, path) -> None:
    """Write a frame in the same schema load_csv reads (shortest float
    representation that round-trips, so output is byte-deterministic).
    A feature that load_csv would read back as the label or DATETIME
    column raises ConfigError before the file is opened."""
    for name in frame.feature_names:
        column = name.strip().upper()
        if column in (LABEL_COLUMN, DATETIME_COLUMN):
            raise ConfigError(f"feature {name!r} would be read back as the {column} column")
    named = [(DATETIME_COLUMN, frame.datetimes), *zip(frame.feature_names, frame.values.T),
             (LABEL_COLUMN, frame.labels)]
    named = [(name, column) for name, column in named if column is not None]
    write_table(path, [name for name, _ in named], [column for _, column in named])


# Rows per write_table write: the per-call cost is spread thin, and a
# block's floats and text stay small beside a long table's arrays.
_BLOCK_ROWS = 1024


def write_table(path, header, columns) -> None:
    """Write a UTF-8 CSV table (excel dialect, CRLF line ends): the header
    row, then one row per index of the columns, which must be equally long
    (DimensionError otherwise, before the file is opened). The bytes are
    csv.writer's.

    A 1-D numeric numpy column is written as the repr of each tolist()
    entry: floats as their shortest round-tripping repr, integers as
    decimals, booleans as True/False; a range, such as a frame's
    timestamps, as the repr of each int. Every other cell (the header, text
    such as DATETIME stamps, the entries of any other column) is quoted
    as the excel dialect quotes it, by _excel_cell. Rows are written in
    blocks of _BLOCK_ROWS, one write call each, so beyond the columns the
    memory used is bounded by a block."""
    columns = [c if isinstance(c, (np.ndarray, list, range)) else list(c) for c in columns]
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise DimensionError(f"columns of unequal length {sorted(lengths)}")
    head = ",".join(map(_excel_cell, header))
    if len(header) == 1:
        head = _lone_cell(head)
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        fh.write(head + "\r\n")
        for start in range(0, lengths.pop() if lengths else 0, _BLOCK_ROWS):
            block = slice(start, start + _BLOCK_ROWS)
            rows = map(",".join, zip(*(_cells(column[block]) for column in columns)))
            if len(columns) == 1:
                rows = map(_lone_cell, rows)
            fh.write("\r\n".join(rows) + "\r\n")


def _cells(column):
    """The cell texts of a block of one write_table column."""
    if isinstance(column, range):
        return map(repr, column)
    if not isinstance(column, np.ndarray):
        return map(_excel_cell, column)
    numeric = column.ndim == 1 and column.dtype.kind in "biuf"
    return map(repr if numeric else _excel_cell, column.tolist())


# A cell holding any of these is quoted by csv.writer's excel dialect.
_NEEDS_QUOTES = re.compile('[",\r\n]')


def _excel_cell(value) -> str:
    """A cell as csv.writer's excel dialect writes it in a row of several:
    None as empty, anything else as str(), quoted, with its quotes
    doubled, when it holds a quote, a comma, CR or LF."""
    text = "" if value is None else str(value)
    if _NEEDS_QUOTES.search(text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _lone_cell(cell: str) -> str:
    """The row of one cell: csv.writer quotes a lone empty cell, so that
    the row is not read back as blank."""
    return cell or '""'


def read_table(path, header=()):
    """Yield (row_number, cells) for each non-blank data row of a UTF-8 CSV
    table whose header starts with `header`; rows are numbered from 1 at
    the header. Rows are checked as they are read, so a caller checking
    cells meets the first bad row in file order. Errors are IngestionErrors
    relative to the file ("row 3: ...", "not UTF-8 text"): the caller names it."""
    try:
        with Path(path).open(newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            first = next(reader, [])
            if first[: len(header)] != list(header):
                raise IngestionError(f"expected a header starting with {','.join(header)}")
            for row_number, row in enumerate(reader, start=2):
                if _blank(row):
                    continue
                if len(row) != len(first):
                    raise IngestionError(
                        f"row {row_number}: expected {len(first)} cells, got {len(row)}"
                    )
                yield row_number, row
    except UnicodeDecodeError:
        raise IngestionError("not UTF-8 text") from None
    except csv.Error as exc:
        raise IngestionError(str(exc)) from None

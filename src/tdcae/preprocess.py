"""Hourly SCADA-style sensor matrices: the DatasetFrame, CSV ingestion
and writing, and robust scaling. EDGE_FEATURES names the columns of each
edge area; `DatasetFrame.select` cuts an edge's frame out of a full one."""

from __future__ import annotations

import csv
import math
import operator
import warnings
from array import array
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, IngestionError, NumericError

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

    values has shape (T, F); timestamps are integer hour indices, strictly
    increasing with uniform spacing; labels (if present) are 0/1 per row.
    """

    feature_names: list[str]
    values: np.ndarray
    labels: np.ndarray | None = None
    timestamps: np.ndarray | None = None
    datetimes: list[str] | None = None

    def __post_init__(self):
        self.values = _checked_values(self.values, self.feature_names, unique=True)
        if self.timestamps is None:
            self.timestamps = np.arange(self.values.shape[0], dtype=np.int64)
        else:
            self.timestamps = np.asarray(self.timestamps, dtype=np.int64)
            if self.timestamps.shape != (self.values.shape[0],):
                raise DimensionError("timestamps length must equal row count")
            if self.values.shape[0] > 1:
                steps = self.timestamps[1:] - self.timestamps[:-1]
                if steps[0] <= 0 or (steps != steps[0]).any():
                    raise ConfigError(
                        "timestamps must be strictly increasing with uniform spacing"
                    )
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int64)
            if self.labels.shape != (self.values.shape[0],):
                raise DimensionError("labels length must equal row count")
        if self.datetimes is not None and len(self.datetimes) != self.values.shape[0]:
            raise DimensionError("datetimes length must equal row count")

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    @property
    def stamps(self) -> list[str] | np.ndarray:
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
        copies of this frame's labels, timestamps and datetimes.

        Only what new values can break is checked again: the values must be
        a 2-D float64 matrix with this frame's row count, one column per
        name, and finite; new names must be unique. The copied fields come
        from a checked frame and are not checked twice. Errors are those of
        the constructor."""
        names = list(self.feature_names if feature_names is None else feature_names)
        values = _checked_values(values, names, unique=feature_names is not None)
        if values.shape[0] != self.values.shape[0]:
            raise DimensionError("timestamps length must equal row count")
        out = object.__new__(DatasetFrame)
        out.feature_names = names
        out.values = values
        out.labels = None if self.labels is None else self.labels.copy()
        out.timestamps = self.timestamps.copy()
        out.datetimes = None if self.datetimes is None else list(self.datetimes)
        return out


def _checked_values(values, names, unique: bool) -> np.ndarray:
    """values as a float64 matrix with one finite column per name; names
    must be unique when `unique` is set."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise DimensionError(f"values must be 2-D, got shape {values.shape}")
    if len(names) != values.shape[1]:
        raise DimensionError(f"{len(names)} feature names for {values.shape[1]} columns")
    if unique and len(set(names)) != len(names):
        raise IngestionError("duplicate feature names")
    if not np.isfinite(values).all():
        raise NumericError("values contain non-finite entries")
    return values


@dataclass(frozen=True)
class RobustScalerParams:
    """Per-feature median and interquartile range fitted on training data.

    Frozen, over read-only float64 copies of `median` and `iqr`, which must
    be finite with iqr >= 0. Division uses `divisors`, fixed at
    construction: the IQR, with a zero IQR replaced by 1.0 so that
    constant features are centred but not rescaled.
    """

    feature_names: list[str]
    median: np.ndarray
    iqr: np.ndarray
    divisors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        median, iqr = _read_only(self.median), _read_only(self.iqr)
        n = len(self.feature_names)
        if median.shape != (n,) or iqr.shape != (n,):
            raise DimensionError("median/iqr must have one entry per feature")
        if not (np.isfinite(median).all() and np.isfinite(iqr).all()):
            raise ConfigError("median/iqr entries must be finite")
        if (iqr < 0).any():
            raise ConfigError("iqr entries must be >= 0")
        object.__setattr__(self, "feature_names", list(self.feature_names))
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
    if list(frame.feature_names) != list(params.feature_names):
        unknown = [n for n in frame.feature_names if n not in params.feature_names]
        raise ConfigError(
            "frame features do not match the fitted scaler"
            + (f" (unknown: {', '.join(unknown)})" if unknown else " (order differs)")
        )
    return frame.with_values((frame.values - params.median) / params.divisors)


def invert_scaler(params: RobustScalerParams, frame: DatasetFrame) -> DatasetFrame:
    """Undo apply_scaler: value * divisor + median."""
    if list(frame.feature_names) != list(params.feature_names):
        raise ConfigError("frame features do not match the fitted scaler")
    return frame.with_values(frame.values * params.divisors + params.median)


def _parse_cell(cell: str, row_number: int, column: str) -> float:
    try:
        value = float(cell)
    except ValueError:
        raise IngestionError(
            f"row {row_number}: cannot parse {column}={cell!r} as a number"
        ) from None
    if not math.isfinite(value):
        raise IngestionError(f"row {row_number}: non-finite value in {column}")
    return value


def _blank(row: list[str]) -> bool:
    return len(row) == 0 or (len(row) == 1 and row[0].strip() == "")


def _raise_first_bad_cell(path: Path, header: list[str], columns: list[int]):
    """Re-read the file row by row, cell by cell, and raise the
    IngestionError that names its first bad cell (or ragged row)."""
    for row_number, row in read_table(path):
        for i in columns:
            _parse_cell(row[i].strip(), row_number, header[i])
    raise IngestionError(f"{path}: changed while it was read")


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

    numpy's C text reader reads the file. A file it refuses, or might read
    otherwise than csv.reader and float() do, goes to the reference reader
    (csv.reader, float() per cell), which loads it or raises the error
    above; either way the frame is the one the reference gives.
    """
    path = Path(path)
    try:
        return _read_csv(path)
    except UnicodeDecodeError:
        raise IngestionError(f"{path}: not UTF-8 text") from None
    except csv.Error as exc:
        raise IngestionError(f"{path}: {exc}") from None


def _read_csv(path: Path) -> DatasetFrame:
    """load_csv's reader: numpy's C text reader, or the reference reader
    for a file that the C reader refuses."""
    table = _read_numbers(path, lambda header: _columns(header)[3])
    if table is None:
        return _read_csv_reference(path)
    header, values, datetimes = table
    header, feature_idx, label_idx, time_idx = _columns(header)
    if all(h == "" for h in header):
        return _read_csv_reference(path)
    return DatasetFrame(
        feature_names=[header[i] for i in feature_idx],
        values=values.take(feature_idx, axis=1),  # C order, as the reference gives
        labels=(values[:, label_idx] > 0.5).astype(np.int64) if label_idx is not None else None,
        datetimes=datetimes if time_idx is not None else None,
    )


def _columns(header: list[str]) -> tuple[list[str], list[int], int | None, int | None]:
    """The stripped header cells, the feature columns, and the label and
    DATETIME columns (None when absent), named in any case."""
    header = [h.strip() for h in header]
    label_idx = next((i for i, h in enumerate(header) if h.upper() == LABEL_COLUMN), None)
    time_idx = next((i for i, h in enumerate(header) if h.upper() == DATETIME_COLUMN), None)
    feature_idx = [i for i in range(len(header)) if i not in (label_idx, time_idx)]
    return header, feature_idx, label_idx, time_idx


def _read_csv_reference(path: Path) -> DatasetFrame:
    """load_csv's reference reader: csv.reader, and float() per cell."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestionError(f"{path}: empty file") from None
        header, feature_idx, label_idx, time_idx = _columns(header)
        if not header or all(h == "" for h in header):
            raise IngestionError(f"{path}: header row is empty")

        columns = feature_idx + ([] if label_idx is None else [label_idx])
        width = len(header)
        # itemgetter returns a tuple only for two or more indices.
        pick = (
            operator.itemgetter(*feature_idx)
            if len(feature_idx) > 1
            else lambda row: [row[i] for i in feature_idx]
        )

        # Cells stream into flat float64 buffers; float() accepts the
        # surrounding whitespace that the error path strips.
        values, labels, datetimes = array("d"), array("d"), []
        n_rows = 0
        try:
            for row in reader:
                if len(row) != width or width == 1:  # blank or ragged
                    if _blank(row):
                        continue
                    if len(row) != width:
                        raise ValueError("ragged row")
                values.extend(map(float, pick(row)))
                if label_idx is not None:
                    labels.append(float(row[label_idx]))
                if time_idx is not None:
                    datetimes.append(row[time_idx].strip())
                n_rows += 1
        except UnicodeDecodeError:
            raise
        except ValueError:
            _raise_first_bad_cell(path, header, columns)

    values = np.frombuffer(values).reshape(n_rows, len(feature_idx))
    labels = np.frombuffer(labels)
    if not (np.isfinite(values).all() and np.isfinite(labels).all()):
        _raise_first_bad_cell(path, header, columns)
    if n_rows == 0:
        raise IngestionError(f"{path}: no data rows")
    return DatasetFrame(
        feature_names=[header[i] for i in feature_idx],
        values=values,
        labels=(labels > 0.5).astype(np.int64) if label_idx is not None else None,
        datetimes=datetimes if time_idx is not None else None,
    )


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


def _read_numbers(path: Path, text_index):
    """(header, values, texts) of a CSV table read by numpy's C text reader,
    or None when that reader refuses the table or might read it otherwise
    than the reference readers, csv.reader with float(), do.

    The header row is csv.reader's cells of the first line. `values` is
    the float64 matrix of the data rows, blank lines skipped, one column
    per header cell. The column `text_index(header)` (None for none) is
    kept as text: `texts` holds its stripped cells and its `values` are 0.
    Every other cell is a finite number; a table with a ragged row, with
    no data row or with no numeric column gives None."""
    if not _c_reader_agrees(path):
        return None
    texts = []

    def keep(cell: str) -> float:
        texts.append(cell.strip())
        return 0.0

    try:
        with path.open(newline="", encoding="utf-8") as fh:
            header = next(csv.reader([fh.readline()]))
            text_idx = text_index(header)
            # No numeric column. For one text column, csv.reader reads a
            # whitespace-only line as blank, numpy as a cell.
            if len(header) - (text_idx is not None) < 1:
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
    if values.shape[0] == 0 or values.shape[1] != len(header) or not np.isfinite(values).all():
        return None
    return header, values, texts


def save_csv(frame: DatasetFrame, path) -> None:
    """Write a frame in the same schema load_csv reads (shortest float
    representation that round-trips, so output is byte-deterministic)."""
    named = [(DATETIME_COLUMN, frame.datetimes), *zip(frame.feature_names, frame.values.T),
             (LABEL_COLUMN, frame.labels)]
    named = [(name, column) for name, column in named if column is not None]
    write_table(path, [name for name, _ in named], [column for _, column in named])


def write_table(path, header, columns) -> None:
    """Write a UTF-8 CSV table (excel dialect, CRLF line ends): the header
    row, then one row per index of the equally long columns. numpy
    columns go through tolist(), so floats are written as their shortest
    round-tripping repr and integers as decimals."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        )


def read_table(path, header=()):
    """Yield (row_number, cells) for each non-blank data row of a UTF-8 CSV
    table whose header starts with `header`; rows are numbered from 1 at
    the header. Rows are checked as they are read, so a caller checking
    cells meets the first bad row in file order. Errors are IngestionErrors
    relative to the file ("row 3: ...", "not UTF-8 text"): the caller names it."""
    try:
        with Path(path).open(newline="", encoding="utf-8") as fh:
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

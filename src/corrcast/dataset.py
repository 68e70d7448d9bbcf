"""Loading, validation and splitting of M4-format time-series data.

The M4 distribution stores each frequency group as a ragged CSV: a header
row followed by one row per series, the series id in the first cell and the
observations in the remaining cells, with trailing empty cells allowed.
Metadata (seasonal pattern, horizon, starting date) lives in a separate
info CSV.

This module owns corrcast's CSV format. Every CSV the package reads (the
ragged files, the info file, the audit's exclusion list) streams through
``_csv_rows``: UTF-8 with a leading byte-order mark dropped, blank lines
skipped, the first non-blank row the header, an empty file refused, and
errors naming the file and a row's id or line.
Every CSV it writes goes through ``write_csv``, in the ``csv`` module's
default dialect.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field, replace
from datetime import date, datetime
from pathlib import Path
from typing import Iterable, Iterator, Mapping

import numpy as np

FREQUENCY_LABELS = ("Hourly", "Daily", "Weekly", "Monthly", "Quarterly", "Yearly")

# Series-length range observed in the Daily group; lengths outside it are
# suspicious but not invalid.
DAILY_LENGTH_RANGE = (93, 9919)

DEFAULT_HORIZON = 14

_DATE_FORMATS = (
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
    "%d-%m-%y %H:%M",
    "%d-%m-%Y %H:%M",
    "%d-%m-%Y",
)


class LoadError(ValueError):
    """Raised when an input file violates the expected format."""


def _read_only_float64(values) -> bool:
    """Whether ``values`` is a native float64 ndarray that neither it nor
    any of its bases lets anyone write: an array that owns its memory, or a
    view whose chain of bases ends at one."""
    if type(values) is not np.ndarray or values.dtype != np.float64:
        return False
    while isinstance(values, np.ndarray):
        if values.flags.writeable:
            return False
        values = values.base
    return values is None


@dataclass(frozen=True)
class TimeSeries:
    """One univariate series: id, float64 values, and optional metadata.

    Values are stored read-only so a loaded dataset can be shared freely
    across worker processes and threads. A float64 ndarray that is
    read-only, and all of whose bases are too (such as a read-only view of a
    read-only array), is adopted as it is: the series shares its memory, and
    the caller hands over values that nobody writes. Every other input, a
    writeable array or a view of one included, is copied into a new
    read-only float64 array (a float32 or int input is converted), so a
    caller's later writes never reach the series. Values that are empty,
    not 1-D or not finite raise ValueError, adopted or copied.
    """

    id: str
    values: np.ndarray
    frequency_label: str = "Daily"
    horizon: int = DEFAULT_HORIZON
    start_date: date | None = None

    def __post_init__(self):
        vals = self.values
        if not _read_only_float64(vals):
            vals = np.array(vals, dtype=np.float64)
            vals.flags.writeable = False
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError(f"series {self.id!r} must hold a non-empty 1-D value array")
        if not np.all(np.isfinite(vals)):
            raise ValueError(f"series {self.id!r} contains non-finite values")
        if self.horizon < 1:
            raise ValueError(f"series {self.id!r} has non-positive horizon {self.horizon}")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


class Dataset:
    """Ordered, immutable collection of series with unique ids.

    Iteration order equals file order; the file position (0-based here,
    1-based in the ids of M4 files) is the canonical series index used for
    deterministic tie-breaking.
    """

    def __init__(self, series: Iterable[TimeSeries]):
        self.series: list[TimeSeries] = list(series)
        self._index: dict[str, int] = {}
        for pos, ts in enumerate(self.series):
            if ts.id in self._index:
                raise LoadError(f"duplicate series id {ts.id!r}")
            self._index[ts.id] = pos

    def __len__(self) -> int:
        return len(self.series)

    def __iter__(self) -> Iterator[TimeSeries]:
        return iter(self.series)

    def __contains__(self, sid: str) -> bool:
        return sid in self._index

    def __getitem__(self, sid: str) -> TimeSeries:
        return self.series[self._index[sid]]

    def position(self, sid: str) -> int:
        """0-based file position of a series id."""
        return self._index[sid]

    def ids(self) -> list[str]:
        return [ts.id for ts in self.series]


@dataclass(frozen=True)
class InfoRecord:
    """Per-series metadata from an M4 info file."""

    frequency_label: str
    horizon: int
    start_date: date | None


@dataclass(frozen=True)
class HoldoutSplit:
    """Training prefix plus the withheld final ``h`` values of each series."""

    train: Dataset
    test: dict[str, np.ndarray] = field(default_factory=dict)


def _csv_rows(path: str | Path) -> Iterator:
    """Stream a CSV file of corrcast's format: UTF-8, a leading byte-order
    mark dropped. Yields ``(line number, row)`` for each non-blank row, the
    first being the header (LoadError ``<path>: empty file`` when there is
    none); a row's number is that of its last physical line."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        rows = ((reader.line_num, row) for row in reader if row)
        # No local keeps the header: a values file's header has a cell per
        # column of its longest series, about 0.7 MB at 9919 columns.
        try:
            yield next(rows)
        except StopIteration:
            raise LoadError(f"{path}: empty file") from None
        yield from rows


def _row_values(cells: list[str]) -> np.ndarray:
    """The decimal cells of a row, trailing empty cells dropped, as float64
    in one cast; ValueError when a cell is not a number."""
    end = len(cells)
    while end and cells[end - 1].strip() == "":
        end -= 1
    return np.array(cells[:end], dtype=np.float64)


def _bad_cell(path: str | Path, sid: str, cells: list[str]) -> LoadError:
    """The error naming the first malformed or non-finite cell of a row."""
    for i, cell in enumerate(cells):
        try:
            v = float(cell)
        except ValueError:
            return LoadError(f"{path}: malformed value in row {sid!r}, column {i + 2}: {cell!r}")
        if not math.isfinite(v):
            return LoadError(f"{path}: non-finite value in row {sid!r}, column {i + 2}: {cell!r}")
    return LoadError(f"{path}: malformed values in row {sid!r}")


def read_forecast_csv(path: str | Path) -> dict[str, np.ndarray]:
    """Read a ragged M4-layout CSV into an ordered id -> float64 values map.

    Values, test, forecast, benchmark and external-member files all share
    this layout and these rules. Files are UTF-8, with or without the
    byte-order mark spreadsheets write. The first non-blank row is a header
    and is skipped, as are blank lines. Each other row is a series id
    followed by decimal values; trailing empty cells are dropped. An empty
    id, an empty interior cell, a malformed or non-finite cell, a row with
    no values and a repeated id are errors (column numbers in error
    messages are 1-based and count the id cell).
    """
    out: dict[str, np.ndarray] = {}
    rows = _csv_rows(path)
    next(rows)
    for line, row in rows:
        sid = row[0].strip()
        if not sid:
            raise LoadError(f"{path}: row {line} has an empty series id")
        if sid in out:
            raise LoadError(f"{path}: duplicate series id {sid!r}")
        try:
            values = _row_values(row[1:])
        except ValueError:
            values = None
        if values is None or not np.isfinite(values).all():
            raise _bad_cell(path, sid, row[1:])
        if values.size == 0:
            raise LoadError(f"{path}: series {sid!r} has no values")
        out[sid] = values
    return out


def load_m4_values(path: str | Path) -> Dataset:
    """Load a ragged M4 values CSV into a Dataset (see ``read_forecast_csv``).

    A file without series is a LoadError. Each row's array is private to
    this call, so it is made read-only and the series adopts it: the values
    are held once.
    """
    rows = read_forecast_csv(path)
    if not rows:
        raise LoadError(f"{path}: no series")
    for values in rows.values():
        values.flags.writeable = False
    return Dataset(TimeSeries(id=sid, values=values) for sid, values in rows.items())


def _parse_start_date(text: str) -> date | None:
    text = text.strip()
    if not text:
        return None
    for fmt in _DATE_FORMATS:
        try:
            return datetime.strptime(text, fmt).date()
        except ValueError:
            continue
    return None


def load_m4_info(path: str | Path) -> dict[str, InfoRecord]:
    """Parse an M4 info CSV into a map id -> InfoRecord.

    Columns are located by header name: the series id column contains
    "id", the seasonal-pattern label column is "SP", plus "Horizon" and
    "StartingDate"; other columns ("Frequency" among them) are not read.
    A leading UTF-8 byte-order mark is dropped, blank lines are skipped, and
    the first non-blank row is the header. An empty id, a repeated id and a
    horizon that is not a whole number >= 1 ("14" and "14.0" are) are
    errors naming the row or the series. Unparseable dates are treated as
    absent, with one warning that counts them.
    """
    records: dict[str, InfoRecord] = {}
    unparsed = []
    rows = _csv_rows(path)
    header = [h.strip().lower() for h in next(rows)[1]]

    def find(*names, required=True):
        for name in names:
            if name in header:
                return header.index(name)
        if required:
            raise LoadError(f"{path}: missing column (expected one of {names})")
        return None

    id_col = find("m4id", "id")
    sp_col = find("sp", "frequency_label", required=False)
    horizon_col = find("horizon")
    date_col = find("startingdate", "starting_date", "start_date", required=False)

    for line, row in rows:
        sid = row[id_col].strip() if id_col < len(row) else ""
        if not sid:
            raise LoadError(f"{path}: row {line} has an empty series id")
        if sid in records:
            raise LoadError(f"{path}: duplicate series id {sid!r}")
        label = row[sp_col].strip() if sp_col is not None and sp_col < len(row) else ""
        if label and label not in FREQUENCY_LABELS:
            raise LoadError(f"{path}: unknown frequency label {label!r} for {sid!r}")
        try:
            horizon = float(row[horizon_col])
        except (ValueError, IndexError):
            horizon = math.nan
        if not (horizon >= 1.0 and horizon.is_integer()):
            raise LoadError(f"{path}: bad horizon for series {sid!r}: expected a whole "
                            "number >= 1")
        start = None
        if date_col is not None and date_col < len(row):
            raw = row[date_col]
            start = _parse_start_date(raw)
            if start is None and raw.strip():
                unparsed.append(f"{sid!r} ({raw!r})")
        records[sid] = InfoRecord(
            frequency_label=label or "Daily",
            horizon=int(horizon),
            start_date=start,
        )
    if unparsed:
        warnings.warn(
            f"{len(unparsed)} of {len(records)} series have an unparseable start date and "
            f"are treated as undated (first: {', '.join(unparsed[:5])})"
        )
    return records


def attach_meta(dataset: Dataset, info: Mapping[str, InfoRecord]) -> Dataset:
    """Return a new Dataset with info-file metadata attached to each series.

    Series without an info record keep their current metadata, with one
    warning that counts them. Daily series whose length falls outside the
    expected range are counted in one more warning only. The new series
    share the input's values.
    """
    missing = [ts.id for ts in dataset if ts.id not in info]
    if missing:
        first = ", ".join(repr(sid) for sid in missing[:5])
        warnings.warn(
            f"{len(missing)} of {len(dataset)} series have no info row and keep their "
            f"horizon and start date (first: {first})"
        )
    out = []
    odd = []
    lo, hi = DAILY_LENGTH_RANGE
    for ts in dataset:
        rec = info.get(ts.id)
        if rec is None:
            out.append(ts)
            continue
        if rec.frequency_label == "Daily" and not lo <= len(ts) <= hi:
            odd.append(f"{ts.id!r} ({len(ts)})")
        out.append(replace(ts, frequency_label=rec.frequency_label, horizon=rec.horizon,
                           start_date=rec.start_date))
    if odd:
        warnings.warn(
            f"{len(odd)} Daily series have a length outside the expected range "
            f"[{lo}, {hi}] (first: {', '.join(odd[:5])})"
        )
    return Dataset(out)


def holdout_split(dataset: Dataset, h: int) -> HoldoutSplit:
    """Move the last ``h`` values of every series into a test map.

    Every series must be strictly longer than ``h``; violations name the
    offending series. Concatenating train and test values reproduces the
    original series exactly. The train series are views of the input's
    values when those are read-only (see ``TimeSeries``).
    """
    if h < 1:
        raise ValueError(f"holdout length must be positive, got {h}")
    train = []
    test = {}
    for ts in dataset:
        if len(ts) <= h:
            raise ValueError(
                f"series {ts.id!r} has length {len(ts)} <= holdout length {h}"
            )
        train.append(replace(ts, values=ts.values[:-h]))
        test[ts.id] = ts.values[-h:].copy()
    return HoldoutSplit(train=Dataset(train), test=test)


def write_values_csv(dataset: Dataset, path: str | Path) -> None:
    """Write a Dataset back to the ragged M4 values layout.

    Values are printed with full round-trip precision, so a load/write/load
    cycle is bit-identical.
    """
    _write_ragged({ts.id: ts.values for ts in dataset}, "V", path)


def write_forecast_csv(forecasts: Mapping[str, np.ndarray], path: str | Path) -> None:
    """Write forecasts as ``id,F1,...,Fh`` rows with round-trip precision."""
    _write_ragged(forecasts, "F", path)


def _write_ragged(rows: Mapping[str, np.ndarray], letter: str, path: str | Path) -> None:
    """An ``id,<letter>1,...`` header as wide as the longest row, then one
    row per id, values with round-trip precision."""
    width = max(map(len, rows.values()), default=0)
    write_csv(path, ["id"] + [f"{letter}{i}" for i in range(1, width + 1)],
              ([sid] + [repr(float(v)) for v in np.asarray(vals).ravel()]
               for sid, vals in rows.items()))


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> None:
    """Write ``header`` and then ``rows`` as UTF-8 in the ``csv`` module's
    default dialect (CRLF line endings): every CSV corrcast writes."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

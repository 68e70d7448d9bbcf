"""Forecast pipeline: window-matching forecasts where accepted, a pointwise
median of configured forecasters elsewhere, and negative clipping last.

The pipeline works through the dataset in contiguous chunks of about
``_CHUNK_POINTS`` points, one chunk per work item of the pool. The pool
starts only when the members' estimated time, ``_SERIES_S`` per series and
``_POINT_S`` per point of the series that reach them, reaches the fork
break-even of ``indexed_map``. Chunk boundaries depend only on the series
lengths, so the output does not depend on the thread count. Within a chunk
the decomposition member (``custom``) forecasts every series that reaches
the ensemble in one call of its chunk kernel, which gives each series the
same bits as ``custom_forecast`` on that series alone; the other members
run per series.

A series' ensemble works on plain arrays: each member's output is checked
as a ``Forecast`` would check it, the survivors are stacked and sorted down
the columns, and the median is the middle row (the mean of the two middle
rows for an even count), with the same bits as ``np.median``. A median that
overflows sends the series to the naive fallback, as a series whose
members all fail goes. Each series then gets one clipped ``Forecast``
record.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ._parallel import indexed_map
from .correlator import CorrelatorMatch, CorrelatorParams, run_correlator
from .dataset import Dataset, read_forecast_csv
from .forecasters import (Forecast, _custom_long_enough, _custom_rows, custom_forecast,
                          naive_forecast, ses_forecast)

BUILTIN_MEMBERS: dict[str, Callable[[np.ndarray, int], np.ndarray]] = {
    "naive": naive_forecast,
    "ses": ses_forecast,
    "custom": custom_forecast,
}

DEFAULT_MEMBERS = ("naive", "ses", "custom")

# Points of series in one work item. It bounds the decomposition kernel's
# temporaries, about a dozen float64 arrays of this many values.
_CHUNK_POINTS = 2**15
# One-thread seconds of the default members per series and per point.
# Least squares over ``pipeline_forecast`` without the correlator on the
# four bench corpora of seed 3 (best of 5, 2 vCPU) gave 57 us and 0.11 us.
_SERIES_S, _POINT_S = 60e-6, 0.11e-6


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline configuration.

    ``correlator`` of None disables the matching stage entirely. Members
    name built-in forecasters or keys of ``external`` (forecast CSVs
    produced elsewhere, e.g. by a statistical package); an external member
    may not take a built-in's name, and must be listed in ``members``, since
    an unlisted file would be read and then ignored. ``horizon`` of None
    uses each series' own horizon; a given horizon must be at least 1.
    """

    correlator: CorrelatorParams | None = field(default_factory=CorrelatorParams)
    members: tuple[str, ...] = DEFAULT_MEMBERS
    external: Mapping[str, str | Path] = field(default_factory=dict)
    horizon: int | None = None

    def __post_init__(self):
        if self.horizon is not None and self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.correlator is None and not self.members:
            raise ValueError("at least one ensemble member is required when the "
                             "correlator is disabled")
        clash = sorted(set(self.external) & set(BUILTIN_MEMBERS))
        if clash:
            raise ValueError(f"external members {clash} have the names of built-in members; "
                             "give them other names")
        unlisted = sorted(set(self.external) - set(self.members))
        if unlisted:
            raise ValueError(f"external members {unlisted} are not listed in members; "
                             "list them or drop their forecast paths")
        unknown = [m for m in self.members
                   if m not in BUILTIN_MEMBERS and m not in self.external]
        if unknown:
            raise ValueError(
                f"unknown ensemble members {unknown}; built-ins are "
                f"{sorted(BUILTIN_MEMBERS)} and externals must have a forecast path"
            )


def _median(sid: str, parts: Sequence[np.ndarray]) -> np.ndarray:
    """Pointwise median of equal-length vectors (midpoint for even counts)."""
    if any(len(p) != len(parts[0]) for p in parts):
        raise ValueError(f"forecast length mismatch for {sid!r}: {[len(p) for p in parts]}")
    ordered = np.sort(np.vstack(parts), axis=0)
    mid = len(parts) // 2
    # np.median takes np.mean of the middle rows, and np.mean's sum starts
    # at 0.0, which turns a -0.0 into 0.0; starting at 0.0 here matches it.
    if len(parts) % 2:
        return 0.0 + ordered[mid]
    # The sum of the two middle rows can overflow; the caller checks.
    with np.errstate(over="ignore"):
        return (0.0 + ordered[mid - 1] + ordered[mid]) / 2.0


def _ensemble_values(ts, h: int, members: Sequence[str],
                     external_tables: Mapping[str, Mapping[str, np.ndarray]],
                     batched: Mapping[str, np.ndarray] | None = None) -> tuple[np.ndarray, str]:
    """Median of the members that succeed on one series; naive fallback when
    every member fails or the median overflows. ``batched`` holds the
    outputs of members already computed for this series with its chunk."""
    parts: list[np.ndarray] = []
    for name in members:
        try:
            if batched is not None and name in batched:
                vals = batched[name]
            elif name in BUILTIN_MEMBERS:
                vals = BUILTIN_MEMBERS[name](ts.values, h)
            else:
                table = external_tables[name]
                if ts.id not in table:
                    raise KeyError(f"series {ts.id!r} missing from external forecasts {name!r}")
                vals = table[ts.id]
                if len(vals) < h:
                    raise ValueError(
                        f"external forecast {name!r} for {ts.id!r} has {len(vals)} "
                        f"values, need {h}"
                    )
                vals = np.asarray(vals[:h], dtype=np.float64)
            parts.append(Forecast.checked(ts.id, vals))
        except Exception as exc:  # noqa: BLE001 - one bad member must not abort the run
            warnings.warn(f"member {name!r} failed on series {ts.id!r}: {exc}")
    if not parts:
        warnings.warn(f"all ensemble members failed on {ts.id!r}; falling back to naive")
        return naive_forecast(ts.values, h), "Naive"
    values = _median(ts.id, parts)
    if not np.isfinite(values).all():
        warnings.warn(f"ensemble median overflows on {ts.id!r}; falling back to naive")
        return naive_forecast(ts.values, h), "Naive"
    return values, "Ensemble"


def _chunks(dataset: Dataset) -> list[tuple[int, int]]:
    """(first, end) series indices of contiguous runs of series, in dataset
    order, each with at most ``_CHUNK_POINTS`` points unless it is a single
    longer series."""
    chunks, first, points = [], 0, 0
    for i, ts in enumerate(dataset):
        if points and points + len(ts) > _CHUNK_POINTS:
            chunks.append((first, i))
            first, points = i, 0
        points += len(ts)
    if len(dataset):
        chunks.append((first, len(dataset)))
    return chunks


def pipeline_forecast(dataset: Dataset, config: PipelineConfig, threads: int = 1,
                      precomputed_matches: Mapping[str, CorrelatorMatch] | None = None
                      ) -> dict[str, Forecast]:
    """Forecast every series: matching stage first, median ensemble for the
    rest, negatives clipped last. Output order equals dataset order and is
    independent of the thread count.

    ``precomputed_matches`` skips the matching scan when the caller already
    ran it (it must come from the same dataset and correlator params).
    """
    matches: Mapping[str, CorrelatorMatch] = {}
    if precomputed_matches is not None:
        matches = precomputed_matches
    elif config.correlator is not None:
        matches = run_correlator(dataset, config.correlator, threads=threads)

    external_tables = {name: read_forecast_csv(path) for name, path in config.external.items()}
    # Members whose chunk kernel forecasts a chunk's series in one call.
    chunked = [name for name in config.members if BUILTIN_MEMBERS.get(name) is custom_forecast]
    chunks = _chunks(dataset)

    def one(ts, h: int, batched: Mapping[str, np.ndarray] | None) -> tuple[np.ndarray, str]:
        match = matches.get(ts.id)
        if match is not None:
            if len(match.forecast) >= h:
                return match.forecast[:h], "Correlator"
            warnings.warn(
                f"match for {ts.id!r} provides {len(match.forecast)} values but the "
                f"horizon is {h}; using the ensemble instead"
            )
        return _ensemble_values(ts, h, config.members, external_tables, batched)

    def work(c: int) -> list[tuple[np.ndarray, str]]:
        chunk = dataset.series[slice(*chunks[c])]
        horizons = [config.horizon if config.horizon is not None else ts.horizon
                    for ts in chunk]
        # The kernel takes the series that reach the ensemble, by horizon;
        # shorter ones get the per-series function and its naive fallback.
        by_horizon: dict[int, list[int]] = {}
        for j, (ts, h) in enumerate(zip(chunk, horizons)):
            match = matches.get(ts.id)
            if (chunked and _custom_long_enough(len(ts), h)
                    and (match is None or len(match.forecast) < h)):
                by_horizon.setdefault(h, []).append(j)
        batched: list[dict[str, np.ndarray] | None] = [None] * len(chunk)
        for h, picked in by_horizon.items():
            rows, _ = _custom_rows([chunk[j].values for j in picked], h)
            for j, row in zip(picked, rows):
                batched[j] = dict.fromkeys(chunked, row)
        return [one(ts, h, b) for ts, h, b in zip(chunk, horizons, batched)]

    # Series with an accepted match skip the members.
    members_s = sum(_SERIES_S + _POINT_S * len(ts) for ts in dataset
                    if ts.id not in matches)
    results = [r for part in indexed_map(work, len(chunks), threads, members_s) for r in part]
    out: dict[str, Forecast] = {}
    for ts, (values, method) in zip(dataset, results):
        # Checked before the clip, which would turn a -inf into 0.
        clipped = np.maximum(Forecast.checked(ts.id, values), 0.0)
        out[ts.id] = Forecast(id=ts.id, values=clipped, method=method)
    return out


def naive_benchmark(dataset: Dataset, horizon: int | None = None) -> dict[str, np.ndarray]:
    """Naive (last value) forecasts for every series, the benchmark the
    relative metrics divide by."""
    out = {}
    for ts in dataset:
        h = horizon if horizon is not None else ts.horizon
        out[ts.id] = naive_forecast(ts.values, h)
    return out

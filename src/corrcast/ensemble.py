"""Forecast pipeline: window-matching forecasts where accepted, a pointwise
median of configured forecasters elsewhere, and negative clipping last.

The pipeline works through the dataset in contiguous chunks of about
``_CHUNK_POINTS`` points, one chunk per work item of the pool. The pool
starts only when the members' estimated time, ``_SERIES_S`` per series and
``_POINT_S`` per point of the series that reach them, reaches the fork
break-even of ``indexed_map``. Chunk boundaries depend only on the series
lengths, so the output does not depend on the thread count.

Within a chunk, the series that reach the ensemble are taken a horizon at a
time, and each member fills its rows of one (member, series, step) array.
Naive fills them with the last values. SES and the decomposition member
(``custom``) fill them from their chunk kernels, which give each series the
bits that its one-series function gives it. External members fill theirs
row by row from their tables. Every row is checked as a ``Forecast`` would
check it. Failed rows sort last in one sort down the member axis, and each
series' median is its middle surviving row, or the mean of the two middle
rows for an even count, with the bits of ``np.median``. A series with no
surviving member, or whose median overflows, gets the naive fallback. The
chunk's forecasts are clipped at zero once, and its warnings come in
dataset order, each series' in the order its members ran.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Mapping, Sequence

import numpy as np

from ._parallel import indexed_map
from .correlator import CorrelatorMatch, CorrelatorParams, run_correlator
from .dataset import Dataset, TimeSeries, read_forecast_csv
from .forecasters import (Forecast, _custom_long_enough, _custom_rows, _runs, _ses_rows,
                          _warn_too_short, custom_forecast, naive_forecast, ses_forecast)

BUILTIN_MEMBERS: dict[str, Callable[[np.ndarray, int], np.ndarray]] = {
    "naive": naive_forecast,
    "ses": ses_forecast,
    "custom": custom_forecast,
}

DEFAULT_MEMBERS = ("naive", "ses", "custom")

# Points of series in one work item. It bounds the decomposition kernel's
# temporaries, about a dozen float64 arrays of this many values. SES holds
# about 25 float64 values per point of a pass, 19 of them levels, so it
# scans a chunk in passes of an eighth of this, about 3 such arrays.
_CHUNK_POINTS = 2**15
# One-thread seconds of the default members per series and per point.
# Least squares over ``pipeline_forecast`` without the correlator on the
# four bench corpora of seed 3 (best of 5, 2 vCPU), in four fits, gave
# 1.5-9 us and 0.14-0.20 us.
_SERIES_S, _POINT_S = 5e-6, 0.16e-6


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


def _member_output(name: str, ts: TimeSeries, h: int,
                   external_tables: Mapping[str, Mapping[str, np.ndarray]]):
    """One series' output of a member without a chunk kernel: a built-in's
    call, or the first h values of the external member's row."""
    if name in BUILTIN_MEMBERS:
        return BUILTIN_MEMBERS[name](ts.values, h)
    table = external_tables[name]
    if ts.id not in table:
        raise KeyError(f"series {ts.id!r} missing from external forecasts {name!r}")
    vals = table[ts.id]
    if len(vals) < h:
        raise ValueError(
            f"external forecast {name!r} for {ts.id!r} has {len(vals)} "
            f"values, need {h}"
        )
    return vals[:h]


def _ensemble_rows(series: Sequence[TimeSeries], h: int, members: Sequence[str],
                   external_tables: Mapping[str, Mapping[str, np.ndarray]],
                   notes: Sequence[list]) -> tuple[np.ndarray, np.ndarray]:
    """The median of the members that succeed on each of ``series`` at
    horizon h, as a (K, h) array, and whether each series got the naive
    fallback instead. Each series' warnings go to its list in ``notes``, in
    order: a text, or (n, h) for the decomposition member's ``_warn_too_short``.
    A member output of another length than h is a ValueError."""
    k = len(series)
    last = np.fromiter((ts.values[-1] for ts in series), np.float64, k)
    # With no member, one failed row.
    stack = np.empty((max(len(members), 1), k, h))
    failed = np.zeros(stack.shape[:2], dtype=bool)
    failed[len(members):] = True
    sizes = np.full(failed.shape, h)

    def check(m: int, i: int, produce) -> None:
        try:
            vals = Forecast.checked(series[i].id, produce())
        except Exception as exc:  # noqa: BLE001 - one bad member must not abort the run
            failed[m, i] = True
            notes[i].append(f"member {members[m]!r} failed on series {series[i].id!r}: {exc}")
            return
        sizes[m, i] = vals.size
        if vals.size == h:
            stack[m, i] = vals

    for m, name in enumerate(members):
        member = BUILTIN_MEMBERS.get(name)
        if member is naive_forecast:
            stack[m] = last[:, None]
        elif member is ses_forecast:
            stack[m] = _ses_rows([ts.values for ts in series], _CHUNK_POINTS // 8)[:, None]
        elif member is custom_forecast:
            lengths = np.fromiter(map(len, series), np.intp, k)
            fits = _custom_long_enough(lengths, h)
            stack[m] = last[:, None]
            if fits.any():
                stack[m, fits] = _custom_rows([ts.values for ts, fit in zip(series, fits) if fit],
                                              h)[0]
            for i in np.flatnonzero(~fits):
                notes[i].append((int(lengths[i]), h))
        else:
            for i, ts in enumerate(series):
                check(m, i, lambda: _member_output(name, ts, h, external_tables))
            continue
        for i in np.flatnonzero(~np.isfinite(stack[m]).all(axis=1)):
            check(m, i, lambda: stack[m, i])
    wrong = np.flatnonzero(((sizes != h) & ~failed).any(axis=0))
    if wrong.size:
        i = wrong[0]
        raise ValueError(f"forecast length mismatch for {series[i].id!r}: "
                         f"{sizes[~failed[:, i], i].tolist()}")

    stack[failed] = np.inf
    ordered = np.sort(stack, axis=0)
    count = np.add.reduce(~failed, axis=0)
    at = np.arange(k)
    low, high = ordered[np.maximum(count - 1, 0) // 2, at], ordered[count // 2, at]
    # np.median takes np.mean of the middle rows, and np.mean's sum starts
    # at 0.0, which turns a -0.0 into 0.0; starting at 0.0 here matches it.
    # The sum of the two middle rows can overflow, which the check below sees.
    with np.errstate(over="ignore"):
        values = np.where((count % 2 == 1)[:, None], 0.0 + high, (0.0 + low + high) / 2.0)
    naive = ~np.isfinite(values).all(axis=1)
    for i in np.flatnonzero(naive):
        if count[i]:
            notes[i].append(f"ensemble median overflows on {series[i].id!r}; "
                            "falling back to naive")
        else:
            notes[i].append(f"all ensemble members failed on {series[i].id!r}; "
                            "falling back to naive")
    values[naive] = last[naive, None]
    return values, naive


def _chunk_forecasts(chunk: Sequence[TimeSeries], config: PipelineConfig,
                     matches: Mapping[str, CorrelatorMatch],
                     external_tables: Mapping[str, Mapping[str, np.ndarray]]) -> list:
    """The forecasts of a chunk's series, clipped at zero, with their
    methods: for each horizon h, the positions in ``chunk`` of the series
    that have it, a (K, h) array of their forecasts and a list of their
    methods. The chunk's warnings are given in chunk order."""
    by_horizon: dict[int, list[int]] = {}
    for j, ts in enumerate(chunk):
        h = config.horizon if config.horizon is not None else ts.horizon
        by_horizon.setdefault(h, []).append(j)
    notes: list[list] = [[] for _ in chunk]
    groups = []
    for h, picked in by_horizon.items():
        values = np.empty((len(picked), h))
        methods = ["Correlator"] * len(picked)
        rest = []
        for i, j in enumerate(picked):
            match = matches.get(chunk[j].id)
            if match is not None:
                if len(match.forecast) >= h:
                    values[i] = match.forecast[:h]
                    continue
                notes[j].append(
                    f"match for {chunk[j].id!r} provides {len(match.forecast)} values but the "
                    f"horizon is {h}; using the ensemble instead"
                )
            rest.append(i)
        if rest:
            ensembled, naive = _ensemble_rows(
                [chunk[picked[i]] for i in rest], h, config.members, external_tables,
                [notes[picked[i]] for i in rest])
            values[rest] = ensembled
            for i, fell_back in zip(rest, naive):
                methods[i] = "Naive" if fell_back else "Ensemble"
        groups.append((picked, values, methods))
    for note in (note for series_notes in notes for note in series_notes):
        if isinstance(note, str):
            warnings.warn(note)
        else:
            _warn_too_short(*note)
    for picked, values, _ in groups:
        # Checked before the clip, which would turn a -inf into 0.
        bad = np.flatnonzero(~np.isfinite(values).all(axis=1))
        if bad.size:
            Forecast.checked(chunk[picked[bad[0]]].id, values[bad[0]])
        np.maximum(values, 0.0, out=values)
    return groups


def _chunks(dataset: Dataset) -> list[tuple[int, int]]:
    """(first, end) series indices of contiguous runs of series, in dataset
    order, each with at most ``_CHUNK_POINTS`` points unless it is a single
    longer series."""
    return _runs([len(ts) for ts in dataset], _CHUNK_POINTS)


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
    chunks = _chunks(dataset)

    def work(c: int) -> list:
        return _chunk_forecasts(dataset.series[slice(*chunks[c])], config, matches,
                                external_tables)

    # Series with an accepted match skip the members.
    members_s = sum(_SERIES_S + _POINT_S * len(ts) for ts in dataset
                    if ts.id not in matches)
    out: dict[str, Forecast] = {}
    for (first, end), groups in zip(chunks, indexed_map(work, len(chunks), threads, members_s)):
        records: list = [None] * (end - first)
        for picked, values, methods in groups:
            values.flags.writeable = False
            for j, row, method in zip(picked, values, methods):
                records[j] = Forecast._adopt(dataset.series[first + j].id, row, method)
        out.update((record.id, record) for record in records)
    return out


def naive_benchmark(dataset: Dataset, horizon: int | None = None) -> dict[str, np.ndarray]:
    """Naive (last value) forecasts for every series, the benchmark the
    relative metrics divide by."""
    out = {}
    for ts in dataset:
        h = horizon if horizon is not None else ts.horizon
        out[ts.id] = naive_forecast(ts.values, h)
    return out

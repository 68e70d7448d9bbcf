"""Forecast pipeline: window-matching forecasts where accepted, a pointwise
median of configured forecasters elsewhere, and negative clipping last.

A series' ensemble works on plain arrays: each member's output is checked
as a ``Forecast`` would check it, the survivors are stacked and sorted down
the columns, and the median is the middle row (the mean of the two middle
rows for an even count), with the same bits as ``np.median``. Each series
then gets one clipped ``Forecast`` record.
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
from .forecasters import Forecast, custom_forecast, naive_forecast, ses_forecast

BUILTIN_MEMBERS: dict[str, Callable[[np.ndarray, int], np.ndarray]] = {
    "naive": naive_forecast,
    "ses": ses_forecast,
    "custom": custom_forecast,
}

DEFAULT_MEMBERS = ("naive", "ses", "custom")


@dataclass(frozen=True)
class PipelineConfig:
    """Pipeline configuration.

    ``correlator`` of None disables the matching stage entirely. Members
    name built-in forecasters or keys of ``external`` (forecast CSVs
    produced elsewhere, e.g. by a statistical package). ``horizon`` of None
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
    return (0.0 + ordered[mid - 1] + ordered[mid]) / 2.0


def median_combine(forecasts: Sequence[Forecast]) -> Forecast:
    """Pointwise median of member forecasts (midpoint for even counts)."""
    if not forecasts:
        raise ValueError("no forecasts to combine")
    sid = forecasts[0].id
    return Forecast(id=sid, values=_median(sid, [f.values for f in forecasts]), method="Ensemble")


def clip_negative(forecast: Forecast) -> Forecast:
    """Replace negative values with zero."""
    return Forecast(id=forecast.id, values=np.maximum(forecast.values, 0.0),
                    method=forecast.method)


def _ensemble_values(ts, h: int, members: Sequence[str],
                     external_tables: Mapping[str, Mapping[str, np.ndarray]]) -> tuple[np.ndarray, str]:
    """Median of the members that succeed on one series; naive fallback when
    every member fails."""
    parts: list[np.ndarray] = []
    for name in members:
        try:
            if name in BUILTIN_MEMBERS:
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
    return _median(ts.id, parts), "Ensemble"


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

    def work(i: int) -> tuple[np.ndarray, str]:
        ts = dataset.series[i]
        h = config.horizon if config.horizon is not None else ts.horizon
        match = matches.get(ts.id)
        if match is not None:
            if len(match.forecast) >= h:
                return match.forecast[:h], "Correlator"
            warnings.warn(
                f"match for {ts.id!r} provides {len(match.forecast)} values but the "
                f"horizon is {h}; using the ensemble instead"
            )
        return _ensemble_values(ts, h, config.members, external_tables)

    results = indexed_map(work, len(dataset), threads)
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

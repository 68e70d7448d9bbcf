"""Forecast accuracy metrics: MASE, sMAPE, and the overall weighted average
of their values relative to a naive benchmark.

Aggregation follows the M4 convention: metrics are averaged over series
first, and the relative metrics are ratios of those averages (not averages
of per-series ratios).

``owa_report`` scores many series at once: it takes each series' MASE scale
once, from its own ragged training values, then stacks the series that share
a horizon into 2-D arrays and computes sMAPE and the mean absolute errors as
row reductions. A row reduction sums each row exactly as the 1-D mean of
``mase`` and ``smape`` sums that series, so both give the same bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .dataset import HoldoutSplit

class UndefinedMetricError(ValueError):
    """MASE is undefined: the in-sample seasonal-naive error is zero."""


def _mase_scale(train: np.ndarray, m: int) -> float:
    """In-sample mean absolute error of the m-step seasonal-naive forecast."""
    if m < 1:
        raise ValueError(f"seasonality must be >= 1, got {m}")
    if train.size <= m:
        raise ValueError(f"training series of length {train.size} too short for m={m}")
    return np.mean(np.abs(train[m:] - train[:-m]))


def _smape_rows(actual: np.ndarray, forecast: np.ndarray) -> np.ndarray:
    """sMAPE of each row of two equal-shape 2-D arrays."""
    denom = np.abs(actual) + np.abs(forecast)
    terms = np.zeros_like(denom)
    nz = denom != 0.0
    terms[nz] = np.abs(actual[nz] - forecast[nz]) / denom[nz]
    return 200.0 * terms.mean(axis=1)


def mase(train, actual, forecast, m: int = 1) -> float:
    """Mean absolute scaled error.

    The scale is the in-sample mean absolute error of the m-step
    seasonal-naive forecast over the training values. A constant-at-lag-m
    training series makes the metric undefined.
    """
    train = np.asarray(train, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    forecast = np.asarray(forecast, dtype=np.float64)
    scale = _mase_scale(train, m)
    if actual.shape != forecast.shape:
        raise ValueError("actual and forecast lengths differ")
    if scale <= 0.0:
        raise UndefinedMetricError(
            f"in-sample seasonal-naive error is zero at lag {m}; MASE undefined"
        )
    return float(np.mean(np.abs(actual - forecast)) / scale)


def smape(actual, forecast) -> float:
    """Symmetric mean absolute percentage error, in percent (range [0, 200]).

    Points where actual and forecast are both zero contribute 0.
    """
    actual = np.asarray(actual, dtype=np.float64)
    forecast = np.asarray(forecast, dtype=np.float64)
    if actual.shape != forecast.shape:
        raise ValueError("actual and forecast lengths differ")
    return float(_smape_rows(actual.reshape(1, -1), forecast.reshape(1, -1))[0])


@dataclass
class MetricReport:
    """Per-series and aggregate metrics against a benchmark forecast.

    ``per_series`` maps id -> (mase, smape); a None mase marks a series
    where the metric is undefined and excluded from the aggregates.
    """

    per_series: dict[str, tuple[float | None, float]]
    aggregate_mase: float
    aggregate_smape: float
    benchmark_mase: float
    benchmark_smape: float
    relative_mase: float
    relative_smape: float
    owa: float
    excluded: list[str] = field(default_factory=list)


def _values_of(entry) -> np.ndarray:
    # Accept bare arrays as well as Forecast records.
    return np.asarray(getattr(entry, "values", entry), dtype=np.float64)


def owa_report(
    forecasts: Mapping[str, object],
    benchmark: Mapping[str, object],
    split: HoldoutSplit,
    m: int = 1,
) -> MetricReport:
    """Score forecasts against held-out actuals, relative to a benchmark.

    ``split`` supplies the training values (for the MASE scale) and the
    actuals. The benchmark must cover every forecast id. Aggregates are
    means over series; series with undefined MASE are excluded from both
    MASE means with a warning. OWA is the mean of the relative MASE and
    relative sMAPE.
    """
    ids = list(forecasts)
    if not ids:
        raise ValueError("no series to evaluate")
    missing = [
        sid for sid in ids
        if sid not in benchmark or sid not in split.train or sid not in split.test
    ]
    if missing:
        raise ValueError(f"missing benchmark/train/actual values for ids: {missing}")

    # One pass in id order checks every series as mase and smape would, so
    # the first bad series raises the same error, and takes each MASE scale.
    n = len(ids)
    scale = np.empty(n)
    by_shape: dict[tuple, list[int]] = {}
    rows: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []  # (actual, forecast, benchmark)
    for i, sid in enumerate(ids):
        actual = np.asarray(split.test[sid], dtype=np.float64)
        fc = _values_of(forecasts[sid])
        bench = _values_of(benchmark[sid])
        if fc.shape != actual.shape or bench.shape != actual.shape:
            raise ValueError(f"actual and forecast lengths differ for series {sid!r}: "
                             f"{actual.size} actual, {fc.size} forecast and {bench.size} "
                             "benchmark values")
        scale[i] = _mase_scale(split.train[sid].values, m)
        by_shape.setdefault(actual.shape, []).append(i)
        rows.append((actual, fc, bench))

    # C-contiguous (actual, forecast, benchmark) stacks, one row per series.
    stacks = [(idx, *(np.array(column).reshape(len(idx), math.prod(shape))
                      for column in zip(*(rows[i] for i in idx))))
              for shape, idx in by_shape.items()]
    # A non-finite value has no score: the first such series in id order
    # raises, checked on the stacks before any arithmetic.
    finite = np.empty(n, dtype=bool)
    for idx, *arrays in stacks:
        finite[idx] = np.logical_and.reduce([np.isfinite(a).all(axis=1) for a in arrays])
    if not finite.all():
        sid = ids[int(np.argmin(finite))]
        raise ValueError(f"series {sid!r} has non-finite forecast, benchmark or actual values")

    smape_f, smape_b = np.empty(n), np.empty(n)
    mae_f, mae_b = np.empty(n), np.empty(n)
    for idx, actual, fc, bench in stacks:
        smape_f[idx] = _smape_rows(actual, fc)
        smape_b[idx] = _smape_rows(actual, bench)
        mae_f[idx] = np.abs(actual - fc).mean(axis=1)
        mae_b[idx] = np.abs(actual - bench).mean(axis=1)

    defined = scale > 0.0
    mase_f = mae_f[defined] / scale[defined]
    mase_b = mae_b[defined] / scale[defined]
    defined_mase = iter(mase_f.tolist())
    per_series: dict[str, tuple[float | None, float]] = {
        sid: (next(defined_mase) if ok else None, s_f)
        for sid, ok, s_f in zip(ids, defined.tolist(), smape_f.tolist())
    }
    excluded = [sid for sid, ok in zip(ids, defined.tolist()) if not ok]

    if excluded:
        warnings.warn(
            f"MASE undefined for {len(excluded)} series (constant training data); "
            f"excluded from MASE aggregation: {excluded[:5]}"
        )
    if not mase_f.size:
        raise UndefinedMetricError("MASE undefined for every series; cannot aggregate")

    agg_mase = float(np.mean(mase_f))
    agg_smape = float(np.mean(smape_f))
    bench_mase = float(np.mean(mase_b))
    bench_smape = float(np.mean(smape_b))
    if bench_mase <= 0.0 or bench_smape <= 0.0:
        raise UndefinedMetricError("benchmark aggregate metric is zero; relative metrics undefined")
    rel_mase = agg_mase / bench_mase
    rel_smape = agg_smape / bench_smape
    return MetricReport(
        per_series=per_series,
        aggregate_mase=agg_mase,
        aggregate_smape=agg_smape,
        benchmark_mase=bench_mase,
        benchmark_smape=bench_smape,
        relative_mase=rel_mase,
        relative_smape=rel_smape,
        owa=(rel_mase + rel_smape) / 2.0,
        excluded=excluded,
    )

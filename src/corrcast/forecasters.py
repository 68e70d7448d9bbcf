"""Built-in statistical forecasters: naive, simple exponential smoothing,
and a decomposition-based method.

Simple exponential smoothing scores its whole alpha grid at once with a
log-depth doubling scan of the level recursion (Hillis & Steele 1986;
Blelloch 1990) in plain numpy.

The decomposition method splits a series into trend/seasonal/residual with
a short centered moving average (period 2), forecasts trend and residual
either by linear extrapolation or by repeating recent values (picking the
combination by holdout MASE), forecasts the seasonal part seasonal-naive,
and sums the three.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .metrics import UndefinedMetricError, mase

SES_ALPHA_GRID = np.arange(0.05, 1.0, 0.05)

# Number of recent component values fed to the trend/residual strategies.
STRATEGY_TAIL = 14


@dataclass(frozen=True)
class Forecast:
    """h forecast values for one series, tagged with the producing method."""

    id: str
    values: np.ndarray
    method: str

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 1 or not np.all(np.isfinite(vals)):
            raise ValueError(f"forecast for {self.id!r} must be a finite non-empty vector")
        vals = vals.copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)


@dataclass(frozen=True)
class Decomposition:
    """Additive trend/seasonal/residual split; NaN marks boundary positions
    where the centered moving average is undefined. At every defined
    position trend + seasonal + residual equals the input."""

    trend: np.ndarray
    seasonal: np.ndarray
    residual: np.ndarray
    period: int


def naive_forecast(series, h: int) -> np.ndarray:
    """h copies of the last observed value."""
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise ValueError("cannot forecast an empty series")
    if h < 1:
        raise ValueError(f"horizon must be positive, got {h}")
    return np.full(h, series[-1])


def ses_forecast(series, h: int, alpha: float | None = None) -> np.ndarray:
    """Simple exponential smoothing: constant forecast at the final level.

    level[0] = y[0]; level[t] = alpha*y[t] + (1-alpha)*level[t-1]. When
    ``alpha`` is None it is chosen from a 0.05..0.95 grid by minimizing the
    in-sample one-step squared error (ties go to the smallest alpha).
    """
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise ValueError("cannot forecast an empty series")
    if h < 1:
        raise ValueError(f"horizon must be positive, got {h}")
    if alpha is not None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if alpha == 1.0:
            return naive_forecast(series, h)
        return np.full(h, _ses_levels(series, np.array([alpha]))[0, -1])
    levels = _ses_levels(series, SES_ALPHA_GRID)
    err = series[1:] - levels[:, :-1]
    best = np.argmin(np.einsum("ij,ij->i", err, err))
    return np.full(h, levels[best, -1])


def _ses_levels(series: np.ndarray, alphas: np.ndarray) -> np.ndarray:
    """SES levels of ``series`` for each of ``alphas``, one row per alpha.

    A doubling scan of d[t] = (1-alpha)*d[t-1] + alpha*(y[t] - y[0]), d[0] = 0:
    after the step with shift s, d[t] sums the last 2s terms, so ceil(log2 n)
    steps give every level y[0] + d[t].
    """
    # Deviations from y[0] are exactly 0 on a constant series, so its levels
    # stay exactly y[0] whatever rounding the scan does.
    d = alphas[:, None] * (series - series[0])
    decay = 1.0 - alphas[:, None]
    s = 1
    while s < series.size:
        d[:, s:] += decay ** s * d[:, :-s]
        s *= 2
    return series[0] + d


def decompose_classical(series, period: int = 2) -> Decomposition:
    """Classical additive decomposition by centered moving average.

    For the default period 2 the trend filter has weights (0.25, 0.5, 0.25)
    and is undefined at the first and last position. The seasonal component
    is the per-phase mean of the detrended values, centered to sum to zero
    over one period and tiled over the series.
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    if n < max(4, period + 2):
        raise ValueError(f"series too short to decompose: {n} points")

    if period % 2 == 0:
        filt = np.concatenate(([0.5], np.ones(period - 1), [0.5])) / period
        margin = period // 2
    else:
        filt = np.ones(period) / period
        margin = (period - 1) // 2
    trend = np.full(n, np.nan)
    trend[margin : n - margin] = np.convolve(series, filt, mode="valid")

    detrended = series - trend
    phase_means = np.array(
        [np.nanmean(detrended[p::period]) for p in range(period)]
    )
    phase_means -= phase_means.mean()
    seasonal = np.tile(phase_means, n // period + 1)[:n]
    residual = series - trend - seasonal
    return Decomposition(trend=trend, seasonal=seasonal, residual=residual, period=period)


def linear_extrapolate(tail, h: int, gap: int = 0) -> np.ndarray:
    """Least-squares line through ``tail``, evaluated h steps past its end.

    The tail occupies positions 1..w; the forecast is the fitted line at
    positions w+1+gap .. w+h+gap. ``gap`` accounts for undefined positions
    between the last tail value and the first forecast (0 for a tail that
    runs to the end of the series).
    """
    tail = np.asarray(tail, dtype=np.float64)
    w = tail.size
    if w < 2:
        raise ValueError(f"need at least 2 values to fit a line, got {w}")
    if h < 1:
        raise ValueError(f"horizon must be positive, got {h}")
    x = np.arange(1.0, w + 1.0)
    slope, intercept = np.polyfit(x, tail, 1)
    xf = np.arange(w + 1 + gap, w + h + 1 + gap, dtype=np.float64)
    return slope * xf + intercept


def _repeat_tail(tail: np.ndarray, h: int) -> np.ndarray:
    return np.tile(tail, h // tail.size + 1)[:h]


def _strategy_forecast(component: np.ndarray, strategy: str, h: int) -> np.ndarray:
    """Forecast one component from its last defined values.

    ``gap`` positions between the last defined value and the series end are
    skipped by the line evaluation so the extrapolation stays anchored to
    true series positions.
    """
    defined = np.nonzero(~np.isnan(component))[0]
    if defined.size < 2:
        raise ValueError("component has fewer than 2 defined values")
    tail_idx = defined[-min(STRATEGY_TAIL, defined.size):]
    tail = component[tail_idx]
    if strategy == "linear":
        gap = (component.size - 1) - defined[-1]
        return linear_extrapolate(tail, h, gap=gap)
    if strategy == "repeat":
        return _repeat_tail(tail, h)
    raise ValueError(f"unknown strategy {strategy!r}")


_STRATEGY_COMBOS = (
    ("linear", "linear"),
    ("linear", "repeat"),
    ("repeat", "linear"),
    ("repeat", "repeat"),
)


def _decomposed_forecast(series: np.ndarray, h: int, trend_strategy: str, resid_strategy: str) -> np.ndarray:
    dec = decompose_classical(series, period=2)
    n = series.size
    trend_fc = _strategy_forecast(dec.trend, trend_strategy, h)
    resid_fc = _strategy_forecast(dec.residual, resid_strategy, h)
    seasonal_fc = dec.seasonal[(n + np.arange(h)) % dec.period]
    return trend_fc + resid_fc + seasonal_fc


def custom_forecast(series, h: int) -> np.ndarray:
    """Decomposition-based forecast with holdout-selected strategies.

    Each of the four (trend, residual) strategy combinations is scored by
    MASE on the final h points of the input; the best one is refit on the
    full series. Series shorter than 2h + 4 fall back to the naive
    forecast with a warning.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise ValueError("cannot forecast an empty series")
    if h < 1:
        raise ValueError(f"horizon must be positive, got {h}")
    if series.size < 2 * h + 4:
        warnings.warn(
            f"series of length {series.size} too short for the decomposition "
            f"method with horizon {h}; falling back to naive"
        )
        return naive_forecast(series, h)

    fit = series[:-h]
    val = series[-h:]
    best_combo = _STRATEGY_COMBOS[0]
    best_score = np.inf
    for combo in _STRATEGY_COMBOS:
        candidate = _decomposed_forecast(fit, h, *combo)
        try:
            score = mase(fit, val, candidate, m=1)
        except UndefinedMetricError:
            score = np.inf
        if score < best_score:
            best_score = score
            best_combo = combo
    return _decomposed_forecast(series, h, *best_combo)

"""Built-in statistical forecasters: naive, simple exponential smoothing,
and a decomposition-based method.

Simple exponential smoothing scores its whole alpha grid at once with a
blocked scan of the level recursion. The series is cut into blocks of 16.
A log-depth doubling scan (Hillis & Steele 1986; Blelloch 1990) over the
block ends, not over every point, carries the level from block to block,
and then one matrix product gives every alpha's level at every point from
its block's values and the level carried into the block. That is O(n) work
per alpha, and the one-step errors and the final level are read from the
product's (block, alpha, offset) layout as it stands.

The decomposition method splits a series into trend/seasonal/residual with
a short centered moving average (period 2), forecasts trend and residual
either by linear extrapolation or by repeating recent values (picking the
combination by holdout MASE), forecasts the seasonal part seasonal-naive,
and sums the three. It decomposes the input twice, once without the holdout
to pick the combination and once in full to forecast it, and it computes
each (component, strategy) forecast once per decomposition.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

SES_ALPHA_GRID = np.arange(0.05, 1.0, 0.05)

# Block length of the SES level scan.
_SES_BLOCK = 16

# Number of recent component values fed to the trend/residual strategies.
STRATEGY_TAIL = 14


@dataclass(frozen=True)
class Forecast:
    """h forecast values for one series, tagged with the producing method."""

    id: str
    values: np.ndarray
    method: str

    def __post_init__(self):
        vals = Forecast.checked(self.id, self.values).copy()
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @staticmethod
    def checked(sid: str, values) -> np.ndarray:
        """``values`` as float64; ValueError unless a finite non-empty vector."""
        vals = np.asarray(values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 1 or not np.isfinite(vals).all():
            raise ValueError(f"forecast for {sid!r} must be a finite non-empty vector")
        return vals


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
    last = divmod(series.size - 1, _SES_BLOCK)
    if alpha is not None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {alpha}")
        if alpha == 1.0:
            return naive_forecast(series, h)
        return np.full(h, _ses_levels(series, _ses_kernel([alpha]))[last[0], 0, last[1]])
    levels = _ses_levels(series, _SES_GRID)
    # y[t + 1] - level[t] in the levels' layout, 0 from t = n - 1 on.
    ahead = np.zeros(levels.shape[0] * _SES_BLOCK)
    ahead[: series.size - 1] = series[1:]
    err = ahead.reshape(-1, 1, _SES_BLOCK) - levels
    err[-1, :, last[1]:] = 0.0
    best = np.argmin(np.einsum("bij,bij->i", err, err))
    return np.full(h, levels[last[0], best, last[1]])


def _ses_kernel(alphas) -> tuple[np.ndarray, np.ndarray]:
    """The blocked scan's constants for ``alphas`` (A of them): the weights
    W, (16 + A) x 16A, and the block decay (1-alpha)^16.

    Column 16a + j of W maps a block's 16 deviations from y[0], then the A
    level deviations at the previous block's end, to alpha a's level
    deviation at offset j: row i < 16 holds alpha (1-alpha)^(j-i) for i <= j
    and 0 above j, and row 16 + a holds the carry weight (1-alpha)^(j+1),
    the other alphas' rows 0.
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    a = alphas.size
    lag = np.arange(_SES_BLOCK) - np.arange(_SES_BLOCK)[:, None]
    step = alphas[:, None, None] * (1.0 - alphas[:, None, None]) ** np.maximum(lag, 0)
    weights = np.zeros((_SES_BLOCK + a, a, _SES_BLOCK))
    weights[:_SES_BLOCK] = np.where(lag >= 0, step, 0.0).transpose(1, 0, 2)
    weights[_SES_BLOCK + np.arange(a), np.arange(a)] = (
        (1.0 - alphas[:, None]) ** np.arange(1, _SES_BLOCK + 1))
    return weights.reshape(_SES_BLOCK + a, -1), (1.0 - alphas) ** _SES_BLOCK


def _ses_levels(series: np.ndarray, kernel) -> np.ndarray:
    """SES levels of ``series`` for each alpha of ``kernel`` (``_ses_kernel``),
    as (block, alpha, offset): [b, a, j] is alpha a's level at t = 16b + j,
    and the slots past the series' end are padding.

    Row b of the product's input holds block b's deviations z = y - y[0]
    (zero past the end) and each alpha's level deviation e[b-1] at the end of
    block b - 1. The ends come first: from a zero start, one small product
    gives each block's end, and a doubling scan carries them along,
    e[b] += (1-alpha)^16 e[b-1].
    """
    weights, block_decay = kernel
    nb = -(-series.size // _SES_BLOCK)
    # Deviations from y[0] are exactly 0 on a constant series, so its levels
    # stay exactly y[0] whatever rounding the scan does.
    z = np.zeros(nb * _SES_BLOCK)
    np.subtract(series, series[0], out=z[: series.size])
    rows = np.zeros((nb, weights.shape[0]))
    rows[:, :_SES_BLOCK] = z.reshape(nb, _SES_BLOCK)
    ends = rows[:, :_SES_BLOCK] @ weights[:_SES_BLOCK, _SES_BLOCK - 1 :: _SES_BLOCK]
    s = 1
    while s < nb:
        ends[s:] += block_decay * ends[:-s]
        block_decay = block_decay * block_decay
        s *= 2
    rows[1:, _SES_BLOCK:] = ends[:-1]
    levels = (rows @ weights).reshape(nb, block_decay.size, _SES_BLOCK)
    levels += series[0]
    return levels


_SES_GRID = _ses_kernel(SES_ALPHA_GRID)


def decompose_classical(series, period: int = 2) -> Decomposition:
    """Classical additive decomposition by centered moving average.

    For the default period 2 the trend filter has weights (0.25, 0.5, 0.25)
    and is undefined at the first and last position. The seasonal component
    is the per-phase mean of the detrended values, centered to sum to zero
    over one period and repeated over the series.
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    if period < 2:
        raise ValueError(f"period must be >= 2, got {period}")
    # Every phase needs a defined detrended value: the interior left by the
    # trend filter, n - 2 (period // 2) points, must span a period.
    shortest = max(4, period + 2 * (period // 2))
    if n < shortest:
        raise ValueError(f"series too short to decompose: {n} points, period {period} "
                         f"needs at least {shortest}")

    if period % 2 == 0:
        filt = np.full(period + 1, 1.0 / period)
        filt[0] = filt[-1] = 0.5 / period
    else:
        filt = np.full(period, 1.0 / period)
    margin = period // 2
    trend = np.full(n, np.nan)
    trend[margin : n - margin] = np.convolve(series, filt, mode="valid")

    # The defined interior starts at position margin, so phase p starts at
    # interior index (p - margin) % period.
    detrended = series[margin : n - margin] - trend[margin : n - margin]
    phases = [detrended[(p - margin) % period :: period] for p in range(period)]
    phase_means = np.array([phase.sum() / phase.size for phase in phases])
    phase_means -= phase_means.sum() / period
    seasonal = phase_means[np.arange(n) % period]
    residual = series - trend - seasonal
    return Decomposition(trend=trend, seasonal=seasonal, residual=residual, period=period)


def linear_extrapolate(tail, h: int, gap: int = 0) -> np.ndarray:
    """Least-squares line through ``tail``, evaluated h steps past its end.

    The tail occupies positions 1..w; the forecast is the fitted line at
    positions w+1+gap .. w+h+gap. ``gap`` accounts for undefined positions
    between the last tail value and the first forecast (0 for a tail that
    runs to the end of the series). The fit is closed form, with the
    positions centred on their mean.
    """
    tail = np.asarray(tail, dtype=np.float64)
    w = tail.size
    if w < 2:
        raise ValueError(f"need at least 2 values to fit a line, got {w}")
    if h < 1:
        raise ValueError(f"horizon must be positive, got {h}")
    x_mean = (w + 1) / 2.0
    centred = np.arange(1.0, w + 1.0) - x_mean
    slope = (centred @ tail) / (w * (w * w - 1) / 12.0)  # centred @ centred
    intercept = tail.sum() / w - slope * x_mean
    xf = np.arange(w + 1 + gap, w + h + 1 + gap, dtype=np.float64)
    return slope * xf + intercept


def _strategy_forecast(dec: Decomposition, component: np.ndarray, strategy: str, h: int) -> np.ndarray:
    """Forecast one component from its last STRATEGY_TAIL defined values.

    The defined values end ``period // 2`` positions before the series end;
    the line skips those positions so the extrapolation stays anchored to
    true series positions.
    """
    margin = dec.period // 2
    end = component.size - margin
    tail = component[max(margin, end - STRATEGY_TAIL) : end]
    if strategy == "linear":
        return linear_extrapolate(tail, h, gap=margin)
    return tail[np.arange(h) % tail.size]


_STRATEGIES = ("linear", "repeat")
# (trend, residual) strategies in scoring order, the first winning ties.
_STRATEGY_COMBOS = tuple((t, r) for t in _STRATEGIES for r in _STRATEGIES)


def _seasonal_forecast(dec: Decomposition, h: int) -> np.ndarray:
    """The seasonal component continued past the series end (seasonal naive)."""
    return dec.seasonal[(dec.seasonal.size + np.arange(h)) % dec.period]


def _best_combo(fit: np.ndarray, val: np.ndarray) -> tuple[str, str]:
    """The strategy combo whose forecast from ``fit`` has the lowest MASE
    (lag 1) on ``val``. Ties, and an undefined MASE, give the first combo."""
    h = val.size
    dec = decompose_classical(fit)
    trend = {s: _strategy_forecast(dec, dec.trend, s, h) for s in _STRATEGIES}
    resid = {s: _strategy_forecast(dec, dec.residual, s, h) for s in _STRATEGIES}
    candidates = np.array([trend[t] + resid[r] for t, r in _STRATEGY_COMBOS])
    candidates += _seasonal_forecast(dec, h)
    scale = np.abs(fit[1:] - fit[:-1]).mean()
    if not scale > 0.0:
        return _STRATEGY_COMBOS[0]
    scores = np.mean(np.abs(val - candidates), axis=1) / scale
    return _STRATEGY_COMBOS[int(np.argmin(scores))]


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

    trend_strategy, resid_strategy = _best_combo(series[:-h], series[-h:])
    dec = decompose_classical(series)
    return (_strategy_forecast(dec, dec.trend, trend_strategy, h)
            + _strategy_forecast(dec, dec.residual, resid_strategy, h)
            + _seasonal_forecast(dec, h))

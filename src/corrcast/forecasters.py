"""Built-in statistical forecasters: naive, simple exponential smoothing,
and a decomposition-based method.

Simple exponential smoothing scores its whole alpha grid at once with a
blocked scan of the level recursion. Each series is cut into blocks of 16.
A log-depth doubling scan (Hillis & Steele 1986; Blelloch 1990) over the
block ends, not over every point, carries the level from block to block,
and then one matrix product gives every alpha's level at every point from
its block's values and the level carried into the block. That is O(n) work
per alpha. One kernel does this for a run of series whose blocks lie end to
end: the scan never carries across a join, both products run once per
block count as a stack of per-series products, and each series' one-step
squared errors, alpha choice and final level are per-series reductions
over its own blocks. A series gets the same bits in any run, and
``ses_forecast`` is the kernel's one-series case.

The decomposition method splits a series into trend/seasonal/residual with
a short centered moving average (period 2), forecasts trend and residual
either by linear extrapolation or by repeating recent values (picking the
combination by holdout MASE), forecasts the seasonal part seasonal-naive,
and sums the three. One kernel does this for a whole chunk of series held
end to end in one flat array: one moving average over the chunk, seasonal
phase means as segment reductions, one gather of every series' last trend
and residual values, and line fits, forecasts and scores as row
reductions. It decomposes each series twice, without the holdout to pick
the combination and in full to forecast it, and it scores the four
combinations of each series at once. A series gets the same bits in any
chunk. ``custom_forecast`` is its one-series case, and
``decompose_classical`` is its decomposition step applied to one series.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

SES_ALPHA_GRID = np.arange(0.05, 1.0, 0.05)

# Block length of the SES level scan, and zeros to pad a series to whole blocks.
_SES_BLOCK = 16
_BLOCK_PAD = np.zeros(_SES_BLOCK)

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

    @classmethod
    def _adopt(cls, sid: str, values: np.ndarray, method: str) -> Forecast:
        """A record that holds ``values``, a finite read-only float64
        vector, as it is, without the constructor's check and copy."""
        record = object.__new__(cls)
        record.__dict__.update(id=sid, values=values, method=method)
        return record

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


def _member_input(series, h: int) -> np.ndarray:
    """``series`` as float64; ValueError for an empty series or h below 1."""
    series = np.asarray(series, dtype=np.float64)
    if series.size == 0:
        raise ValueError("cannot forecast an empty series")
    if h < 1:
        raise ValueError(f"horizon must be positive, got {h}")
    return series


def naive_forecast(series, h: int) -> np.ndarray:
    """h copies of the last observed value."""
    series = _member_input(series, h)
    return np.full(h, series[-1])


def ses_forecast(series, h: int) -> np.ndarray:
    """Simple exponential smoothing: constant forecast at the final level.

    level[0] = y[0]; level[t] = alpha*y[t] + (1-alpha)*level[t-1], with
    alpha chosen from a 0.05..0.95 grid by minimizing the in-sample
    one-step squared error (ties go to the smallest alpha).
    """
    series = _member_input(series, h)
    return np.full(h, _ses_rows([series], series.size)[0])


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


def _ses_blocks(lengths: np.ndarray) -> tuple:
    """The block layout of series of ``lengths`` held end to end, each
    padded to whole blocks: each series' first block and block count, the
    block and offset of its last value, and for each run of series with
    equal block counts, its series, its blocks and its (series, blocks)
    shape."""
    full, last_offset = np.divmod(lengths - 1, _SES_BLOCK)
    counts = full + 1
    heads = np.add.accumulate(counts) - counts
    cuts = [0, *(np.flatnonzero(counts[1:] != counts[:-1]) + 1).tolist(), lengths.size]
    first, count = heads.tolist(), counts.tolist()
    runs = [(slice(i, j), slice(first[i], first[i] + (j - i) * count[i]), (j - i, count[i]))
            for i, j in zip(cuts[:-1], cuts[1:])]
    return heads, counts, (heads + full, last_offset), runs


def _ses_levels(padded: np.ndarray, blocks, kernel) -> np.ndarray:
    """SES levels, for each alpha of ``kernel`` (``_ses_kernel``), of the
    series held in ``padded`` in the layout of ``blocks`` (``_ses_blocks``),
    as (block, alpha, offset): [b, a, j] is alpha a's level at position
    16b + j of ``padded``, and the levels past a series' last value are not
    used.

    Row b of the product's input holds block b's deviations z = y - y[0]
    (zero past the series' end) and each alpha's level deviation e[b-1] at
    the end of the series' previous block (zero in its first block). The
    ends come first: from a zero start, one small product gives each
    block's end, and a doubling scan within each series carries them
    along, e[b] += (1-alpha)^16 e[b-1]. Both products and the scan run on
    each run of equal block counts as a stack of per-series ones, and BLAS
    computes each item of a stack as it computes that series alone, so a
    series' levels have the same bits in any run.
    """
    weights, block_decay = kernel
    heads, counts, (last_block, last_offset), runs = blocks
    total, a = padded.size // _SES_BLOCK, block_decay.size
    first = padded[_SES_BLOCK * heads]
    rows = np.empty((total, _SES_BLOCK + a))
    z = rows[:, :_SES_BLOCK]
    # Deviations from y[0] are exactly 0 on a constant series, so its levels
    # stay exactly y[0] whatever rounding the scan does.
    np.subtract(padded.reshape(total, _SES_BLOCK), np.repeat(first, counts)[:, None], out=z)
    z[last_block] = np.where(np.arange(_SES_BLOCK) > last_offset[:, None], 0.0, z[last_block])
    end_weights = weights[:_SES_BLOCK, _SES_BLOCK - 1 :: _SES_BLOCK]
    ends = np.empty((total, a))
    for _, span, shape in runs:
        run_ends = ends[span].reshape(*shape, a)
        np.matmul(z[span].reshape(*shape, _SES_BLOCK), end_weights, out=run_ends)
        decay, s = block_decay, 1
        while s < shape[1]:
            run_ends[:, s:] += decay * run_ends[:, :-s]
            decay = decay * decay
            s *= 2
    rows[1:, _SES_BLOCK:] = ends[:-1]
    rows[heads, _SES_BLOCK:] = 0.0
    levels = np.empty((total, weights.shape[1]))
    for series, span, shape in runs:
        run = levels[span].reshape(shape[0], -1)
        np.matmul(rows[span].reshape(*shape, -1), weights, out=run.reshape(*shape, -1))
        run += first[series, None]
    return levels.reshape(total, a, _SES_BLOCK)


def _ses_rows(series: Sequence[np.ndarray], points: int) -> np.ndarray:
    """``ses_forecast``'s level for each of ``series`` (non-empty float64
    arrays), as a (K,) array, each series with the bits it gets alone.

    The series are ordered by length and scanned in passes of about
    ``points`` points (a longer series takes a pass of its own), which
    bounds the levels, 19 values per point. A series' one-step squared
    errors, y[t + 1] - level[t], are summed block by block in the order of
    its blocks, as one series' sum is, and the first alpha of least error
    wins. Overflow gives non-finite levels, which the caller checks for.
    """
    lengths = np.fromiter(map(len, series), np.intp, len(series))
    order = np.argsort(lengths, kind="stable")
    out = np.empty(len(series))
    a = SES_ALPHA_GRID.size
    with np.errstate(all="ignore"):
        for first, end in _runs(lengths[order], points):
            picked = order[first:end]
            # The pass's series padded to whole blocks, and one more 0, so
            # that padded[t + 1] is y[t + 1] at every t but a series' last.
            padded = np.concatenate([piece for y in (series[i] for i in picked)
                                     for piece in (y, _BLOCK_PAD[: -y.size % _SES_BLOCK])]
                                    + [_BLOCK_PAD[:1]])
            blocks = _ses_blocks(lengths[picked])
            _, _, (last_block, last_offset), runs = blocks
            levels = _ses_levels(padded[:-1], blocks, _SES_GRID)
            final = levels[last_block, :, last_offset]
            # The errors replace the levels. From each series' last value on,
            # where no next value is, they are 0.
            np.subtract(padded[1:].reshape(-1, 1, _SES_BLOCK), levels, out=levels)
            levels[last_block] = np.where(
                np.arange(_SES_BLOCK) >= last_offset[:, None, None], 0.0, levels[last_block])
            block_sse = np.einsum("bij,bij->bi", levels, levels)
            sse = np.empty((picked.size, a))
            for rows, span, shape in runs:
                np.add.reduce(block_sse[span].reshape(*shape, a), axis=1, out=sse[rows])
            out[picked] = final[np.arange(picked.size), sse.argmin(axis=1)]
    return out


def _runs(sizes: Sequence[int], budget: int) -> list[tuple[int, int]]:
    """(first, end) indices of consecutive runs of ``sizes``, in order, each
    summing to at most ``budget`` unless it is a single larger item."""
    runs, first, total = [], 0, 0
    for i, size in enumerate(sizes):
        if total and total + size > budget:
            runs.append((first, i))
            first, total = i, 0
        total += size
    if len(sizes):
        runs.append((first, len(sizes)))
    return runs


_SES_GRID = _ses_kernel(SES_ALPHA_GRID)


# Weights of the period-2 centred moving average, a 2 x 2 average.
_TREND_FILTER = np.array([0.25, 0.5, 0.25])
_PAD = np.zeros(1)


def _decompose(flat: np.ndarray, lo: np.ndarray,
               hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The period-2 decomposition of the series held in ``flat``: the trend
    and detrended values of every position, and the seasonal phase means of
    each row, whose detrended interior is ``detrended[lo[r]:hi[r]]``.

    trend[i] and detrended[i] belong to flat position i + 1; the trend is
    one moving average over all of ``flat``, so the values it takes across
    a join between two series are never read. Two trailing zeros pad
    ``detrended``. The means come as a (rows, 2) array, centred to sum to
    zero, whose column p is the phase of series positions t with t % 2 ==
    p. Each interior starts at series position 1 and at an even index of
    ``detrended``, so phase p is one parity of the flat index for every
    row. Each parity is summed as segments of its strided view; the
    segments may overlap, and whatever lies between them is summed into
    values that are thrown away. The largest ``hi`` must be at most
    ``flat.size - 2``, so that every segment bound is inside each view.
    """
    # The filter is symmetric, so its convolution is the centred average.
    trend = np.convolve(flat, _TREND_FILTER, mode="valid")
    detrended = np.zeros(flat.size)
    np.subtract(flat[1:-1], trend, out=detrended[:-2])
    bounds = np.empty(2 * lo.size, dtype=np.intp)
    bounds[0::2] = lo
    bounds[1::2] = hi
    means = np.empty((lo.size, 2))
    for q in range(2):
        # First index of the view at or after each bound.
        idx = (bounds + (1 - q)) // 2
        means[:, 1 - q] = (np.add.reduceat(detrended[q::2], idx)[0::2]
                           / (idx[1::2] - idx[0::2]))
    means -= np.add.reduce(means, axis=1, keepdims=True) / 2
    return trend, detrended, means


def decompose_classical(series) -> Decomposition:
    """Classical additive decomposition by a period-2 centred moving average.

    The trend filter has weights (0.25, 0.5, 0.25) and is undefined at the
    first and last position. The seasonal component is the per-phase mean
    of the detrended values, centred to sum to zero over one period and
    repeated over the series. This is the decomposition ``custom_forecast``
    makes, for one series.
    """
    series = np.asarray(series, dtype=np.float64)
    n = series.size
    # Both phases need a defined detrended value.
    if n < 4:
        raise ValueError(f"series too short to decompose: {n} points, period 2 needs at least 4")
    interior, _, means = _decompose(series, np.array([0]), np.array([n - 2]))
    trend = np.full(n, np.nan)
    trend[1:-1] = interior
    seasonal = means[0][np.arange(n) % 2]
    residual = series - trend - seasonal
    return Decomposition(trend=trend, seasonal=seasonal, residual=residual)


def _line_terms(widths: np.ndarray, columns: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per tail width w: the mean position (w + 1) / 2, the positions 1..w
    centred on it and right-aligned in ``columns`` columns (one row per
    width), and the sum of their squares, w (w^2 - 1) / 12. All are exact."""
    x_mean = (widths + 1) / 2.0
    centred = (widths - x_mean)[:, None] + np.arange(1 - columns, 1)
    return x_mean, centred, widths * (widths * widths - 1.0) / 12.0


def _line_rows(tails: np.ndarray, widths: np.ndarray, terms, h: int, gap: int) -> np.ndarray:
    """``linear_extrapolate`` of every row of ``tails`` at once, as an
    (rows, h) array. Row r's tail is its last ``widths[r]`` values, and the
    columns before them hold 0; ``terms`` are ``_line_terms`` of the rows'
    widths. Each row's sums are its own row reductions, so its bits do not
    depend on the other rows."""
    x_mean, centred, sum_squares = terms
    slope = np.add.reduce(tails * centred, axis=1) / sum_squares
    intercept = np.add.reduce(tails, axis=1) / widths - slope * x_mean
    return slope[:, None] * ((widths + (gap + 1))[:, None] + np.arange(h)) + intercept[:, None]


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
    widths = np.array([w])
    return _line_rows(tail[None, :], widths, _line_terms(widths, w), h, gap)[0]


# (trend, residual) strategies in scoring order, the first winning ties, and
# each combo's trend and residual strategy: 0 is the line, 1 the repeat.
_STRATEGY_COMBOS = (("linear", "linear"), ("linear", "repeat"),
                    ("repeat", "linear"), ("repeat", "repeat"))
_TREND_STRATEGY, _RESID_STRATEGY = (np.array(_STRATEGY_COMBOS) == "repeat").T.astype(np.intp)
# _line_terms of every tail width up to STRATEGY_TAIL.
_TAIL_TERMS = _line_terms(np.arange(STRATEGY_TAIL + 1), STRATEGY_TAIL)


def _custom_long_enough(n, h: int):
    """Whether a series of n points (or each of an array of lengths) is
    long enough for the decomposition member at horizon h;
    ``custom_forecast`` gives a shorter one the naive forecast, and the
    ensemble keeps it out of the chunk kernel."""
    return n >= 2 * h + 4


def _warn_too_short(n: int, h: int) -> None:
    """The warning of a series of n points given the naive forecast in
    place of the decomposition member's at horizon h."""
    warnings.warn(
        f"series of length {n} too short for the decomposition "
        f"method with horizon {h}; falling back to naive"
    )


def _custom_rows(series: Sequence[np.ndarray], h: int) -> tuple[np.ndarray, np.ndarray]:
    """``custom_forecast`` of each of ``series`` (float64 arrays long
    enough by ``_custom_long_enough``), as the rows of a (K, h) array, with
    each series' chosen combo as an index into ``_STRATEGY_COMBOS``.

    The series are held end to end in one flat array, each from an even
    position (an odd-length series is followed by one padding value), and
    one ``_decompose`` call decomposes all of them. Each series is
    decomposed twice, without its last h points (the fit) and in full, and
    both decompositions read that one trend. Every per-series sum is a
    segment or row reduction over that series' values alone, so a series'
    output has the same bits whatever else is in the call, and an overflow
    in one series stays in its own rows. The caller checks the output for
    non-finite values.
    """
    k = len(series)
    lengths = np.fromiter(map(len, series), np.intp, k)
    flat = np.concatenate([part for y in series
                           for part in ((y, _PAD) if y.size % 2 else (y,))])
    starts = np.add.accumulate(lengths + (lengths & 1)) - (lengths + (lengths & 1))
    # Rows 0..k-1 decompose the fits, rows k..2k-1 the full series. Row r's
    # interior, positions 1 to its length - 2, is detrended[lo:hi], and
    # series position t sits at flat position lo + t.
    lo = np.concatenate((starts, starts))
    hi = np.concatenate((lengths - h, lengths)) + lo - 2
    with np.errstate(all="ignore"):
        trend, detrended, means = _decompose(flat, lo, hi)

        # Per row, the flat positions from STRATEGY_TAIL before the
        # interior's end to h past the row's end: the tail, the undefined
        # last position, then the forecast steps. lo is even, so a
        # position's seasonal phase is its own parity.
        pos = hi[:, None] + np.arange(1 - STRATEGY_TAIL, h + 2)
        seasonal = means.ravel()[pos % 2 + np.arange(0, 4 * k, 2)[:, None]]
        # The last STRATEGY_TAIL defined trend and residual values of each
        # row, right-aligned; shorter interiors leave zeros on the left.
        at = pos[:, :STRATEGY_TAIL] - 1
        tails = np.empty((2, 2 * k, STRATEGY_TAIL))
        np.take(trend, at, out=tails[0], mode="clip")
        np.take(detrended, at, out=tails[1], mode="clip")
        tails[1] -= seasonal[:, :STRATEGY_TAIL]
        tails = tails.reshape(4 * k, STRATEGY_TAIL)
        widths = np.minimum(hi - lo, STRATEGY_TAIL)
        widths = np.concatenate((widths, widths))
        if np.minimum.reduce(widths) < STRATEGY_TAIL:
            tails[np.arange(STRATEGY_TAIL) < (STRATEGY_TAIL - widths)[:, None]] = 0.0
        # Strategy forecasts, indexed (strategy, component, row, step): the
        # line skips the one undefined end position, the repeat cycles the tail.
        strategies = np.empty((2, 4 * k, h))
        strategies[0] = _line_rows(tails, widths, [t[widths] for t in _TAIL_TERMS], h, gap=1)
        strategies[1] = tails.ravel()[(STRATEGY_TAIL * np.arange(1, 4 * k + 1) - widths)[:, None]
                                      + np.arange(h) % widths[:, None]]
        strategies = strategies.reshape(2, 2, 2 * k, h)
        seasonal = seasonal[:, STRATEGY_TAIL + 1:]

        candidates = (strategies[_TREND_STRATEGY, 0, :k]
                      + strategies[_RESID_STRATEGY, 1, :k])
        candidates += seasonal[:k]
        holdout = flat[pos[:k, STRATEGY_TAIL + 1:]]
        diffs = np.subtract(flat[1:], flat[:-1])
        np.abs(diffs, out=diffs)
        # The fit's differences, diffs[start:start + length - h - 1].
        segments = np.empty(2 * k, dtype=np.intp)
        segments[0::2] = starts
        segments[1::2] = hi[:k] + 1
        scale = np.add.reduceat(diffs, segments)[0::2] / (lengths - h - 1)
        scores = np.add.reduce(np.abs(holdout - candidates), axis=2) / h / scale
        # Ties, and an undefined scale, give the first combo.
        combo = scores.argmin(axis=0) * (scale > 0.0)
        full = np.arange(k, 2 * k)
        out = (strategies[_TREND_STRATEGY[combo], 0, full]
               + strategies[_RESID_STRATEGY[combo], 1, full])
        out += seasonal[k:]
    return out, combo


def custom_forecast(series, h: int) -> np.ndarray:
    """Decomposition-based forecast with holdout-selected strategies.

    Each of the four (trend, residual) strategy combinations is scored by
    MASE on the final h points of the input; the best one is refit on the
    full series. Series shorter than 2h + 4 fall back to the naive
    forecast with a warning.
    """
    series = _member_input(series, h)
    if not _custom_long_enough(series.size, h):
        _warn_too_short(series.size, h)
        return naive_forecast(series, h)
    return _custom_rows([series], h)[0][0]

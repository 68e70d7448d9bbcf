"""Forecaster tests; decomposition and extrapolation are checked against
independently written loop/closed-form implementations, the decomposition
member's chunk kernel against its earlier polyfit/nanmean formulation, and
the SES chunk kernel against the one-series SES it replaced, one series at
a time, and each kernel against itself over any grouping of series."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrcast import (
    custom_forecast,
    decompose_classical,
    linear_extrapolate,
    naive_forecast,
    ses_forecast,
)
from corrcast import forecasters
from corrcast.forecasters import (
    _SES_GRID,
    _STRATEGY_COMBOS,
    SES_ALPHA_GRID,
    Decomposition,
    _custom_rows,
    _ses_blocks,
    _ses_kernel,
    _ses_levels,
    _ses_rows,
)
from corrcast.metrics import UndefinedMetricError, mase
from conftest import bench_corpus


def oracle_decompose_period2(y):
    """Loop implementation of the period-2 additive decomposition."""
    n = len(y)
    trend = [math.nan] * n
    for t in range(1, n - 1):
        trend[t] = 0.25 * y[t - 1] + 0.5 * y[t] + 0.25 * y[t + 1]
    detrended = [y[t] - trend[t] for t in range(n)]
    means = []
    for phase in range(2):
        vals = [detrended[t] for t in range(phase, n, 2) if not math.isnan(detrended[t])]
        means.append(sum(vals) / len(vals))
    centre = sum(means) / 2
    means = [m - centre for m in means]
    seasonal = [means[t % 2] for t in range(n)]
    residual = [y[t] - trend[t] - seasonal[t] for t in range(n)]
    return trend, seasonal, residual


def oracle_ses_levels(y, alpha):
    """Loop implementation of the SES level recursion.

    level + alpha*(v - level) is alpha*v + (1-alpha)*level; written this
    way a constant series keeps its level exactly, where the other form
    drifts by one rounding per step (n*eps for alpha near 0).
    """
    level = y[0]
    levels = [level]
    for v in y[1:]:
        level += alpha * (v - level)
        levels.append(level)
    return levels


@st.composite
def ses_series(draw):
    """Series for the SES scan: lengths 1-3 and up to 10k, constant,
    alternating-sign and two-decimal values, level offsets up to 1e9."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(1, 3), st.integers(4, 300), st.integers(301, 10_000)))
    kind = draw(st.sampled_from(["walk", "constant", "alternating", "cents"]))
    offset = draw(st.sampled_from([0.0, 3.7, -1e6, 1e9, -1e9]))
    if kind == "walk":
        y = np.cumsum(rng.normal(0.0, 1.0, n))
    elif kind == "constant":
        y = np.zeros(n)
    elif kind == "alternating":
        y = rng.uniform(0.5, 2.0, n) * (-1.0) ** np.arange(n)
    else:
        y = np.round(rng.uniform(0.0, 100.0, n), 2)
    return offset + y


def oracle_line_fit(tail):
    """Normal-equations slope/intercept for positions 1..len(tail)."""
    n = len(tail)
    xs = list(range(1, n + 1))
    sx = sum(xs)
    sy = sum(tail)
    sxx = sum(x * x for x in xs)
    sxy = sum(x * y for x, y in zip(xs, tail))
    slope = (n * sxy - sx * sy) / (n * sxx - sx * sx)
    intercept = (sy - slope * sx) / n
    return slope, intercept


# The decomposition member as it was before its closed-form rewrite, kept
# verbatim as the oracle: np.polyfit line fits, nanmean/tile phase means,
# and one decomposition of the holdout input per strategy combo. The only
# change is that old_custom_forecast also returns its choice and scores.

def old_decompose_classical(series, period=2):
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
    return Decomposition(trend=trend, seasonal=seasonal, residual=residual)


def old_linear_extrapolate(tail, h, gap=0):
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


def _old_repeat_tail(tail, h):
    return np.tile(tail, h // tail.size + 1)[:h]


def _old_strategy_forecast(component, strategy, h):
    defined = np.nonzero(~np.isnan(component))[0]
    if defined.size < 2:
        raise ValueError("component has fewer than 2 defined values")
    tail_idx = defined[-min(forecasters.STRATEGY_TAIL, defined.size):]
    tail = component[tail_idx]
    if strategy == "linear":
        gap = (component.size - 1) - defined[-1]
        return old_linear_extrapolate(tail, h, gap=gap)
    if strategy == "repeat":
        return _old_repeat_tail(tail, h)
    raise ValueError(f"unknown strategy {strategy!r}")


OLD_STRATEGY_COMBOS = (
    ("linear", "linear"),
    ("linear", "repeat"),
    ("repeat", "linear"),
    ("repeat", "repeat"),
)


def old_decomposed_forecast(series, h, trend_strategy, resid_strategy):
    dec = old_decompose_classical(series, period=2)
    n = series.size
    trend_fc = _old_strategy_forecast(dec.trend, trend_strategy, h)
    resid_fc = _old_strategy_forecast(dec.residual, resid_strategy, h)
    seasonal_fc = dec.seasonal[(n + np.arange(h)) % 2]
    return trend_fc + resid_fc + seasonal_fc


def old_custom_forecast(series, h):
    """(chosen combo, holdout scores per combo, forecast); the series is at
    least 2h + 4 long."""
    series = np.asarray(series, dtype=np.float64)
    fit = series[:-h]
    val = series[-h:]
    best_combo = OLD_STRATEGY_COMBOS[0]
    best_score = np.inf
    scores = []
    for combo in OLD_STRATEGY_COMBOS:
        candidate = old_decomposed_forecast(fit, h, *combo)
        try:
            score = mase(fit, val, candidate, m=1)
        except UndefinedMetricError:
            score = np.inf
        scores.append(score)
        if score < best_score:
            best_score = score
            best_combo = combo
    return best_combo, scores, old_decomposed_forecast(series, h, *best_combo)


@st.composite
def custom_series(draw, h):
    """One series for the decomposition member at horizon h: lengths 2h + 3
    to 600, random walks with and without an alternating seasonal part,
    two-decimal values, constant series (undefined MASE) and exact lines
    (the residual is exactly 0, so both residual strategies tie), offsets
    up to 1e9."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.one_of(st.integers(2 * h + 3, 2 * h + 8), st.integers(2 * h + 9, 600)))
    kind = draw(st.sampled_from(["walk", "seasonal", "cents", "constant", "line"]))
    offset = draw(st.sampled_from([0.0, 3.7, -1e6, 1e9, -1e9]))
    t = np.arange(n, dtype=np.float64)
    if kind == "walk":
        y = np.cumsum(rng.normal(0.0, 1.0, n))
    elif kind == "seasonal":
        y = np.cumsum(rng.normal(0.0, 1.0, n)) + rng.uniform(0.5, 5.0) * (-1.0) ** t
    elif kind == "cents":
        y = np.round(50.0 + np.cumsum(rng.normal(0.0, 1.0, n)), 2)
    elif kind == "constant":
        y = np.zeros(n)
    else:
        # Whole offsets and quarter slopes keep every filter sum exact.
        offset = float(round(offset))
        y = draw(st.integers(-40, 40)) / 4.0 * t
    return offset + y


@st.composite
def custom_chunks(draw):
    """(series, h): one to five ``custom_series`` that share a horizon."""
    h = draw(st.sampled_from([1, 7, 14]))
    return draw(st.lists(custom_series(h), min_size=1, max_size=5)), h


def kernel_rows(ys, h):
    """The chunk kernel's rows, and its combos by name."""
    out, combo = _custom_rows(ys, h)
    return out, [_STRATEGY_COMBOS[c] for c in combo]


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestNaive:
    def test_basic(self):
        assert naive_forecast([1.0, 2.0, 3.0], 2).tolist() == [3.0, 3.0]

    def test_single_point(self):
        assert naive_forecast([5.0], 14).tolist() == [5.0] * 14

    def test_zero_std(self, rng):
        fc = naive_forecast(rng.normal(0, 1, 50), 14)
        assert np.std(fc) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            naive_forecast([], 3)


def one_series_levels(y, kernel):
    """The blocked scan's levels of one series, as (block, alpha, offset)."""
    lengths = np.array([y.size])
    padded = np.concatenate((y, np.zeros(-y.size % forecasters._SES_BLOCK)))
    return _ses_levels(padded, _ses_blocks(lengths), kernel)


def scan_levels(y, alphas):
    """The blocked scan's levels for ``alphas``, one row per alpha."""
    levels = one_series_levels(y, _ses_kernel(alphas))
    return levels.transpose(1, 0, 2).reshape(len(alphas), -1)[:, : y.size]


class TestSes:
    def test_constant_series(self):
        assert ses_forecast(np.full(20, 3.5), 3).tolist() == [3.5] * 3

    def test_frozen_recursion_oracle(self):
        # levels of [1,2,3,4] at alpha 0.5 are 1, 1.5, 2.25, 3.125
        level = scan_levels(np.array([1.0, 2.0, 3.0, 4.0]), [0.5])[0, -1]
        assert level == pytest.approx(3.125, abs=1e-12)

    def test_levels_match_loop(self, rng):
        y = rng.normal(0, 1, 40)
        alpha = 0.3
        level = y[0]
        for v in y[1:]:
            level = alpha * v + (1 - alpha) * level
        assert scan_levels(y, [alpha])[0, -1] == pytest.approx(level, rel=1e-12)

    def test_grid_selection_deterministic(self, rng):
        y = rng.normal(0, 1, 80)
        assert np.array_equal(ses_forecast(y, 5), ses_forecast(y, 5))


def oracle_grid_choice(y):
    """Index of the grid alpha the loop recursion's in-sample squared error
    picks (the first of equal errors). The loop runs once for the whole
    grid; each alpha's level takes exactly the arithmetic of
    ``oracle_ses_levels``."""
    levels = np.empty((y.size, SES_ALPHA_GRID.size))
    level = np.full(SES_ALPHA_GRID.size, y[0])
    levels[0] = level
    for t in range(1, y.size):
        level = level + SES_ALPHA_GRID * (y[t] - level)
        levels[t] = level
    err = y[1:, None] - levels[:-1]
    return int(np.argmin((err * err).sum(axis=0)))


class TestSesScan:
    """The blocked scan against the loop recursion."""

    @settings(max_examples=60, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ses_series())
    def test_levels_and_choice_match_loop(self, y):
        scale = float(np.abs(y).max())
        levels = scan_levels(y, SES_ALPHA_GRID)
        sses = []
        for row, alpha in zip(levels, SES_ALPHA_GRID):
            want = np.array(oracle_ses_levels(y.tolist(), float(alpha)))
            assert np.abs(row - want).max() <= 1e-12 * scale, alpha
            sses.append(sum((v - lv) ** 2 for v, lv in zip(y[1:], want[:-1])))
        for alpha in (1e-9, 1e-4, 1.0):
            got = scan_levels(y, [alpha])[0]
            want = np.array(oracle_ses_levels(y.tolist(), alpha))
            assert np.abs(got - want).max() <= 1e-12 * scale, alpha
        fc = ses_forecast(y, 3)
        if np.all(y == y[0]):
            assert np.all(levels == y[0])
            assert fc.tolist() == [y[0]] * 3
        order = np.argsort(sses, kind="stable")
        if sses[order[1]] - sses[order[0]] > 1e-9 * sses[order[0]]:
            # The oracle's alpha is clear, so the forecast is the scan's
            # final level at that alpha, bit for bit.
            assert fc.tolist() == [levels[order[0], -1]] * 3

    @pytest.mark.parametrize("n", [1, 2, 15, 16, 17, 31, 32, 33, 16 * 40 - 1, 16 * 40 + 1,
                                   16 * 620 - 1, 16 * 620 + 1])
    def test_block_edges(self, rng, n):
        """Lengths on either side of whole blocks, where the padding and the
        carry from block to block begin and end."""
        for offset in (0.0, -1e6, 1e9):
            y = offset + np.cumsum(rng.normal(0.0, 1.0, n))
            scale = float(np.abs(y).max())
            for alphas in (SES_ALPHA_GRID, [1e-9], [0.5], [1.0]):
                got = scan_levels(y, alphas)
                for row, alpha in zip(got, alphas):
                    want = np.array(oracle_ses_levels(y.tolist(), float(alpha)))
                    assert np.abs(row - want).max() <= 1e-12 * scale, (n, offset, alpha)
            flat = np.full(n, offset + 0.37)
            for alphas in (SES_ALPHA_GRID, [1e-9], [0.5], [1.0]):
                assert np.all(scan_levels(flat, alphas) == flat[0]), (n, offset, alphas)
            assert ses_forecast(flat, 2).tolist() == [flat[0]] * 2

    @pytest.mark.parametrize("workload", ["forecast-rw", "validate-short"])
    def test_bench_corpus_alpha_matches_loop(self, tmp_path, workload):
        """On every series of the benchmark's seed-0 corpus the grid forecast
        is the scan's final level at the loop oracle's alpha, bit for bit."""
        data = bench_corpus().generate(workload, 0, tmp_path).dataset
        for ts in data:
            y = ts.values
            b, j = divmod(y.size - 1, forecasters._SES_BLOCK)
            want = one_series_levels(y, _SES_GRID)[b, oracle_grid_choice(y), j]
            assert ses_forecast(y, 1)[0] == want, ts.id

    def test_exact_tie_takes_smallest_alpha(self):
        # With two points every alpha has the same in-sample error.
        assert ses_forecast([1.0, 3.0], 1)[0] == pytest.approx(1.0 + SES_ALPHA_GRID[0] * 2.0)


# SES as it was before its chunk kernel, kept as the oracle with only the
# module's names qualified: one series' blocked scan, and its errors summed
# by einsum.

def old_ses_forecast(series, h):
    series = np.asarray(series, dtype=np.float64)
    last = divmod(series.size - 1, forecasters._SES_BLOCK)
    levels = old_ses_levels(series, _SES_GRID)
    # y[t + 1] - level[t] in the levels' layout, 0 from t = n - 1 on.
    ahead = np.zeros(levels.shape[0] * forecasters._SES_BLOCK)
    ahead[: series.size - 1] = series[1:]
    err = ahead.reshape(-1, 1, forecasters._SES_BLOCK) - levels
    err[-1, :, last[1]:] = 0.0
    best = np.argmin(np.einsum("bij,bij->i", err, err))
    return np.full(h, levels[last[0], best, last[1]])


def old_ses_levels(series, kernel):
    _SES_BLOCK = forecasters._SES_BLOCK
    weights, block_decay = kernel
    nb = -(-series.size // _SES_BLOCK)
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


@st.composite
def ses_chunks(draw):
    """(series, points): one to twelve series and a pass budget. Lengths of
    1 and 2, one block (3-16), a few blocks and up to 5000; walks, two-decimal
    walks, constant series and alternating signs; offsets up to 1e9."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = []
    for _ in range(draw(st.integers(1, 12))):
        n = draw(st.one_of(st.integers(1, 2), st.integers(3, 16), st.integers(17, 100),
                           st.integers(101, 5000)))
        kind = draw(st.sampled_from(["walk", "cents", "constant", "alternating"]))
        offset = draw(st.sampled_from([0.0, 3.7, -1e6, 1e9, -1e9]))
        if kind == "walk":
            y = np.cumsum(rng.normal(0.0, 1.0, n))
        elif kind == "cents":
            y = np.round(np.cumsum(rng.normal(0.0, 1.0, n)), 2)
        elif kind == "constant":
            y = np.zeros(n)
        else:
            y = rng.uniform(0.5, 2.0, n) * (-1.0) ** np.arange(n)
        series.append(offset + y)
    # The ensemble's passes: an eighth of a chunk of 1, 700 or 2^15 points.
    return series, draw(st.sampled_from([1, 700, 2**15])) // 8


class TestSesChunkKernel:
    """``_ses_rows`` against the SES it replaced, series by series."""

    @settings(max_examples=100, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ses_chunks())
    def test_each_series_has_its_old_bits(self, case):
        series, points = case
        rows = _ses_rows(series, points)
        for y, row in zip(series, rows):
            want = old_ses_forecast(y, 1)
            assert same_bits(row, want[0]), y.size
            assert same_bits(ses_forecast(y, 1), want)
            if np.all(y == y[0]):
                assert row == y[0]
        # Any grouping gives each series the same bits.
        assert same_bits(_ses_rows(series[::-1], points)[::-1], rows)
        for cut in range(1, len(series)):
            parts = np.concatenate((_ses_rows(series[:cut], points),
                                    _ses_rows(series[cut:], points)))
            assert same_bits(parts, rows), cut

    def test_one_block_series_beside_longer_ones(self, rng):
        # Alone, a one-block series' product has one row, which numpy hands
        # BLAS as a matrix-vector product; beside longer series it is one
        # item of a stack of one-row products.
        short = [np.round(rng.uniform(0.0, 100.0, n), 2) for n in (1, 2, 5, 16, 16, 16)]
        long = [np.cumsum(rng.normal(0.0, 1.0, n)) for n in (17, 40, 40, 900)]
        series = short[:3] + long[:2] + short[3:] + long[2:]
        for points in (1, 87, 4096):
            rows = _ses_rows(series, points)
            for y, row in zip(series, rows):
                assert same_bits(row, old_ses_forecast(y, 1)[0]), (y.size, points)

    def test_ties_take_the_smallest_alpha(self):
        # Two points: every alpha has the same error. Constant: every error is 0.
        series = [np.array([1.0, 3.0]), np.full(40, 2.5), np.array([-4.0, 6.0])]
        rows = _ses_rows(series, 4096)
        assert rows.tolist() == [1.0 + SES_ALPHA_GRID[0] * 2.0, 2.5,
                                 -4.0 + SES_ALPHA_GRID[0] * 10.0]


class TestDecompose:
    def test_constant_series(self):
        dec = decompose_classical(np.full(10, 4.0))
        interior = slice(1, 9)
        assert np.allclose(dec.trend[interior], 4.0)
        assert np.allclose(dec.seasonal, 0.0)
        assert np.allclose(dec.residual[interior], 0.0)

    def test_hand_trend_value(self):
        dec = decompose_classical([1.0, 2.0, 3.0, 4.0, 5.0])
        assert dec.trend[1] == pytest.approx(2.0, abs=1e-12)

    def test_identity_at_interior(self, rng):
        y = rng.normal(0, 3, 60)
        dec = decompose_classical(y)
        total = dec.trend + dec.seasonal + dec.residual
        assert np.allclose(total[1:-1], y[1:-1], atol=1e-9)
        assert np.isnan(dec.trend[0]) and np.isnan(dec.trend[-1])

    def test_matches_independent_oracle(self, rng):
        y = rng.normal(0, 1, 50)
        dec = decompose_classical(y)
        trend, seasonal, residual = oracle_decompose_period2(y.tolist())
        assert np.allclose(dec.trend[1:-1], trend[1:-1], atol=1e-9)
        assert np.allclose(dec.seasonal, seasonal, atol=1e-9)
        assert np.allclose(dec.residual[1:-1], residual[1:-1], atol=1e-9)

    def test_too_short(self):
        with pytest.raises(ValueError):
            decompose_classical([1.0, 2.0, 3.0])

    def test_rejects_fewer_than_four_points(self):
        # Both phases need a defined detrended value.
        decompose_classical(np.arange(4, dtype=float) ** 2)
        for n in range(1, 4):
            with pytest.raises(ValueError, match=rf"{n} points, period 2 needs at least 4"):
                decompose_classical(np.arange(n, dtype=float) ** 2)

    def test_matches_nanmean_tile_formulation(self, rng):
        for n in (*range(4, 9), 97, 250):
            for offset in (0.0, -1e6, 1e9):
                y = offset + np.cumsum(rng.normal(0.0, 1.0, n))
                got = decompose_classical(y)
                want = old_decompose_classical(y)
                assert np.isfinite(got.seasonal).all()
                atol = 1e-12 * np.abs(y).max()
                for part in ("trend", "seasonal", "residual"):
                    np.testing.assert_allclose(getattr(got, part), getattr(want, part),
                                               rtol=1e-12, atol=atol, err_msg=f"{part} n={n}")


class TestLinearExtrapolate:
    def test_exact_line(self):
        assert linear_extrapolate([1.0, 2.0, 3.0], 2) == pytest.approx([4.0, 5.0], abs=1e-10)

    def test_constant_tail(self):
        assert linear_extrapolate(np.full(14, 2.0), 3) == pytest.approx([2.0] * 3, abs=1e-10)

    def test_matches_normal_equations(self, rng):
        tail = rng.normal(0, 1, 14) + 0.3 * np.arange(14)
        slope, intercept = oracle_line_fit(tail.tolist())
        fc = linear_extrapolate(tail, 4)
        expected = [slope * x + intercept for x in range(15, 19)]
        assert fc == pytest.approx(expected, abs=1e-9)

    def test_gap_shifts_evaluation(self, rng):
        tail = rng.normal(0, 1, 14)
        slope, intercept = oracle_line_fit(tail.tolist())
        fc = linear_extrapolate(tail, 2, gap=1)
        assert fc == pytest.approx([slope * 16 + intercept, slope * 17 + intercept], abs=1e-9)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            linear_extrapolate([1.0], 2)

    def test_matches_polyfit(self, rng):
        for w in range(2, 15):
            for offset in (0.0, 3.7, -1e6, 1e9, -1e9):
                tail = offset + rng.normal(0.0, 1.0, w) + rng.uniform(-2.0, 2.0) * np.arange(w)
                for gap in (0, 1, 3):
                    for h in (1, 7, 14):
                        got = linear_extrapolate(tail, h, gap=gap)
                        want = old_linear_extrapolate(tail, h, gap=gap)
                        np.testing.assert_allclose(got, want, rtol=1e-12,
                                                   atol=1e-12 * np.abs(tail).max(),
                                                   err_msg=f"w={w} gap={gap} h={h}")


class TestCustom:
    def test_linear_series_continues_line(self):
        n, h = 80, 14
        y = 2.0 * np.arange(1, n + 1)
        fc = custom_forecast(y, h)
        expected = 2.0 * np.arange(n + 1, n + h + 1)
        assert fc == pytest.approx(expected, abs=1e-6)

    def test_constant_series(self):
        fc = custom_forecast(np.full(40, 7.0), 14)
        assert fc == pytest.approx([7.0] * 14, abs=1e-9)

    def test_short_series_falls_back_to_naive(self, rng):
        y = rng.normal(0, 1, 20)
        with pytest.warns(UserWarning, match="falling back to naive"):
            fc = custom_forecast(y, 14)
        assert np.array_equal(fc, naive_forecast(y, 14))

    def test_deterministic(self, rng):
        y = rng.normal(0, 1, 60) + 0.1 * np.arange(60)
        assert np.array_equal(custom_forecast(y, 14), custom_forecast(y, 14))

    def test_decomposes_fit_then_full_series_once_each(self, rng, monkeypatch):
        # One call of the decomposition step takes both interiors: the series
        # without its holdout, then the full series. Each decomposition is
        # decompose_classical's, bit for bit.
        calls = []
        decompose = forecasters._decompose

        def recording(flat, lo, hi):
            out = decompose(flat, lo, hi)
            calls.append((lo.tolist(), hi.tolist(), out))
            return out

        monkeypatch.setattr(forecasters, "_decompose", recording)
        y = np.cumsum(rng.normal(0.0, 1.0, 300))
        custom_forecast(y, 14)
        monkeypatch.setattr(forecasters, "_decompose", decompose)
        assert [(lo, hi) for lo, hi, _ in calls] == [([0, 0], [300 - 14 - 2, 300 - 2])]
        trend, detrended, means = calls[0][2]
        for row, n in enumerate((300 - 14, 300)):
            want = decompose_classical(y[:n])
            assert same_bits(means[row], want.seasonal[:2])
            assert same_bits(trend[: n - 2], want.trend[1:-1])
            assert same_bits(detrended[: n - 2] - want.seasonal[1:-1], want.residual[1:-1])

    def test_undefined_mase_takes_first_combo(self):
        assert kernel_rows([np.full(40, 7.0)], 14)[1] == [("linear", "linear")]

    def test_tied_residual_strategies_take_first(self):
        # An exact line: the residual is exactly 0, so both residual
        # strategies score the same and linear, listed first, wins.
        assert kernel_rows([3.0 + 0.25 * np.arange(60)], 7)[1] == [("linear", "linear")]


class TestCustomAgainstPrevious:
    """The chunk kernel against the decomposition member's earlier
    formulation (old_custom_forecast), and against itself."""

    @settings(max_examples=200, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(custom_chunks())
    def test_same_choice_and_forecast(self, case):
        ys, h = case
        long = []
        for y in ys:
            if y.size < 2 * h + 4:
                with pytest.warns(UserWarning, match="falling back to naive"):
                    assert np.array_equal(custom_forecast(y, h), naive_forecast(y, h))
            else:
                long.append(y)
        if not long:
            return
        rows, combos = kernel_rows(long, h)
        for y, row, combo in zip(long, rows, combos):
            want_combo, scores, want = old_custom_forecast(y, h)
            assert combo == want_combo, scores
            # Relative agreement, with an absolute floor of 1e-12 near 0.
            assert np.all(np.abs(row - want) <= 1e-12 * np.maximum(np.abs(want), 1.0))
            assert same_bits(custom_forecast(y, h), row)
        # Any grouping gives each series the same bits: reversed order, and
        # a split at every boundary.
        assert same_bits(kernel_rows(long[::-1], h)[0][::-1], rows)
        for cut in range(1, len(long)):
            parts = np.vstack((kernel_rows(long[:cut], h)[0], kernel_rows(long[cut:], h)[0]))
            assert same_bits(parts, rows), cut


def _adversarial(h):
    """Series at the kernel's edges for horizon h: the shortest length it
    takes, odd and even lengths, flat offsets, a constant, an exact line,
    1e9 offsets, and a long walk."""
    rng = np.random.default_rng(h)
    shortest = 2 * h + 4
    t = np.arange(300, dtype=np.float64)
    return [
        np.cumsum(rng.normal(0.0, 1.0, shortest)),
        100.0 + np.cumsum(rng.normal(0.0, 1.0, shortest + 1)),
        np.full(shortest + 2, 5.0),
        np.full(shortest + 3, -1e9),
        3.0 + 0.25 * t[: shortest + 5],
        1e9 + np.cumsum(rng.normal(0.0, 1.0, 97)),
        -1e9 + np.cumsum(rng.normal(0.0, 1.0, 98)),
        np.round(50.0 + np.cumsum(rng.normal(0.0, 1.0, 300)), 2),
        np.cumsum(rng.normal(0.0, 1.0, 3001)),
    ]


class TestCustomChunkEdges:
    @pytest.mark.parametrize("h", [1, 2, 7, 14])
    def test_edges_alone_together_and_split(self, h):
        ys = _adversarial(h)
        rows, combos = kernel_rows(ys, h)
        for i, (y, row, combo) in enumerate(zip(ys, rows, combos)):
            want_combo, scores, want = old_custom_forecast(y, h)
            assert combo == want_combo, (i, scores)
            assert np.all(np.abs(row - want) <= 1e-12 * np.maximum(np.abs(want), 1.0)), i
            assert same_bits(kernel_rows([y], h)[0][0], row), i
        assert combos[2] == combos[3] == ("linear", "linear")  # constant: scale 0
        assert combos[4] == ("linear", "linear")  # exact line: tied residual
        assert same_bits(kernel_rows(ys[::-1], h)[0][::-1], rows)
        for cut in range(1, len(ys)):
            parts = np.vstack((kernel_rows(ys[:cut], h)[0], kernel_rows(ys[cut:], h)[0]))
            assert same_bits(parts, rows), cut

    @pytest.mark.parametrize("h", [1, 7, 14])
    def test_one_below_the_shortest_falls_back(self, rng, h):
        y = np.cumsum(rng.normal(0.0, 1.0, 2 * h + 3))
        with pytest.warns(UserWarning, match=f"series of length {2 * h + 3} too short"):
            assert np.array_equal(custom_forecast(y, h), naive_forecast(y, h))

    def test_overflow_stays_in_its_own_row(self):
        # The middle series overflows; its neighbours keep the bits they get
        # alone, and the kernel raises no floating-point warning.
        rng = np.random.default_rng(3)
        ys = [50.0 + np.cumsum(rng.normal(0.0, 1.0, 41)),
              1.5e308 * np.linspace(0.5, 1, 40),
              50.0 + np.cumsum(rng.normal(0.0, 1.0, 40))]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows, _ = kernel_rows(ys, 14)
            alone = [kernel_rows([y], 14)[0][0] for y in ys]
        assert not np.isfinite(rows[1]).all()
        assert np.isfinite(rows[0]).all() and np.isfinite(rows[2]).all()
        for row, want in zip(rows, alone):
            assert same_bits(row, want)

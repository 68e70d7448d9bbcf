"""Correlation kernel tests, checked against direct per-window recomputation."""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from corrcast import (
    ConstantInputError,
    CorrelationEngine,
    CorrelatorParams,
    Dataset,
    TimeSeries,
    pearson,
)
from corrcast.correlator import _dct_row
from corrcast.stats import _window_moments, _window_r


def direct_pearson(a, b):
    """Straight two-pass evaluation with population stds, no clamping."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    n = a.size
    ma, mb = a.mean(), b.mean()
    num = float(np.sum((a - ma) * (b - mb)))
    sa = float(np.sqrt(np.sum((a - ma) ** 2) / n))
    sb = float(np.sqrt(np.sum((b - mb) ** 2) / n))
    return num / (n * sa * sb)


class TestPearson:
    def test_frozen_example(self):
        assert pearson([1, 2, 3, 5], [1, 2, 2, 4]) == pytest.approx(
            0.9694584179118515, abs=1e-12
        )

    def test_affine_invariance(self, rng):
        a = rng.normal(0, 1, 30)
        assert pearson(a, 2.0 * a + 3.0) == pytest.approx(1.0, abs=1e-12)

    def test_anticorrelation(self, rng):
        a = rng.normal(0, 1, 30)
        assert pearson(a, -a) == pytest.approx(-1.0, abs=1e-12)

    def test_matches_direct_formula(self, rng):
        for _ in range(200):
            n = int(rng.integers(2, 40))
            a = rng.normal(0, rng.uniform(0.1, 10), n)
            b = rng.normal(0, rng.uniform(0.1, 10), n)
            if np.std(a) == 0 or np.std(b) == 0:
                continue
            assert pearson(a, b) == pytest.approx(direct_pearson(a, b), abs=1e-9)

    def test_range_clamped(self, rng):
        for scale in (1.0, 1e6, 1e-6):
            a = rng.normal(0, 1, 14) * scale
            assert -1.0 <= pearson(a, 3.7 * a - 11.0) <= 1.0

    def test_constant_input_rejected(self):
        with pytest.raises(ConstantInputError):
            pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
        with pytest.raises(ConstantInputError):
            pearson([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1.0, 2.0], [1.0, 2.0, 3.0])


def _dct_rows(w):
    return np.stack([_dct_row(w, 1), _dct_row(w, 2)])


class TestRollingStats:
    """Moments of every rolling window, from ``_window_moments`` over a
    strided stack, against a per-window two-pass recomputation."""

    def test_hand_example(self):
        mean, std, dots = _window_moments(sliding_window_view(np.array([1.0, 2.0, 3.0]), 2))
        assert mean.tolist() == [1.5, 2.5]
        assert std.tolist() == [0.5, 0.5]
        assert dots.shape == (0, 2)

    def test_constant_series_invalid(self):
        mean, std, dots = _window_moments(sliding_window_view(np.full(10, 7.0), 3), _dct_rows(3))
        assert np.all(mean == 7.0)
        assert np.all(std == 0.0)
        assert np.all(dots == 0.0)
        engine = CorrelationEngine(Dataset([TimeSeries("c", np.full(10, 7.0))]),
                                   CorrelatorParams(w=3))
        assert not engine._valid.any()

    def test_matches_per_window_recomputation(self, rng):
        _check_against_two_pass(rng.normal(0, 1, 1000))

    def test_large_offset_stability(self, rng):
        # Values near 1e9 with tiny local variation must not lose the std.
        _check_against_two_pass(1e9 + rng.normal(0, 1, 500))

    def test_too_short(self):
        # A series shorter than w has no window: the stack has no rows.
        mean, std, dots = _window_moments(np.empty((0, 14)), _dct_rows(14))
        assert mean.shape == std.shape == (0,)
        assert dots.shape == (2, 0)


def _check_against_two_pass(series, w=14):
    rows = _dct_rows(w)
    mean, std, dots = _window_moments(sliding_window_view(series, w), rows)
    assert mean.size == std.size == dots.shape[1] == series.size - w + 1
    for t in range(0, series.size - w + 1, 37):
        win = series[t : t + w]
        mu = sum(win) / w
        sd = (sum((x - mu) ** 2 for x in win) / w) ** 0.5
        assert mean[t] == pytest.approx(mu, rel=1e-12)
        assert std[t] == pytest.approx(sd, rel=1e-9)
        for dot, u in zip(dots[:, t], rows):
            assert dot == pytest.approx(sum(a * (x - mu) for a, x in zip(u, win)), abs=1e-9 * sd)


def engine_correlations(query, series):
    """(taus, rs) of every eligible window of ``series`` against ``query``,
    in tau order, from the engine's scan at threshold -1: the query is a
    target series of its own, too short to be a source."""
    query = np.asarray(query, dtype=np.float64)
    data = Dataset([TimeSeries("Q", query), TimeSeries("S", series)])
    ks, taus, rs = CorrelationEngine(data, CorrelatorParams(w=query.size)).candidates(0, -1.0)
    assert set(ks.tolist()) <= {1}
    order = np.argsort(taus)
    return taus[order], rs[order]


class TestSlidingCorrelations:
    """The correlator's window scan: every r it returns, threshold off."""

    def test_self_match_is_one(self, rng):
        series = rng.normal(0, 1, 120)
        w = 14
        query = series[40:54]
        taus, rs = engine_correlations(query, series)
        hit = rs[taus.tolist().index(54)]
        assert hit == pytest.approx(1.0, abs=1e-12)

    def test_range(self, rng):
        series = rng.normal(0, 1, 200)
        _, rs = engine_correlations(rng.normal(0, 1, 14), series)
        assert np.all(rs <= 1.0) and np.all(rs >= -1.0)

    def test_matches_per_shift_pearson(self, rng):
        series = rng.normal(0, 1, 300)
        query = rng.normal(0, 1, 14)
        taus, rs = engine_correlations(query, series)
        for tau, r in zip(taus[::7], rs[::7]):
            assert r == pytest.approx(direct_pearson(query, series[tau - 14 : tau]), abs=1e-9)

    def test_affine_invariance_of_query(self, rng):
        series = rng.normal(0, 1, 200)
        query = rng.normal(0, 1, 14)
        taus0, rs0 = engine_correlations(query, series)
        taus1, rs1 = engine_correlations(0.3 * query + 7.0, series)
        assert np.array_equal(taus0, taus1)
        assert np.allclose(rs0, rs1, atol=1e-9)
        taus2, rs2 = engine_correlations(-2.0 * query + 1.0, series)
        assert np.array_equal(taus0, taus2)
        assert np.allclose(rs2, -rs0, atol=1e-9)

    def test_invalid_windows_omitted(self, rng):
        series = np.concatenate([rng.normal(0, 1, 30), np.full(20, 4.0), rng.normal(0, 1, 30)])
        w = 14
        taus, _ = engine_correlations(rng.normal(0, 1, w), series)
        # Windows fully inside the flat stretch end at 1-based positions 44..50.
        flat = set(range(30 + w, 51))
        assert flat.isdisjoint(taus.tolist())
        assert taus.size == series.size - 2 * w + 1 - len(flat)

    def test_constant_query_rejected(self, rng):
        # A constant target window has no defined r: no candidate, no match.
        taus, _ = engine_correlations(np.ones(14), rng.normal(0, 1, 100))
        assert taus.size == 0
        data = Dataset([TimeSeries("Q", np.ones(14)), TimeSeries("S", rng.normal(0, 1, 100))])
        assert CorrelationEngine(data, CorrelatorParams()).forecast(0) is None


def test_window_r_into_buffers_matches_the_plain_formula(rng):
    """The kernel writes its r into a view of the first ``out`` buffer, both
    longer than the stack, with the bits of the plain left-to-right formula,
    on a strided view and on a gathered copy alike."""
    w = 14
    series = np.cumsum(rng.normal(0.0, 1.0, 500))
    windows = sliding_window_view(series - series.mean(), w)
    std = windows.std(axis=1)
    q = rng.normal(0.0, 1.0, w)
    qhat = (q - q.mean()) / q.std()
    out = np.full(1000, np.nan), np.full(1000, np.nan)
    for stack, sd in ((windows, std), (windows[::3].copy(), std[::3])):
        want = stack[:, 0] * qhat[0]
        for i in range(1, w):
            want += stack[:, i] * qhat[i]
        want = np.clip(want / (w * sd), -1.0, 1.0)
        got = _window_r(stack, sd, qhat, out)
        assert np.shares_memory(got, out[0]) and got.size == sd.size
        assert got.tobytes() == want.tobytes()

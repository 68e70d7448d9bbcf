"""Window-matching forecaster tests built around planted synthetic matches."""

import os
from datetime import date, timedelta

import numpy as np
import pytest

from corrcast import (
    CorrelationEngine,
    CorrelatorParams,
    Dataset,
    TimeSeries,
    affine_map,
    run_correlator,
    sweep_correlator,
)
from conftest import make_multi_planted, make_planted

W = 14


class TestAffineMap:
    def test_identity_when_stats_equal(self, rng):
        x = rng.normal(0, 1, 6)
        assert affine_map(x, 2.0, 1.5, 2.0, 1.5) == pytest.approx(x, abs=1e-12)

    def test_fixed_point_at_source_mean(self):
        assert affine_map([2.5], 2.5, 1.0, 42.0, 3.0)[0] == pytest.approx(42.0)

    def test_frozen_example(self):
        # source window [1,2,3,4], target window [10,20,30,40]
        src = np.array([1.0, 2.0, 3.0, 4.0])
        tgt = np.array([10.0, 20.0, 30.0, 40.0])
        out = affine_map([5.0, 6.0], src.mean(), np.std(src), tgt.mean(), np.std(tgt))
        assert out == pytest.approx([50.0, 60.0], abs=1e-12)

    def test_zero_source_std_rejected(self):
        with pytest.raises(ValueError):
            affine_map([1.0], 0.0, 0.0, 1.0, 1.0)


class TestCandidateStream:
    def test_planted_match_is_first(self, rng):
        d, plant = make_planted(rng)
        engine = CorrelationEngine(d, CorrelatorParams())
        ks, taus, rs = engine.candidates(d.position(plant.target_id))
        assert ks.size, "planted match not found"
        assert d.series[ks[0]].id == plant.source_id
        assert taus[0] == plant.tau
        assert rs[0] == pytest.approx(1.0, abs=1e-9)

    def test_constant_tail_gives_empty_stream(self, rng):
        d = Dataset([
            TimeSeries("C", np.concatenate([rng.normal(0, 1, 20), np.full(W, 3.0)])),
            TimeSeries("S", rng.normal(0, 1, 60)),
        ])
        assert all(a.size == 0 for a in CorrelationEngine(d, CorrelatorParams()).candidates(0))

    def test_terminal_window_never_matches_itself(self, rng):
        # A series trivially contains its own final window, but only at the
        # terminal position, which is structurally out of range.
        d = Dataset([TimeSeries("A", rng.normal(0, 1, 80))])
        _, taus, _ = CorrelationEngine(d, CorrelatorParams(r_threshold=0.99)).candidates(0)
        for tau in taus:
            assert W <= tau <= 80 - W

    def test_duplicate_windows_ordered_by_tau(self, rng):
        target = rng.normal(0, 1, 50)
        tail = target[-W:]
        window = 1.3 * tail + 0.7
        c1 = rng.normal(0, 1, W)
        c2 = rng.normal(0, 1, W)
        prefix = rng.normal(0, 1, 16)
        mid = rng.normal(0, 1, 10)
        host = np.concatenate([prefix, window, c1, mid, window, c2, rng.normal(0, 1, 5)])
        d = Dataset([TimeSeries("T", target), TimeSeries("S", host)])
        ks, taus, _ = CorrelationEngine(d, CorrelatorParams()).candidates(0)
        tau1 = prefix.size + W
        tau2 = prefix.size + 2 * W + mid.size + W
        assert list(zip(ks[:2].tolist(), taus[:2].tolist())) == [(1, tau1), (1, tau2)]

    def test_descending_r_order(self, rng):
        d, _ = make_planted(rng)
        _, _, rs = CorrelationEngine(d, CorrelatorParams(r_threshold=0.1)).candidates(0)
        assert rs.tolist() == sorted(rs.tolist(), reverse=True)


class TestCorrelatorForecast:
    def test_planted_forecast_recovered_exactly(self, rng):
        for _ in range(20):
            d, plant = make_planted(rng)
            match = CorrelationEngine(d, CorrelatorParams()).forecast(d.position(plant.target_id))
            assert match is not None
            assert match.source_id == plant.source_id
            assert match.tau == plant.tau
            assert match.forecast == pytest.approx(plant.expected_forecast, rel=1e-9, abs=1e-9)

    def test_corrupted_plant_not_matched(self, rng):
        for _ in range(20):
            d, plant = make_planted(rng, corrupt=True)
            match = CorrelationEngine(d, CorrelatorParams()).forecast(d.position(plant.target_id))
            assert match is None

    def test_std_condition_skips_to_next_candidate(self, rng):
        target = rng.normal(0, 1, 50)
        tail = target[-W:]
        tail_std = float(np.std(tail))
        window = 1.3 * tail + 0.7
        win_std = float(np.std(window))
        # First copy's continuation is 10x too dispersed; second one is fine.
        z = rng.normal(0, 1, W)
        z = (z - z.mean()) / np.std(z)
        bad = window.mean() + 10.0 * win_std * z
        good = window.mean() + 1.0 * win_std * z
        prefix = rng.normal(0, 1, 16)
        mid = rng.normal(0, 1, 10)
        host = np.concatenate([prefix, window, bad, mid, window, good, rng.normal(0, 1, 5)])
        d = Dataset([TimeSeries("T", target), TimeSeries("S", host)])
        tau2 = prefix.size + 2 * W + mid.size + W

        match = CorrelationEngine(d, CorrelatorParams(std_ratio=2.5)).forecast(0)
        assert match is not None and match.tau == tau2

        # With the condition disabled the first (over-dispersed) copy wins.
        tau1 = prefix.size + W
        match = CorrelationEngine(d, CorrelatorParams(std_ratio=None)).forecast(0)
        assert match is not None and match.tau == tau1
        fc_std = float(np.std(match.forecast))
        assert fc_std > 2.5 * tail_std

    def test_bug2_compares_against_source_window(self, rng):
        target = rng.normal(0, 1, 60)
        tail = target[-W:]
        tail_std = float(np.std(tail))
        window = 4.0 * tail + 1.0  # window std is 4x the tail std
        z = rng.normal(0, 1, W)
        z = (z - z.mean()) / np.std(z)
        continuation = window.mean() + 20.0 * tail_std * z
        host = np.concatenate([rng.normal(0, 1, 16), window, continuation, rng.normal(0, 1, 5)])
        d = Dataset([TimeSeries("T", target), TimeSeries("S", host)])
        # Forecast std is 5x the tail std: fails the target-window condition
        # but passes the (erroneous) source-window comparison.
        assert CorrelationEngine(d, CorrelatorParams(bug2=False)).forecast(0) is None
        match = CorrelationEngine(d, CorrelatorParams(bug2=True)).forecast(0)
        assert match is not None

    def test_bug1_cuts_off_late_file_positions(self, rng):
        filler = [TimeSeries(f"F{i}", rng.normal(0, 1, 5)) for i in range(2136)]
        d_early, plant_early = make_planted(rng, n_decoys=0)
        d_late, plant_late = make_planted(rng, n_decoys=0)
        series = (
            list(d_early.series)                      # positions 1-2
            + filler                                  # positions 3-2138
            + [TimeSeries("LT", d_late["T1"].values),  # position 2139
               TimeSeries("LS", d_late["S1"].values)]  # position 2140
        )
        d = Dataset(series)
        on = run_correlator(d, CorrelatorParams(bug1=True))
        off = run_correlator(d, CorrelatorParams(bug1=False))
        assert "T1" in on and "LT" not in on
        assert "T1" in off and "LT" in off

    def test_multi_planted_completeness(self, rng):
        d, plants = make_multi_planted(rng, n_series=6)
        result = run_correlator(d, CorrelatorParams())
        assert set(result) == set(plants)
        for sid, plant in plants.items():
            match = result[sid]
            assert match.source_id == plant.source_id
            assert match.tau == plant.tau
            assert match.forecast == pytest.approx(plant.expected_forecast, rel=1e-9, abs=1e-9)

    def test_include_self_switch(self, rng):
        base = rng.normal(0, 1, 30)
        tail = rng.normal(0, 1, W)
        window = 2.0 * tail - 1.0
        z = rng.normal(0, 1, W)
        z = (z - z.mean()) / np.std(z)
        cont = window.mean() + np.std(window) * z
        vals = np.concatenate([base, window, cont, rng.normal(0, 1, 6), tail])
        d = Dataset([TimeSeries("A", vals)])
        match = CorrelationEngine(d, CorrelatorParams(include_self=True)).forecast(0)
        assert match is not None and match.source_id == "A"
        assert CorrelationEngine(d, CorrelatorParams(include_self=False)).forecast(0) is None


class TestDates:
    def _dated(self, rng, target_start, source_start):
        d, plant = make_planted(rng, start_dates={"T1": target_start, "S1": source_start})
        return d, plant

    def test_used_future_flag(self, rng):
        d, plant = self._dated(rng, date(2000, 1, 1), date(2000, 1, 1))
        match = CorrelationEngine(d, CorrelatorParams()).forecast(0)
        assert match is not None
        n_target = len(d["T1"])
        last_consumed = plant.tau + W - 1
        expected = (date(2000, 1, 1).toordinal() + last_consumed
                    >= date(2000, 1, 1).toordinal() + n_target)
        assert match.used_future == expected

    def test_past_only_skips_future_sources(self, rng):
        # Source aligned so its consumed span ends after the forecast origin.
        d, plant = self._dated(rng, date(2000, 1, 1), date(2005, 1, 1))
        match = CorrelationEngine(d, CorrelatorParams()).forecast(0)
        assert match is not None and match.used_future is True
        assert CorrelationEngine(d, CorrelatorParams(past_only=True)).forecast(0) is None

    def test_past_only_keeps_past_sources(self, rng):
        d, plant = self._dated(rng, date(2005, 1, 1), date(1990, 1, 1))
        match = CorrelationEngine(d, CorrelatorParams(past_only=True)).forecast(0)
        assert match is not None and match.used_future is False

    def test_past_only_without_dates_raises(self, rng):
        d, _ = make_planted(rng)
        with pytest.raises(ValueError, match=r"4 of 4 have none \(first: 'T1', 'S1'"):
            CorrelationEngine(d, CorrelatorParams(past_only=True)).forecast(0)

    def test_past_only_with_one_undated_series_raises(self, rng):
        d, _ = make_planted(rng, start_dates={"T1": date(2000, 1, 1)})
        series = [TimeSeries(ts.id, ts.values, start_date=None if ts.id == "X2" else ts.start_date)
                  for ts in d]
        with pytest.raises(ValueError, match=r"1 of 4 have none \(first: 'X2'\)"):
            run_correlator(Dataset(series), CorrelatorParams(past_only=True))

    def test_no_dates_means_unknown(self, rng):
        d, _ = make_planted(rng)
        match = CorrelationEngine(d, CorrelatorParams()).forecast(0)
        assert match is not None and match.used_future is None

    # Source start, relative to the day on which the plant's consumed span
    # would end on the target's first forecast date: -1 ends it the day
    # before (past), 0 on that date (future); None leaves that side undated.
    SHIFTS = [(0, -1), (0, 0), (-700, -1), (700, 0), (0, None), (None, 0), (None, None)]

    @pytest.mark.parametrize("seed", range(12))
    @pytest.mark.parametrize("target_day, shift", SHIFTS)
    def test_used_future_matches_date_oracle(self, seed, target_day, shift):
        rng = np.random.default_rng(seed)
        d, plant = make_planted(rng, n_decoys=3)
        n_target = len(d["T1"])
        target_start = date(2000, 1, 1) + timedelta(days=int(rng.integers(-400, 400)))
        boundary = target_start + timedelta(days=n_target - (plant.tau + W - 1))
        starts = {"T1": None if target_day is None else target_start + timedelta(days=target_day),
                  "S1": None if shift is None else boundary + timedelta(days=shift)}
        # Decoys get random dates or none, so other pairs are one-sided too.
        for ts in d.series[2:]:
            starts[ts.id] = (None if rng.random() < 0.3
                             else target_start + timedelta(days=int(rng.integers(-300, 300))))
        d = Dataset(TimeSeries(ts.id, ts.values, start_date=starts[ts.id]) for ts in d)
        match = CorrelationEngine(d, CorrelatorParams()).forecast(0)
        assert match is not None and (match.source_id, match.tau) == ("S1", plant.tau)
        assert match.used_future == _uses_future_oracle(d, match)
        if target_day == 0 and shift is not None:
            assert match.used_future is (shift >= 0)

    @pytest.mark.parametrize("seed", range(6))
    def test_past_only_accepts_no_future_match(self, seed):
        rng = np.random.default_rng(seed)
        d, _ = make_multi_planted(rng, n_series=10)
        # Start dates close enough that some plants are future, some past.
        n = max(map(len, d))
        d = Dataset(TimeSeries(ts.id, ts.values, start_date=date(2000, 1, 1)
                               + timedelta(days=int(rng.integers(-n, n)))) for ts in d)
        combos = [(0.9999, 2.5), (0.999, None), (0.99, 3.0)]
        free = sweep_correlator(d, combos, CorrelatorParams())
        past = sweep_correlator(d, combos, CorrelatorParams(past_only=True))
        flags = [m.used_future for matches in free for m in matches.values()]
        assert True in flags and False in flags
        for matches in free + past:
            for m in matches.values():
                assert m.used_future == _uses_future_oracle(d, m)
        for free_c, past_c in zip(free, past):
            assert not any(m.used_future for m in past_c.values())
            # A match that was already past stays the accepted one.
            for sid, m in free_c.items():
                if m.used_future is False:
                    assert (past_c[sid].source_id, past_c[sid].tau) == (m.source_id, m.tau)


def _uses_future_oracle(d, match):
    """Whether the match's consumed span, window and continuation, reaches
    the target's first forecast date, from the calendar dates; None when
    either side is undated."""
    target, source = d[match.target_id], d[match.source_id]
    if target.start_date is None or source.start_date is None:
        return None
    consumed_end = date.fromordinal(source.start_date.toordinal() + match.tau + W - 1)
    first_forecast = date.fromordinal(target.start_date.toordinal() + len(target))
    return consumed_end >= first_forecast


class TestRunCorrelator:
    def test_empty_dataset(self):
        assert run_correlator(Dataset([]), CorrelatorParams()) == {}

    def test_thread_counts_agree(self, rng, pool):
        d, _ = make_multi_planted(rng, n_series=8)
        pool.record(CorrelationEngine, "sweep")
        seq = run_correlator(d, CorrelatorParams(), threads=1)
        assert pool() == {os.getpid()}
        par = run_correlator(d, CorrelatorParams(), threads=8)
        pids = pool()
        assert pids and os.getpid() not in pids
        assert list(seq) == list(par)
        for sid in seq:
            assert seq[sid].tau == par[sid].tau
            assert seq[sid].r == par[sid].r
            assert np.array_equal(seq[sid].forecast, par[sid].forecast)

    def test_scale_invariance(self, rng):
        d, plants = make_multi_planted(rng, n_series=5)
        c = 3.7
        scaled = Dataset([TimeSeries(ts.id, c * ts.values) for ts in d])
        base = run_correlator(d, CorrelatorParams())
        big = run_correlator(scaled, CorrelatorParams())
        assert set(base) == set(big)
        for sid in base:
            assert (base[sid].source_id, base[sid].tau) == (big[sid].source_id, big[sid].tau)
            assert big[sid].forecast == pytest.approx(c * base[sid].forecast, rel=1e-9)

    def test_accepted_window_bounds(self, rng):
        d, _ = make_multi_planted(rng, n_series=5)
        for match in run_correlator(d, CorrelatorParams()).values():
            n_k = len(d[match.source_id])
            assert W <= match.tau <= n_k - W


def _graded_dataset(rng, n_targets=6):
    """Targets whose best matches span a range of correlations and forecast
    dispersions, for monotonicity checks."""
    series = []
    noise_levels = np.linspace(0.0, 0.08, n_targets)
    std_factors = [0.8, 1.6, 2.2, 2.7, 1.0, 3.5]
    for i in range(n_targets):
        target = rng.normal(0, 1, 45)
        tail = target[-W:]
        window = 1.5 * tail + noise_levels[i] * rng.normal(0, 1, W)
        z = rng.normal(0, 1, W)
        z = (z - z.mean()) / np.std(z)
        cont = window.mean() + std_factors[i % len(std_factors)] * np.std(window) * z
        host = np.concatenate([rng.normal(0, 1, 15), window, cont, rng.normal(0, 1, 8)])
        series.append(TimeSeries(f"T{i}", target))
        series.append(TimeSeries(f"H{i}", host))
    return Dataset(series)


class TestMonotonicity:
    def test_threshold_axis(self, rng):
        d = _graded_dataset(rng)
        counts = [
            len(run_correlator(d, CorrelatorParams(r_threshold=r, std_ratio=None)))
            for r in (0.99999, 0.9999, 0.999, 0.99, 0.9)
        ]
        assert counts == sorted(counts)

    def test_std_ratio_axis(self, rng):
        d = _graded_dataset(rng)
        counts = [
            len(run_correlator(d, CorrelatorParams(r_threshold=0.99, std_ratio=s)))
            for s in (2.0, 2.5, 3.0, None)
        ]
        assert counts == sorted(counts)

    @pytest.mark.parametrize("bad", [(1.5, None), (0.99, -1.0), (-0.5, 2.5)])
    def test_sweep_rejects_invalid_combo(self, rng, bad):
        d = _graded_dataset(rng)
        with pytest.raises(ValueError):
            sweep_correlator(d, [(0.99, 2.5), bad], CorrelatorParams())

    def test_sweep_rejects_empty_grid(self, rng):
        with pytest.raises(ValueError, match="empty parameter grid"):
            sweep_correlator(_graded_dataset(rng), [], CorrelatorParams())

    def test_sweep_matches_individual_runs(self, rng):
        d = _graded_dataset(rng)
        combos = [(r, s) for r in (0.9999, 0.99) for s in (2.0, 2.5, None)]
        swept = sweep_correlator(d, combos, CorrelatorParams())
        for (r, s), matches in zip(combos, swept):
            solo = run_correlator(d, CorrelatorParams(r_threshold=r, std_ratio=s))
            assert set(matches) == set(solo)
            for sid in solo:
                assert matches[sid].tau == solo[sid].tau
                assert matches[sid].r == solo[sid].r


def test_sweep_estimate_is_larger_on_a_dense_corpus(rng):
    """Near-linear tails at r >= 0.99 take the full scan over every flat
    window, while random-walk tails at r >= 0.9999 take a narrow key range:
    of two corpora of the same size, the first's estimate is the larger."""
    n, length = 30, 400
    t = np.arange(length, dtype=np.float64)
    linear = Dataset([TimeSeries(f"L{i}", rng.uniform(0.5, 2.0) * t + rng.normal(0, 0.01, length))
                      for i in range(n)])
    walks = Dataset([TimeSeries(f"W{i}", np.cumsum(rng.normal(0, 1, length))) for i in range(n)])
    dense = CorrelationEngine(linear, CorrelatorParams(r_threshold=0.99))
    sparse = CorrelationEngine(walks, CorrelatorParams())
    assert all(dense._dense(hi - lo) for lo, hi in (
        dense._key_range(np.dot(tail[0], dense._u), dense._radius(0.99)) for tail in dense._tails))
    assert dense.sweep_seconds(0.99) > 2 * sparse.sweep_seconds(0.9999) > 0.0
    assert CorrelationEngine(Dataset([]), CorrelatorParams()).sweep_seconds(0.99) == 0.0

"""Leakage-audit tests: global correlation scan, categories, histograms."""

import importlib.util
import sys
import warnings
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from corrcast import (
    CorrelatorMatch,
    CorrelatorParams,
    Dataset,
    TimeSeries,
    build_leakage_report,
    candidate_stream,
    categorize,
    find_global_matches,
    future_use_stats,
    global_cross_correlation,
    overlap_histogram,
    run_correlator,
)
from corrcast import analysis
from corrcast.analysis import _fast_lengths
from corrcast.stats import pearson
from conftest import make_multi_planted, make_planted

W = 14


def _series(rng, n):
    return rng.normal(0.0, 1.0, n)


class TestGlobalCrossCorrelation:
    def test_affine_prefix_alignment_is_one(self, rng):
        yk = _series(rng, 120)
        yj = 2.5 * yk[:60] - 3.0
        d = Dataset([TimeSeries("J", yj), TimeSeries("K", yk)])
        assert global_cross_correlation(0, 1, 60, d) == pytest.approx(1.0, abs=1e-12)

    def test_matches_segment_extraction_oracle(self, rng):
        yj = _series(rng, 80)
        yk = _series(rng, 150)
        d = Dataset([TimeSeries("J", yj), TimeSeries("K", yk)])
        for tau in (14, 40, 79, 90, 136):
            m = min(80, tau)
            direct = pearson(yj[80 - m:], yk[tau - m: tau])
            assert global_cross_correlation(0, 1, tau, d) == pytest.approx(direct, abs=1e-12)

    def test_tau_bounds_enforced(self, rng):
        d = Dataset([TimeSeries("J", _series(rng, 50)), TimeSeries("K", _series(rng, 50))])
        with pytest.raises(ValueError):
            global_cross_correlation(0, 1, 13, d)
        with pytest.raises(ValueError):
            global_cross_correlation(0, 1, 37, d)


class TestFindGlobalMatches:
    def test_duplicated_tail_single_series(self, rng):
        s = _series(rng, 70)
        s[-20:] = s[:20]
        d = Dataset([TimeSeries("S", s)])
        matches = find_global_matches(d, threshold=0.99)
        assert len(matches) == 1
        m = matches[0]
        assert (m.target_id, m.source_id, m.tau, m.overlap) == ("S", "S", 20, 20)
        assert m.r_prime == pytest.approx(1.0, abs=1e-9)

    def test_scan_agrees_with_direct_recomputation(self, rng):
        series = [TimeSeries(f"S{i}", _series(rng, int(rng.integers(40, 120))))
                  for i in range(5)]
        yj = 1.5 * series[2].values[:50] + 2.0
        series.append(TimeSeries("J", yj))
        d = Dataset(series)
        matches = find_global_matches(d, threshold=0.9)
        by_target = {m.target_id: m for m in matches}
        assert "J" in by_target
        m = by_target["J"]
        j, k = d.position(m.target_id), d.position(m.source_id)
        direct = global_cross_correlation(j, k, m.tau, d)
        assert m.r_prime == pytest.approx(direct, abs=1e-9)

    def test_threshold_monotonicity(self, rng):
        series = []
        for i in range(6):
            base = _series(rng, 90)
            copy = base[:50] + rng.normal(0, 0.02 * (i + 1), 50)
            series.append(TimeSeries(f"B{i}", base))
            series.append(TimeSeries(f"C{i}", copy))
        d = Dataset(series)
        counts = [len(find_global_matches(d, threshold=t))
                  for t in (0.9999, 0.999, 0.995, 0.99, 0.9)]
        assert counts == sorted(counts)

    def test_exclusions_drop_pairs(self, rng):
        yk = _series(rng, 120)
        yj = yk[:60].copy()
        d = Dataset([TimeSeries("J", yj), TimeSeries("K", yk)])
        with_pair = find_global_matches(d, threshold=0.99)
        assert any(m.target_id == "J" and m.source_id == "K" for m in with_pair)
        without = find_global_matches(d, threshold=0.99, exclusions=[("J", "K")])
        assert not any(m.target_id == "J" and m.source_id == "K" for m in without)

    def test_report_counts_excluded_pairs(self, rng):
        yk = _series(rng, 120)
        d = Dataset([TimeSeries("J", yk[:60].copy()), TimeSeries("K", yk)])
        full = build_leakage_report(d, threshold=0.99)
        report = build_leakage_report(d, threshold=0.99, exclusions=iter([("J", "K")]))
        assert report.pre_exclusion_count == len(full.set_c) == len(report.set_c) + 1
        assert (full.excluded_pairs, report.excluded_pairs) == (0, 1)

    @pytest.mark.parametrize("bad", [{"bin_width": 0}, {"threshold": 1.5}, {"threshold": -1.01}])
    def test_report_checks_args_before_the_scan(self, rng, monkeypatch, bad):
        def no_scan(*args, **kwargs):
            raise AssertionError("the scan ran before the arguments were checked")

        monkeypatch.setattr(analysis, "find_global_matches", no_scan)
        with pytest.raises(ValueError, match="bin width|audit threshold"):
            build_leakage_report(Dataset([TimeSeries("J", _series(rng, 60))]), **bad)

    def test_empty_dataset(self):
        assert find_global_matches(Dataset([])) == []

    def test_thread_counts_agree(self, rng):
        series = [TimeSeries(f"S{i}", _series(rng, int(rng.integers(40, 100))))
                  for i in range(6)]
        series.append(TimeSeries("J", series[0].values[:40] * 2.0 + 1.0))
        d = Dataset(series)
        seq = find_global_matches(d, threshold=0.5, threads=1)
        par = find_global_matches(d, threshold=0.5, threads=4)
        assert [(m.target_id, m.source_id, m.tau, m.r_prime) for m in seq] == \
               [(m.target_id, m.source_id, m.tau, m.r_prime) for m in par]

    def test_overlap_14_degenerates_to_window_correlation(self, rng):
        # A 14-point target makes every overlap 14, so the global scan and
        # the forecaster's window scan compute the same quantity.
        tail = _series(rng, W)
        window = 1.2 * tail + 0.5
        host = np.concatenate([_series(rng, 20), window, _series(rng, 20)])
        d = Dataset([TimeSeries("J", tail), TimeSeries("K", host)])
        matches = find_global_matches(d, threshold=0.99)
        by_target = {m.target_id: m for m in matches}
        assert by_target["J"].overlap == W
        cands = candidate_stream(0, d, CorrelatorParams(r_threshold=0.99))
        top_k, top_tau, top_r = cands[0]
        assert (d.series[top_k].id, top_tau) == (by_target["J"].source_id, by_target["J"].tau)
        assert by_target["J"].r_prime == pytest.approx(top_r, abs=1e-9)


def _dated(ts_id, values, start):
    return TimeSeries(ts_id, values, start_date=start)


class TestCategorize:
    def test_t1_self_correlation(self, rng):
        s = _series(rng, 70)
        s[-20:] = s[:20]
        d = Dataset([TimeSeries("S", s)])
        matches = find_global_matches(d, threshold=0.99)
        cats = categorize(matches, d)
        assert [m.target_id for m in cats["T1"]] == ["S"]

    def test_t2_mutual_correlation(self, rng):
        x = _series(rng, 40)
        y = _series(rng, 45)
        a = np.concatenate([x, y])
        b = np.concatenate([y, x])
        d = Dataset([TimeSeries("A", a), TimeSeries("B", b)])
        matches = find_global_matches(d, threshold=0.99)
        cats = categorize(matches, d)
        assert {m.target_id for m in cats["T2"]} == {"A", "B"}

    def test_t3_synchronised(self, rng):
        a = _series(rng, 60)
        b = np.concatenate([a, _series(rng, W)])
        start = date(2001, 3, 1)
        d = Dataset([_dated("A", a, start), _dated("B", b, start)])
        matches = find_global_matches(d, threshold=0.99)
        cats = categorize(matches, d)
        assert [m.target_id for m in cats["T3"]] == ["A"]
        assert cats["T4"] == []

    def test_t4_shifted_dates(self, rng):
        base = _series(rng, 90)
        a = base[:66]
        b = base[10:90]
        start = date(2001, 3, 1)
        d = Dataset([_dated("A", a, start), _dated("B", b, start)])
        matches = find_global_matches(d, threshold=0.99)
        cats = categorize(matches, d)
        assert [m.target_id for m in cats["T4"]] == ["A"]
        assert cats["T3"] == []

    def test_date_unknown_without_starts(self, rng):
        a = _series(rng, 60)
        b = np.concatenate([a, _series(rng, W)])
        d = Dataset([TimeSeries("A", a), TimeSeries("B", b)])
        matches = find_global_matches(d, threshold=0.99)
        cats = categorize(matches, d)
        assert [m.target_id for m in cats["date_unknown"]] == ["A"]

    def test_categories_partition_matches(self, rng):
        s = _series(rng, 70)
        s[-20:] = s[:20]
        x = _series(rng, 40)
        y = _series(rng, 45)
        series = [
            TimeSeries("S", s),
            TimeSeries("A", np.concatenate([x, y])),
            TimeSeries("B", np.concatenate([y, x])),
        ]
        d = Dataset(series)
        matches = find_global_matches(d, threshold=0.99)
        cats = categorize(matches, d)
        assert sum(len(v) for v in cats.values()) == len(matches)


class TestOverlapHistogram:
    def test_single_match_bin(self, rng):
        yk = _series(rng, 400)
        yj = yk[:350].copy()
        d = Dataset([TimeSeries("J", yj), TimeSeries("K", yk)])
        matches = find_global_matches(d, threshold=0.99)
        assert matches[0].overlap == 350
        counts = overlap_histogram(matches, bin_width=100)
        assert counts[3] == 1 and counts.sum() == len(matches)

    def test_total_count_conserved(self, rng):
        series = []
        for i in range(4):
            base = _series(rng, int(rng.integers(60, 140)))
            series.append(TimeSeries(f"B{i}", base))
            series.append(TimeSeries(f"C{i}", base[: int(rng.integers(40, 55))].copy()))
        d = Dataset(series)
        matches = find_global_matches(d, threshold=0.99)
        counts = overlap_histogram(matches, bin_width=10)
        assert counts.sum() == len(matches)

    def test_bad_bin_width(self):
        with pytest.raises(ValueError):
            overlap_histogram([], 0)


class TestFutureUse:
    def _two_plants(self, rng):
        d1, p1 = make_planted(rng, start_dates={"T1": date(2000, 1, 1), "S1": date(1990, 1, 1)})
        d2, p2 = make_planted(rng, start_dates={"T1": date(2000, 1, 1), "S1": date(2005, 1, 1)})
        series = list(d1.series)
        renames = {"T1": "U1", "S1": "V1", "X1": "Y1", "X2": "Y2"}
        for ts in d2.series:
            series.append(TimeSeries(renames[ts.id], ts.values, start_date=ts.start_date))
        return Dataset(series)

    def test_hand_enumerated_fraction(self, rng):
        d = self._two_plants(rng)
        matches = run_correlator(d, CorrelatorParams())
        assert set(matches) == {"T1", "U1"}
        assert future_use_stats(matches, d) == 0.5

    def test_past_only_fraction_is_zero(self, rng):
        d = self._two_plants(rng)
        matches = run_correlator(d, CorrelatorParams(past_only=True))
        assert matches, "expected the past-source plant to survive"
        assert future_use_stats(matches, d) == 0.0

    def test_missing_dates_raise(self, rng):
        d, _ = make_planted(rng)
        matches = run_correlator(d, CorrelatorParams())
        with pytest.raises(ValueError, match="info file"):
            future_use_stats(matches, d)

    def test_reads_each_match_flag(self, rng):
        # The flags were set when the matches were made; the dataset's dates
        # are not consulted again (these series have none).
        d = Dataset([TimeSeries("A", _series(rng, 60)), TimeSeries("B", _series(rng, 60))])
        fc = np.zeros(W)
        flagged = {"A": CorrelatorMatch("A", "B", 20, 0.99, fc, used_future=True),
                   "B": CorrelatorMatch("B", "A", 30, 0.99, fc, used_future=False)}
        assert future_use_stats(flagged, d) == 0.5
        flagged["B"] = CorrelatorMatch("B", "A", 30, 0.99, fc, used_future=None)
        with pytest.raises(ValueError, match=r"1 of 2 matched pairs \(first: \(B, A\)\)"):
            future_use_stats(flagged, d)

    def test_partly_dated_report_warns(self, rng):
        d, _ = make_multi_planted(rng, n_series=5)
        dated = {"P1", "P2", "P3"}
        d = Dataset([TimeSeries(ts.id, ts.values,
                                start_date=date(2000, 1, 1) if ts.id in dated else None)
                     for ts in d])
        matches = run_correlator(d, CorrelatorParams())
        undated = [m for m in matches.values() if not {m.target_id, m.source_id} <= dated]
        assert 0 < len(undated) < len(matches)
        with pytest.warns(UserWarning) as record:
            report = build_leakage_report(d, correlator_matches=matches)
        assert report.future_use_fraction is None
        assert len(record) == 1
        message = str(record[0].message)
        assert f"{len(undated)} of {len(matches)} matched pairs" in message
        assert f"({undated[0].target_id}, {undated[0].source_id})" in message

    def test_dated_or_empty_report_is_silent(self, rng):
        d = self._two_plants(rng)
        matches = run_correlator(d, CorrelatorParams())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert build_leakage_report(d, correlator_matches=matches).future_use_fraction == 0.5
            assert build_leakage_report(d, correlator_matches={}).future_use_fraction is None


def _bench_corpus():
    """The benchmark's corpus generator, imported from bench/ by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_planted_leaks_recovered_exactly(tmp_path):
    # The audit-leaky corpus: 64 ragged series with planted T1-T4 leaks whose
    # ground truth the generator confirmed with the slow oracles.
    corpus = _bench_corpus().generate("audit-leaky", 0, tmp_path)
    truth = corpus.truth
    report = build_leakage_report(corpus.dataset)
    label = {(m.target_id, m.source_id, m.tau): c
             for c, found in report.categories.items() for m in found}
    assert {(*key, c) for key, c in label.items()} == {
        (p["target"], p["source"], p["tau"], p["category"]) for p in truth["leak_plants"]}
    overlaps = {(m.target_id, m.source_id, m.tau): m.overlap for m in report.set_c}
    assert all(overlaps[(p["target"], p["source"], p["tau"])] == p["overlap"]
               for p in truth["leak_plants"])
    counts = {c: len(found) for c, found in report.categories.items()}
    assert counts == {**truth["leak_counts"], "date_unknown": 0}


def test_next_fast_len_matches_scipy():
    # The scan's FFT length for n is the ladder's first rung >= n.
    fft = pytest.importorskip("scipy.fft")
    ladder = _fast_lengths(70000)
    rungs = ladder[np.searchsorted(ladder, np.arange(1, 70001))]
    for n, rung in enumerate(rungs.tolist(), start=1):
        assert rung == fft.next_fast_len(n, real=True), n

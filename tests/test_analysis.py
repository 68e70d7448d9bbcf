"""Leakage-audit tests: global correlation scan, categories, histograms."""

import os
import re
import warnings
from datetime import date, timedelta

import numpy as np
import pytest

from corrcast import (
    CorrelationEngine,
    CorrelatorMatch,
    CorrelatorParams,
    Dataset,
    TimeSeries,
    build_leakage_report,
    categorize,
    find_global_matches,
    future_use_stats,
    global_cross_correlation,
    overlap_histogram,
    run_correlator,
)
from corrcast import analysis
from corrcast.analysis import _fast_lengths, load_exclusions_csv
from corrcast.dataset import LoadError
from corrcast.stats import pearson
from conftest import bench_corpus, make_multi_planted, make_planted, match_bits

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
        with_pair = build_leakage_report(d, threshold=0.99).set_c
        assert any(m.target_id == "J" and m.source_id == "K" for m in with_pair)
        without = build_leakage_report(d, threshold=0.99, exclusions=[("J", "K")]).set_c
        assert not any(m.target_id == "J" and m.source_id == "K" for m in without)
        assert without == [m for m in with_pair if (m.target_id, m.source_id) != ("J", "K")]

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

    def test_thread_counts_agree(self, rng, monkeypatch, pool):
        series = [TimeSeries(f"S{i}", _series(rng, int(rng.integers(40, 100))))
                  for i in range(6)]
        series.append(TimeSeries("J", series[0].values[:40] * 2.0 + 1.0))
        d = Dataset(series)
        # One group per tile, so that the scan's map has several squares.
        monkeypatch.setattr(analysis, "_TILE", 1)
        pool.record(analysis.GlobalScanEngine, "_tile")
        seq = find_global_matches(d, threshold=0.5, threads=1)
        assert pool() == {os.getpid()}
        par = find_global_matches(d, threshold=0.5, threads=4)
        pids = pool()
        assert pids and os.getpid() not in pids
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
        ks, taus, rs = CorrelationEngine(d, CorrelatorParams(r_threshold=0.99)).candidates(0)
        top_k, top_tau, top_r = ks[0], taus[0], rs[0]
        assert (d.series[top_k].id, top_tau) == (by_target["J"].source_id, by_target["J"].tau)
        assert by_target["J"].r_prime == pytest.approx(top_r, abs=1e-9)


def _ragged(rng):
    """Walks of ragged lengths with a verbatim duplicate, a near copy, series
    shorter than 2 * margin (targets only), a constant and a one-point series.
    Two walks start with ramps, the shorter one first, and the longest
    series is a ramp: its r' with them and with itself clips to 1.0 at many
    alignments, ties across sources that only the tie rule breaks."""
    values = [np.cumsum(_series(rng, int(rng.integers(30, 160)))) for _ in range(40)]
    values[3] = np.concatenate([np.arange(30.0), 30.0 + np.cumsum(_series(rng, 10))])
    values[5] = 0.5 * np.arange(170.0)
    values[6] = np.concatenate([2.0 * np.arange(40.0), 80.0 + np.cumsum(_series(rng, 110))])
    values.insert(4, values[1].copy())
    values.append(1.5 * values[2][-35:] + 0.01 * _series(rng, 35))
    values += [_series(rng, 20), _series(rng, 5), np.full(50, 3.0), np.ones(1)]
    values.insert(0, values[5].copy())
    return Dataset([TimeSeries(f"S{i}", v) for i, v in enumerate(values)])


class TestAllPairsScan:
    """``best_matches`` convolves each unordered pair of distinct series once
    and feeds both targets; ``best_match(j)`` runs the same pair kernel."""

    # At one group per tile the 43 groups make squares of 2 x 2 tiles, the
    # last one cut short.
    @pytest.mark.parametrize("tile", [1, 2, analysis._TILE])
    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_agrees_with_best_match_bit_for_bit(self, rng, monkeypatch, pool, tile, threads):
        monkeypatch.setattr(analysis, "_TILE", tile)
        pool.record(analysis.GlobalScanEngine, "_tile")
        d = _ragged(rng)
        engine = analysis.GlobalScanEngine(d)
        single = [match_bits(engine.best_match(j)) for j in range(len(d))]
        assert [match_bits(b) for b in engine.best_matches(threads)] == single
        pids = pool()
        assert pids and (os.getpid() in pids) == (threads == 1)
        assert sum(b is not None for b in single) == len(d) - 2

    def test_one_convolution_per_unordered_pair(self, rng, monkeypatch):
        d = _ragged(rng)
        engine = analysis.GlobalScanEngine(d)
        rows = []

        def counting_irfft(a, n):
            rows.append(a.shape[0])
            return irfft(a, n)

        irfft = np.fft.irfft
        monkeypatch.setattr(np.fft, "irfft", counting_irfft)
        engine.best_matches()
        # 41 distinct sources (the duplicates add none) and two short targets.
        sources, short = 41, 2
        assert sum(rows) == sources * (sources + 1) // 2 + short * sources

    def test_duplicate_copies_tie_exactly(self, rng, monkeypatch, pool):
        """Three verbatim copies of B sit on both sides of A, whose tail
        starts B while B's tail starts A (a T2 pair). Near-perfect matches
        (r' just below 1, so no clip hides a rounding difference) must name
        the first copy, for every target, at any thread count: in one tile
        at one thread, and in a pool over squares of one group each."""
        pool.record(analysis.GlobalScanEngine, "_tile")
        default_tile = analysis._TILE
        for _ in range(4):
            n, length = 200, 40
            a, b = np.cumsum(_series(rng, n)), np.cumsum(_series(rng, n))
            b[:length] = 1.5 * a[-length:] + 2.0 + 1e-3 * _series(rng, length)
            a[:length] = 0.5 * b[-length:] - 1.0 + 1e-3 * _series(rng, length)
            first = 0.3 * b[50:70] + 1e-3 * _series(rng, 20)
            last = 2.0 * b[60:130] - 4.0 + 1e-3 * _series(rng, 70)
            d = Dataset([TimeSeries("T_first", first), TimeSeries("B0", b),
                         TimeSeries("A", a), TimeSeries("B1", b.copy()),
                         TimeSeries("B2", b.copy()), TimeSeries("T_last", last)])
            expected = {"T_first": ("B0", 70), "B0": ("A", 40), "A": ("B0", 40),
                        "B1": ("A", 40), "B2": ("A", 40), "T_last": ("B0", 130)}
            for threads, tile in ((1, default_tile), (2, 1)):
                monkeypatch.setattr(analysis, "_TILE", tile)
                matches = find_global_matches(d, threshold=0.99, threads=threads)
                assert (os.getpid() in pool()) == (threads == 1)
                assert {m.target_id: (m.source_id, m.tau) for m in matches} == expected
                assert all(m.r_prime < 1.0 for m in matches)
                t2 = categorize(matches, d)["T2"]
                assert {(m.target_id, m.source_id) for m in t2} == {("A", "B0"), ("B0", "A")}


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


def test_planted_leaks_recovered_exactly(tmp_path):
    # The audit-leaky corpus: 64 ragged series with planted T1-T4 leaks whose
    # ground truth the generator confirmed with the slow oracles.
    corpus = bench_corpus().generate("audit-leaky", 0, tmp_path)
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


def _null_corpus(seed, n=8000, walks=12, short=1000):
    """Random walks of n points, the least self-similar corpus an audit
    sees, with the bench's plant shapes: two T1 (a walk's first third
    affine-copied onto its last third) and one each of T3 and T4 (a whole
    short series affine-copied from a window of a walk, with the same start
    date as that window or a shifted one). Returns the dataset and the
    plants as (target, source, tau, category)."""
    rng = np.random.default_rng(seed)
    ys = [np.cumsum(rng.normal(0.0, 1.0, n)) for _ in range(walks)]
    starts = [date(1990, 1, 1) + timedelta(days=int(d)) for d in rng.integers(0, 9000, walks)]
    plants = set()
    for j in (0, 1):
        third = n // 3
        ys[j][-third:] = rng.uniform(0.5, 2.0) * ys[j][:third] + rng.uniform(-50.0, 50.0)
        plants.add((f"W{j}", f"W{j}", third, "T1"))
    series = [_dated(f"W{j}", y, start) for j, (y, start) in enumerate(zip(ys, starts))]
    for k, (cat, shift) in zip((2, 3), (("T3", 0), ("T4", 400))):
        tau = int(rng.integers(short, n - W + 1))
        copy = rng.uniform(0.5, 2.0) * ys[k][tau - short: tau] + rng.uniform(-50.0, 50.0)
        start = starts[k] + timedelta(days=tau - short + shift)
        series.append(_dated(f"C{k}", copy, start))
        plants.add((f"C{k}", f"W{k}", tau, cat))
    return Dataset(series), plants


@pytest.mark.parametrize("seed", range(4))
def test_null_corpus_returns_exactly_its_plants(seed):
    # A walk's levels correlate with themselves at small lags, so without
    # the self pair's n // 2 bound about a third of these walks matched
    # themselves at tau = n - W, r' >= 0.995, and were filed as T1.
    d, plants = _null_corpus(seed)
    matches = find_global_matches(d)
    found = {(m.target_id, m.source_id, m.tau, c)
             for c, ms in categorize(matches, d).items() for m in ms}
    assert found == plants


def test_next_fast_len_matches_scipy():
    # The scan's FFT length for n is the ladder's first rung >= n.
    fft = pytest.importorskip("scipy.fft")
    ladder = _fast_lengths(70000)
    rungs = ladder[np.searchsorted(ladder, np.arange(1, 70001))]
    for n, rung in enumerate(rungs.tolist(), start=1):
        assert rung == fft.next_fast_len(n, real=True), n


def test_exclusions_with_byte_order_mark(tmp_path):
    """A header-less exclusion list saved with a byte-order mark yields the
    first pair's plain ids, so that it matches the pair it names."""
    path = tmp_path / "excl.csv"
    path.write_bytes(b"\xef\xbb\xbf" + b"D1,D2\nD3,D4\n")
    assert load_exclusions_csv(path) == [("D1", "D2"), ("D3", "D4")]


@pytest.mark.parametrize("row", ["D5", "D5,", ",D5", " , D5,x", "D5, "])
def test_exclusions_row_without_two_ids_is_refused(tmp_path, row):
    """A non-blank row needs a target id and a source id; the error names
    the file and the line. Skipping the row, or keeping an empty id, which
    matches no pair, would leave in the audit a pair meant to be excluded."""
    path = tmp_path / "excl.csv"
    path.write_text(f"j,k\nD1,D2\n\n{row}\nD3,D4\n")
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: row 4 needs a target id "
                                        "and a source id$"):
        load_exclusions_csv(path)


@pytest.mark.parametrize("text, line", [("\n\nD5\n", 3), ('"D\n5"\n', 2)])
def test_exclusions_first_row_is_numbered_by_its_line(tmp_path, text, line):
    """A header-less list's first row is numbered by its last physical line,
    as every other row is."""
    path = tmp_path / "excl.csv"
    path.write_text(text)
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: row {line} needs"):
        load_exclusions_csv(path)


def test_exclusions_keep_label_header_and_extra_columns(tmp_path):
    path = tmp_path / "excl.csv"
    path.write_text("Target_ID,source_id,note\nD1,D2,one jump\n\n D3 , D4 ,,\n")
    assert load_exclusions_csv(path) == [("D1", "D2"), ("D3", "D4")]
    path.write_text("D1,D2,one jump\n")
    assert load_exclusions_csv(path) == [("D1", "D2")]


def test_exclusions_naming_unknown_ids_warn_once(rng):
    yk = _series(rng, 120)
    d = Dataset([TimeSeries("J", yk[:60].copy()), TimeSeries("K", yk)])
    pairs = [("J", "K"), *((f"X{i}", "J") for i in range(6)), ("K", "Y")]
    with pytest.warns(UserWarning) as record:
        report = build_leakage_report(d, threshold=0.99, exclusions=iter(pairs))
    assert [str(w.message) for w in record] == [
        "7 of 8 exclusion pairs name a series id not in the dataset "
        "(first: (X0, J), (X1, J), (X2, J), (X3, J), (X4, J))"]
    assert report.excluded_pairs == 1

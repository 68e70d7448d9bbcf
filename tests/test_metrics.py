"""Metric tests with direct-formula oracles and aggregation cross-checks."""

import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrcast import Dataset, HoldoutSplit, TimeSeries, UndefinedMetricError, mase, owa_report, smape
from corrcast.metrics import MetricReport


class TestMase:
    def test_perfect_forecast(self):
        assert mase([1.0, 2.0, 4.0], [5.0, 6.0], [5.0, 6.0]) == 0.0

    def test_frozen_example(self):
        assert mase([1.0, 2.0, 3.0], [4.0, 5.0], [3.0, 3.0], m=1) == pytest.approx(1.5, abs=1e-12)

    def test_constant_train_undefined(self):
        with pytest.raises(UndefinedMetricError):
            mase([2.0, 2.0, 2.0], [2.0], [3.0], m=1)

    def test_scale_invariance(self, rng):
        train = rng.normal(0, 1, 50)
        actual = rng.normal(0, 1, 14)
        forecast = rng.normal(0, 1, 14)
        base = mase(train, actual, forecast)
        for c in (3.0, 1e-4, 2.5e7):
            scaled = mase(c * train, c * actual, c * forecast)
            assert scaled == pytest.approx(base, rel=1e-12)

    def test_seasonal_lag(self):
        train = [1.0, 2.0, 1.0, 2.0, 1.0, 2.0]
        # at m=2 the seasonal-naive in-sample error is 0 -> undefined
        with pytest.raises(UndefinedMetricError):
            mase(train, [1.0], [1.0], m=2)
        assert mase(train, [2.0], [1.0], m=1) == pytest.approx(1.0, abs=1e-12)


class TestSmape:
    def test_perfect(self):
        assert smape([3.0, 4.0], [3.0, 4.0]) == 0.0

    def test_frozen_example(self):
        assert smape([100.0], [110.0]) == pytest.approx(9.523809523809524, abs=1e-12)

    def test_both_zero_convention(self):
        assert smape([0.0], [0.0]) == 0.0
        assert smape([0.0, 5.0], [0.0, 5.0]) == 0.0

    def test_nan_is_not_a_perfect_score(self):
        # A NaN denominator is not the both-zero case.
        assert np.isnan(smape([1.0], [np.nan]))
        assert np.isnan(smape([np.nan, 1.0], [np.nan, 1.0]))

    def test_symmetry(self, rng):
        a = rng.normal(0, 5, 20)
        b = rng.normal(0, 5, 20)
        assert smape(a, b) == pytest.approx(smape(b, a), abs=1e-12)

    def test_range(self, rng):
        for _ in range(50):
            a = rng.normal(0, 10, 14)
            b = rng.normal(0, 10, 14)
            assert 0.0 <= smape(a, b) <= 200.0
        assert smape([1.0], [-1.0]) == pytest.approx(200.0)


def _split_from(train_map, test_map):
    d = Dataset([TimeSeries(sid, v) for sid, v in train_map.items()])
    return HoldoutSplit(train=d, test={k: np.asarray(v, float) for k, v in test_map.items()})


class TestOwaReport:
    def test_naive_vs_naive_is_exactly_one(self, rng):
        train = {f"A{i}": rng.normal(0, 1, 30) for i in range(4)}
        test = {sid: rng.normal(0, 1, 5) for sid in train}
        naive = {sid: np.full(5, train[sid][-1]) for sid in train}
        report = owa_report(naive, naive, _split_from(train, test))
        assert report.owa == 1.0
        assert report.relative_mase == 1.0
        assert report.relative_smape == 1.0

    def test_matches_spreadsheet_aggregation(self, rng):
        ids = ["A", "B", "C"]
        train = {sid: rng.uniform(1, 10, 25) for sid in ids}
        test = {sid: rng.uniform(1, 10, 4) for sid in ids}
        fcs = {sid: rng.uniform(1, 10, 4) for sid in ids}
        bench = {sid: np.full(4, train[sid][-1]) for sid in ids}
        report = owa_report(fcs, bench, _split_from(train, test))

        # Independent aggregation: per-series metrics then ratio of means.
        mase_f = [mase(train[sid], test[sid], fcs[sid]) for sid in ids]
        mase_b = [mase(train[sid], test[sid], bench[sid]) for sid in ids]
        smape_f = [smape(test[sid], fcs[sid]) for sid in ids]
        smape_b = [smape(test[sid], bench[sid]) for sid in ids]
        rel_mase = np.mean(mase_f) / np.mean(mase_b)
        rel_smape = np.mean(smape_f) / np.mean(smape_b)
        assert report.relative_mase == pytest.approx(rel_mase, rel=1e-12)
        assert report.relative_smape == pytest.approx(rel_smape, rel=1e-12)
        assert report.owa == pytest.approx((rel_mase + rel_smape) / 2, rel=1e-12)

    def test_id_order_irrelevant_to_aggregates(self, rng):
        ids = ["A", "B", "C", "D"]
        train = {sid: rng.uniform(1, 10, 25) for sid in ids}
        test = {sid: rng.uniform(1, 10, 4) for sid in ids}
        fcs = {sid: rng.uniform(1, 10, 4) for sid in ids}
        bench = {sid: np.full(4, train[sid][-1]) for sid in ids}
        split = _split_from(train, test)
        fwd = owa_report(fcs, bench, split)
        rev = owa_report(dict(reversed(fcs.items())), bench, split)
        assert fwd.owa == pytest.approx(rev.owa, rel=1e-12)

    def test_undefined_series_excluded_with_warning(self, rng):
        train = {"A": np.full(20, 5.0), "B": rng.normal(0, 1, 20)}
        test = {"A": np.full(3, 5.0), "B": rng.normal(0, 1, 3)}
        fcs = {"A": np.full(3, 5.0), "B": rng.normal(0, 1, 3)}
        bench = {sid: np.full(3, train[sid][-1]) for sid in train}
        with pytest.warns(UserWarning, match="excluded"):
            report = owa_report(fcs, bench, _split_from(train, test))
        assert report.per_series["A"][0] is None
        assert report.excluded == ["A"]

    def test_empty_rejected(self, rng):
        split = _split_from({"A": rng.normal(0, 1, 10)}, {"A": rng.normal(0, 1, 2)})
        with pytest.raises(ValueError):
            owa_report({}, {}, split)

    def test_missing_benchmark_id_rejected(self, rng):
        train = {"A": rng.normal(0, 1, 20)}
        test = {"A": rng.normal(0, 1, 3)}
        with pytest.raises(ValueError, match="A"):
            owa_report({"A": np.zeros(3)}, {}, _split_from(train, test))

    @pytest.mark.parametrize("where", ["forecast", "benchmark", "actual"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_rejected(self, rng, where, value):
        # B (horizon 3) and D (horizon 5) are broken; B comes first in id
        # order although its horizon group is scored second.
        hs = {"A": 5, "B": 3, "C": 5, "D": 5}
        train = {sid: rng.normal(0, 1, 20) for sid in hs}
        values = {part: {sid: rng.normal(0, 1, h) for sid, h in hs.items()}
                  for part in ("forecast", "benchmark", "actual")}
        for sid in ("B", "D"):
            values[where][sid][1] = value
        split = _split_from(train, values["actual"])
        with pytest.raises(ValueError, match="series 'B' has non-finite"):
            owa_report(values["forecast"], values["benchmark"], split)


# --- owa_report against a per-series reference -------------------------------


def _ref_mase(train, actual, forecast, m):
    """MASE by its 1-D formula, with mase's checks in mase's order."""
    if m < 1:
        raise ValueError(f"seasonality must be >= 1, got {m}")
    if train.size <= m:
        raise ValueError(f"training series of length {train.size} too short for m={m}")
    if actual.shape != forecast.shape:
        raise ValueError("actual and forecast lengths differ")
    scale = np.mean(np.abs(train[m:] - train[:-m]))
    if scale <= 0.0:
        raise UndefinedMetricError("zero scale")
    return float(np.mean(np.abs(actual - forecast)) / scale)


def _ref_smape(actual, forecast):
    """sMAPE by its 1-D formula."""
    if actual.shape != forecast.shape:
        raise ValueError("actual and forecast lengths differ")
    denom = np.abs(actual) + np.abs(forecast)
    terms = np.zeros_like(denom)
    nz = denom > 0.0
    terms[nz] = np.abs(actual[nz] - forecast[nz]) / denom[nz]
    return float(200.0 * terms.mean())


def _ref_owa_report(forecasts, benchmark, split, m):
    """owa_report one series at a time: the 1-D metrics, then means of lists."""
    per_series, excluded = {}, []
    mase_f, mase_b, smape_f, smape_b = [], [], [], []
    for sid in forecasts:
        fc, bench = forecasts[sid], benchmark[sid]
        train, actual = split.train[sid].values, split.test[sid]
        try:
            s_f = _ref_smape(actual, fc)
            smape_b.append(_ref_smape(actual, bench))
        except ValueError as exc:
            raise ValueError(f"{exc} for series {sid!r}: {actual.size} actual, {fc.size} "
                             f"forecast and {bench.size} benchmark values") from None
        smape_f.append(s_f)
        try:
            m_f = _ref_mase(train, actual, fc, m)
            m_b = _ref_mase(train, actual, bench, m)
        except UndefinedMetricError:
            per_series[sid] = (None, s_f)
            excluded.append(sid)
            continue
        per_series[sid] = (m_f, s_f)
        mase_f.append(m_f)
        mase_b.append(m_b)
    if excluded:
        warnings.warn(
            f"MASE undefined for {len(excluded)} series (constant training data); "
            f"excluded from MASE aggregation: {excluded[:5]}"
        )
    if not mase_f:
        raise UndefinedMetricError("MASE undefined for every series; cannot aggregate")
    agg_mase, agg_smape = float(np.mean(mase_f)), float(np.mean(smape_f))
    bench_mase, bench_smape = float(np.mean(mase_b)), float(np.mean(smape_b))
    if bench_mase <= 0.0 or bench_smape <= 0.0:
        raise UndefinedMetricError("benchmark aggregate metric is zero; relative metrics undefined")
    rel_mase, rel_smape = agg_mase / bench_mase, agg_smape / bench_smape
    return MetricReport(per_series, agg_mase, agg_smape, bench_mase, bench_smape,
                        rel_mase, rel_smape, (rel_mase + rel_smape) / 2.0, excluded)


# Zeros in actuals and forecasts give zero sMAPE denominators.
_VALUES = st.one_of(
    st.sampled_from([0.0, 0.0, -0.0, 1.0, -2.5]),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def scoring_cases(draw):
    m = draw(st.sampled_from([1, 2, 7]))
    # Rows of 8 or more values take numpy's unrolled pairwise sums.
    horizons = draw(st.lists(st.integers(1, 24), min_size=2, max_size=2, unique=True))
    n_series = draw(st.integers(1, 8))
    # At most one series is broken, so the first bad series is often not the first one.
    broken = draw(st.sampled_from([None, None, None, "short", "mismatch", "short+mismatch"]))
    broken_at = draw(st.integers(0, n_series - 1))
    train, test, fcs, bench = {}, {}, {}, {}
    for i in range(n_series):
        sid = f"S{i}"
        h = draw(st.sampled_from(horizons))
        kind = broken if i == broken_at and broken else draw(
            st.sampled_from(["walk"] * 5 + ["lag_m_constant"]))
        n = draw(st.integers(1, m)) if "short" in kind else draw(st.integers(m + 1, m + 30))
        if kind == "lag_m_constant":
            cycle = draw(st.lists(_VALUES, min_size=m, max_size=m))
            train[sid] = np.resize(np.array(cycle), n)
        else:
            train[sid] = np.array(draw(st.lists(_VALUES, min_size=n, max_size=n)))
        test[sid] = np.array(draw(st.lists(_VALUES, min_size=h, max_size=h)))
        fc_len = h + 1 if "mismatch" in kind else h
        fcs[sid] = np.array(draw(st.lists(_VALUES, min_size=fc_len, max_size=fc_len)))
        if draw(st.booleans()):
            bench[sid] = np.full(h, train[sid][-1])  # the naive benchmark
        else:
            bench[sid] = np.array(draw(st.lists(_VALUES, min_size=h, max_size=h)))
    split = HoldoutSplit(train=Dataset([TimeSeries(sid, v) for sid, v in train.items()]),
                         test=test)
    return fcs, bench, split, m


def _outcome(score, *args):
    """(repr of the report or of the error, texts of the UserWarnings): repr
    is exact for floats, so equal outcomes are equal bit for bit. numpy's
    overflow RuntimeWarnings are left out: an array division words them
    differently from a scalar one."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = repr(score(*args))
        except (ValueError, UndefinedMetricError) as exc:
            result = f"{type(exc).__name__}: {exc}"
    return result, [str(w.message) for w in caught if w.category is UserWarning]


class TestOwaReportOracle:
    @settings(max_examples=150, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(scoring_cases())
    def test_equals_per_series_reference(self, case):
        got, got_warnings = _outcome(owa_report, *case)
        want, want_warnings = _outcome(_ref_owa_report, *case)
        assert got == want
        assert got_warnings == want_warnings

    def test_public_metrics_equal_the_formulas(self, rng):
        for h in (1, 5, 14, 200):
            train, actual, fc = rng.normal(0, 1, 40), rng.normal(0, 1, h), rng.normal(0, 1, h)
            actual[: h // 2] = fc[: h // 2] = 0.0
            assert repr(mase(train, actual, fc, m=2)) == repr(_ref_mase(train, actual, fc, 2))
            assert repr(smape(actual, fc)) == repr(_ref_smape(actual, fc))

    def test_two_horizons_keep_id_order(self, rng):
        ids = ["A", "B", "C", "D", "E"]
        hs = [3, 7, 3, 7, 3]
        train = {sid: rng.normal(0, 1, 30) for sid in ids}
        test = {sid: rng.normal(0, 1, h) for sid, h in zip(ids, hs)}
        fcs = {sid: rng.normal(0, 1, h) for sid, h in zip(ids, hs)}
        bench = {sid: np.full(h, train[sid][-1]) for sid, h in zip(ids, hs)}
        report = owa_report(fcs, bench, _split_from(train, test))
        assert list(report.per_series) == ids
        assert repr(report) == repr(_ref_owa_report(fcs, bench, _split_from(train, test), 1))

    @pytest.mark.parametrize("broken, message", [
        ("length", "actual and forecast lengths differ"),
        ("short", "training series of length 2 too short for m=2"),
        ("both", "actual and forecast lengths differ"),
    ])
    def test_first_bad_series_names_the_error(self, rng, broken, message):
        # B is broken and so is C, or B twice; B comes first, so B's error
        # wins, and a too-short series with a length mismatch names the mismatch.
        train = {"A": rng.normal(0, 1, 20), "B": rng.normal(0, 1, 20), "C": rng.normal(0, 1, 20)}
        test = {sid: rng.normal(0, 1, 3) for sid in train}
        fcs = {sid: rng.normal(0, 1, 3) for sid in train}
        if broken == "length":
            fcs["B"] = rng.normal(0, 1, 4)
            train["C"] = rng.normal(0, 1, 1)
        elif broken == "both":
            fcs["B"], train["B"] = rng.normal(0, 1, 4), rng.normal(0, 1, 2)
        else:
            train["B"] = rng.normal(0, 1, 2)
            fcs["C"] = rng.normal(0, 1, 4)
        bench = {sid: np.full(3, train[sid][-1]) for sid in train}
        split = _split_from(train, test)
        with pytest.raises(ValueError) as got:
            owa_report(fcs, bench, split, m=2)
        with pytest.raises(ValueError) as want:
            _ref_owa_report(fcs, bench, split, 2)
        if broken != "short":
            message += " for series 'B': 3 actual, 4 forecast and 3 benchmark values"
        assert str(got.value) == str(want.value) == message

"""Pipeline tests: median combination, clipping, provenance, failure policy."""

import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corrcast import (
    CorrelatorParams,
    Dataset,
    PipelineConfig,
    TimeSeries,
    naive_forecast,
    pipeline_forecast,
    write_forecast_csv,
)
from corrcast import custom_forecast, ensemble, ses_forecast, write_values_csv
from corrcast.cli import main
from conftest import make_planted


def _member(output):
    def forecast(series, h):
        if output is None:
            raise RuntimeError("boom")
        return output
    return forecast


def _named(outputs):
    return [(f"m{i}", out) for i, out in enumerate(outputs)]


def _combine(members, h):
    """The chunk path's combine, on one series, of members given as (name,
    output) pairs (an output of None raises): its (h,) values, whether it
    fell back to naive, and its warnings."""
    ts = TimeSeries("A", np.arange(1.0, 40.0))
    notes = [[]]
    with mock.patch.dict(ensemble.BUILTIN_MEMBERS,
                         {name: _member(out) for name, out in members}):
        values, naive = ensemble._ensemble_rows([ts], h, [name for name, _ in members], {},
                                                notes)
    return values[0], bool(naive[0]), notes[0]


class TestMedianCombine:
    """The pointwise median the ensemble takes of its members."""

    def test_idempotent_on_identical_members(self, rng):
        vals = rng.normal(0, 1, 14)
        assert np.array_equal(_combine(_named([vals] * 5), 14)[0], vals)

    def test_robust_to_outlier(self):
        assert _combine(_named([np.array([v]) for v in (1.0, 2.0, 100.0)]), 1)[0][0] == 2.0

    def test_even_count_uses_midpoint(self):
        assert _combine(_named([np.array([v]) for v in (1.0, 5.0)]), 1)[0][0] == 3.0

    def test_matches_sort_oracle(self, rng):
        members = [rng.normal(0, 1, 10) for _ in range(5)]
        out = _combine(_named(members), 10)[0]
        for t in range(10):
            assert out[t] == sorted(m[t] for m in members)[2]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match=r"mismatch for 'A': \[2, 1\]"):
            _combine(_named([np.array([1.0, 2.0]), np.array([1.0])]), 2)


class TestClipNegative:
    """``pipeline_forecast`` clips the combined forecast at zero, last."""

    @staticmethod
    def _pipeline(values):
        d = Dataset([TimeSeries("A", np.arange(1.0, 40.0))])
        with mock.patch.dict(ensemble.BUILTIN_MEMBERS, {"fixed": lambda y, h: values}):
            cfg = PipelineConfig(correlator=None, members=("fixed",), horizon=len(values))
            return pipeline_forecast(d, cfg)["A"]

    def test_basic(self):
        out = self._pipeline(np.array([-1.0, 0.0, 2.0]))
        assert out.values.tolist() == [0.0, 0.0, 2.0]
        assert out.method == "Ensemble"

    def test_identity_on_nonnegative(self, rng):
        vals = np.abs(rng.normal(0, 1, 8))
        assert np.array_equal(self._pipeline(vals).values, vals)


class TestPipeline:
    def test_naive_only_equals_naive(self, rng):
        d = Dataset([TimeSeries(f"A{i}", np.abs(rng.normal(5, 1, 40))) for i in range(3)])
        cfg = PipelineConfig(correlator=None, members=("naive",), horizon=5)
        out = pipeline_forecast(d, cfg)
        for ts in d:
            assert np.array_equal(out[ts.id].values, naive_forecast(ts.values, 5))
            assert out[ts.id].method == "Ensemble"

    def test_provenance_split(self, rng):
        d, plant = make_planted(rng)
        cfg = PipelineConfig(members=("naive", "ses"), horizon=14)
        out = pipeline_forecast(d, cfg)
        assert out[plant.target_id].method == "Correlator"
        for sid in d.ids():
            if sid != plant.target_id:
                assert out[sid].method == "Ensemble"
        assert set(out) == set(d.ids())

    def test_clip_applied_after_median(self, tmp_path, rng):
        # Members {-3, 1}: median -1 -> clipped to 0. Clipping before the
        # median would give 0.5 instead.
        d = Dataset([TimeSeries("A", np.arange(30.0) + 1.0)])
        m1 = tmp_path / "m1.csv"
        m2 = tmp_path / "m2.csv"
        write_forecast_csv({"A": np.full(3, -3.0)}, m1)
        write_forecast_csv({"A": np.full(3, 1.0)}, m2)
        cfg = PipelineConfig(correlator=None, members=("m1", "m2"),
                             external={"m1": m1, "m2": m2}, horizon=3)
        out = pipeline_forecast(d, cfg)
        assert out["A"].values.tolist() == [0.0, 0.0, 0.0]

    def test_no_negative_outputs(self, rng):
        d = Dataset([TimeSeries(f"A{i}", rng.normal(-5, 1, 40)) for i in range(4)])
        cfg = PipelineConfig(correlator=None, members=("naive", "ses"), horizon=6)
        for fc in pipeline_forecast(d, cfg).values():
            assert np.all(fc.values >= 0.0)

    def test_median_within_member_bounds(self, rng):
        d = Dataset([TimeSeries(f"A{i}", np.abs(rng.normal(10, 2, 60))) for i in range(3)])
        cfg = PipelineConfig(correlator=None, members=("naive", "ses", "custom"), horizon=14)
        out = pipeline_forecast(d, cfg)
        for ts in d:
            members = np.vstack([
                naive_forecast(ts.values, 14),
                ses_forecast(ts.values, 14),
                custom_forecast(ts.values, 14),
            ])
            fc = out[ts.id].values
            assert np.all(fc >= members.min(axis=0) - 1e-12)
            assert np.all(fc <= members.max(axis=0) + 1e-12)

    def test_failing_member_excluded_with_warning(self, tmp_path, rng):
        d = Dataset([TimeSeries("A", np.abs(rng.normal(5, 1, 30))),
                     TimeSeries("B", np.abs(rng.normal(5, 1, 30)))])
        partial = tmp_path / "ext.csv"
        write_forecast_csv({"A": np.full(4, 9.0)}, partial)  # B missing
        cfg = PipelineConfig(correlator=None, members=("naive", "ext"),
                             external={"ext": partial}, horizon=4)
        with pytest.warns(UserWarning, match="failed on series 'B'"):
            out = pipeline_forecast(d, cfg)
        # A: median of naive and external; B: the surviving naive member.
        assert np.array_equal(out["B"].values, naive_forecast(d["B"].values, 4))
        expected_a = np.median(np.vstack([naive_forecast(d["A"].values, 4), np.full(4, 9.0)]), axis=0)
        assert np.array_equal(out["A"].values, expected_a)

    def test_all_members_failing_falls_back_to_naive(self, tmp_path, rng):
        d = Dataset([TimeSeries("A", np.abs(rng.normal(5, 1, 30)))])
        empty = tmp_path / "ext.csv"
        write_forecast_csv({"ZZZ": np.full(4, 1.0)}, empty)
        cfg = PipelineConfig(correlator=None, members=("ext",),
                             external={"ext": empty}, horizon=4)
        with pytest.warns(UserWarning) as records:
            out = pipeline_forecast(d, cfg)
        assert any("falling back to naive" in str(r.message) for r in records)
        assert np.array_equal(out["A"].values, naive_forecast(d["A"].values, 4))
        assert out["A"].method == "Naive"

    def test_thread_counts_agree(self, rng, monkeypatch, pool):
        d, _ = make_planted(rng, n_decoys=4)
        # Chunks of one or two series, so that the members' map has several.
        monkeypatch.setattr(ensemble, "_CHUNK_POINTS", 100)
        pool.record(ensemble, "_custom_rows")
        cfg = PipelineConfig(members=("naive", "ses", "custom"), horizon=14)
        seq = pipeline_forecast(d, cfg, threads=1)
        assert pool() == {os.getpid()}
        par = pipeline_forecast(d, cfg, threads=8)
        pids = pool()
        assert pids and os.getpid() not in pids
        assert list(seq) == list(par)
        for sid in seq:
            assert np.array_equal(seq[sid].values, par[sid].values)
            assert seq[sid].method == par[sid].method

    def test_config_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            PipelineConfig(correlator=None, members=())
        with pytest.raises(ValueError, match="unknown ensemble members"):
            PipelineConfig(members=("naive", "mystery"))
        with pytest.raises(ValueError, match="horizon must be >= 1"):
            PipelineConfig(horizon=0)

    def test_external_member_may_not_take_a_builtin_name(self, tmp_path):
        # Otherwise the built-in would forecast, and the file would be read
        # and then ignored.
        ext = tmp_path / "ext.csv"
        write_forecast_csv({"A": np.full(3, 1e6)}, ext)
        with pytest.raises(ValueError, match=r"external members \['custom', 'naive'\] have the "
                                             "names of built-in members"):
            PipelineConfig(correlator=None, members=("custom", "other"),
                           external={"custom": ext, "other": ext, "naive": ext})

    def test_external_member_must_be_listed(self):
        # Otherwise the file would be read and checked, then ignored.
        with pytest.raises(ValueError, match=r"external members \['arima', 'ets'\] are not "
                                             "listed in members"):
            PipelineConfig(correlator=None, members=("naive", "other"),
                           external={"ets": "e.csv", "other": "o.csv", "arima": "a.csv"})

    def test_correlator_params_accepted(self, rng):
        d, plant = make_planted(rng)
        cfg = PipelineConfig(
            correlator=CorrelatorParams(r_threshold=0.999, std_ratio=None),
            members=("naive",),
            horizon=14,
        )
        out = pipeline_forecast(d, cfg)
        assert out[plant.target_id].method == "Correlator"


# --- the ensemble combine against np.median ----------------------------------

# Signed zeros and wide magnitudes: np.median sums its middle rows from 0.0,
# so a lone -0.0 comes out as 0.0, and the combine has to do the same.
_MEMBER_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324]),
    st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False),
)


@st.composite
def member_cases(draw):
    """(name, output) per member, in member order: 1-5 good outputs of one
    length, with a raising member and a NaN member sometimes mixed in."""
    h = draw(st.integers(1, 20))
    k = draw(st.integers(1, 5))
    members = [(f"m{i}", np.array(draw(st.lists(_MEMBER_VALUES, min_size=h, max_size=h))))
               for i in range(k)]
    for name, output in (("raises", None), ("nan", np.full(h, np.nan))):
        if draw(st.booleans()):
            members.insert(draw(st.integers(0, len(members))), (name, output))
    return h, members


class TestEnsembleCombine:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(member_cases())
    def test_equals_np_median_of_surviving_members(self, case):
        h, members = case
        values, naive, notes = _combine(members, h)
        survivors = [out for name, out in members if name.startswith("m")]
        want = np.median(np.vstack(survivors), axis=0)
        assert values.tobytes() == want.tobytes()
        assert not naive
        expected_warnings = {
            "raises": "member 'raises' failed on series 'A': boom",
            "nan": "member 'nan' failed on series 'A': forecast for 'A' must be a finite "
                   "non-empty vector",
        }
        assert notes == [expected_warnings[name] for name, _ in members
                         if not name.startswith("m")]

    def test_member_length_mismatch_raises(self):
        d = Dataset([TimeSeries("A", np.arange(1.0, 40.0))])
        outputs = {"m0": _member(np.ones(4)), "m1": _member(np.ones(5))}
        with mock.patch.dict(ensemble.BUILTIN_MEMBERS, outputs):
            cfg = PipelineConfig(correlator=None, members=("m0", "m1"), horizon=4)
            with pytest.raises(ValueError, match=r"forecast length mismatch for 'A': \[4, 5\]"):
                pipeline_forecast(d, cfg)

    def test_overflowing_median_is_not_clipped_to_zero(self):
        # The mean of the two middle members overflows to -inf. The series
        # gets the naive fallback, with a warning naming it, instead of a
        # median clipped to 0.
        d = Dataset([TimeSeries("A", np.arange(1.0, 40.0))])
        outputs = {"m0": _member(np.full(2, -1.7e308)), "m1": _member(np.full(2, -1.7e308))}
        with mock.patch.dict(ensemble.BUILTIN_MEMBERS, outputs):
            cfg = PipelineConfig(correlator=None, members=("m0", "m1"), horizon=2)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                out = pipeline_forecast(d, cfg)
        assert [str(w.message) for w in caught] == [
            "ensemble median overflows on 'A'; falling back to naive"]
        assert out["A"].values.tolist() == [39.0, 39.0]
        assert out["A"].method == "Naive"


    def test_mixed_chunk_keeps_its_outputs_and_warnings(self, tmp_path):
        """One chunk of two horizons with an external member that lacks an
        id and has a row shorter than its horizon, a decomposition member
        that is too short on one series and non-finite on two, and a median
        that overflows. The outputs and warnings are pinned from the
        per-series combine that the chunk path replaced."""
        rng = np.random.default_rng(41)

        def walk(n):
            return 50.0 + np.cumsum(rng.normal(0.0, 1.0, n))

        d = Dataset([
            TimeSeries("A", walk(40), horizon=3),
            TimeSeries("B", 1.5e308 * np.linspace(0.5, 1, 40), horizon=3),
            TimeSeries("C", walk(33), horizon=5),
            TimeSeries("D", walk(60), horizon=5),
            TimeSeries("E", walk(8), horizon=3),
            TimeSeries("F", np.round(walk(120), 2), horizon=5),
            TimeSeries("G", walk(14), horizon=5),
            TimeSeries("H", -1.7e308 * np.linspace(0.9, 1.0, 40), horizon=3),
        ])
        ext = tmp_path / "ext.csv"
        write_forecast_csv({"A": np.array([49.0, -60.0, 52.5]), "B": np.full(3, 1.7e308),
                            "D": np.array([1.0, 2.0]), "E": np.full(3, 7.25),
                            "F": np.array([40.0, 41.0, 1e9, -3.0, 0.0]),
                            "G": np.full(5, -2.0)}, ext)
        cfg = PipelineConfig(correlator=None, members=("naive", "ses", "custom", "ext"),
                             external={"ext": ext})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = pipeline_forecast(d, cfg)
        assert [str(w.message) for w in caught] == [
            "member 'custom' failed on series 'B': forecast for 'B' must be a finite "
            "non-empty vector",
            "member 'ext' failed on series 'C': \"series 'C' missing from external "
            "forecasts 'ext'\"",
            "member 'ext' failed on series 'D': external forecast 'ext' for 'D' has 2 "
            "values, need 5",
            "series of length 8 too short for the decomposition method with horizon 3; "
            "falling back to naive",
            "member 'custom' failed on series 'H': forecast for 'H' must be a finite "
            "non-empty vector",
            "member 'ext' failed on series 'H': \"series 'H' missing from external "
            "forecasts 'ext'\"",
            "ensemble median overflows on 'H'; falling back to naive",
        ]
        want = {
            "A": ["0x1.8ae188650190ep+5", "0x1.8ae188650190ep+5", "0x1.8bbb0637315ccp+5"],
            "B": ["0x1.ab36d48e1acf0p+1023"] * 3,
            "C": ["0x1.9c9b2fdbf3d9fp+5"] * 5,
            "D": ["0x1.3eb80551782c9p+5"] * 5,
            "E": ["0x1.8c68dfd9948f8p+5"] * 3,
            "F": ["0x1.85fad9cf489afp+5", "0x1.8673010c0f9ecp+5", "0x1.87f5b85eeaad8p+5",
                  "0x1.8673010c0f9ecp+5", "0x1.8673010c0f9ecp+5"],
            "G": ["0x1.8643f193a0dbcp+5"] * 4 + ["0x1.845b861f832a7p+5"],
            "H": ["0x0.0p+0"] * 3,
        }
        assert list(out) == list(want)
        for sid, hexes in want.items():
            assert [float(v).hex() for v in out[sid].values] == hexes, sid
            assert out[sid].method == ("Naive" if sid == "H" else "Ensemble")
            assert not out[sid].values.flags.writeable


# --- chunks, and the decomposition member's chunk kernel ----------------------

def _mixed(rng, n=40):
    """Random walks of 5-400 points with horizons 1-14 of their own: some
    too short for the decomposition member, some odd and some even. Last
    come lengths 2h + 3 and 2h + 4 at h of 1 and 14, on either side of the
    member's length rule."""
    series = [TimeSeries(f"M{i}", 500 + np.cumsum(rng.normal(0, 1, int(k))),
                         horizon=int(rng.integers(1, 15)))
              for i, k in enumerate(rng.integers(5, 400, n))]
    series += [TimeSeries(f"E{h}_{k}", 500 + np.cumsum(rng.normal(0, 1, k)), horizon=h)
               for h in (1, 14) for k in (2 * h + 3, 2 * h + 4)]
    return Dataset(series)


class TestChunks:
    def test_contiguous_within_budget(self, rng, monkeypatch):
        monkeypatch.setattr(ensemble, "_CHUNK_POINTS", 500)
        d = Dataset([*_mixed(rng), TimeSeries("long", np.arange(1.0, 1201.0))])
        chunks = ensemble._chunks(d)
        assert chunks[0][0] == 0 and chunks[-1] == (len(d) - 1, len(d))
        for (_, end), (first, _) in zip(chunks, chunks[1:]):
            assert end == first
        for first, end in chunks[:-1]:
            assert sum(len(ts) for ts in d.series[first:end]) <= 500
        assert ensemble._chunks(Dataset([])) == []

    @pytest.mark.parametrize("budget", [1, 700, 2**15])
    def test_custom_member_is_custom_forecast_per_series(self, rng, monkeypatch, budget):
        # Whatever the chunks, each series gets the bits and the warnings
        # custom_forecast gives it alone, in dataset order.
        d = _mixed(rng)
        want, want_warned = {}, []
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for ts in d:
                want[ts.id] = np.maximum(custom_forecast(ts.values, ts.horizon), 0.0)
        want_warned = [str(w.message) for w in caught]
        assert any("too short" in text for text in want_warned)
        monkeypatch.setattr(ensemble, "_CHUNK_POINTS", budget)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = pipeline_forecast(d, PipelineConfig(correlator=None, members=("custom",)))
        assert [str(w.message) for w in caught] == want_warned
        for ts in d:
            assert out[ts.id].values.tobytes() == want[ts.id].tobytes(), ts.id


    @pytest.mark.parametrize("budget", [1, 700, 2**15])
    def test_ses_member_is_ses_forecast_per_series(self, rng, monkeypatch, budget):
        # Whatever the chunks and the SES passes within them, each series
        # gets the bits that ses_forecast gives it alone.
        d = Dataset([*_mixed(rng), TimeSeries("one", np.array([501.5]), horizon=2),
                     TimeSeries("two", np.array([500.0, 503.0]), horizon=2),
                     TimeSeries("flat", np.full(16, 512.25), horizon=3)])
        monkeypatch.setattr(ensemble, "_CHUNK_POINTS", budget)
        out = pipeline_forecast(d, PipelineConfig(correlator=None, members=("ses",)))
        for ts in d:
            want = ses_forecast(ts.values, ts.horizon)
            assert out[ts.id].values.tobytes() == want.tobytes(), ts.id


def _overflow_dataset(n=40):
    rng = np.random.default_rng(11)
    return Dataset([TimeSeries("A", 50 + np.cumsum(rng.normal(0, 1, n))),
                    TimeSeries("B", 1.5e308 * np.linspace(0.5, 1, n)),
                    TimeSeries("C", 50 + np.cumsum(rng.normal(0, 1, n)))])


class TestOverflowingSeries:
    def test_only_that_series_fails(self):
        # custom overflows on B, which leaves naive and SES; the mean of the
        # two overflows too, so B gets the naive fallback. A and C are as
        # they are without B.
        d = _overflow_dataset()
        cfg = PipelineConfig(correlator=None, horizon=14)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out = pipeline_forecast(d, cfg)
        assert [str(w.message) for w in caught] == [
            "member 'custom' failed on series 'B': forecast for 'B' must be a finite "
            "non-empty vector",
            "ensemble median overflows on 'B'; falling back to naive",
        ]
        assert out["B"].method == "Naive"
        assert np.array_equal(out["B"].values, naive_forecast(d["B"].values, 14))
        alone = pipeline_forecast(Dataset([d["A"], d["C"]]), cfg)
        for sid in ("A", "C"):
            assert out[sid].values.tobytes() == alone[sid].values.tobytes()
            assert out[sid].method == alone[sid].method == "Ensemble"

    def test_validate_exits_0(self, tmp_path):
        # At holdout horizon 7 the 33 training points are long enough for
        # the decomposition member.
        data = tmp_path / "values.csv"
        write_values_csv(_overflow_dataset(), data)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            rc = main(["validate", "--data", str(data), "--no-correlator", "--horizon", "7",
                       "--out", str(out), "--no-timestamp"])
        assert rc == 0
        assert (out / "forecast.csv").exists()

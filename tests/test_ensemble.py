"""Pipeline tests: median combination, clipping, provenance, failure policy."""

import numpy as np
import pytest

from corrcast import (
    CorrelatorParams,
    Dataset,
    Forecast,
    PipelineConfig,
    TimeSeries,
    clip_negative,
    median_combine,
    naive_forecast,
    pipeline_forecast,
    write_forecast_csv,
)
from conftest import make_planted


def _fc(sid, values, method="naive"):
    return Forecast(id=sid, values=np.asarray(values, float), method=method)


class TestMedianCombine:
    def test_idempotent_on_identical_members(self, rng):
        vals = rng.normal(0, 1, 14)
        out = median_combine([_fc("A", vals) for _ in range(5)])
        assert np.array_equal(out.values, vals)
        assert out.method == "Ensemble"

    def test_robust_to_outlier(self):
        out = median_combine([_fc("A", [1.0]), _fc("A", [2.0]), _fc("A", [100.0])])
        assert out.values[0] == 2.0

    def test_even_count_uses_midpoint(self):
        out = median_combine([_fc("A", [1.0]), _fc("A", [5.0])])
        assert out.values[0] == 3.0

    def test_matches_sort_oracle(self, rng):
        members = [_fc("A", rng.normal(0, 1, 10)) for _ in range(5)]
        out = median_combine(members)
        for t in range(10):
            column = sorted(m.values[t] for m in members)
            assert out.values[t] == column[2]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            median_combine([_fc("A", [1.0, 2.0]), _fc("A", [1.0])])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            median_combine([])


class TestClipNegative:
    def test_basic(self):
        out = clip_negative(_fc("A", [-1.0, 0.0, 2.0]))
        assert out.values.tolist() == [0.0, 0.0, 2.0]

    def test_identity_on_nonnegative(self, rng):
        vals = np.abs(rng.normal(0, 1, 8))
        out = clip_negative(_fc("A", vals))
        assert np.array_equal(out.values, vals)


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
        from corrcast import custom_forecast, ses_forecast

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

    def test_thread_counts_agree(self, rng):
        d, _ = make_planted(rng, n_decoys=4)
        cfg = PipelineConfig(members=("naive", "ses", "custom"), horizon=14)
        seq = pipeline_forecast(d, cfg, threads=1)
        par = pipeline_forecast(d, cfg, threads=8)
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

    def test_correlator_params_accepted(self, rng):
        d, plant = make_planted(rng)
        cfg = PipelineConfig(
            correlator=CorrelatorParams(r_threshold=0.999, std_ratio=None),
            members=("naive",),
            horizon=14,
        )
        out = pipeline_forecast(d, cfg)
        assert out[plant.target_id].method == "Correlator"

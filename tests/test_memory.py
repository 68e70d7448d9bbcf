"""Memory on the path from the values to the correlator's index, and in
the ensemble.

A series holds its values once: the loaded rows are adopted, and
``attach_meta`` and ``holdout_split`` share them. The engine's build keeps
about 27 bytes per point and allocates little beyond it; its full scan
takes the kernel's block-sized arrays from buffers reused across blocks
and targets. The ensemble's chunk kernels stay within the decomposition
kernel's budget of about a dozen float64 arrays of a chunk's points.
Allocations are read with tracemalloc (``conftest.traced``).
"""

import warnings

import numpy as np
import pytest

from corrcast import (CorrelatorParams, Dataset, PipelineConfig, TimeSeries, attach_meta,
                      ensemble, holdout_split, pipeline_forecast)
from corrcast.correlator import CorrelationEngine
from corrcast.dataset import InfoRecord
from conftest import traced


@pytest.fixture(scope="module")
def walks():
    """200 random walks of 2000 points (400k), their values read-only, as
    the loader leaves them."""
    rng = np.random.default_rng(23)
    series = []
    for i in range(200):
        values = np.cumsum(rng.normal(0.0, 1.0, 2000))
        values.flags.writeable = False
        series.append(TimeSeries(f"W{i}", values))
    return Dataset(series)


def _points(dataset):
    return sum(len(ts) for ts in dataset)


def test_build_allocates_little_beyond_what_the_engine_keeps(walks):
    """The build's traced peak stays within 6 bytes per point of what the
    engine keeps (27): the index is sorted in place and gathered from in
    slices, so no full-size copy of it is made."""
    n = _points(walks)
    _, kept, peak = traced(lambda: CorrelationEngine(walks, CorrelatorParams()))
    assert kept / n < 28.0
    assert (peak - kept) / n < 6.0, ((peak - kept) / n, kept / n)


def test_attach_meta_and_holdout_split_share_the_values(walks):
    n = _points(walks)
    info = {ts.id: InfoRecord("Daily", 14, None) for ts in walks}
    attached, kept, peak = traced(lambda: attach_meta(walks, info))
    assert peak / n < 1.0, peak / n
    split, kept, peak = traced(lambda: holdout_split(attached, 14))
    assert peak / n < 1.0, peak / n
    for ts in walks:
        assert attached[ts.id].values is ts.values
        assert np.shares_memory(split.train[ts.id].values, ts.values)


def test_a_repeated_full_scan_allocates_less_than_a_block(walks):
    """Once an engine has scanned, a full scan allocates less than one
    float64 block: the kernel's result, terms and divisor live in the
    engine's reused buffers."""
    engine = CorrelationEngine(walks, CorrelatorParams())
    qhat = next(tail for tail in engine._tails if tail is not None)[0]
    block = engine._BLOCK * np.dtype(np.float64).itemsize
    first = engine._full_scan(qhat, 0.9999)
    again, _, peak = traced(lambda: engine._full_scan(qhat, 0.9999))
    for a, b in zip(first, again):
        assert np.array_equal(a, b)
    assert peak < block, peak


def _short_series():
    """900 short random walks, their lengths shaped like the bench's
    validate-short training sets (lognormal, median 76, 26 to 386 points)."""
    rng = np.random.default_rng(7)
    lengths = np.clip(np.round(np.exp(rng.normal(np.log(76), 0.6, 900))), 26, 386)
    return Dataset([TimeSeries(f"S{i}", 50.0 + np.cumsum(rng.normal(0.0, 1.0, int(n))))
                    for i, n in enumerate(lengths)])


@pytest.mark.parametrize("which", ["short", "walks"])
def test_ensemble_stays_within_the_chunk_budget(walks, which):
    """The ensemble's traced peak stays below 12 float64 values per point of
    a chunk, the decomposition kernel's budget: SES, 19 levels per point,
    scans a chunk in passes. SES over whole chunks would hold 19 per point."""
    dataset = _short_series() if which == "short" else walks
    cfg = PipelineConfig(correlator=None, horizon=14)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the shortest series are too short for custom
        pipeline_forecast(dataset, cfg)
        _, _, peak = traced(lambda: pipeline_forecast(dataset, cfg))
    budget = 12 * np.dtype(np.float64).itemsize * ensemble._CHUNK_POINTS
    assert peak < budget, (peak, budget)

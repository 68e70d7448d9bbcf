"""Deterministic parallel map: argument checks, and warnings that do not
depend on the worker count."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from corrcast import Dataset, PipelineConfig, TimeSeries, pipeline_forecast, write_values_csv
from corrcast._parallel import indexed_map

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_raise(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        indexed_map(abs, 4, threads)


def _short_series(n=60, seed=5):
    """Random walks of 15-39 points: at horizon 7 the decomposition member
    warns on those under 18, with one text per length."""
    rng = np.random.default_rng(seed)
    return Dataset([TimeSeries(f"S{i}", 50 + np.cumsum(rng.normal(0, 1, int(k))))
                    for i, k in enumerate(rng.integers(15, 40, n))])


def _warned(action, threads):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        pipeline_forecast(_short_series(), PipelineConfig(correlator=None, horizon=7),
                          threads=threads)
    return [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


@pytest.mark.parametrize("action", ["always", "default"])
def test_pipeline_warnings_equal_at_threads_1_and_2(action):
    one, two = _warned(action, 1), _warned(action, 2)
    assert one == two
    short = [w for w in one if "too short for the decomposition" in w[1]]
    assert len(short) > 1
    if action == "default":
        assert len(set(one)) == len(one)  # once per text and location
    else:
        assert len(set(one)) < len(one)  # some lengths repeat


def test_cli_stderr_equal_at_threads_1_and_2(tmp_path):
    data = tmp_path / "values.csv"
    write_values_csv(_short_series(), data)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        proc = subprocess.run(
            [sys.executable, "-m", "corrcast.cli", "validate", "--data", str(data),
             "--no-correlator", "--horizon", "7", "--out", str(out), "--threads", threads,
             "--no-timestamp"],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((proc.stdout, proc.stderr, files))
    assert "too short for the decomposition" in runs[0][1]
    assert runs[0] == runs[1]

"""Deterministic parallel map: argument checks, when it forks, and output
and warnings that do not depend on the worker count."""

import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from corrcast import Dataset, PipelineConfig, TimeSeries, pipeline_forecast, write_values_csv
from corrcast import _parallel, ensemble
from corrcast._parallel import indexed_map

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("threads", [0, -3])
def test_threads_below_one_raise(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        indexed_map(abs, 4, threads, 1.0)


def _pid(i):
    return os.getpid()


@pytest.mark.parametrize("affinity, cpus", [({0}, 8), (None, 1)])
def test_one_usable_cpu_runs_in_process(monkeypatch, affinity, cpus):
    """The workers are capped by the affinity mask where there is one, else
    by the CPU count; a map left with one worker does not fork."""
    if affinity is None:
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    assert indexed_map(_pid, 6, 2, 10.0) == [os.getpid()] * 6


def test_one_item_runs_in_process():
    assert indexed_map(_pid, 1, 4, 10.0) == [os.getpid()]


def test_two_usable_cpus_fork(monkeypatch):
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    pids = indexed_map(_pid, 6, 2, 10.0)
    assert len(pids) == 6 and os.getpid() not in pids


@pytest.mark.parametrize("below, forks", [(1e-9, False), (0.0, True), (-1.0, True)])
def test_fork_only_from_the_break_even(monkeypatch, below, forks):
    """A map forks when its estimated one-thread time reaches the break-even
    and runs in this process just below it."""
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    pids = indexed_map(_pid, 6, 2, _parallel._POOL_BREAK_EVEN_S - below)
    assert len(pids) == 6 and (os.getpid() not in pids) == forks


def _short_series(n=60, seed=5):
    """Random walks of 15-39 points: at horizon 7 the decomposition member
    warns on those under 18, with one text per length."""
    rng = np.random.default_rng(seed)
    return Dataset([TimeSeries(f"S{i}", 50 + np.cumsum(rng.normal(0, 1, int(k))))
                    for i, k in enumerate(rng.integers(15, 40, n))])


# A chunk budget that splits _short_series (about 1.6k points) into several
# chunks, so that a run at threads 2 can fork.
SMALL_CHUNK = 200


@pytest.fixture
def small_chunks(monkeypatch, pool):
    """Chunks of SMALL_CHUNK points and a pool for any map of two or more;
    returns the pids that ran the decomposition kernel since the last call."""
    monkeypatch.setattr(ensemble, "_CHUNK_POINTS", SMALL_CHUNK)
    assert len(ensemble._chunks(_short_series())) > 1
    pool.record(ensemble, "_custom_rows")
    return pool


def _warned(action, threads):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        pipeline_forecast(_short_series(), PipelineConfig(correlator=None, horizon=7),
                          threads=threads)
    return [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


@pytest.mark.parametrize("action", ["always", "default"])
def test_pipeline_warnings_equal_at_threads_1_and_2(small_chunks, action):
    one = _warned(action, 1)
    assert small_chunks() == {os.getpid()}
    two = _warned(action, 2)
    assert os.getpid() not in small_chunks()
    assert one == two
    short = [w for w in one if "too short for the decomposition" in w[1]]
    assert len(short) > 1
    if action == "default":
        assert len(set(one)) == len(one)  # once per text and location
    else:
        assert len(set(one)) < len(one)  # some lengths repeat


def test_pipeline_output_equal_at_threads_1_and_2(small_chunks):
    cfg = PipelineConfig(correlator=None, horizon=7)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        one = pipeline_forecast(_short_series(), cfg, threads=1)
        assert small_chunks() == {os.getpid()}
        two = pipeline_forecast(_short_series(), cfg, threads=2)
        assert os.getpid() not in small_chunks()
    assert list(one) == list(two)
    for sid in one:
        assert one[sid].values.tobytes() == two[sid].values.tobytes()
        assert one[sid].method == two[sid].method


def test_cli_stderr_equal_at_threads_1_and_2(tmp_path):
    data = tmp_path / "values.csv"
    write_values_csv(_short_series(), data)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    runs = []
    for threads in ("1", "2"):
        out = tmp_path / f"out{threads}"
        argv = ["validate", "--data", str(data), "--no-correlator", "--horizon", "7",
                "--out", str(out), "--threads", threads, "--no-timestamp"]
        # The CLI with the chunk budget at SMALL_CHUNK points and a pool
        # for any map of two or more chunks.
        script = (f"import sys; from corrcast import _parallel, ensemble; "
                  f"ensemble._CHUNK_POINTS = {SMALL_CHUNK}; _parallel._POOL_BREAK_EVEN_S = 0; "
                  f"from corrcast.cli import main; sys.exit(main({argv!r}))")
        proc = subprocess.run([sys.executable, "-c", script],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((proc.stdout, proc.stderr, files))
    assert "too short for the decomposition" in runs[0][1]
    assert runs[0] == runs[1]

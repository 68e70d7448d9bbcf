"""Shared synthetic-data builders for the test suite.

The planted-match generator embeds an affine copy of a target's final
window (plus a continuation drawn in the window's own scale, so the
dispersion condition always passes) at a non-terminal position of another
series. The expected forecast is computed here with plain numpy formula
arithmetic, independent of the library's scan path.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import tracemalloc
from dataclasses import dataclass
from datetime import date
from pathlib import Path

import numpy as np
import pytest

from corrcast import Dataset, TimeSeries, _parallel

W = 14


def bench_corpus():
    """The benchmark's corpus generator, imported from bench/ by path."""
    path = Path(__file__).resolve().parents[1] / "bench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("bench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@dataclass
class Plant:
    target_id: str
    source_id: str
    source_index: int
    tau: int
    window: np.ndarray
    continuation: np.ndarray
    expected_forecast: np.ndarray


def _pop_std(x):
    return float(np.std(np.asarray(x, dtype=np.float64)))


def _scaled_continuation(rng, window, w=W):
    """Random continuation rescaled into the window's frame so the mapped
    forecast has exactly the target window's std."""
    z = rng.normal(0.0, 1.0, w)
    z = (z - z.mean()) / np.std(z)
    return window.mean() + _pop_std(window) * z


def _expected_forecast(tail, window, continuation):
    scale = _pop_std(tail) / _pop_std(window)
    return (continuation - window.mean()) * scale + tail.mean()


def make_planted(rng, n_decoys=2, w=W, alpha=None, beta=None, corrupt=False,
                 start_dates=None, threshold=0.9999):
    """One target plus one host embedding an affine copy of the target's
    final window; ``corrupt`` perturbs the copy until its correlation falls
    safely below ``threshold``. Returns (dataset, Plant)."""
    if alpha is None:
        alpha = float(rng.uniform(0.5, 2.0))
    if beta is None:
        beta = float(rng.uniform(-5.0, 5.0))
    target_vals = rng.normal(0.0, 1.0, int(rng.integers(40, 90)))
    tail = target_vals[-w:]

    window = alpha * tail + beta
    if corrupt:
        base = window.copy()
        while True:
            window = base + rng.normal(0.0, 0.15 * _pop_std(base), w)
            r = np.corrcoef(window, tail)[0, 1]
            if abs(r) < min(0.99, threshold - 0.005):
                break
    continuation = _scaled_continuation(rng, window, w)

    prefix = rng.normal(0.0, 1.0, int(rng.integers(w, 40)))
    suffix = rng.normal(0.0, 1.0, int(rng.integers(0, 20)))
    host_vals = np.concatenate([prefix, window, continuation, suffix])
    tau = prefix.size + w

    series = [TimeSeries("T1", target_vals), TimeSeries("S1", host_vals)]
    for i in range(n_decoys):
        series.append(TimeSeries(f"X{i + 1}", rng.normal(0.0, 1.0, int(rng.integers(30, 80)))))
    if start_dates is not None:
        series = [
            TimeSeries(ts.id, ts.values, start_date=start_dates.get(ts.id, date(2000, 1, 1)))
            for ts in series
        ]
    plant = Plant(
        target_id="T1",
        source_id="S1",
        source_index=1,
        tau=tau,
        window=window,
        continuation=continuation,
        expected_forecast=_expected_forecast(tail, window, continuation),
    )
    return Dataset(series), plant


def make_multi_planted(rng, n_series=5, w=W):
    """Every series is a target whose final window is affinely embedded in
    the next series (cyclically). Returns (dataset, {target_id: Plant})."""
    prefixes = [rng.normal(0.0, 1.0, int(rng.integers(w, 30))) for _ in range(n_series)]
    suffixes = [rng.normal(0.0, 1.0, int(rng.integers(w + 5, 40))) for _ in range(n_series)]
    plants = {}
    blocks = []
    for i in range(n_series):
        tail = suffixes[i][-w:]
        alpha = float(rng.uniform(0.5, 2.0))
        beta = float(rng.uniform(-5.0, 5.0))
        window = alpha * tail + beta
        continuation = _scaled_continuation(rng, window, w)
        blocks.append((window, continuation))
    series = []
    for i in range(n_series):
        host_of = (i - 1) % n_series  # series i hosts target (i-1)'s plant
        window, continuation = blocks[host_of]
        vals = np.concatenate([prefixes[i], window, continuation, suffixes[i]])
        series.append(TimeSeries(f"P{i + 1}", vals))
        plants[f"P{host_of + 1}"] = Plant(
            target_id=f"P{host_of + 1}",
            source_id=f"P{i + 1}",
            source_index=i,
            tau=prefixes[i].size + w,
            window=window,
            continuation=continuation,
            expected_forecast=_expected_forecast(suffixes[host_of][-w:], window, continuation),
        )
    return Dataset(series), plants


@pytest.fixture
def rng():
    return np.random.default_rng(20240812)


class PoolPids:
    """Process ids that ran a patched function, read back from a file that
    every call appends to, in the main process and in pool workers alike."""

    def __init__(self, monkeypatch, log: Path):
        self._monkeypatch, self._log = monkeypatch, log

    def record(self, owner, name: str) -> None:
        """Patch ``owner.name`` so that each call logs its process id."""
        fn, log = getattr(owner, name), self._log

        def recording(*args, **kwargs):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fn(*args, **kwargs)

        self._monkeypatch.setattr(owner, name, recording)

    def __call__(self) -> set[int]:
        """The pids logged since the last call."""
        pids = {int(line) for line in self._log.read_text().split()} if self._log.exists() else set()
        self._log.unlink(missing_ok=True)
        return pids


@pytest.fixture
def pool(monkeypatch, tmp_path):
    """Every map with more than one worker forks, whatever its estimated
    time, on two usable CPUs whatever the host has. Returns a ``PoolPids``."""
    monkeypatch.setattr(_parallel, "_POOL_BREAK_EVEN_S", 0.0)
    monkeypatch.setattr(_parallel, "_usable_cpus", lambda: 2)
    return PoolPids(monkeypatch, tmp_path / "pids")


def traced(fn):
    """(fn(), kept, peak): the bytes that tracemalloc, to which numpy
    reports its data allocations, sees still held after the call and at its
    peak, both above what was held before it."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        result = fn()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        if started:
            tracemalloc.stop()
    return result, kept - base, peak - base


def match_bits(best):
    """A ``best_match`` result with r' as its exact hex, for comparing two
    scans bit for bit."""
    return None if best is None else (*best[:2], float(best[2]).hex(), best[3])

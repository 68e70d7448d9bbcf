"""Acceptance gate: every criterion of the property-based suite, one test
per criterion, each printing a pass line. Runs on synthetic data only.

Run with: pytest tests/test_acceptance.py -v -s
"""

import os

import numpy as np
import pytest

from corrcast import (
    CorrelationEngine,
    CorrelatorParams,
    Dataset,
    TimeSeries,
    custom_forecast,
    decompose_classical,
    mase,
    owa_report,
    pearson,
    run_correlator,
    smape,
)
from corrcast.cli import main
from corrcast.dataset import HoldoutSplit, write_values_csv
from conftest import make_multi_planted, make_planted

SEED = 987654321


def _passed(line):
    print(f"PASS  {line}")


def test_criterion_1_pearson_kernel():
    rng = np.random.default_rng(SEED)
    # Agreement with the direct formula on 1000 random pairs.
    for _ in range(1000):
        n = int(rng.integers(2, 60))
        a = rng.normal(0, rng.uniform(0.1, 100.0), n)
        b = rng.normal(0, rng.uniform(0.1, 100.0), n)
        if np.std(a) == 0.0 or np.std(b) == 0.0:
            continue
        ma, mb = a.mean(), b.mean()
        direct = (np.sum((a - ma) * (b - mb))
                  / (n * np.sqrt(np.mean((a - ma) ** 2)) * np.sqrt(np.mean((b - mb) ** 2))))
        assert pearson(a, b) == pytest.approx(direct, abs=1e-9)
    # Affine invariance and sign flip.
    for _ in range(100):
        a = rng.normal(0, 1, 14)
        alpha = rng.uniform(0.01, 50.0)
        beta = rng.uniform(-100.0, 100.0)
        assert pearson(a, alpha * a + beta) == pytest.approx(1.0, abs=1e-12)
        assert pearson(a, -alpha * a + beta) == pytest.approx(-1.0, abs=1e-12)
    # Clamping: perfectly collinear pairs at extreme scales stay inside [-1, 1].
    for scale in (1e-8, 1.0, 1e6, 1e9):
        a = rng.normal(0, 1, 14) * scale
        r = pearson(a, 1e3 * a - 7.0)
        assert -1.0 <= r <= 1.0
    _passed("criterion 1: pearson kernel (affine invariance, clamping, 1000-pair oracle)")


def test_criterion_2_planted_match_recovery():
    rng = np.random.default_rng(SEED + 1)
    recovered = 0
    for _ in range(200):
        d, plant = make_planted(rng)
        match = CorrelationEngine(d, CorrelatorParams()).forecast(d.position(plant.target_id))
        assert match is not None, "planted match not recovered"
        assert match.source_id == plant.source_id and match.tau == plant.tau
        assert match.forecast == pytest.approx(plant.expected_forecast, rel=1e-9, abs=1e-9)
        recovered += 1
    assert recovered == 200

    false_hits = 0
    for _ in range(200):
        d, plant = make_planted(rng, corrupt=True)
        match = CorrelationEngine(d, CorrelatorParams()).forecast(d.position(plant.target_id))
        false_hits += match is not None
    assert false_hits == 0
    _passed("criterion 2: planted-match recovery (200/200 exact, 0/200 corrupted)")


def _monotonicity_dataset(rng, n_targets=10):
    series = []
    for i in range(n_targets):
        target = rng.normal(0, 1, 45)
        tail = target[-14:]
        noise = rng.uniform(0.0, 0.1)
        window = rng.uniform(0.5, 2.0) * tail + noise * rng.normal(0, 1, 14)
        z = rng.normal(0, 1, 14)
        z = (z - z.mean()) / np.std(z)
        cont = window.mean() + rng.uniform(0.5, 4.0) * np.std(window) * z
        host = np.concatenate([rng.normal(0, 1, 15), window, cont, rng.normal(0, 1, 8)])
        series.append(TimeSeries(f"T{i}", target))
        series.append(TimeSeries(f"H{i}", host))
    return Dataset(series)


def test_criterion_3_acceptance_monotonicity():
    rng = np.random.default_rng(SEED + 2)
    for _ in range(5):
        d = _monotonicity_dataset(rng)
        thresholds = np.sort(rng.uniform(0.9, 0.99999, 4))[::-1]
        ratios = list(np.sort(rng.uniform(0.5, 4.0, 3))) + [None]
        fixed_ratio = float(rng.uniform(1.0, 3.0))
        counts = [len(run_correlator(d, CorrelatorParams(r_threshold=float(t),
                                                         std_ratio=fixed_ratio)))
                  for t in thresholds]
        assert counts == sorted(counts), f"threshold axis broke monotonicity: {counts}"
        fixed_t = float(rng.uniform(0.9, 0.999))
        counts = [len(run_correlator(d, CorrelatorParams(r_threshold=fixed_t, std_ratio=s)))
                  for s in ratios]
        assert counts == sorted(counts), f"std-ratio axis broke monotonicity: {counts}"
    _passed("criterion 3: accepted-count monotonicity over randomized grids")


def test_criterion_4_metric_properties():
    rng = np.random.default_rng(SEED + 3)
    # MASE scale invariance at 1e-12 relative.
    for _ in range(50):
        train = rng.normal(0, 1, 40)
        actual = rng.normal(0, 1, 14)
        fc = rng.normal(0, 1, 14)
        base = mase(train, actual, fc)
        c = rng.uniform(1e-6, 1e6)
        assert mase(c * train, c * actual, c * fc) == pytest.approx(base, rel=1e-12)
    # sMAPE symmetry and range.
    for _ in range(200):
        a = rng.normal(0, 10, 14)
        b = rng.normal(0, 10, 14)
        s = smape(a, b)
        assert s == pytest.approx(smape(b, a), abs=1e-12)
        assert 0.0 <= s <= 200.0
    # OWA of naive against itself is exactly 1.
    train_map = {f"A{i}": rng.uniform(1, 9, 30) for i in range(5)}
    test_map = {sid: rng.uniform(1, 9, 6) for sid in train_map}
    split = HoldoutSplit(
        train=Dataset([TimeSeries(sid, v) for sid, v in train_map.items()]),
        test=test_map,
    )
    naive = {sid: np.full(6, train_map[sid][-1]) for sid in train_map}
    assert owa_report(naive, naive, split).owa == 1.0
    _passed("criterion 4: metric properties (MASE scale-inv, sMAPE symmetry/range, OWA=1)")


def test_criterion_5_decomposition_and_linear_continuation():
    rng = np.random.default_rng(SEED + 4)
    for _ in range(20):
        y = rng.normal(0, rng.uniform(0.5, 20.0), int(rng.integers(10, 120)))
        dec = decompose_classical(y)
        total = dec.trend + dec.seasonal + dec.residual
        assert np.allclose(total[1:-1], y[1:-1], atol=1e-9)
    for slope, intercept, n in ((2.0, 0.0, 80), (-1.3, 40.0, 60), (0.25, -3.0, 45)):
        y = slope * np.arange(1, n + 1) + intercept
        fc = custom_forecast(y, 14)
        expected = slope * np.arange(n + 1, n + 15) + intercept
        assert fc == pytest.approx(expected, abs=1e-6)
    _passed("criterion 5: decomposition identity (1e-9) and linear continuation (1e-6)")


def test_criterion_6_thread_count_determinism(tmp_path, pool):
    rng = np.random.default_rng(SEED + 5)
    d, _ = make_multi_planted(rng, n_series=8)
    pool.record(CorrelationEngine, "sweep")
    data = tmp_path / "train.csv"
    write_values_csv(d, data)
    outs = []
    for threads in ("1", "8"):
        out = tmp_path / f"out_{threads}"
        rc = main(["forecast", "--data", str(data), "--out", str(out),
                   "--horizon", "14", "--threads", threads, "--no-timestamp"])
        assert rc == 0
        assert (os.getpid() in pool()) == (threads == "1")
        outs.append(out)
    for name in ("forecast.csv", "provenance.csv", "correlator_matches.csv"):
        b1 = (outs[0] / name).read_bytes()
        b8 = (outs[1] / name).read_bytes()
        assert b1 == b8, f"{name} differs between thread counts"
    _passed("criterion 6: byte-identical pipeline output at --threads 1 vs 8")

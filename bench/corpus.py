"""Seeded synthetic corpora for the benchmark workloads.

Each workload's inputs are built from ``numpy.random.default_rng`` seeded
with (workload index, seed); nothing here uses randomness from corrcast.
Series lengths are stratified quantiles of a clipped lognormal, shuffled by
the seed, so every seed gets the same length multiset (and therefore the
same amount of scan work) while values, order and plants change.

Files written to the corpus directory:

- ``values.csv``  M4-layout training values (``id,V1,...``)
- ``info.csv``    M4-layout metadata with start dates (read with --info)
- ``test.csv``    the withheld final ``HORIZON`` values of every series
- ``truth.json``  ground truth: planted window matches and planted leaks

Every plant is confirmed with corrcast's slow reference oracles (``pearson``
and ``global_cross_correlation``) before anything is timed, so a generator
bug cannot pass for a program bug.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from datetime import date, timedelta
from pathlib import Path
from statistics import NormalDist

import numpy as np
from corrcast import CorrelatorParams
from corrcast.analysis import DEFAULT_AUDIT_THRESHOLD, DEFAULT_MARGIN, DEFAULT_FFT_MIN_WORK

WORKLOADS = ("forecast-rw", "sweep-smooth", "audit-leaky", "validate-short")

# The benchmark's own choice: M4 Daily's horizon, written to info.csv and
# withheld as test.csv.
HORIZON = 14
# The commands run without threshold flags, so they use corrcast's defaults.
PARAMS = CorrelatorParams()
W = PARAMS.w
AUDIT_THRESHOLD = DEFAULT_AUDIT_THRESHOLD
AUDIT_MARGIN = DEFAULT_MARGIN

# Per-workload corpus shape: series count, lognormal length median/sigma,
# clip range, and plant counts. The audit corpus's shortest series is long
# enough that every pair's work (product of lengths) reaches the FFT path.
SPECS = {
    "forecast-rw": dict(n=200, median=1300, sigma=0.9, lo=93, hi=9919, window_plants=8),
    "sweep-smooth": dict(n=120, median=1100, sigma=0.8, lo=93, hi=9919, window_plants=16),
    "audit-leaky": dict(n=64, median=1400, sigma=0.3, lo=math.isqrt(DEFAULT_FFT_MIN_WORK) + 1,
                        hi=2500, long=(9000, 9300, 9600),
                        leaks={"T1": 3, "T2": 2, "T3": 3, "T4": 4}),
    "validate-short": dict(n=900, median=90, sigma=0.6, lo=40, hi=400),
}


def _stratified_lengths(rng, n, median, sigma, lo, hi):
    """Lognormal quantiles at (i + 0.5) / n, clipped and shuffled."""
    nd = NormalDist()
    q = [nd.inv_cdf((i + 0.5) / n) for i in range(n)]
    lengths = np.clip(np.round(median * np.exp(sigma * np.asarray(q))), lo, hi).astype(int)
    return rng.permutation(lengths)


def _random_walk(rng, n):
    level = rng.uniform(500.0, 8000.0)
    return level * np.exp(np.cumsum(rng.normal(0.0, 0.01, n)))


def _smooth(rng, n):
    t = np.arange(n, dtype=np.float64)
    level = rng.uniform(2000.0, 8000.0)
    period = rng.uniform(30.0, 400.0)
    amp = level * rng.uniform(0.02, 0.1)
    trend = level * rng.uniform(-2e-5, 2e-5) * t
    noise = np.cumsum(rng.normal(0.0, amp * 0.015, n))
    return level + trend + amp * np.sin(2 * np.pi * t / period + rng.uniform(0, 2 * np.pi)) + noise


def _ar1(rng, n):
    e = rng.normal(0.0, 1.0, n)
    x = np.empty(n)
    x[0] = e[0]
    for i in range(1, n):
        x[i] = 0.6 * x[i - 1] + e[i]
    return rng.uniform(500.0, 5000.0) + rng.uniform(10.0, 100.0) * x


def _short(rng, n):
    if rng.random() < 0.5:
        return _random_walk(rng, n)
    t = np.arange(n)
    base = _random_walk(rng, n)
    return base * (1.0 + 0.05 * np.sin(2 * np.pi * t / rng.integers(3, 12)))


def _affine(rng, x):
    return rng.uniform(0.5, 2.0) * x + rng.uniform(-50.0, 50.0)


def _scaled_continuation(rng, window):
    """A continuation drawn in the window's own frame, so the mapped
    forecast's std equals the target window's and the dispersion cap
    always passes."""
    z = rng.normal(0.0, 1.0, W)
    z = (z - z.mean()) / z.std()
    return window.mean() + window.std() * z


def _round2(values):
    """Values exactly as the CSV will hold them (two decimals): k / 100 is
    the double nearest to the decimal ``k/100``, which is also what parsing
    the printed text gives."""
    values = np.round(values * 100.0) / 100.0
    return list(map("{:.2f}".format, values.tolist())), values


def _plant_windows(rng, full, n_plants, train_len):
    """Embed an affine copy of each target's final training window (plus a
    continuation) at a non-terminal position of a distinct host series.
    Targets and hosts are disjoint, so no plant disturbs another."""
    order = rng.permutation(len(full))
    targets, hosts = order[:n_plants], order[n_plants:]
    plants = []
    for t in targets:
        tail = full[t][train_len[t] - W: train_len[t]]
        window = _affine(rng, tail)
        cont = _scaled_continuation(rng, window)
        # Pick an unused host long enough to keep the plant clear of its
        # final window and holdout.
        while True:
            h, hosts = hosts[0], hosts[1:]
            if train_len[h] >= 6 * W:
                break
        tau = int(rng.integers(W, train_len[h] - 2 * W + 1))
        full[h][tau - W: tau] = window
        full[h][tau: tau + W] = cont
        plants.append((int(t), int(h), tau))
    return plants


def _plant_leaks(rng, full, counts, max_len):
    """T1-T4 leaks in the audit corpus, among series shorter than
    ``max_len``. Returns (plants, start offsets) where plants are (target,
    source, tau, overlap, category) and offsets maps a copy's index to
    (host index, day shift) for its start date."""
    n = len(full)
    free = [int(i) for i in rng.permutation(n) if full[i].size < max_len]
    plants, date_links = [], {}
    for _ in range(counts["T1"]):
        j = free.pop()
        L = full[j].size // 3
        full[j][-L:] = _affine(rng, full[j][:L])
        plants.append((j, j, L, L, "T1"))
    for _ in range(counts["T2"]):
        j, k = free.pop(), free.pop()
        L1 = min(full[j].size, full[k].size) // 3
        L2 = L1 - int(rng.integers(1, 10))
        s1 = full[j][-L1:].copy()
        s2 = full[k][-L2:].copy()
        full[k][:L1] = _affine(rng, s1)
        full[j][:L2] = _affine(rng, s2)
        plants.append((j, k, L1, L1, "T2"))
        plants.append((k, j, L2, L2, "T2"))
    for cat in ("T3", "T4"):
        for _ in range(counts[cat]):
            k = max(free, key=lambda i: full[i].size)
            free.remove(k)
            j = next(i for i in reversed(free) if full[i].size + 2 * W <= full[k].size)
            free.remove(j)
            n_j = full[j].size
            tau = int(rng.integers(n_j, full[k].size - W + 1))
            full[j][:] = _affine(rng, full[k][tau - n_j: tau])
            shift = 0 if cat == "T3" else int(rng.choice([-1, 1]) * rng.integers(30, 900))
            date_links[j] = (k, tau - n_j + shift)
            plants.append((j, k, tau, n_j, cat))
    return plants, date_links


def _write_rows(path, header, rows):
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for sid, cells in rows:
            fh.write(sid + "," + ",".join(cells) + "\n")


@dataclass
class Corpus:
    """Ground truth plus the values exactly as written to the CSVs."""

    truth: dict
    ids: list[str]
    starts: list[date]
    train: list[np.ndarray]
    test: list[np.ndarray] | None

    @cached_property
    def dataset(self):
        """The training values and start dates as a corrcast Dataset."""
        from corrcast import Dataset, TimeSeries

        return Dataset(TimeSeries(sid, v, start_date=s)
                       for sid, v, s in zip(self.ids, self.train, self.starts))


def generate(workload: str, seed: int, out_dir: Path) -> Corpus:
    """Write the workload's corpus for ``seed`` into ``out_dir`` and return
    it with its ground truth (also written as ``truth.json``)."""
    spec = SPECS[workload]
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    lengths = _stratified_lengths(rng, spec["n"], spec["median"], spec["sigma"],
                                  spec["lo"], spec["hi"])
    if "long" in spec:
        lengths[rng.choice(lengths.size, len(spec["long"]), replace=False)] = spec["long"]
    make = {"forecast-rw": _random_walk, "sweep-smooth": _smooth,
            "audit-leaky": _ar1, "validate-short": _short}[workload]
    # The audit runs on whole series; the forecasting workloads withhold
    # HORIZON values after the training part.
    extra = 0 if workload == "audit-leaky" else HORIZON
    full = [make(rng, int(n) + extra) for n in lengths]
    train_len = [int(n) for n in lengths]

    window_plants, leak_plants, date_links = [], [], {}
    if spec.get("window_plants"):
        window_plants = _plant_windows(rng, full, spec["window_plants"], train_len)
    if "leaks" in spec:
        leak_plants, date_links = _plant_leaks(rng, full, spec["leaks"], min(spec["long"]))

    ids = [f"D{i + 1}" for i in range(len(full))]
    strings, values = [], []
    for x in full:
        s, v = _round2(x)
        strings.append(s)
        values.append(v)

    out_dir.mkdir(parents=True, exist_ok=True)
    width = max(train_len)
    _write_rows(out_dir / "values.csv", ["id"] + [f"V{i}" for i in range(1, width + 1)],
                [(sid, s[:n]) for sid, s, n in zip(ids, strings, train_len)])
    if extra:
        _write_rows(out_dir / "test.csv", ["id"] + [f"F{i}" for i in range(1, HORIZON + 1)],
                    [(sid, s[n:]) for sid, s, n in zip(ids, strings, train_len)])

    starts = [date(1990, 1, 1) + timedelta(days=int(d)) for d in rng.integers(0, 9000, len(full))]
    for j, (k, offset) in date_links.items():
        starts[j] = starts[k] + timedelta(days=offset)
    with open(out_dir / "info.csv", "w") as fh:
        fh.write("M4id,category,Frequency,Horizon,SP,StartingDate\n")
        for sid, start in zip(ids, starts):
            fh.write(f"{sid},Other,1,{HORIZON},Daily,{start:%Y-%m-%d} 00:00:00\n")

    truth = {
        "workload": workload,
        "seed": seed,
        "series": len(full),
        "points": int(sum(train_len)),
        "window_plants": [
            {"target": ids[t], "source": ids[h], "tau": tau} for t, h, tau in window_plants
        ],
        "leak_plants": [
            {"target": ids[j], "source": ids[k], "tau": tau, "overlap": m, "category": c}
            for j, k, tau, m, c in leak_plants
        ],
        "leak_counts": {c: sum(p[4] == c for p in leak_plants) for c in ("T1", "T2", "T3", "T4")},
    }
    corpus = Corpus(truth=truth, ids=ids, starts=starts,
                    train=[v[:n] for v, n in zip(values, train_len)],
                    test=[v[n:] for v, n in zip(values, train_len)] if extra else None)
    _confirm_plants(corpus)
    (out_dir / "truth.json").write_text(json.dumps(truth, indent=1) + "\n")
    return corpus


class PlantError(RuntimeError):
    """A planted match or leak does not hold on the written values."""


def _confirm_plants(corpus: Corpus):
    """Check every plant with the slow reference oracles."""
    from corrcast import global_cross_correlation, pearson

    truth, train = corpus.truth, corpus.train
    index = {sid: i for i, sid in enumerate(corpus.ids)}
    for p in truth["window_plants"]:
        tail = train[index[p["target"]]][-W:]
        src = train[index[p["source"]]]
        window, cont = src[p["tau"] - W: p["tau"]], src[p["tau"]: p["tau"] + W]
        r = pearson(tail, window)
        fc_std = tail.std() / window.std() * cont.std()
        if r < PARAMS.r_threshold or fc_std > PARAMS.std_ratio * tail.std():
            raise PlantError(f"window plant {p} fails the oracle (r={r!r})")
    for p in truth["leak_plants"]:
        j, k = index[p["target"]], index[p["source"]]
        r = global_cross_correlation(j, k, p["tau"], corpus.dataset, margin=AUDIT_MARGIN)
        if r < AUDIT_THRESHOLD:
            raise PlantError(f"leak plant {p} fails the oracle (r'={r!r})")
        target_end = corpus.starts[j].toordinal() + len(train[j]) - 1
        source_end = corpus.starts[k].toordinal() + p["tau"] - 1
        if p["category"] in ("T3", "T4") and (target_end == source_end) != (p["category"] == "T3"):
            raise PlantError(f"leak plant {p} has dates of the wrong category")

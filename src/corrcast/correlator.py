"""Window-matching forecaster: find the non-terminal window anywhere in the
dataset that correlates best with a target's final window, map the matched
window's continuation into the target's scale, and accept it subject to a
correlation threshold and a dispersion cap.

Candidates are ranked by correlation (ties: source position, then window
position) and walked in order; a candidate whose mapped forecast is too
dispersed is skipped and the next-best distinct (source, position) pair is
tried, until one is accepted or the stream is exhausted.

Candidates are found through a projection index rather than by scanning
every window. For a query z-normalised to qhat and a window to what (both
of norm sqrt(w)), r = 1 - |qhat - what|^2 / 2w, so r >= t bounds the
distance by sqrt(2w(1 - t)), and so, for any unit zero-sum direction u,
|qhat.u - what.u| as well. The engine stores what.u for every eligible
window (sorted fixed-point int32 keys with int32 flat positions: 8 bytes
per window), so a target binary-searches the keys within that radius plus
a slack for rounding, filters the range by a gathered r, and rescores the
survivors with the full scan's own arithmetic: the result is bit-identical
to the full scan, in the same (k, tau) order. Windows too ill-conditioned
for the slack (std tiny against the series' magnitude) skip the bound and
are always rescored. When the range is dense -- loose thresholds,
near-linear tails -- the full scan runs instead; it is also the reference
the index is tested against.

Two historical defects of the original submission are reproducible behind
flags: ``bug1`` disables the method for every series past file position
2138, and ``bug2`` compares the forecast dispersion against the matched
source window instead of the target's final window.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._parallel import indexed_map
from .dataset import Dataset
from .stats import _normalized_query, _std_floor, _window_correlations, rolling_stats

# 1-based file position of the last series the bug1 submission variant
# still processed.
BUG1_CUTOFF = 2138

# (ks, taus, rs, win_std, cont_std) of a scan without candidates.
_EMPTY_SCAN = tuple(np.empty(0, dt) for dt in (np.int64, np.int64, np.float64,
                                                np.float64, np.float64))


@dataclass(frozen=True)
class CorrelatorParams:
    """Scan configuration.

    ``std_ratio`` of None disables the dispersion condition entirely.
    ``past_only`` skips candidates that would consume values dated on or
    after the target's first forecast date (requires start dates).
    ``include_self`` controls whether a target's own non-terminal windows
    are eligible sources.
    """

    w: int = 14
    r_threshold: float = 0.9999
    std_ratio: float | None = 2.5
    bug1: bool = False
    bug2: bool = False
    past_only: bool = False
    include_self: bool = True

    def __post_init__(self):
        if self.w < 2:
            raise ValueError(f"window length must be >= 2, got {self.w}")
        if not 0.0 < self.r_threshold <= 1.0:
            raise ValueError(f"r_threshold must be in (0, 1], got {self.r_threshold}")
        if self.std_ratio is not None and self.std_ratio <= 0.0:
            raise ValueError(f"std_ratio must be positive, got {self.std_ratio}")


@dataclass(frozen=True)
class CorrelatorMatch:
    """An accepted match: source window end ``tau`` (1-based index of the
    window's last element, so the window is values[tau-w:tau] and its
    continuation values[tau:tau+w]) plus the mapped forecast."""

    target_id: str
    source_id: str
    tau: int
    r: float
    forecast: np.ndarray
    used_future: bool | None = None
    source_date_range: tuple[date, date] | None = None


def affine_map(source_values, source_mean: float, source_std: float,
               target_mean: float, target_std: float) -> np.ndarray:
    """Scale-and-translate values from the source window's frame to the
    target window's: x -> (x - source_mean) * (target_std / source_std)
    + target_mean."""
    if source_std <= 0.0:
        raise ValueError(f"source window std must be positive, got {source_std}")
    source_values = np.asarray(source_values, dtype=np.float64)
    return (source_values - source_mean) * (target_std / source_std) + target_mean


def match_uses_future(source_start: date | None, tau: int, w: int,
                      target_start: date | None, target_len: int) -> bool | None:
    """Whether a match consumes any value dated on/after the target's first
    forecast date. The consumed span is the matched window plus its
    continuation, positions tau-w .. tau+w-1 (0-based) of the source.
    Returns None when either start date is missing."""
    if source_start is None or target_start is None:
        return None
    last_consumed = source_start.toordinal() + (tau + w - 1)
    first_forecast = target_start.toordinal() + target_len
    return last_consumed >= first_forecast


def check_past_only(dataset: Dataset, params: CorrelatorParams) -> None:
    """Raise ValueError when ``past_only`` is set but some series has no
    start date: the future-use test needs both dates of every pair, and
    without them it could not refuse anything."""
    if not params.past_only:
        return
    undated = [ts.id for ts in dataset if ts.start_date is None]
    if undated:
        first = ", ".join(repr(sid) for sid in undated[:5])
        raise ValueError(
            f"past_only needs a start date for every series, but {len(undated)} of "
            f"{len(dataset)} have none (first: {first}); supply an info file with start dates"
        )


class CorrelationEngine:
    """Shared scan state: centered values and window stds of every series,
    and the sorted projection index over all eligible windows.

    Build once per (dataset, window length); individual targets can then be
    scanned independently, which is what the parallel runner exploits.
    Series k occupies ``offsets[k]:offsets[k+1]`` of the flat arrays, and
    the window ending at tau has flat position ``offsets[k] + tau - w``, so
    flat order is (k, tau) order.
    """

    # Range counts above this fraction of the indexed windows take the full
    # scan. Measured on 0.37M random-walk windows (w = 14, 2 vCPU): the
    # sparse filter costs 60-80 ns per range entry against 40 ns per window
    # for the full scan, so with few survivors the two break even near half
    # the index; every survivor adds a rescore, and at a third of the index
    # the full scan already won on dense candidate sets. The cut sits below.
    _DENSE_FRACTION = 0.25
    # Windows whose std is below max|series| / _COND_MAX go to a short list
    # that is always rescored: the rounding errors of r and of the key grow
    # with c = max|series| / std, and the slacks below cover c <= _COND_MAX.
    _COND_MAX = 1e6
    # Survivors closer than this many windows are rescored by one
    # correlate call over their span.
    _RUN_GAP = 32
    # Range entries per gathered block, bounding the filter's temporaries.
    _BLOCK = 8192

    def __init__(self, dataset: Dataset, params: CorrelatorParams):
        check_past_only(dataset, params)
        self.dataset = dataset
        self.params = params
        w = params.w
        self.offsets = np.concatenate([[0], np.cumsum([len(ts) for ts in dataset],
                                                      dtype=np.int64)])
        n = int(self.offsets[-1])
        if n >= 2**31:
            raise ValueError(f"{n} values exceed the index's int32 positions")
        self._centered = np.zeros(n)
        # Window stats at each window's flat start; the last w - 1 slots of
        # every series stay 0 / False.
        self._std = np.zeros(n)
        self._valid = np.zeros(n, dtype=bool)
        # The index direction: DCT-II row 1, u_i ~ cos(pi (2i + 1) / 2w), a
        # unit zero-sum ramp along which trending windows spread out most.
        u = np.cos(np.pi * (2 * np.arange(w) + 1) / (2 * w))
        self._u = u / np.sqrt(np.dot(u, u))
        # Slacks, from forward-error bounds (eps = 2^-52) for windows with
        # c <= _COND_MAX. r, in the full scan and in the index's filter, is
        # a w-term dot product of globally centered values (each at most 2c
        # window stds) with the query, over w times the window std. The
        # products' rounding and the centering give c eps (w + 1); the
        # query's residual sum (at most eps w (w + 1) / 2 after double
        # centering) against the window's offset gives c eps (w + 1) more;
        # the window std's own rounding (second order in its mean's error)
        # gives (w + 6) eps. The key is the same dot product with u
        # (|u|_1 <= sqrt(w), |sum(u)| <= w eps) over the std: c eps
        # (sqrt(w) (w + 1) + 2w); the query's key and the bounds add under
        # w^2 eps. Both slacks take their bound 4 times over.
        eps = np.finfo(np.float64).eps
        c = self._COND_MAX
        self._r_slack = 4 * (2 * c * eps * (w + 1) + (w + 6) * eps)
        self._key_slack = 4 * c * eps * (np.sqrt(w) * (w + 1) + 2 * w)
        # Keys are fixed point, floor(key * scale) as int32; |key| <= sqrt(w),
        # so scale = 2^30 / 2^ceil(log2 sqrt(w)) keeps them in range.
        # Flooring is monotone: a key inside the bounds floors inside the
        # floored bounds, so the fixed point needs no slack.
        self._scale = 2.0 ** (30 - int(np.ceil(np.log2(np.sqrt(w)))))
        # Key and position packed in one little-endian int64 (key high,
        # position low) sort in place, with no index array.
        packed = np.empty(n, dtype="<i8")
        loose = [np.empty(0, dtype=np.int32)]
        m = 0
        for ts, a in zip(dataset, self.offsets[:-1]):
            # Only series with at least one non-terminal window are sources.
            if len(ts) < 2 * w:
                continue
            centered = self._centered[a : a + len(ts)]
            np.subtract(ts.values, ts.values.mean(), out=centered)
            st = rolling_stats(ts.values, w)
            self._std[a : a + st.std.size] = st.std
            self._valid[a : a + st.std.size] = st.valid
            # Eligible windows are valid and non-terminal: start <= n_k - 2w.
            std = st.std[: len(ts) - 2 * w + 1]
            eligible = st.valid[: std.size]
            tight = eligible & (std * self._COND_MAX >= np.abs(ts.values).max())
            loose.append((np.flatnonzero(eligible & ~tight) + a).astype(np.int32))
            idx = np.flatnonzero(tight)
            keys = np.correlate(centered, self._u, mode="valid")[idx] / std[idx]
            packed[m : m + idx.size] = np.floor(keys * self._scale).astype(np.int64) * 2**32 + idx + a
            m += idx.size
        self._std.flags.writeable = False
        self._valid.flags.writeable = False
        self._loose = np.concatenate(loose)
        packed = packed[:m]
        packed.sort()
        words = packed.view("<i4")
        self._pos = words[0::2].copy()
        self._keys = words[1::2].copy()
        # Day ordinal of each series' first value; past_only has checked
        # that every series is dated.
        self.start_ords = (np.array([ts.start_date.toordinal() for ts in dataset], dtype=np.int64)
                           if params.past_only else None)

    def _tail_stats(self, j: int) -> tuple[np.ndarray, float, float] | None:
        """Target's final window with its mean/std; None when degenerate."""
        ts = self.dataset.series[j]
        w = self.params.w
        if len(ts) < w:
            return None
        tail = ts.values[-w:]
        mean = tail.mean()
        dev = tail - mean
        std = np.sqrt(np.dot(dev, dev) / w)
        if std <= _std_floor(mean):
            return None
        return tail, float(mean), float(std)

    def _scan(self, j: int, r_threshold: float):
        """All candidates with r >= threshold over valid non-terminal windows,
        as parallel arrays (ks, taus, rs, win_std, cont_std) in (k, tau)
        ascending order.

        Candidates are looked up in the projection index; when the key range
        is dense the full scan runs instead. Both give the same arrays.
        """
        w = self.params.w
        tail_info = self._tail_stats(j)
        if tail_info is None:
            return _EMPTY_SCAN
        qhat = _normalized_query(tail_info[0])
        # |qhat.u - what.u| <= |qhat - what| = sqrt(2w(1 - r)) for unit zero-sum u;
        # the full scan keeps r >= t only if the exact r >= t - r_slack.
        radius = np.sqrt(2 * w * (1.0 - r_threshold + self._r_slack)) + self._key_slack
        bounds = np.floor((np.dot(qhat, self._u) + np.array([-radius, radius])) * self._scale)
        key_lo, key_hi = bounds.clip(-(2**31), 2**31 - 1).astype(np.int32)
        lo = np.searchsorted(self._keys, key_lo, side="left")
        hi = np.searchsorted(self._keys, key_hi, side="right")
        if hi - lo + self._loose.size > self._DENSE_FRACTION * self._keys.size:
            return self._full_scan(j, qhat, r_threshold)

        # Cheap filter: r from a gathered dot product, kept within twice the
        # r slack of the threshold (each r is within one slack of the exact r).
        windows = sliding_window_view(self._centered, w)
        kept = [self._loose]
        for start in range(lo, hi, self._BLOCK):
            pos = self._pos[start : min(start + self._BLOCK, hi)]
            r = (windows[pos] @ qhat) / (w * self._std[pos])
            kept.append(pos[r >= r_threshold - 2 * self._r_slack])
        pos = np.sort(np.concatenate(kept))
        if not self.params.include_self:
            pos = pos[(pos < self.offsets[j]) | (pos >= self.offsets[j + 1])]
        if pos.size == 0:
            return _EMPTY_SCAN

        # Exact rescore with the full scan's arithmetic, one correlate call
        # per run of nearby survivors.
        runs = np.split(pos, np.flatnonzero(np.diff(pos) > self._RUN_GAP) + 1)
        dots = np.concatenate([
            np.correlate(self._centered[run[0] : run[-1] + w], qhat, mode="valid")[run - run[0]]
            for run in runs
        ])
        r = np.clip(dots / (w * self._std[pos]), -1.0, 1.0)
        hit = r >= r_threshold
        pos = pos[hit]
        ks = np.searchsorted(self.offsets, pos, side="right") - 1
        return ks, pos - self.offsets[ks] + w, r[hit], self._std[pos], self._std[pos + w]

    def _full_scan(self, j: int, qhat: np.ndarray, r_threshold: float):
        """``_scan`` by correlating the query against every source window;
        the dense path and the reference for the index."""
        w = self.params.w
        parts = []
        for k, (a, b) in enumerate(zip(self.offsets[:-1], self.offsets[1:])):
            if b - a < 2 * w:
                continue
            if not self.params.include_self and k == j:
                continue
            std = self._std[a : b - w + 1]
            r = _window_correlations(self._centered[a:b], std, self._valid[a : b - w + 1], qhat)
            # Keep non-terminal windows only: tau <= n_k - w.
            r = r[: b - a - 2 * w + 1]
            hit = np.nonzero(r >= r_threshold)[0]
            if hit.size:
                taus = hit + w
                parts.append((
                    np.full(hit.size, k, dtype=np.int64),
                    taus,
                    r[hit],
                    std[hit],        # matched window: starts at tau - w
                    std[taus],       # continuation window: starts at tau
                ))
        if not parts:
            return _EMPTY_SCAN
        return tuple(np.concatenate(cols) for cols in zip(*parts))

    def candidates(self, j: int, r_threshold: float | None = None):
        """(ks, taus, rs) arrays of all candidates for one target, sorted by
        r descending with ties broken by (k, tau) ascending."""
        if r_threshold is None:
            r_threshold = self.params.r_threshold
        ks, taus, rs, _, _ = self._scan(j, r_threshold)
        order = np.lexsort((taus, ks, -rs))
        return ks[order], taus[order], rs[order]

    def _walk(self, j: int, cands, r_threshold: float, std_ratio: float | None):
        """Best-ranked candidate that passes every acceptance condition.

        Walking candidates in descending-r order and accepting the first one
        that satisfies the per-candidate conditions selects the same match
        as a masked argmax, which avoids sorting dense candidate sets; ties
        resolve to the smallest (k, tau) because the scan emits candidates
        in that order and argmax returns the first maximum.
        """
        tail_info = self._tail_stats(j)
        if tail_info is None:
            return None
        _, tail_mean, tail_std = tail_info
        target = self.dataset.series[j]
        w = self.params.w
        ks, taus, rs, win_std, cont_std = cands

        keep = rs >= r_threshold
        if self.params.past_only:
            # Skip candidates whose consumed span reaches the forecast dates.
            first_forecast = self.start_ords[j] + len(target)
            keep &= ~(self.start_ords[ks] + (taus + w - 1) >= first_forecast)
        if std_ratio is not None:
            # The mapped forecast's std is the affine slope times the
            # continuation's std, both already in the rolling stats.
            fc_std = (tail_std / win_std) * cont_std
            limit = std_ratio * (win_std if self.params.bug2 else tail_std)
            keep &= fc_std <= limit
        if not keep.any():
            return None
        masked = np.where(keep, rs, -np.inf)
        pick = int(np.argmax(masked))
        k = int(ks[pick])
        tau = int(taus[pick])
        source = self.dataset.series[k]
        # The same mean rolling_stats gives this window: one w-term reduction.
        forecast = affine_map(source.values[tau : tau + w],
                              float(source.values[tau - w : tau].mean()),
                              float(self._std[self.offsets[k] + tau - w]), tail_mean, tail_std)
        dates = None
        if source.start_date is not None:
            dates = (source.date_of(tau - w), source.date_of(tau + w - 1))
        return CorrelatorMatch(
            target_id=target.id,
            source_id=source.id,
            tau=tau,
            r=float(rs[pick]),
            forecast=forecast,
            used_future=match_uses_future(source.start_date, tau, w,
                                          target.start_date, len(target)),
            source_date_range=dates,
        )

    def forecast(self, j: int) -> CorrelatorMatch | None:
        if self.params.bug1 and j + 1 > BUG1_CUTOFF:
            return None
        cands = self._scan(j, self.params.r_threshold)
        return self._walk(j, cands, self.params.r_threshold, self.params.std_ratio)

    def sweep(self, j: int, combos) -> list[CorrelatorMatch | None]:
        """Acceptance outcome of each (r_threshold, std_ratio) combo for one
        target, reusing a single candidate scan at the loosest threshold."""
        if self.params.bug1 and j + 1 > BUG1_CUTOFF:
            return [None] * len(combos)
        min_r = min(r for r, _ in combos)
        cands = self._scan(j, min_r)
        return [self._walk(j, cands, r, s) for r, s in combos]


def candidate_stream(j: int, dataset: Dataset, params: CorrelatorParams) -> list[tuple[int, int, float]]:
    """Ordered candidate matches for one target: (source index, tau, r)."""
    ks, taus, rs = CorrelationEngine(dataset, params).candidates(j)
    return [(int(k), int(t), float(r)) for k, t, r in zip(ks, taus, rs)]


def correlator_forecast(j: int, dataset: Dataset, params: CorrelatorParams) -> CorrelatorMatch | None:
    """Best accepted match for one target, or None (a normal outcome)."""
    return CorrelationEngine(dataset, params).forecast(j)


def run_correlator(dataset: Dataset, params: CorrelatorParams,
                   threads: int = 1) -> dict[str, CorrelatorMatch]:
    """Apply the correlator to every series; map of id -> accepted match.

    The result is assembled in dataset order and is identical for any
    thread count.
    """
    engine = CorrelationEngine(dataset, params)
    results = indexed_map(engine.forecast, len(dataset), threads)
    return {ts.id: m for ts, m in zip(dataset, results) if m is not None}


def check_sweep(combos, params: CorrelatorParams) -> None:
    """Raise ValueError for an empty grid or for a (r_threshold, std_ratio)
    combo that CorrelatorParams rejects."""
    if not combos:
        raise ValueError("empty parameter grid")
    for r, s in combos:
        replace(params, r_threshold=r, std_ratio=s)


def sweep_correlator(dataset: Dataset, combos, params: CorrelatorParams,
                     threads: int = 1) -> list[dict[str, CorrelatorMatch]]:
    """Run every (r_threshold, std_ratio) combo over the dataset with one
    shared window scan. Returns one id -> match map per combo, in order.
    Every combo is checked (``check_sweep``) before the scan."""
    combos = list(combos)
    check_sweep(combos, params)
    engine = CorrelationEngine(dataset, params)
    per_target = indexed_map(lambda j: engine.sweep(j, combos), len(dataset), threads)
    out = []
    for c, _ in enumerate(combos):
        out.append(
            {ts.id: row[c] for ts, row in zip(dataset, per_target) if row[c] is not None}
        )
    return out


def write_matches_csv(matches: Mapping[str, CorrelatorMatch] | Iterable[CorrelatorMatch],
                      path: str | Path) -> None:
    """Write accepted matches as ``target_id,source_id,tau,r,used_future``."""
    if isinstance(matches, Mapping):
        matches = matches.values()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["target_id", "source_id", "tau", "r", "used_future"])
        for m in matches:
            flag = "" if m.used_future is None else str(m.used_future).lower()
            writer.writerow([m.target_id, m.source_id, m.tau, repr(m.r), flag])

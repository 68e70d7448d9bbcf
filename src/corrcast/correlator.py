"""Window-matching forecaster: find the non-terminal window anywhere in the
dataset that correlates best with a target's final window, map the matched
window's continuation into the target's scale, and accept it subject to a
correlation threshold and a dispersion cap.

Candidates are ranked by correlation (ties: source position, then window
position) and walked in order; a candidate whose mapped forecast is too
dispersed is skipped and the next-best distinct (source, position) pair is
tried, until one is accepted or the stream is exhausted.

``CorrelationEngine`` is the one way in. Its build takes every window's
mean, std and index coordinates, and every target's query, from one kernel,
``stats._window_moments``, which also gives a matched window's mean. Per
target, ``sweep`` scans once at the loosest threshold and walks the
candidates once per (r_threshold, std_ratio) combo; ``forecast`` is its
one-combo case, as ``run_correlator`` is of ``sweep_correlator``.

Every r comes from one kernel, ``stats._window_r``, whose bits depend only
on the window. The full scan runs it over the whole flat array of centered
values in contiguous blocks and keeps the eligible windows (valid,
non-terminal) at or above the threshold. The projection index narrows that
set first: for a query z-normalised to qhat and a window to what (both of
norm sqrt(w)), r = 1 - |qhat - what|^2 / 2w, so r >= t bounds the distance
by sqrt(2w(1 - t)), and so |qhat.u - what.u| for any unit zero-sum u (the
GEMINI lower bound: Faloutsos, Ranganathan & Manolopoulos, SIGMOD 1994).
The engine stores two such coordinates of every eligible window, along
DCT-II rows 1 and 2, in the order of the first: one sorted int64 per window
holding the fixed-point key in its high 32 bits and the flat position in
its low 32, and an int16 second coordinate, 10 bytes per window. A target
binary-searches the keys within that radius plus a rounding slack, keeps
the windows of that contiguous range whose second coordinate lies within
the same radius, prunes those by a gathered matrix-vector r with a margin
for its rounding, and takes the kernel's r at the survivors: the same
arrays as the full scan. Windows too ill-conditioned for the slack (std
tiny against the series' magnitude) skip the index. When the range is
dense -- loose thresholds, near-linear tails -- the full scan runs instead.

Memory: the engine keeps about 27 bytes per point: the centered values and
the window stds (8 each), the index (10 per eligible window) and the
eligibility mask (1). Its build sorts the index in place and copies no
full-size array of it, so its peak is what it keeps plus about 2 MB of
block temporaries (in place of the centered values and the sorted second
coordinates it holds the raw values and the second coordinates by flat
position). The scan kernel's block-sized result, terms and divisor live
in two ``_BLOCK``-sized buffers that the engine reuses for every block and
target.

Two historical defects of the original submission are reproducible behind
flags: ``bug1`` disables the method for every series past file position
2138, and ``bug2`` compares the forecast dispersion against the matched
source window instead of the target's final window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._parallel import indexed_map
from .dataset import Dataset, write_csv
from .stats import _std_floor, _window_moments, _window_r

# 1-based file position of the last series the bug1 submission variant
# still processed.
BUG1_CUTOFF = 2138

# The flat position in the low 32 bits of an index entry.
_POS_MASK = 2**32 - 1

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
        if self.std_ratio is not None and not self.std_ratio > 0.0:
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


def affine_map(source_values, source_mean: float, source_std: float,
               target_mean: float, target_std: float) -> np.ndarray:
    """Scale-and-translate values from the source window's frame to the
    target window's: x -> (x - source_mean) * (target_std / source_std)
    + target_mean."""
    if source_std <= 0.0:
        raise ValueError(f"source window std must be positive, got {source_std}")
    source_values = np.asarray(source_values, dtype=np.float64)
    return (source_values - source_mean) * (target_std / source_std) + target_mean


def check_dated(dataset: Dataset, mode: str) -> None:
    """Raise ValueError naming ``mode`` when some series has no start date:
    the future-use test needs both dates of every pair, so a mode that acts
    on it could not be honoured."""
    undated = [ts.id for ts in dataset if ts.start_date is None]
    if undated:
        first = ", ".join(repr(sid) for sid in undated[:5])
        raise ValueError(
            f"{mode} needs a start date for every series, but {len(undated)} of "
            f"{len(dataset)} have none (first: {first}); supply an info file (--info) "
            "with start dates"
        )


def _dct_row(w: int, k: int) -> np.ndarray:
    """DCT-II row k of length w at unit norm, u_i ~ cos(pi k (2i + 1) / 2w):
    zero-sum for 0 < k < w; zeros for k >= w, where no such row exists."""
    if k >= w:
        return np.zeros(w)
    u = np.cos(np.pi * k * (2 * np.arange(w) + 1) / (2 * w))
    return u / np.sqrt(np.dot(u, u))


class CorrelationEngine:
    """Shared scan state: centered values and window stds of every series,
    the sorted projection index over all eligible windows, and every
    target's query.

    Build once per (dataset, window length); individual targets can then be
    scanned independently, which is what the parallel runner exploits. Its
    workers are forked processes: one engine scans one target at a time,
    as its scans share scratch buffers.
    Series k occupies ``offsets[k]:offsets[k+1]`` of the flat arrays, and
    the window ending at tau has flat position ``offsets[k] + tau - w``, so
    flat order is (k, tau) order.
    """

    # Range counts above this fraction of the flat windows take the full
    # scan, about 14 ns per flat window against about 25 ns per range entry
    # (the second coordinate's prune, then the gather of its survivors). With
    # both paths forced on forecast-rw and sweep-smooth seed 3 at r >= 0.95,
    # 0.99, 0.999 and 0.9999 (w = 14, 2 vCPU) the index won on 99% of targets
    # whose range held 20-25% of the flat windows, 81% at 25-30%, 79% at
    # 30-35%, 64% at 35-40% and 16% at 40-45%.
    _DENSE_FRACTION = 0.35
    # One-thread seconds of a target's whole ``sweep``, walks and matches
    # included, for ``sweep_seconds``: per flat window of a full scan, per
    # range entry of an index scan, and per target. Least squares over every
    # target's sweep (best of 3) of forecast-rw, sweep-smooth and
    # audit-leaky, seeds 0 and 3, gave 15.5 ns, 16 ns and 26 us (2 vCPU);
    # the last two are rounded up, as the fit is ruled by the dense targets.
    _WINDOW_S, _ENTRY_S, _TARGET_S = 15e-9, 20e-9, 50e-6
    # Windows whose std is below max|series| / _COND_MAX go to a short list
    # that skips the index and the prune: the rounding errors of r and of
    # the key grow with c = max|series| / std, and the slacks below cover
    # c <= _COND_MAX.
    _COND_MAX = 1e6
    # Windows per dense block and gathered values per sparse block: the
    # bound on both paths' temporaries.
    _BLOCK = 2**16
    # Windows per build block: with its dozen block-sized temporaries, 2^14
    # keeps forecast-rw's build at the old peak RSS; 2^15 adds 2.7 MB, 2^16 4.3.
    _BUILD_BLOCK = 2**14

    def __init__(self, dataset: Dataset, params: CorrelatorParams):
        if params.past_only:
            check_dated(dataset, "past_only")
        self.dataset = dataset
        self.params = params
        w = params.w
        self.offsets = np.concatenate([[0], np.cumsum([len(ts) for ts in dataset],
                                                      dtype=np.int64)])
        n = int(self.offsets[-1])
        if n >= 2**31:
            raise ValueError(f"{n} values exceed the index's int32 positions")
        # Flat raw values, for the build's moments and floors only.
        flat = np.empty(n)
        peaks = np.empty(len(dataset))
        # Every target's final window; zeros for a target shorter than w.
        tails = np.zeros((len(dataset), w))
        for k, (ts, a) in enumerate(zip(dataset, self.offsets[:-1])):
            flat[a : a + len(ts)] = ts.values
            peaks[k] = np.abs(ts.values).max()
            if len(ts) >= w:
                tails[k] = ts.values[-w:]
        # Window stds at each window's flat start, the last w - 1 slots of
        # every series 0; _valid marks the eligible windows (valid and
        # non-terminal, of source series), the mask of the full scan.
        self._std = np.zeros(n)
        self._valid = np.zeros(n, dtype=bool)
        # The index directions: DCT-II rows 1 and 2, u_i ~ cos(pi k (2i + 1) / 2w),
        # unit and zero-sum. Row 1 is a ramp along which trending windows
        # spread out most; row 2 is a bend. With w = 2 row 2 does not exist,
        # so u2 = 0 and every second coordinate is 0.
        self._u, self._u2 = (_dct_row(w, k) for k in (1, 2))
        # Slacks, from forward-error bounds (eps = 2^-52) for windows with
        # c <= _COND_MAX. The kernel's r sums the w products of the query q
        # with globally centered values x (each at most 2c window stds) left
        # to right, over w times the window std: the sum errs by at most
        # gamma_w = w eps / 2 times |q|_1 max|x| <= 2cw std, which with the
        # centering's rounding gives c eps (w + 1) in r, for any summation
        # order (so the prune's matrix-vector r as well). The query's residual
        # sum (at most eps w (w + 1) / 2 after double centering) against the
        # window's offset gives c eps (w + 1) more; the std, two passes over
        # the raw values, and the division give (w + 6) eps. A coordinate is
        # the dot product of its row (|u|_1 <= sqrt(w), |sum(u)| <= w eps) with
        # the raw window's deviations, over the std: under w^2 eps, as the
        # mean's error meets only sum(u). The r slack takes its bound 4 times
        # over, the key slack over 10^5 times.
        eps = np.finfo(np.float64).eps
        c = self._COND_MAX
        self._r_slack = 4 * (2 * c * eps * (w + 1) + (w + 6) * eps)
        self._key_slack = 4 * c * eps * (np.sqrt(w) * (w + 1) + 2 * w)
        # Coordinates are fixed point, floor(coordinate * scale): the key as
        # int32, the second coordinate as int16. |coordinate| <= sqrt(w), so
        # scale = 2^b / 2^ceil(log2 sqrt(w)) keeps them in range with b = 30
        # and b = 14. Flooring is monotone: a coordinate inside its bounds
        # floors inside the floored bounds, so the fixed point needs no slack.
        bits = int(np.ceil(np.log2(np.sqrt(w))))
        self._scale, self._scale2 = 2.0 ** (30 - bits), 2.0 ** (14 - bits)
        # Key and position packed in one int64 (key high, position low) sort
        # in place, with no index array, and the sorted array is the index;
        # the second coordinate, stored by flat position, follows its
        # position.
        packed = np.empty(n, dtype=np.int64)
        coord2 = np.zeros(n, dtype=np.int16)
        loose = [np.empty(0, dtype=np.int32)]
        m = 0
        ends = self.offsets[1:]
        for s in range(0, n - w + 1, self._BUILD_BLOCK):
            e = min(s + self._BUILD_BLOCK, n - w + 1)
            mean, std, (keys, bends) = _window_moments(
                sliding_window_view(flat[s : e + w - 1], w), (self._u, self._u2))
            pos = np.arange(s, e)
            k = np.searchsorted(ends, pos, side="right")
            end = ends[k]
            # A window that runs into the next series has std 0. Eligible
            # windows are valid and non-terminal (start <= n_k - 2w), by the
            # query's rule.
            std[pos > end - w] = 0.0
            self._std[s:e] = std
            eligible = (pos <= end - 2 * w) & (std > _std_floor(mean))
            self._valid[s:e] = eligible
            tight = eligible & (std * self._COND_MAX >= peaks[k])
            loose.append(pos[eligible & ~tight].astype(np.int32))
            idx = np.flatnonzero(tight)
            std = std[idx]
            packed[m : m + idx.size] = (np.floor(keys[idx] / std * self._scale).astype(np.int64)
                                        * 2**32 + idx + s)
            coord2[idx + s] = np.floor(bends[idx] / std * self._scale2)
            m += idx.size
        self._std.flags.writeable = False
        self._valid.flags.writeable = False
        self._loose = np.concatenate(loose)
        # The raw copy goes first, and the index is shrunk and sorted in
        # place and gathered from by slices: no full-size copy of it is made.
        del flat
        packed.resize(m, refcheck=False)
        packed.sort()
        self._index = packed
        self._coord2 = np.empty(m, dtype=np.int16)
        for s in range(0, m, self._BLOCK):
            self._coord2[s : s + self._BLOCK] = coord2[packed[s : s + self._BLOCK] & _POS_MASK]
        del coord2
        # The centered values are a new array, not the raw one centered in
        # place. Freeing the raw copy (n float64, mapped by glibc) raises
        # glibc's dynamic mmap threshold to its size and the heap's trim
        # threshold to twice that, as long as it is at most 32 MB (4M
        # points). Then the candidate arrays of dense targets come from the
        # heap and stay mapped for the next target. Centered in place, the
        # raw copy is never freed, and the heap was trimmed after each dense
        # target: sweep-smooth seed 3 on one thread took 3.7-4.0k minor
        # faults per pass over its targets, against 0.5k in the first pass
        # (half of them the scratch buffers') and none after.
        self._centered = np.empty(n)
        for ts, a in zip(dataset, self.offsets[:-1]):
            np.subtract(ts.values, ts.values.mean(), out=self._centered[a : a + len(ts)])
        # Each target's scan query: its final window normalised to zero mean
        # and unit std, with the window's mean and std; None where the
        # window is degenerate, by the sources' rule.
        mean, std, _ = _window_moments(tails)
        ok = std > _std_floor(mean)
        dev = tails[ok] - mean[ok, None]
        mean2, std2, _ = _window_moments(dev)  # centred twice, to kill the fp residual
        qhat = np.zeros_like(tails)
        qhat[ok] = (dev - mean2[:, None]) / std2[:, None]
        self._tails = [(q, float(mu), float(sd)) if good else None
                       for q, mu, sd, good in zip(qhat, mean, std, ok)]
        # Day ordinal of each series' first value, NaN where it is undated.
        self.start_ords = np.array([np.nan if ts.start_date is None else ts.start_date.toordinal()
                                    for ts in dataset], dtype=np.float64)

    def _scan(self, j: int, tail, r_threshold: float):
        """All candidates with r >= threshold over valid non-terminal windows,
        as parallel arrays (ks, taus, rs, win_std, cont_std) in (k, tau)
        ascending order; ``tail`` is target j's entry of ``_tails``.

        Candidates are looked up in the projection index; when the key range
        is dense the full scan runs instead. Both evaluate r with the same
        kernel, so they give the same arrays.
        """
        w = self.params.w
        qhat = tail[0]
        radius = self._radius(r_threshold)
        lo, hi = self._key_range(np.dot(qhat, self._u), radius)
        if self._dense(hi - lo):
            pos, r = self._full_scan(qhat, r_threshold)
        else:
            # Prune the key range by the second coordinate's bounds (floored
            # as the key's are), then by a gathered matrix-vector r (within
            # one slack of the exact r, as the kernel's is), then take the
            # kernel's r.
            c2_lo, c2_hi = np.floor((np.dot(qhat, self._u2) + np.array([-radius, radius]))
                                    * self._scale2)
            windows = sliding_window_view(self._centered, w)
            step = self._BLOCK // w
            kept = [self._loose]
            for s in range(lo, hi, step):
                e = min(s + step, hi)
                c2 = self._coord2[s:e]
                pos = self._index[s:e][(c2 >= c2_lo) & (c2 <= c2_hi)] & _POS_MASK
                r = (windows[pos] @ qhat) / (w * self._std[pos])
                kept.append(pos[r >= r_threshold - 2 * self._r_slack])
            kept = np.sort(np.concatenate(kept))
            pos, rs = [np.empty(0, dtype=np.int64)], [np.empty(0)]
            for s in range(0, kept.size, step):
                p = kept[s : s + step]
                r = _window_r(windows[p], self._std[p], qhat, self._scratch)
                hit = r >= r_threshold
                pos.append(p[hit])
                rs.append(r[hit])
            pos, r = np.concatenate(pos), np.concatenate(rs)
        if not self.params.include_self:
            keep = (pos < self.offsets[j]) | (pos >= self.offsets[j + 1])
            pos, r = pos[keep], r[keep]
        ks = np.searchsorted(self.offsets, pos, side="right") - 1
        return ks, pos - self.offsets[ks] + w, r, self._std[pos], self._std[pos + w]

    @cached_property
    def _scratch(self) -> np.ndarray:
        """Two float64 buffers of ``_BLOCK`` entries for the kernel, made at
        the first scan and reused by every block and target, so that the full
        scan's 512 KB temporaries do not come from malloc, which maps and
        unmaps them, faulting in every page, once they reach its mmap
        threshold."""
        return np.empty((2, self._BLOCK))

    def _radius(self, r_threshold: float) -> float:
        """Search radius of a coordinate at ``r_threshold``: |qhat.u - what.u|
        <= |qhat - what| = sqrt(2w(1 - r)) for unit zero-sum u, and the
        kernel keeps r >= t only if the exact r >= t - r_slack."""
        return np.sqrt(2 * self.params.w * (1.0 - r_threshold + self._r_slack)) + self._key_slack

    def _key_range(self, centre, radius: float):
        """Index range [lo, hi) of the keys within ``radius`` of ``centre``,
        a query's first coordinate or an array of them."""
        lo, hi = (np.floor((centre + d) * self._scale).clip(-(2**31), 2**31 - 1).astype(np.int64)
                  for d in (-radius, radius))
        return (np.searchsorted(self._index, lo << 32, side="left"),
                np.searchsorted(self._index, (hi << 32) | _POS_MASK, side="right"))

    def _dense(self, size):
        """Whether a key range of ``size`` entries takes the full scan."""
        return size + self._loose.size > self._DENSE_FRACTION * self._valid.size

    def sweep_seconds(self, r_threshold: float) -> float:
        """Estimated one-thread seconds of ``sweep`` over every target with
        ``r_threshold`` the loosest threshold, from each query's key range:
        a full scan's flat windows or an index scan's range entries, plus a
        fixed cost per target."""
        tails = self._tails[:BUG1_CUTOFF] if self.params.bug1 else self._tails
        queries = [tail[0] for tail in tails if tail is not None]
        if not queries:
            return 0.0
        # Elementwise, not a matrix product: a BLAS call would load its
        # buffers into this process before a fork, and into every worker
        # (+0.2-0.5 MB of peak RSS on sweep-smooth).
        centres = (np.stack(queries) * self._u).sum(axis=1)
        lo, hi = self._key_range(centres, self._radius(r_threshold))
        work = np.where(self._dense(hi - lo), self._valid.size * self._WINDOW_S,
                        (hi - lo + self._loose.size) * self._ENTRY_S)
        return float(work.sum()) + len(queries) * self._TARGET_S

    def _full_scan(self, qhat: np.ndarray, r_threshold: float):
        """Flat positions and r of every eligible window with r >= threshold,
        from the kernel over the whole flat array in contiguous blocks; the
        dense path and the reference for the index."""
        windows = sliding_window_view(self._centered, self.params.w)
        pos, rs = [np.empty(0, dtype=np.int64)], [np.empty(0)]
        for s in range(0, len(windows), self._BLOCK):
            e = min(s + self._BLOCK, len(windows))
            r = _window_r(windows[s:e], self._std[s:e], qhat, self._scratch)
            hit = np.flatnonzero(self._valid[s:e] & (r >= r_threshold))
            pos.append(hit + s)
            rs.append(r[hit])
        return np.concatenate(pos), np.concatenate(rs)

    def candidates(self, j: int, r_threshold: float | None = None):
        """(ks, taus, rs) arrays of all candidates for one target, sorted by
        r descending with ties broken by (k, tau) ascending."""
        if r_threshold is None:
            r_threshold = self.params.r_threshold
        tail = self._tails[j]
        ks, taus, rs, _, _ = _EMPTY_SCAN if tail is None else self._scan(j, tail, r_threshold)
        order = np.lexsort((taus, ks, -rs))
        return ks[order], taus[order], rs[order]

    def _walk(self, tail, cands, future, r_threshold: float, std_ratio: float | None) -> int | None:
        """Index in ``cands`` of the best-ranked candidate that passes every
        acceptance condition, or None; ``future`` is the sweep's future-use
        mask over ``cands``.

        Walking candidates in descending-r order and accepting the first one
        that satisfies the per-candidate conditions selects the same match
        as a masked argmax, which avoids sorting dense candidate sets; ties
        resolve to the smallest (k, tau) because the scan emits candidates
        in that order and argmax returns the first maximum.
        """
        tail_std = tail[2]
        _, _, rs, win_std, cont_std = cands

        keep = rs >= r_threshold
        if self.params.past_only:
            keep &= ~future
        if std_ratio is not None:
            # The mapped forecast's std is the affine slope times the
            # continuation's std, both already in the window stds.
            fc_std = (tail_std / win_std) * cont_std
            limit = std_ratio * (win_std if self.params.bug2 else tail_std)
            keep &= fc_std <= limit
        if not keep.any():
            return None
        return int(np.argmax(np.where(keep, rs, -np.inf)))

    def forecast(self, j: int) -> CorrelatorMatch | None:
        """Accepted match for one target under the engine's own thresholds,
        or None (a normal outcome)."""
        return self.sweep(j, [(self.params.r_threshold, self.params.std_ratio)])[0]

    def sweep(self, j: int, combos) -> list[CorrelatorMatch | None]:
        """Acceptance outcome of each (r_threshold, std_ratio) combo for one
        target, reusing a single candidate scan at the loosest threshold."""
        tail = None if self.params.bug1 and j + 1 > BUG1_CUTOFF else self._tails[j]
        if tail is None:
            return [None] * len(combos)
        cands = self._scan(j, tail, min(r for r, _ in combos))
        # The future-use rule, once per target (None if it is undated): the
        # consumed span, window and continuation, reaches the target's first
        # forecast date. An undated source's NaN ordinal compares False.
        future = None
        if not np.isnan(self.start_ords[j]):
            ks, taus = cands[:2]
            future = (self.start_ords[ks] + (taus + self.params.w - 1)
                      >= self.start_ords[j] + len(self.dataset.series[j]))
        picks = [self._walk(tail, cands, future, r, s) for r, s in combos]
        hits = [p for p in picks if p is not None]
        if not hits:
            return picks
        # The picked windows' means in one kernel call, not one per match (a
        # one-row call costs 0.1 ms; sweep-smooth accepts about 600 matches).
        w = self.params.w
        windows = np.stack([self.dataset.series[k].values[t - w : t]
                            for k, t in zip(cands[0][hits].tolist(), cands[1][hits].tolist())])
        means = iter(_window_moments(windows)[0].tolist())
        return [None if p is None else self._match(j, tail, cands, future, p, next(means))
                for p in picks]

    def _match(self, j: int, tail, cands, future, pick: int, mean: float) -> CorrelatorMatch:
        """The match of candidate ``pick``: its continuation mapped from the
        window's ``mean`` and its std from the scan into the target's frame."""
        _, tail_mean, tail_std = tail
        k, tau = int(cands[0][pick]), int(cands[1][pick])
        source = self.dataset.series[k]
        forecast = affine_map(source.values[tau : tau + self.params.w], mean,
                              float(cands[3][pick]), tail_mean, tail_std)
        used_future = None
        if source.start_date is not None and future is not None:
            used_future = bool(future[pick])
        return CorrelatorMatch(
            target_id=self.dataset.series[j].id,
            source_id=source.id,
            tau=tau,
            r=float(cands[2][pick]),
            forecast=forecast,
            used_future=used_future,
        )


def run_correlator(dataset: Dataset, params: CorrelatorParams,
                   threads: int = 1) -> dict[str, CorrelatorMatch]:
    """Apply the correlator to every series; map of id -> accepted match.
    The one-combo case of ``sweep_correlator``, so it is identical for any
    thread count."""
    return sweep_correlator(dataset, [(params.r_threshold, params.std_ratio)], params, threads)[0]


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
    per_target = indexed_map(lambda j: engine.sweep(j, combos), len(dataset), threads,
                             engine.sweep_seconds(min(r for r, _ in combos)))
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
    write_csv(path, ["target_id", "source_id", "tau", "r", "used_future"],
              ([m.target_id, m.source_id, m.tau, repr(m.r),
                "" if m.used_future is None else str(m.used_future).lower()] for m in matches))

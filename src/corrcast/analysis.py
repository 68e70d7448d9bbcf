"""Retrospective dataset audit: global cross-correlation between series
pairs, best-match extraction, leakage categorization, and overlap
statistics.

For a target series the scan slides every other series past it and, at
each alignment ending at window position tau, correlates the whole
overlapping region (length min(n_target, tau)) rather than a fixed short
window. Cross terms for all alignments of one pair are a single linear
convolution of the reversed target with the source, taken by FFT at the
pair's own length (the smallest 5-smooth one that holds it); sources that
share that length go through one 2-D transform, and no spectrum outlives
its target. Segment sums come from per-series prefix sums, and r' is
evaluated for all alignments at once in fixed-size chunks of flat arrays.
Only the best match per target is kept (no all-pairs matrix is
materialized).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._parallel import indexed_map
from .correlator import CorrelatorMatch
from .dataset import Dataset
from .stats import pearson

DEFAULT_AUDIT_THRESHOLD = 0.995

# Windows this close to either end of the source are not alignment points,
# mirroring the forecaster's non-terminal window rule.
DEFAULT_MARGIN = 14

# Not read by the scan: every pair takes its FFT path. bench/corpus.py sizes
# the audit corpus's shortest series from it, so the value stays fixed to
# keep those corpora and their recorded outputs unchanged.
DEFAULT_FFT_MIN_WORK = 1 << 20

# Alignments per block of the r' evaluation; a 2-D FFT batch holds up to
# 4 * _CHUNK values, as its three arrays take about what the dozen r'
# temporaries take. Bounds the scan's temporaries whatever the dataset size.
_CHUNK = 1 << 13

# Variance floor (on globally standardized values) below which an
# overlapping segment counts as constant and is skipped.
_SEGMENT_VAR_FLOOR = 1e-10

CATEGORY_LABELS = ("T1", "T2", "T3", "T4", "date_unknown")


@dataclass(frozen=True)
class GlobalMatch:
    """Best global alignment for one target: source window end ``tau``
    (1-based; the aligned source segment is values[tau-overlap:tau]) and
    the correlation over the full overlap."""

    target_id: str
    source_id: str
    tau: int
    r_prime: float
    overlap: int


@dataclass
class LeakageReport:
    """Audit output: retained matches, their categories, the overlap
    histogram, and the fraction of forecaster matches that consumed
    future-dated values (None when dates are unavailable)."""

    set_c: list[GlobalMatch]
    categories: dict[str, list[GlobalMatch]]
    histogram: np.ndarray
    bin_width: int
    future_use_fraction: float | None = None
    threshold: float = DEFAULT_AUDIT_THRESHOLD
    pre_exclusion_count: int = 0

    @property
    def excluded_pairs(self) -> int:
        return self.pre_exclusion_count - len(self.set_c)


def _fast_lengths(n: int) -> np.ndarray:
    """Every 2**a * 3**b * 5**c up to the first power of two >= n, ascending:
    the lengths pocketfft transforms fast. ``ladder[np.searchsorted(ladder,
    x)]`` is the smallest such length >= x for any 1 <= x <= n."""
    top = 1 << (max(n, 1) - 1).bit_length()
    rungs = []
    p5 = 1
    while p5 <= top:
        p35 = p5
        while p35 <= top:
            rungs += [p35 << a for a in range((top // p35).bit_length())]
            p35 *= 3
        p5 *= 5
    return np.unique(np.array(rungs, dtype=np.int64))


def global_cross_correlation(j: int, k: int, tau: int, dataset: Dataset,
                             margin: int = DEFAULT_MARGIN) -> float:
    """Correlation between the target's final segment and the source
    segment ending at ``tau``, over the full overlap min(n_target, tau).

    Direct evaluation on the extracted segments; this is the reference
    implementation the fast scan is checked against.
    """
    yj = dataset.series[j].values
    yk = dataset.series[k].values
    if not margin <= tau <= yk.size - margin:
        raise ValueError(f"tau={tau} outside [{margin}, {yk.size - margin}]")
    m = min(yj.size, tau)
    if m < 2:
        raise ValueError(f"overlap {m} too short to correlate")
    return pearson(yj[yj.size - m:], yk[tau - m: tau])


class GlobalScanEngine:
    """Flat state for the all-pairs best-match scan: the standardized
    values and their prefix sums concatenated per series, and every
    alignment (source k, window end tau) in (k, tau) order."""

    def __init__(self, dataset: Dataset, margin: int = DEFAULT_MARGIN):
        self.dataset = dataset
        self.margin = margin
        values, sizes = [], []
        for ts in dataset:
            v = ts.values
            z = np.zeros(0)
            if v.size >= 2:
                centered = v - v.mean()
                scale = np.sqrt(np.dot(centered, centered) / v.size)
                if scale > 0.0:
                    z = centered / scale
            # Constant or single-point series keep size 0: no valid segments.
            values.append(z)
            sizes.append(z.size)
        self._size = np.array(sizes, dtype=np.int64)
        self._start = np.concatenate(([0], np.cumsum(self._size)))
        self._z = np.concatenate([np.zeros(0), *values])
        # Series k's prefix sums, a leading 0 included, start at _start[k] + k.
        self._prefix = np.concatenate([np.zeros(0)] + [
            np.concatenate(([0.0], np.cumsum(z))) for z in values])
        self._prefix_sq = np.concatenate([np.zeros(0)] + [
            np.concatenate(([0.0], np.cumsum(z * z))) for z in values])
        # Sources with at least one alignment tau in [max(w, 1), n_k - w];
        # tau = 0 has no overlap to correlate.
        w = margin
        self._lo = max(w, 1)
        self._sources = np.flatnonzero(self._size >= max(2 * w, 2))
        counts = self._size[self._sources] - w - self._lo + 1
        self._align_start = np.concatenate(([0], np.cumsum(counts)))
        self._tau = np.concatenate([np.zeros(0, dtype=np.int64)] + [
            np.arange(self._lo, self._size[k] - w + 1) for k in self._sources])
        self._end = self._tau + np.repeat(self._start[self._sources] + self._sources, counts)
        # Sources in length order, so every target's pair lengths ascend.
        self._by_size = np.argsort(self._size[self._sources], kind="stable")
        self._ladder = _fast_lengths(2 * int(self._size.max(initial=1)))

    def _cross_terms(self, j: int) -> np.ndarray:
        """Overlap dot products of target j with every alignment, in (k,
        tau) order: for each pair the full convolution of the reversed
        target with the source, whose value at index tau - 1 is the dot
        product at tau. Sources are transformed in 2-D batches that share
        the pair's FFT length, the smallest 5-smooth one >= n_j + n_k - 1."""
        n_j, lo, w = int(self._size[j]), self._lo, self.margin
        u = self._z[self._start[j]: self._start[j] + n_j][::-1]
        order = self._by_size
        sizes = self._size[self._sources[order]]
        rungs = self._ladder[np.searchsorted(self._ladder, n_j + sizes - 1)]
        cross = np.empty(self._tau.size)
        first = 0
        while first < order.size:
            n_fft = int(rungs[first])
            last = min(int(np.searchsorted(rungs, n_fft, side="right")),
                       first + max(1, 4 * _CHUNK // n_fft))
            # Row 0 is the target, so one 2-D transform gives its spectrum too.
            batch = np.zeros((1 + last - first, n_fft))
            batch[0, :n_j] = u
            for row, i in enumerate(order[first:last], start=1):
                k = self._sources[i]
                batch[row, : sizes[first + row - 1]] = self._z[self._start[k]: self._start[k + 1]]
            spectra = np.fft.rfft(batch)
            conv = np.fft.irfft(spectra[1:] * spectra[0], n_fft)
            for row, i in enumerate(order[first:last]):
                cross[self._align_start[i]: self._align_start[i + 1]] = \
                    conv[row, lo - 1: sizes[first + row] - w]
            first = last
        return cross

    def best_match(self, j: int) -> tuple[int, int, float, int] | None:
        """Best (source, tau, r', overlap) for target j, or None.

        Ties are resolved toward the smallest source index, then the
        smallest tau.
        """
        n_j = int(self._size[j])
        if n_j == 0:
            return None
        cross = self._cross_terms(j)
        p0 = self._start[j] + j
        pj = self._prefix[p0: p0 + n_j + 1]
        pj_sq = self._prefix_sq[p0: p0 + n_j + 1]
        # Target-side moments of the final m points, and whether m >= 2 and
        # var_a passes the floor, by overlap m.
        overlaps = np.arange(n_j + 1)
        with np.errstate(divide="ignore", invalid="ignore"):
            mu_a_of = (pj[n_j] - pj[n_j - overlaps]) / overlaps
            var_a_of = (pj_sq[n_j] - pj_sq[n_j - overlaps]) / overlaps - mu_a_of * mu_a_of
        valid_a_of = (overlaps >= 2) & (var_a_of > _SEGMENT_VAR_FLOOR)
        best, best_r = -1, -np.inf
        for at in range(0, cross.size, _CHUNK):
            chunk = slice(at, at + _CHUNK)
            m = np.minimum(self._tau[chunk], n_j)
            end = self._end[chunk]
            start = end - m
            sum_b = self._prefix[end] - self._prefix[start]
            sumsq_b = self._prefix_sq[end] - self._prefix_sq[start]
            mu_a, var_a, valid = mu_a_of[m], var_a_of[m], valid_a_of[m]
            # Cast once: every int-float operation below would cast again.
            m = m.astype(np.float64)
            mu_b = sum_b / m
            var_b = sumsq_b / m - mu_b * mu_b
            valid &= var_b > _SEGMENT_VAR_FLOOR
            with np.errstate(divide="ignore", invalid="ignore"):
                r = cross[chunk] - m * mu_a * mu_b
                r /= m * np.sqrt(var_a * var_b)
            np.clip(r, -1.0, 1.0, out=r)
            r[~valid] = -np.inf
            pos = int(np.argmax(r))
            # Strict: an equal r' later in (k, tau) order does not win.
            if r[pos] > best_r:
                best, best_r = at + pos, r[pos]
        if best < 0:
            return None
        source = np.searchsorted(self._align_start, best, side="right") - 1
        tau = int(self._tau[best])
        return int(self._sources[source]), tau, float(best_r), min(tau, n_j)


def find_global_matches(dataset: Dataset, threshold: float = DEFAULT_AUDIT_THRESHOLD,
                        exclusions: Iterable[tuple[str, str]] | None = None,
                        margin: int = DEFAULT_MARGIN, threads: int = 1) -> list[GlobalMatch]:
    """Best global match per target, kept when r' reaches the threshold and
    the (target, source) id pair is not excluded.

    The exclusion list models manually discarded pairs (e.g. alignments
    driven by a single large jump in both series).
    """
    engine = GlobalScanEngine(dataset, margin=margin)
    results = indexed_map(engine.best_match, len(dataset), threads)
    matches = []
    for ts, best in zip(dataset, results):
        if best is not None and best[2] >= threshold:
            k, tau, r, overlap = best
            matches.append(GlobalMatch(target_id=ts.id, source_id=dataset.series[k].id,
                                       tau=tau, r_prime=r, overlap=overlap))
    return _drop_excluded(matches, exclusions)


def _drop_excluded(matches: list[GlobalMatch],
                   exclusions: Iterable[tuple[str, str]] | None) -> list[GlobalMatch]:
    excluded = set(map(tuple, exclusions)) if exclusions else set()
    return [m for m in matches if (m.target_id, m.source_id) not in excluded]


def categorize(matches: Sequence[GlobalMatch], dataset: Dataset) -> dict[str, list[GlobalMatch]]:
    """Split matches into disjoint leakage categories.

    T1: target and source are the same series. T2: distinct series matching
    each other in both directions. T3: distinct series whose aligned
    regions cover identical calendar dates. T4: distinct series with
    differing dates. Matches lacking a start date on either side (and not
    T1/T2) land in ``date_unknown``.
    """
    pair_set = {(m.target_id, m.source_id) for m in matches}
    out: dict[str, list[GlobalMatch]] = {label: [] for label in CATEGORY_LABELS}
    for m in matches:
        if m.target_id == m.source_id:
            out["T1"].append(m)
            continue
        if (m.source_id, m.target_id) in pair_set:
            out["T2"].append(m)
            continue
        target = dataset[m.target_id]
        source = dataset[m.source_id]
        if target.start_date is None or source.start_date is None:
            out["date_unknown"].append(m)
            continue
        # Regions have equal length, so equal end dates mean equal ranges.
        target_end = target.start_date.toordinal() + (len(target) - 1)
        source_end = source.start_date.toordinal() + (m.tau - 1)
        out["T3" if target_end == source_end else "T4"].append(m)
    return out


def overlap_histogram(matches: Sequence[GlobalMatch], bin_width: int) -> np.ndarray:
    """Counts of overlap lengths per bin [i*bin_width, (i+1)*bin_width)."""
    if bin_width < 1:
        raise ValueError(f"bin width must be >= 1, got {bin_width}")
    if not matches:
        return np.zeros(0, dtype=np.int64)
    overlaps = np.array([m.overlap for m in matches], dtype=np.int64)
    return np.bincount(overlaps // bin_width)


def future_use_stats(matches: Iterable[CorrelatorMatch], dataset: Dataset) -> float:
    """Fraction of forecaster matches that consumed future-dated values, read
    from each match's ``used_future``.

    That flag is None exactly when a start date is missing on either side;
    load the info file and attach it to the dataset if this raises. The
    flags were set from ``dataset``'s dates when the matches were made.
    """
    if isinstance(matches, Mapping):
        matches = matches.values()
    matches = list(matches)
    undated = [f"({m.target_id}, {m.source_id})" for m in matches if m.used_future is None]
    if undated:
        raise ValueError(
            f"start dates missing for {len(undated)} of {len(matches)} matched pairs (first: "
            f"{', '.join(undated[:5])}); supply the info file to enable future-use statistics"
        )
    if not matches:
        raise ValueError("no matches to analyze")
    return float(np.mean([m.used_future for m in matches]))


def check_audit_args(threshold: float, bin_width: int) -> None:
    """Raise ValueError for a threshold outside [-1, 1] or a bin width below 1."""
    if not -1.0 <= threshold <= 1.0:
        raise ValueError(f"audit threshold must be in [-1, 1], got {threshold}")
    if bin_width < 1:
        raise ValueError(f"bin width must be >= 1, got {bin_width}")


def build_leakage_report(dataset: Dataset, threshold: float = DEFAULT_AUDIT_THRESHOLD,
                         exclusions: Iterable[tuple[str, str]] | None = None,
                         bin_width: int = 100,
                         correlator_matches: Mapping[str, CorrelatorMatch] | None = None,
                         margin: int = DEFAULT_MARGIN, threads: int = 1) -> LeakageReport:
    """Run the complete audit and assemble a LeakageReport; the future-use
    fraction is None, with a warning, when a matched pair lacks a start date.
    The threshold and bin width are checked before the scan."""
    check_audit_args(threshold, bin_width)
    unfiltered = find_global_matches(dataset, threshold=threshold, margin=margin,
                                     threads=threads)
    matches = _drop_excluded(unfiltered, exclusions)
    categories = categorize(matches, dataset)
    histogram = overlap_histogram(matches, bin_width)
    fraction = None
    if correlator_matches:
        # Non-empty matches leave missing start dates as the only ValueError.
        try:
            fraction = future_use_stats(correlator_matches, dataset)
        except ValueError as exc:
            warnings.warn(f"future-use fraction not computed: {exc}")
    return LeakageReport(
        set_c=matches,
        categories=categories,
        histogram=histogram,
        bin_width=bin_width,
        future_use_fraction=fraction,
        threshold=threshold,
        pre_exclusion_count=len(unfiltered),
    )


def load_exclusions_csv(path: str | Path) -> list[tuple[str, str]]:
    """Read an exclusion list CSV of (target_id, source_id) rows; a header
    row of non-data labels (e.g. ``j,k``) is skipped."""
    pairs = []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            if len(row) < 2 or not row[0].strip():
                continue
            pairs.append((row[0].strip(), row[1].strip()))
    if pairs and pairs[0][0].lower() in ("j", "target", "target_id", "id"):
        pairs = pairs[1:]
    return pairs


def write_global_matches_csv(matches: Sequence[GlobalMatch],
                             categories: Mapping[str, Sequence[GlobalMatch]],
                             path: str | Path) -> None:
    """Write audit matches as ``j,k,tau,r,overlap,category``."""
    label_of = {}
    for label, entries in categories.items():
        for m in entries:
            label_of[(m.target_id, m.source_id, m.tau)] = label
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["j", "k", "tau", "r", "overlap", "category"])
        for m in matches:
            writer.writerow([
                m.target_id, m.source_id, m.tau, repr(m.r_prime), m.overlap,
                label_of.get((m.target_id, m.source_id, m.tau), ""),
            ])


def write_histogram_csv(histogram: np.ndarray, bin_width: int, path: str | Path) -> None:
    """Write overlap-length bins as ``bin_start,bin_end,count``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start", "bin_end", "count"])
        for i, count in enumerate(histogram):
            writer.writerow([i * bin_width, (i + 1) * bin_width, int(count)])

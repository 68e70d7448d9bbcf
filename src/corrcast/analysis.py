"""Retrospective dataset audit: global cross-correlation between series
pairs, best-match extraction, leakage categorization, and overlap
statistics.

For a target series the scan slides every other series past it and, at
each alignment ending at window position tau, correlates the whole
overlapping region (length min(n_target, tau)) rather than a fixed short
window. Cross terms for all alignments of one pair are a single linear
convolution of the reversed target with the source, so large pairs go
through a cached real FFT while small pairs use a direct convolution;
segment sums come from per-series prefix sums. Only the best match per
target is kept (no all-pairs matrix is materialized).
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._parallel import indexed_map
from .correlator import CorrelatorMatch, match_uses_future
from .dataset import Dataset
from .stats import pearson

DEFAULT_AUDIT_THRESHOLD = 0.995

# Windows this close to either end of the source are not alignment points,
# mirroring the forecaster's non-terminal window rule.
DEFAULT_MARGIN = 14

# Pairs with fewer multiply-adds than this use a direct convolution; the
# FFT path only pays off for long overlaps.
DEFAULT_FFT_MIN_WORK = 1 << 20

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
    excluded_pairs: int = 0
    pre_exclusion_count: int = 0
    matches_by_id: dict[str, GlobalMatch] = field(default_factory=dict)


def _next_fast_len(n: int) -> int:
    """Smallest 2**a * 3**b * 5**c >= n, a length pocketfft transforms fast."""
    m = max(n, 1) - 1
    best = 1 << m.bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # The smallest p35 * 2**a >= n.
            best = min(best, p35 << (m // p35).bit_length())
            p35 *= 3
        p5 *= 5
    return best


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
    """Precomputed state for the all-pairs best-match scan."""

    def __init__(self, dataset: Dataset, margin: int = DEFAULT_MARGIN,
                 fft_min_work: int = DEFAULT_FFT_MIN_WORK):
        self.dataset = dataset
        self.margin = margin
        self.fft_min_work = fft_min_work
        self.standardized: list[np.ndarray | None] = []
        self.prefix: list[np.ndarray | None] = []
        self.prefix_sq: list[np.ndarray | None] = []
        lengths = []
        for ts in dataset:
            v = ts.values
            if v.size >= 2:
                centered = v - v.mean()
                scale = np.sqrt(np.dot(centered, centered) / v.size)
                if scale > 0.0:
                    z = centered / scale
                    self.standardized.append(z)
                    self.prefix.append(np.concatenate(([0.0], np.cumsum(z))))
                    self.prefix_sq.append(np.concatenate(([0.0], np.cumsum(z * z))))
                    lengths.append(v.size)
                    continue
            # Constant or single-point series: no valid segments either way.
            self.standardized.append(None)
            self.prefix.append(None)
            self.prefix_sq.append(None)
        max_n = max(lengths, default=0)
        self.fft_len = _next_fast_len(2 * max_n - 1)
        # Cache source-side FFTs only for series that can appear in a pair
        # large enough to take the FFT path.
        self._rfft: dict[int, np.ndarray] = {}
        for k, z in enumerate(self.standardized):
            if z is not None and z.size * max_n >= fft_min_work:
                self._rfft[k] = np.fft.rfft(z, self.fft_len)

    def _cross_terms(self, u: np.ndarray, u_fft, k: int) -> tuple[np.ndarray, object]:
        """Full convolution of the reversed target with source k; the value
        at output index tau-1 is the overlap dot product at alignment tau."""
        z = self.standardized[k]
        if u.size * z.size < self.fft_min_work or k not in self._rfft:
            return np.convolve(u, z), u_fft
        if u_fft is None:
            u_fft = np.fft.rfft(u, self.fft_len)
        conv = np.fft.irfft(u_fft * self._rfft[k], self.fft_len)
        return conv[: u.size + z.size - 1], u_fft

    def best_match(self, j: int) -> tuple[int, int, float, int] | None:
        """Best (source, tau, r', overlap) for target j, or None.

        Ties are resolved toward the smallest source index, then the
        smallest tau.
        """
        zj = self.standardized[j]
        if zj is None:
            return None
        n_j = zj.size
        pj, pj_sq = self.prefix[j], self.prefix_sq[j]
        u = zj[::-1]
        u_fft = None
        w = self.margin
        best = None
        for k, zk in enumerate(self.standardized):
            if zk is None or zk.size < 2 * w:
                continue
            n_k = zk.size
            taus = np.arange(w, n_k - w + 1)
            m = np.minimum(taus, n_j)
            cross, u_fft = self._cross_terms(u, u_fft, k)
            cross = cross[taus - 1]
            pk, pk_sq = self.prefix[k], self.prefix_sq[k]
            sum_b = pk[taus] - pk[taus - m]
            sumsq_b = pk_sq[taus] - pk_sq[taus - m]
            sum_a = pj[n_j] - pj[n_j - m]
            sumsq_a = pj_sq[n_j] - pj_sq[n_j - m]
            mu_a = sum_a / m
            mu_b = sum_b / m
            var_a = sumsq_a / m - mu_a * mu_a
            var_b = sumsq_b / m - mu_b * mu_b
            valid = (m >= 2) & (var_a > _SEGMENT_VAR_FLOOR) & (var_b > _SEGMENT_VAR_FLOOR)
            if not valid.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                r = (cross - m * mu_a * mu_b) / (m * np.sqrt(var_a * var_b))
            r = np.clip(r, -1.0, 1.0)
            r[~valid] = -np.inf
            pos = int(np.argmax(r))
            if r[pos] == -np.inf:
                continue
            if best is None or r[pos] > best[2]:
                best = (k, int(taus[pos]), float(r[pos]), int(m[pos]))
        return best


def find_global_matches(dataset: Dataset, threshold: float = DEFAULT_AUDIT_THRESHOLD,
                        exclusions: Iterable[tuple[str, str]] | None = None,
                        margin: int = DEFAULT_MARGIN, threads: int = 1,
                        fft_min_work: int = DEFAULT_FFT_MIN_WORK) -> list[GlobalMatch]:
    """Best global match per target, kept when r' reaches the threshold and
    the (target, source) id pair is not excluded.

    The exclusion list models manually discarded pairs (e.g. alignments
    driven by a single large jump in both series).
    """
    excluded = set(map(tuple, exclusions)) if exclusions else set()
    engine = GlobalScanEngine(dataset, margin=margin, fft_min_work=fft_min_work)
    results = indexed_map(engine.best_match, len(dataset), threads)
    matches = []
    for ts, best in zip(dataset, results):
        if best is None:
            continue
        k, tau, r, overlap = best
        if r < threshold:
            continue
        source_id = dataset.series[k].id
        if (ts.id, source_id) in excluded:
            continue
        matches.append(GlobalMatch(target_id=ts.id, source_id=source_id,
                                   tau=tau, r_prime=r, overlap=overlap))
    return matches


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
    """Fraction of forecaster matches that consumed future-dated values.

    Requires start dates for every involved series; load the info file and
    attach it to the dataset if this raises.
    """
    if isinstance(matches, Mapping):
        matches = matches.values()
    flags, undated = [], []
    for m in matches:
        target = dataset[m.target_id]
        source = dataset[m.source_id]
        flag = match_uses_future(
            source.start_date, m.tau, len(m.forecast), target.start_date, len(target)
        )
        flags.append(flag)
        if flag is None:
            undated.append(f"({m.target_id}, {m.source_id})")
    if undated:
        raise ValueError(
            f"start dates missing for {len(undated)} of {len(flags)} matched pairs (first: "
            f"{', '.join(undated[:5])}); supply the info file to enable future-use statistics"
        )
    if not flags:
        raise ValueError("no matches to analyze")
    return float(np.mean(flags))


def build_leakage_report(dataset: Dataset, threshold: float = DEFAULT_AUDIT_THRESHOLD,
                         exclusions: Iterable[tuple[str, str]] | None = None,
                         bin_width: int = 100,
                         correlator_matches: Mapping[str, CorrelatorMatch] | None = None,
                         margin: int = DEFAULT_MARGIN, threads: int = 1,
                         fft_min_work: int = DEFAULT_FFT_MIN_WORK) -> LeakageReport:
    """Run the complete audit and assemble a LeakageReport; the future-use
    fraction is None, with a warning, when a matched pair lacks a start date."""
    exclusions = list(exclusions) if exclusions else []
    unfiltered = find_global_matches(dataset, threshold=threshold, exclusions=None,
                                     margin=margin, threads=threads,
                                     fft_min_work=fft_min_work)
    excluded_set = set(map(tuple, exclusions))
    matches = [m for m in unfiltered if (m.target_id, m.source_id) not in excluded_set]
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
        excluded_pairs=len(unfiltered) - len(matches),
        pre_exclusion_count=len(unfiltered),
        matches_by_id={m.target_id: m for m in matches},
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

"""Retrospective dataset audit: global cross-correlation between series
pairs, best-match extraction, leakage categorization, and overlap
statistics.

For a target series the scan slides every other series past it and, at
each alignment ending at window position tau, correlates the whole
overlapping region (length min(n_target, tau)) rather than a fixed short
window. The overlap dot products of a pair of series, for every alignment
in both directions, are one linear convolution of one series reversed with
the other, taken by FFT at the pair's own length (the smallest 5-smooth one
that holds it). The audit convolves each unordered pair once and both
targets read their half (the AB/BA-join symmetry of Matrix Profile's STOMP),
in tiles of series of neighbouring lengths that share each spectrum. Series
with bit-identical standardized values are scanned once, as their first
member. A series scanned against itself stops at tau = n // 2, where its
source segment stops overlapping its own tail: past that every series
would offer the trivial match of a self-join (Yeh et al., Matrix Profile
I, 2016), which the levels of a random walk score near 1. Segment sums
come from per-series prefix sums, r' is evaluated over flat batches of
alignments, and only the best match per target is kept (no all-pairs
matrix is materialized).
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._parallel import indexed_map
from .correlator import CorrelatorMatch
from .dataset import Dataset, LoadError, _csv_rows, write_csv
from .stats import pearson

DEFAULT_AUDIT_THRESHOLD = 0.995

# Width of the overlap histogram's bins.
DEFAULT_BIN_WIDTH = 100

# Windows this close to either end of the source are not alignment points,
# mirroring the forecaster's non-terminal window rule.
DEFAULT_MARGIN = 14

# Not read by the scan: every pair takes its FFT path. bench/corpus.py sizes
# the audit corpus's shortest series from it, so the value stays fixed to
# keep those corpora and their recorded outputs unchanged.
DEFAULT_FFT_MIN_WORK = 1 << 20

# Alignments per batch of the r' evaluation (a batch ends at the first pair
# that reaches it); a 2-D FFT batch holds up to 4 * _CHUNK values, as its
# three arrays take about what the dozen r' temporaries take. Bounds the
# scan's temporaries whatever the dataset size.
_CHUNK = 1 << 13

# Groups per side of a tile of the all-pairs scan: a tile holds the spectra
# of at most 2 * _TILE series at one FFT length. The result does not depend
# on it.
_TILE = 16

# One-thread seconds of ``best_matches`` per unordered pair of groups (its
# convolution's set-up) and per alignment (its share of the FFTs and of the
# r' pass). Least squares over audit-leaky seed 3, random walks of M4-like
# lengths (30, 60 and 120 series) and 300 series of 40-400 points (best of
# 3, 2 vCPU) gave 33 us and 47 ns, whose estimates came within 0.7-1.3
# times every measured time.
_PAIR_S, _ALIGNMENT_S = 30e-6, 45e-9

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
    values and their prefix sums concatenated per series, and the groups of
    series whose standardized values are bit-identical.

    A group is scanned once, as its first member, and ranks by that member.
    Each unordered pair of groups (g, h), rank g <= h, is convolved once,
    reversed g with h, at the pair's FFT length; target g reads the
    convolution forward and target h reads it mirrored. So a pair's bits do
    not depend on which scan asks for them, and verbatim duplicates tie
    exactly. Alignments come from the series lengths: no per-alignment
    array is kept.
    """

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
        del values
        # Rows: prefix sums of z and of z * z. Series k's, a leading 0
        # included, start at column _start[k] + k.
        self._prefix = np.zeros((2, self._z.size + len(sizes)))
        # Series whose standardized values are bit-identical form one group;
        # _group[j] is series j's, -1 for size 0, and _rep[g] is group g's
        # first member. Groups are keyed by the hash of their bytes.
        self._group = np.full(len(sizes), -1, dtype=np.int64)
        reps: list[int] = []
        by_hash: dict[int, list[int]] = {}
        for j, n in enumerate(sizes):
            z = self._z[self._start[j]: self._start[j + 1]]
            at = self._start[j] + j + 1
            np.cumsum(z, out=self._prefix[0, at: at + n])
            np.cumsum(z * z, out=self._prefix[1, at: at + n])
            if n:
                bits = z.view(np.int64)
                same = by_hash.setdefault(hash(bits.tobytes()), [])
                g = next((g for g in same if np.array_equal(
                    self._z[self._start[reps[g]]: self._start[reps[g] + 1]].view(np.int64),
                    bits)), None)
                if g is None:
                    g = len(reps)
                    reps.append(j)
                    same.append(g)
                self._group[j] = g
        self._rep = np.array(reps, dtype=np.int64)
        # Alignments tau run over [max(w, 1), n_k - w], n_k // 2 at most
        # for a self pair; tau = 0 has no overlap to correlate. Shorter
        # groups are targets only.
        w = margin
        self._lo = max(w, 1)
        self._n = self._size[self._rep]
        self._source = self._n >= max(2 * w, 2)
        # Groups in length order: tiles of neighbours share FFT lengths.
        self._by_size = np.argsort(self._n, kind="stable")
        self._ladder = _fast_lengths(2 * int(self._size.max(initial=1)))

    def _values(self, g: int) -> np.ndarray:
        k = self._rep[g]
        return self._z[self._start[k]: self._start[k + 1]]

    def _moments(self, targets: Iterable[int]) -> dict[int, np.ndarray]:
        """Per target group, rows by overlap m: m itself, the mean and the
        variance of the final m points, and 1.0 where m >= 2 and the
        variance passes the floor, else 0.0."""
        moments = {}
        for g in targets:
            n = int(self._n[g])
            p0 = self._start[self._rep[g]] + self._rep[g]
            pj, pj_sq = self._prefix[:, p0: p0 + n + 1]
            m = np.arange(n + 1.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                mu = (pj[n] - pj[n::-1]) / m
                var = (pj_sq[n] - pj_sq[n::-1]) / m - mu * mu
            moments[g] = np.stack([m, mu, var, (m >= 2) & (var > _SEGMENT_VAR_FLOOR)])
        return moments

    def _best_alignments(self, segments: list[tuple[int, int, np.ndarray]],
                         moments: dict[int, np.ndarray]) -> list[tuple[int, tuple]]:
        """(target, least (-r', source, tau)) of each (target group, source
        group, cross terms by tau) segment with a valid alignment, source
        being the source group's first member. One pass evaluates r' for
        every segment."""
        lo_w = self._lo
        cross = np.concatenate([terms for _, _, terms in segments])
        side_a = np.empty((4, cross.size))
        sums_b = np.empty((2, cross.size))
        at = 0
        for t, h, terms in segments:
            n, k = moments[t].shape[1] - 1, self._rep[h]
            # Overlap m = tau while tau <= n, then n: the source segment
            # [tau - m, tau) runs from the source's start, then slides.
            ramp = min(terms.size, max(n - lo_w + 1, 0))
            a, b, c = at, at + ramp, at + terms.size
            side_a[:, a:b] = moments[t][:, lo_w: lo_w + ramp]
            side_a[:, b:c] = moments[t][:, n: n + 1]
            base = self._start[k] + k
            e = base + lo_w
            np.subtract(self._prefix[:, e: e + ramp], self._prefix[:, base: base + 1],
                        out=sums_b[:, a:b])
            np.subtract(self._prefix[:, e + ramp: e + terms.size],
                        self._prefix[:, e + ramp - n: e + terms.size - n], out=sums_b[:, b:c])
            at = c
        m, mu_a, var_a, valid_a = side_a
        sum_b, sumsq_b = sums_b
        mu_b = sum_b / m
        var_b = sumsq_b / m - mu_b * mu_b
        valid = (valid_a != 0.0) & (var_b > _SEGMENT_VAR_FLOOR)
        with np.errstate(divide="ignore", invalid="ignore"):
            r = cross - m * mu_a * mu_b
            r /= m * np.sqrt(var_a * var_b)
        np.clip(r, -1.0, 1.0, out=r)
        r[~valid] = -np.inf
        found = []
        at = 0
        for t, h, terms in segments:
            # The first maximum: an equal r' at a later tau does not win.
            pos = int(np.argmax(r[at: at + terms.size]))
            if r[at + pos] > -np.inf:
                found.append((t, (-float(r[at + pos]), int(self._rep[h]), lo_w + pos)))
            at += terms.size
        return found

    def _cross_terms(self, lo: np.ndarray, hi: np.ndarray, targets: set[int]):
        """Yield lists of (target group, source group, cross terms by tau)
        segments, about _CHUNK alignments each, for the groups in
        ``targets`` over the unordered group pairs (lo[i], hi[i]), rank
        lo[i] <= hi[i].

        Each pair is one linear convolution, of reversed lo with hi, at the
        smallest 5-smooth length >= n_lo + n_hi - 1: the pair kernel. Target
        lo reads it at tau - 1 for its source's alignment tau, target hi at
        n_lo + n_hi - 1 - tau. Pairs that share a length share each series'
        spectrum, and an FFT batch holds up to 4 * _CHUNK values.
        """
        lo_w, w = self._lo, self.margin
        n_lo, n_hi = self._n[lo], self._n[hi]
        rungs = self._ladder[np.searchsorted(self._ladder, n_lo + n_hi - 1)]
        segments, size = [], 0
        for n_fft in np.unique(rungs):
            n_fft = int(n_fft)
            step = max(1, 4 * _CHUNK // n_fft)
            at = np.flatnonzero(rungs == n_fft)
            rows, row_of = np.unique(lo[at], return_inverse=True)
            cols, col_of = np.unique(hi[at], return_inverse=True)
            series = [self._values(g)[::-1] for g in rows] + [self._values(h) for h in cols]
            spectra = np.empty((len(series), n_fft // 2 + 1), dtype=complex)
            for first in range(0, len(series), step):
                batch = np.zeros((len(series[first: first + step]), n_fft))
                for row, values in enumerate(series[first: first + step]):
                    batch[row, : values.size] = values
                spectra[first: first + step] = np.fft.rfft(batch)
            for first in range(0, at.size, step):
                pick = slice(first, first + step)
                conv = np.fft.irfft(spectra[rows.size + col_of[pick]] * spectra[row_of[pick]],
                                    n_fft)
                for row, i in enumerate(at[pick]):
                    g, h, a, b = int(lo[i]), int(hi[i]), int(n_lo[i]), int(n_hi[i])
                    if g in targets and self._source[h]:
                        # A self pair stops at tau = n // 2, where the source
                        # segment stops overlapping the target's tail.
                        end = min(b - w, b // 2) if h == g else b - w
                        segments.append((g, h, conv[row, lo_w - 1: end]))
                        size += segments[-1][2].size
                    if h != g and h in targets and self._source[g]:
                        segments.append((h, g, conv[row, b + w - 1: a + b - lo_w][::-1]))
                        size += segments[-1][2].size
                    if size >= _CHUNK:
                        yield segments
                        segments, size = [], 0
        if segments:
            yield segments

    def _scan(self, lo: np.ndarray, hi: np.ndarray, targets: set[int]) -> dict[int, tuple]:
        """The least (-r', source, tau) per target group in ``targets`` over
        the unordered group pairs (lo[i], hi[i]), rank lo[i] <= hi[i]."""
        moments = self._moments(targets)
        best: dict[int, tuple] = {}
        for segments in self._cross_terms(lo, hi, targets):
            _merge(best, self._best_alignments(segments, moments))
        return best

    def _match(self, j: int, key: tuple | None) -> tuple[int, int, float, int] | None:
        if key is None:
            return None
        neg_r, k, tau = key
        return k, tau, -neg_r, min(tau, int(self._size[j]))

    def best_match(self, j: int) -> tuple[int, int, float, int] | None:
        """Best (source, tau, r', overlap) for target j, or None.

        Ties are resolved toward the smallest source index, then the
        smallest tau. Runs the pair kernel of ``best_matches`` on j's pairs.
        """
        g = int(self._group[j])
        if g < 0:
            return None
        h = np.flatnonzero(self._source)
        return self._match(j, self._scan(np.minimum(h, g), np.maximum(h, g), {g}).get(g))

    def _tile(self, a: int, b: int) -> dict[int, tuple]:
        """Scan the pairs of size-ordered blocks a <= b of _TILE groups each,
        every unordered pair with a source once."""
        rows = self._by_size[a * _TILE: (a + 1) * _TILE]
        cols = self._by_size[b * _TILE: (b + 1) * _TILE]
        x, y = np.triu_indices(rows.size) if a == b else np.indices((rows.size, cols.size))
        g, h = rows[x.ravel()], cols[y.ravel()]
        lo, hi = np.minimum(g, h), np.maximum(g, h)
        keep = self._source[lo] | self._source[hi]
        return self._scan(lo[keep], hi[keep], set(rows.tolist() + cols.tolist()))

    def best_matches(self, threads: int = 1) -> list[tuple[int, int, float, int] | None]:
        """``best_match(j)`` for every j, from one convolution per unordered
        pair of groups. ``indexed_map`` runs squares of tiles, longest series
        first so that the costliest start early, and the bests merge by
        (r' desc, source asc, tau asc): neither the tiling nor the thread
        count changes a bit of the result."""
        blocks = -(-self._n.size // _TILE)
        # Tiles per side of a square: at most 31 squares per side whatever
        # the size, enough to balance the workers while the bests the
        # squares return stay few (at most 2 * span * _TILE each).
        span = max(1, blocks // 16)
        squares = [(a, b) for b in reversed(range(0, blocks, span))
                   for a in reversed(range(0, b + 1, span))]

        def square(i: int) -> dict[int, tuple]:
            a0, b0 = squares[i]
            best: dict[int, tuple] = {}
            for b in range(b0, min(b0 + span, blocks)):
                for a in range(a0, min(a0 + span, b + 1)):
                    _merge(best, self._tile(a, b).items())
            return best

        # Every target group reads n - margin - lo + 1 alignments of each
        # source group (fewer of itself); every unordered pair of groups
        # with a source is scanned.
        sizes = np.where(self._source, self._n - self.margin - self._lo + 1, 0)
        only = int(self._n.size - self._source.sum())
        pairs = (self._n.size * (self._n.size + 1) - only * (only + 1)) // 2
        serial_s = pairs * _PAIR_S + self._n.size * int(sizes.sum()) * _ALIGNMENT_S
        best: dict[int, tuple] = {}
        for found in indexed_map(square, len(squares), threads, serial_s):
            _merge(best, found.items())
        return [self._match(j, best.get(int(g))) for j, g in enumerate(self._group)]


def _merge(best: dict[int, tuple], found: Iterable[tuple[int, tuple]]) -> None:
    """Keep the least (-r', source, tau) per target group: the highest r',
    ties to the smallest source, then the smallest tau."""
    for g, key in found:
        if g not in best or key < best[g]:
            best[g] = key


def find_global_matches(dataset: Dataset, threshold: float = DEFAULT_AUDIT_THRESHOLD,
                        threads: int = 1) -> list[GlobalMatch]:
    """Best global match per target, kept when r' reaches the threshold;
    ``build_leakage_report`` drops the excluded pairs."""
    results = GlobalScanEngine(dataset).best_matches(threads)
    matches = []
    for ts, best in zip(dataset, results):
        if best is not None and best[2] >= threshold:
            k, tau, r, overlap = best
            matches.append(GlobalMatch(target_id=ts.id, source_id=dataset.series[k].id,
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
                         bin_width: int = DEFAULT_BIN_WIDTH,
                         correlator_matches: Mapping[str, CorrelatorMatch] | None = None,
                         threads: int = 1) -> LeakageReport:
    """Run the complete audit and assemble a LeakageReport; the future-use
    fraction is None, with a warning, when a matched pair lacks a start date.
    The threshold and bin width are checked before the scan. Matches of an
    ``exclusions`` pair (target id, source id), one discarded by hand such as
    an alignment driven by a single large jump in both series, are dropped;
    pairs that name an id not in the dataset are counted in one warning."""
    check_audit_args(threshold, bin_width)
    exclusions = list(exclusions or ())
    unknown = [f"({t}, {s})" for t, s in exclusions if t not in dataset or s not in dataset]
    if unknown:
        warnings.warn(
            f"{len(unknown)} of {len(exclusions)} exclusion pairs name a series id not in the "
            f"dataset (first: {', '.join(unknown[:5])})"
        )
    unfiltered = find_global_matches(dataset, threshold=threshold, threads=threads)
    excluded = set(map(tuple, exclusions))
    matches = [m for m in unfiltered if (m.target_id, m.source_id) not in excluded]
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
    """Read an exclusion list CSV of (target_id, source_id) rows, in the
    format of ``dataset._csv_rows``. A first non-blank row whose first cell
    is a label (``j``, ``target``, ``target_id`` or ``id``) is a header;
    further columns are ignored. A row without a target and a source id is
    a LoadError naming the line."""
    rows = _csv_rows(path)
    first = next(rows)
    if first[1][0].strip().lower() not in ("j", "target", "target_id", "id"):
        rows = itertools.chain([first], rows)
    pairs = []
    for line, row in rows:
        pair = tuple(cell.strip() for cell in row[:2])
        if len(pair) < 2 or not all(pair):
            raise LoadError(f"{path}: row {line} needs a target id and a source id")
        pairs.append(pair)
    return pairs


def write_global_matches_csv(matches: Sequence[GlobalMatch],
                             categories: Mapping[str, Sequence[GlobalMatch]],
                             path: str | Path) -> None:
    """Write audit matches as ``j,k,tau,r,overlap,category``."""
    label_of = {}
    for label, entries in categories.items():
        for m in entries:
            label_of[(m.target_id, m.source_id, m.tau)] = label
    write_csv(path, ["j", "k", "tau", "r", "overlap", "category"],
              ([m.target_id, m.source_id, m.tau, repr(m.r_prime), m.overlap,
                label_of.get((m.target_id, m.source_id, m.tau), "")] for m in matches))


def write_histogram_csv(histogram: np.ndarray, bin_width: int, path: str | Path) -> None:
    """Write overlap-length bins as ``bin_start,bin_end,count``."""
    write_csv(path, ["bin_start", "bin_end", "count"],
              ([i * bin_width, (i + 1) * bin_width, int(count)]
               for i, count in enumerate(histogram)))

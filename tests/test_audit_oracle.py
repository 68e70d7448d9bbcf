"""``GlobalScanEngine.best_match`` against a brute-force oracle.

For every target the oracle evaluates every (source, tau) alignment in
(k, tau) order with ``global_cross_correlation`` (Pearson on the extracted
segments) and applies the scan's validity rule independently: overlap
m >= 2 and both segments' variances, on each series standardized by
``np.std``, above ``_SEGMENT_VAR_FLOOR``. The chosen r' must match the
oracle at the chosen alignment within 1e-9, and the chosen (k, tau) must be
the first whose oracle r' is within 1e-9 of the oracle maximum.

The inputs sit at the scan's edges: verbatim duplicate series (exact ties),
affine plants of one series' tail in another (r' of 1), runs whose
variance is half or twice the floor (some of them perfect copies, so a
missing mask would pick them), offsets up to 1e9, series shorter than
2 * margin (targets only) and constant series.

Near the floor r' is ill-conditioned in the scan's prefix-sum algebra: the
segment variance comes from differences of prefix sums of squares that
reach n, so its absolute error is up to about n^2 eps / m, and r' inherits
that divided by var. Where an alignment's bound exceeds 1e-10 it is held to
1e-9 plus that bound, and the tie rule is checked as "a maximum within the
bounds"; everywhere else the 1e-9 rule above applies exactly.
"""

from typing import NamedTuple

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrcast import Dataset, TimeSeries, analysis, global_cross_correlation
from corrcast.analysis import _SEGMENT_VAR_FLOOR, GlobalScanEngine

EPS = np.finfo(np.float64).eps
KINDS = ("walk", "walk", "noise", "floor", "floor", "constant")


class Alignment(NamedTuple):
    k: int
    tau: int
    r: float
    bound: float


def _standardized(v):
    return (v - v.mean()) / v.std() if v.size >= 2 and v.std() > 0.0 else None


def oracle(d: Dataset, j: int, margin: int) -> list[Alignment]:
    """Every valid alignment of target j, in (k, tau) order."""
    zs = [_standardized(ts.values) for ts in d]
    zj = zs[j]
    if zj is None:
        return []
    n_j = zj.size
    out = []
    for k, zk in enumerate(zs):
        if zk is None or zk.size < 2 * margin:
            continue
        for tau in range(margin, zk.size - margin + 1):
            m = min(n_j, tau)
            if m < 2:
                continue
            var = min(zj[n_j - m:].var(), zk[tau - m: tau].var())
            if var <= _SEGMENT_VAR_FLOOR:
                continue
            bound = max(n_j, zk.size) ** 2 * EPS / (m * var)
            out.append(Alignment(k, tau, global_cross_correlation(j, k, tau, d, margin), bound))
    return out


def assert_matches_oracle(best, alignments: list[Alignment], n_j: int):
    if not alignments:
        assert best is None
        return
    assert best is not None
    k, tau, r, overlap = best
    chosen = {(a.k, a.tau): a for a in alignments}.get((k, tau))
    assert chosen is not None, f"chose ({k}, {tau}), which the oracle rules invalid"
    assert overlap == min(n_j, tau)
    assert abs(r - chosen.r) <= 1e-9 + chosen.bound, (best, chosen)
    top = max(a.r for a in alignments)
    near = [a for a in alignments if a.r >= top - 1e-9]
    if max(a.bound for a in [chosen, *near]) <= 1e-10:
        assert (k, tau) == near[0][:2], (best, near[:3])
    else:
        assert all(a.r - a.bound <= chosen.r + chosen.bound + 1e-9 for a in alignments)


def _series(rng, kind, n, offset):
    if kind == "constant":
        # Integer levels, so the mean is exact and the series standardizes
        # to nothing.
        return np.full(n, float(rng.integers(-5, 6))) + offset
    if kind == "noise":
        return offset + rng.normal(0.0, 1.0, n)
    return offset + np.cumsum(rng.normal(0.0, 1.0, n))


def _floor_run(host, at, length, factor, pattern):
    """Overwrite host[at:at + length] with a level plus ``pattern`` scaled so
    the run's standardized variance is ``factor`` times the floor."""
    host[at: at + length] = host[at + length]
    scale = host.std() * np.sqrt(factor * _SEGMENT_VAR_FLOOR)
    host[at: at + length] += scale * (pattern - pattern.mean()) / pattern.std()


@st.composite
def datasets(draw):
    margin = draw(st.sampled_from([3, 5, 14]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    series = []
    for _ in range(draw(st.integers(2, 4))):
        kind = draw(st.sampled_from(KINDS))
        # Below 2 * margin a series is a target only; floor runs need room.
        if kind != "floor" and draw(st.integers(0, 3)) == 0:
            n = draw(st.sampled_from([2 * margin - 1, margin, 1]))
        else:
            n = draw(st.integers(4 * margin, 9 * margin))
        # Floor runs stay at offset 0: near 1e9 Pearson's own constancy floor,
        # 1e-12 of the mean, would rule them constant.
        offset = 0.0 if kind == "floor" else draw(st.sampled_from([0.0, 1e3, -1e6, 1e9]))
        values = _series(rng, "walk" if kind == "floor" else kind, n, offset)
        if kind == "floor":
            length = draw(st.integers(margin, 2 * margin))
            factor = draw(st.sampled_from([0.5, 2.0]))
            donor = series[0] if series else values
            if draw(st.booleans()) and donor.size >= length and donor.std() > 0.0:
                # A copy of the first series' final ``length`` points; at the
                # start it is perfect at tau = length, and only the floor
                # keeps it out.
                pattern = donor[-length:].copy()
            else:
                pattern = np.resize([1.0, -1.0], length)
            # Near the end, the prefix sums of squares the run's variance
            # comes from are large: there r' is ill-conditioned.
            at = draw(st.sampled_from([0, n - margin - length]))
            _floor_run(values, at, length, factor, pattern)
        series.append(values)
    # Affine plants of a series' tail (each tail at most once, so no two
    # distinct alignments tie), then verbatim duplicates (exact ties).
    tails = set()
    for _ in range(draw(st.integers(1, 3))):
        src = draw(st.integers(0, len(series) - 1))
        dst = draw(st.integers(0, len(series) - 1))
        length = min(draw(st.integers(margin, 3 * margin)), series[src].size)
        host = series[dst]
        if src in tails or host.size < length + margin or series[src][-length:].std() == 0.0:
            continue
        tails.add(src)
        # At 0 the plant is perfect: the alignment tau = length overlaps
        # exactly the copied tail.
        at = draw(st.sampled_from([0, host.size - margin - length]))
        host[at: at + length] = rng.uniform(0.5, 2.0) * series[src][-length:] + rng.uniform(-5, 5)
    for _ in range(draw(st.integers(0, 2))):
        original = series[draw(st.integers(0, len(series) - 1))]
        series.insert(draw(st.integers(0, len(series))), original.copy())
    # A small chunk splits the alignments, and every FFT batch, many ways, so
    # the tie rule is exercised across chunks too.
    chunk = draw(st.sampled_from([7, 64, analysis._CHUNK]))
    return Dataset([TimeSeries(f"S{i}", v) for i, v in enumerate(series)]), margin, chunk


@settings(max_examples=60, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(datasets())
def test_best_match_agrees_with_brute_force(case):
    d, margin, chunk = case
    engine = GlobalScanEngine(d, margin=margin)
    default, analysis._CHUNK = analysis._CHUNK, chunk
    try:
        for j, ts in enumerate(d):
            assert_matches_oracle(engine.best_match(j), oracle(d, j, margin), len(ts))
    finally:
        analysis._CHUNK = default

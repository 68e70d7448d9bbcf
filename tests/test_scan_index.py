"""The projection index must return exactly what the full scan returns.

``CorrelationEngine._scan`` answers from the sorted projection index when
the key range is sparse and falls back to the full scan when it is dense.
These tests force each path by patching the engine's private dense cut-off
and compare all five arrays with ``np.array_equal``, on inputs built to sit
at the edges of the index's error bounds: duplicate windows (tie order),
windows at the constancy floor, offsets and level shifts up to 1e9, steep
ramps, series too short to be sources, plants just around the thresholds,
and windows whose second index coordinate sits on the prune's radius. The
kernel's r is held to ``pearson`` within the r slack, a tail copy
straddling two series must never be a candidate, and the benchmark's
smooth corpus must take the full scan and keep its plants.
"""

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from corrcast import CorrelatorParams, Dataset, TimeSeries, pearson
from corrcast.correlator import _EMPTY_SCAN, _POS_MASK, CorrelationEngine, _dct_row
from corrcast._parallel import indexed_map
from corrcast.stats import ConstantInputError, _window_moments
from conftest import bench_corpus, make_multi_planted

THRESHOLDS = (1.0, 0.9999, 0.999, 0.99, 0.5)
KINDS = ("walk", "ramp", "floor", "shift")


def _tail_scan(engine, j, r_threshold):
    """The engine's scan of target j; no candidates for a degenerate tail."""
    tail = engine._tails[j]
    return _EMPTY_SCAN if tail is None else engine._scan(j, tail, r_threshold)


def _scan(engine, j, r_threshold, dense_fraction):
    engine._DENSE_FRACTION = dense_fraction
    try:
        return _tail_scan(engine, j, r_threshold)
    except ConstantInputError:
        return "constant query"
    finally:
        del engine._DENSE_FRACTION


def assert_paths_agree(engine, j, r_threshold):
    sparse = _scan(engine, j, r_threshold, np.inf)
    dense = _scan(engine, j, r_threshold, -1.0)
    if isinstance(dense, str) or isinstance(sparse, str):
        assert sparse == dense
        return
    for name, a, b in zip(("ks", "taus", "rs", "win_std", "cont_std"), sparse, dense):
        assert a.dtype == b.dtype, name
        assert np.array_equal(a, b), (name, j, r_threshold, a, b)


def _series(rng, kind, n, offset):
    if kind == "walk":
        return offset + np.cumsum(rng.normal(0.0, 1.0, n))
    if kind == "ramp":
        slope = 10.0 ** rng.uniform(0, 6)
        return offset + slope * np.arange(n) + rng.normal(0.0, 1.0, n)
    if kind == "floor":
        # A constant level whose windows sit just below or above the
        # constancy floor 1e-12 (1 + |mean|).
        floor = 1e-12 * (1.0 + abs(offset))
        factor = rng.choice([0.5, 0.99, 1.01, 2.0, 10.0, 1e3])
        return offset + floor * factor * rng.choice([-1.0, 1.0], n)
    step = np.where(np.arange(n) < n // 2, 0.0, 10.0 ** rng.uniform(0, 9))
    return offset + step + np.cumsum(rng.normal(0.0, 1.0, n))


@st.composite
def datasets(draw):
    w = draw(st.sampled_from([2, 5, 14]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_series = draw(st.integers(1, 5))
    series = []
    for _ in range(n_series):
        kind = draw(st.sampled_from(KINDS))
        # Lengths from w (a target only) past 2w (a source too).
        n = draw(st.integers(w, 12 * w))
        offset = draw(st.sampled_from([0.0, 1e3, -1e6, 1e9]))
        series.append(_series(rng, kind, n, offset))
    # Affine copies of targets' tails with noise, landing around the
    # thresholds, and verbatim duplicates of windows, whose equal r must
    # keep (k, tau) order.
    for _ in range(draw(st.integers(0, 4))):
        src = series[draw(st.integers(0, n_series - 1))]
        dst = series[draw(st.integers(0, n_series - 1))]
        if dst.size < 2 * w:
            continue
        at = draw(st.integers(0, dst.size - 2 * w))
        window = src[-w:] if draw(st.booleans()) else src[: w]
        noise = draw(st.sampled_from([0.0, 1e-6, 1e-4, 1e-3, 3e-2]))
        scale = np.std(window) or 1.0
        dst[at : at + w] = (rng.uniform(0.5, 2.0) * window + rng.uniform(-5, 5)
                            + rng.normal(0.0, noise * scale, w))
    params = CorrelatorParams(w=w, include_self=draw(st.booleans()))
    data = Dataset([TimeSeries(f"S{i}", v) for i, v in enumerate(series)])
    return data, params


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(datasets())
def test_index_matches_full_scan(case):
    data, params = case
    engine = CorrelationEngine(data, params)
    for j in range(len(data)):
        for r_threshold in THRESHOLDS:
            assert_paths_agree(engine, j, r_threshold)


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(datasets())
def test_kernel_r_within_slack_of_pearson(case):
    """Every eligible window's r, from the full scan at threshold -1, is
    within the r slack of ``pearson`` where the slack's bound holds."""
    data, params = case
    engine = CorrelationEngine(data, params)
    w = params.w
    for j, target in enumerate(data):
        scan = _scan(engine, j, -1.0, -1.0)
        if isinstance(scan, str) or engine._tails[j] is None:
            continue
        ks, taus, rs, win_std, _ = scan
        for k, tau, r, std in zip(ks.tolist(), taus.tolist(), rs.tolist(), win_std.tolist()):
            source = data.series[k].values
            if std * engine._COND_MAX < np.abs(source).max():
                continue
            try:
                want = pearson(target.values[-w:], source[tau - w : tau])
            except ConstantInputError:
                continue
            assert abs(r - want) <= engine._r_slack, (j, k, tau, r, want)


def _reflected_pairs(rng, engine, w, offset, r_threshold):
    """(tail, window) shapes, each window the tail reflected across the
    plane normal to the second index direction u2: the two differ only
    along u2, by exactly the radius sqrt(2w(1 - r)) at their r. The r run
    over r_threshold + k r_slack, k = -2..2, capped at 1."""
    u2 = engine._u2
    pairs = []
    for k in range(-2, 3):
        r = min(1.0, r_threshold + k * engine._r_slack)
        v = rng.normal(0.0, 1.0, w)
        v -= v.mean() + np.dot(v, u2) * u2
        v /= np.sqrt(np.dot(v, v)) or 1.0
        c = np.sqrt(w * (1.0 - r) / 2.0)
        qhat = c * u2 + np.sqrt(w - c * c) * v
        scale = 10.0 ** rng.uniform(-2, 3)
        pairs.append((offset + scale * qhat,
                      offset + rng.uniform(-5, 5) + scale * rng.uniform(0.5, 2.0)
                      * (qhat - 2 * c * u2)))
    return pairs


@pytest.mark.parametrize("w", [2, 3, 5, 14])
@pytest.mark.parametrize("offset", [0.0, 1e3, -1e6, 1e9])
def test_windows_on_the_second_coordinates_bound(rng, w, offset):
    """Windows at r = t +- a few r slacks whose whole distance from the
    query lies along u2, so their second coordinate sits on the prune's
    radius. The paths agree on every target at every threshold; with w = 2,
    where u2 = 0, every window is a copy and every coordinate is 0."""
    engine = CorrelationEngine(Dataset([TimeSeries("x", rng.normal(0.0, 1.0, 2 * w))]),
                               CorrelatorParams(w=w))
    if w == 2:
        assert not engine._u2.any()
    targets, hosts = [], []
    for r_threshold in THRESHOLDS:
        for tail, window in _reflected_pairs(rng, engine, w, offset, r_threshold):
            filler = offset + np.cumsum(rng.normal(0.0, np.std(tail) or 1.0, 3 * w))
            targets.append(np.concatenate([filler, tail]))
            hosts.extend([filler, window])
    hosts.append(offset + np.cumsum(rng.normal(0.0, 1.0, 3 * w)))
    data = Dataset([TimeSeries(f"T{i}", v) for i, v in enumerate(targets)]
                   + [TimeSeries("H", np.concatenate(hosts))])
    engine = CorrelationEngine(data, CorrelatorParams(w=w))
    assert engine._coord2.dtype == np.int16
    if w == 2:
        assert not engine._coord2.any()
    for j in range(len(targets)):
        for r_threshold in THRESHOLDS:
            assert_paths_agree(engine, j, r_threshold)


@pytest.mark.parametrize("split", range(1, 14))
def test_copy_straddling_two_series_is_never_a_candidate(rng, split):
    """A perfect copy of the target's tail that runs from the end of one
    series into the start of the next is contiguous in the flat centered
    array, but it is no window of either series."""
    w = 14
    tail = rng.normal(0.0, 1.0, w)
    tail -= tail.mean()
    # Both hosts have mean 0, so the copy's centered values are the tail's.
    head = np.cumsum(rng.normal(0.0, 1.0, 80))
    head -= (head.sum() + tail[:split].sum()) / head.size
    rest = np.cumsum(rng.normal(0.0, 1.0, 80))
    rest -= (rest.sum() + tail[split:].sum()) / rest.size
    data = Dataset([TimeSeries("T", np.concatenate([rng.normal(0.0, 1.0, 40), tail + 5.0])),
                    TimeSeries("A", np.concatenate([head, tail[:split]])),
                    TimeSeries("B", np.concatenate([tail[split:], rest]))])
    engine = CorrelationEngine(data, CorrelatorParams(w=w))
    start = engine.offsets[2] - split
    assert np.allclose(engine._centered[start : start + w], tail)
    for dense_fraction in (np.inf, -1.0):
        ks, taus, _, _, _ = _scan(engine, 0, 0.9999, dense_fraction)
        assert ks.size == 0, (dense_fraction, ks, taus)


def test_smooth_corpus_takes_the_full_scan(tmp_path):
    """On the sweep-smooth corpus (near-linear tails) the default cut-off
    sends most targets to the full scan at r >= 0.99; both paths agree and
    every planted copy is a candidate."""
    corpus = bench_corpus().generate("sweep-smooth", 0, tmp_path)
    data = corpus.dataset
    engine = CorrelationEngine(data, CorrelatorParams())
    full_scan = engine._full_scan
    calls = []
    engine._full_scan = lambda *a: calls.append(a) or full_scan(*a)
    found = {}
    for j in range(len(data)):
        ks, taus, _, _, _ = _tail_scan(engine, j, 0.99)
        found[data.series[j].id] = {(data.series[k].id, t) for k, t in zip(ks.tolist(), taus.tolist())}
    assert len(calls) >= 0.75 * len(data)
    del engine._full_scan
    for p in corpus.truth["window_plants"]:
        assert (p["source"], p["tau"]) in found[p["target"]], p
    for j in range(len(data)):
        assert_paths_agree(engine, j, 0.99)


def test_planted_random_walks_take_the_index(rng):
    """On random walks with planted copies the default cut-off takes the
    sparse path, finds every plant and agrees with the full scan."""
    data, plants = make_multi_planted(rng, n_series=6)
    walks = [TimeSeries(f"W{i}", np.cumsum(rng.normal(0.0, 1.0, 3000))) for i in range(20)]
    data = Dataset(list(data) + walks)
    engine = CorrelationEngine(data, CorrelatorParams())
    calls = []
    engine._full_scan = lambda *a: calls.append(a)
    for sid, plant in plants.items():
        j = data.position(sid)
        ks, taus, _, _, _ = _tail_scan(engine, j, 0.9999)
        assert (plant.source_index, plant.tau) in set(zip(ks.tolist(), taus.tolist()))
    assert calls == []
    del engine._full_scan
    for j in range(len(data)):
        for r_threshold in THRESHOLDS:
            assert_paths_agree(engine, j, r_threshold)


def test_ill_conditioned_windows_are_always_rescored():
    """Windows whose std is tiny against the series' magnitude bypass the
    index bounds; they are still found."""
    w = 14
    rng = np.random.default_rng(7)
    tail = rng.normal(0.0, 1.0, w)
    host = np.full(200, 1e9)
    host[50 : 50 + w] += 0.1 * tail
    host[120:] += rng.normal(0.0, 1e3, 80)
    data = Dataset([TimeSeries("T", np.concatenate([rng.normal(0.0, 1.0, 30), tail])),
                    TimeSeries("H", host)])
    engine = CorrelationEngine(data, CorrelatorParams(w=w))
    assert engine._loose.size > 0
    ks, taus, rs, _, _ = _tail_scan(engine, 0, 0.9999)
    assert (1, 50 + w) in set(zip(ks.tolist(), taus.tolist()))
    for r_threshold in THRESHOLDS:
        assert_paths_agree(engine, 0, r_threshold)


@pytest.mark.parametrize("include_self", [True, False])
def test_self_matches_follow_include_self(rng, include_self):
    w = 14
    vals = np.cumsum(rng.normal(0.0, 1.0, 400))
    vals[100 : 100 + w] = 3.0 * vals[-w:] + 1.0
    data = Dataset([TimeSeries("A", vals),
                    TimeSeries("B", np.cumsum(rng.normal(0.0, 1.0, 400)))])
    engine = CorrelationEngine(data, CorrelatorParams(include_self=include_self))
    ks, taus, _, _, _ = _tail_scan(engine, 0, 0.9999)
    assert ((0, 100 + w) in set(zip(ks.tolist(), taus.tolist()))) == include_self
    for r_threshold in THRESHOLDS:
        assert_paths_agree(engine, 0, r_threshold)


@pytest.mark.parametrize("w", [2, 5, 14, 40])
def test_window_mean_matches_rolling_stats(rng, w):
    """The walk maps a match with its window's mean from a one-row stack;
    the build takes every rolling window's moments from a strided stack.
    The kernel gives both the same bits, and so the query too."""
    rows = np.stack([_dct_row(w, 1), _dct_row(w, 2)])
    for offset in (0.0, 1e3, -1e6, 1e9):
        x = offset + np.cumsum(rng.normal(0.0, 10.0 ** rng.uniform(-6, 3), 300))
        stack = _window_moments(sliding_window_view(x, w), rows)
        for s in range(0, x.size - w + 1, 7):
            one = _window_moments(x[None, s : s + w].copy(), rows)
            assert all(np.array_equal(a[..., s], b[..., 0]) for a, b in zip(stack, one)), s


def _level_windows(rng, w, level, factors):
    """A series at ``level`` whose consecutive w-point stretches alternate
    +-a (w even), so each such window has mean ``level`` and std a, for a
    = factor times the constancy floor at that level; noise between them."""
    floor = 1e-12 * (1.0 + abs(level))
    parts = []
    for factor in factors:
        parts.append(level + factor * floor * np.tile([1.0, -1.0], w // 2))
        parts.append(level + rng.normal(0.0, 1.0, w))
    return np.concatenate(parts + [level + rng.normal(0.0, 1.0, 2 * w)])


def _edge_corpus(rng, kind, w):
    """Corpora at the edges of the build's rules, as lists of series."""
    def walk(n, level=0.0):
        return level + np.cumsum(rng.normal(0.0, 1.0, n))

    if kind == "ragged":
        # Too short to be a window, too short to be a source (w .. 2w - 1),
        # exactly one source window (2w), and longer.
        return [walk(n, 1e3) for n in (w - 1, w, 2 * w - 1, 2 * w, 2 * w + 1, 7 * w, 3)]
    if kind == "short_total":
        return [walk(3), walk(w - 4)]
    if kind == "floor":
        # Windows at half and twice the constancy floor, at small and large levels.
        return [_level_windows(rng, w, level, (0.5, 2.0, 0.5, 2.0)) for level in (0.0, 1e9)]
    if kind == "zeros":
        # A run of 2w zeros far below its series' mean: its w + 1 windows are
        # constant however the series is centered.
        return [np.concatenate([walk(3 * w, 1e6), np.zeros(2 * w), walk(3 * w, 1e6)]), walk(4 * w)]
    if kind == "cond":
        # Windows whose std sits just either side of max|series| / _COND_MAX.
        peak = 1e8
        series = [walk(6 * w, peak)]
        for factor in (0.9, 0.99, 1.01, 1.1):
            a = factor * peak / CorrelationEngine._COND_MAX
            series.append(np.concatenate([walk(3 * w), peak - a * np.tile([1.0, -1.0], w // 2),
                                          walk(3 * w)]))
        return series
    # A target and copies of its tail split at every point across a pair of
    # neighbours.
    tail = walk(w)
    series = [np.concatenate([walk(2 * w), tail])]
    for i in range(1, w):
        series += [np.concatenate([walk(3 * w), tail[:i]]), np.concatenate([tail[i:], walk(3 * w)])]
    return series


def _rule_masks(engine, data, w):
    """(eligible, tight) flat masks from each window's own two-pass moments
    and the rules as stated: a source window is valid (std above the floor
    of its mean) and non-terminal; it is tight when std * _COND_MAX reaches
    max|series|."""
    eligible = np.zeros(engine.offsets[-1], dtype=bool)
    tight = eligible.copy()
    for ts, a in zip(data, engine.offsets[:-1]):
        for t in range(len(ts) - 2 * w + 1):
            win = ts.values[t : t + w]
            std = np.sqrt(np.mean((win - win.mean()) ** 2))
            eligible[a + t] = std > 1e-12 * (1.0 + abs(win.mean()))
            tight[a + t] = eligible[a + t] and std * engine._COND_MAX >= np.abs(ts.values).max()
    return eligible, tight


@pytest.mark.parametrize("kind", ["ragged", "short_total", "floor", "zeros", "cond", "straddle"])
def test_build_rules_on_edge_corpora(rng, pool, kind):
    """The build's eligible and tight windows are those of the rules applied
    window by window; windows that run into the next series have std 0 and
    are never eligible; both scan paths agree, and the candidates are the
    same at one thread and in a pool of two."""
    w = 14
    data = Dataset([TimeSeries(f"S{i}", v) for i, v in enumerate(_edge_corpus(rng, kind, w))])
    engine = CorrelationEngine(data, CorrelatorParams(w=w))
    eligible, tight = _rule_masks(engine, data, w)
    assert np.array_equal(engine._valid, eligible)
    assert np.array_equal(np.sort(engine._index & _POS_MASK), np.flatnonzero(tight))
    assert np.array_equal(engine._loose, np.flatnonzero(eligible & ~tight))
    for end in engine.offsets[1:]:
        assert not engine._std[max(end - w + 1, 0) : end].any()
    if kind == "floor":
        # The alternating stretches start every 2w points: half, twice, half, twice.
        for a in engine.offsets[:-1]:
            assert engine._valid[a : a + 8 * w : 2 * w].tolist() == [False, True, False, True]
    if kind == "cond":
        # Below the edge (0.9, 0.99) loose, above it (1.01, 1.1) tight.
        starts = (engine.offsets[1:-1] + 3 * w).tolist()
        assert engine._valid[starts].all()
        assert [p in engine._loose for p in starts] == [True, True, False, False]
    if kind == "short_total":
        assert not eligible.any()
    if kind == "zeros":
        assert not engine._valid[3 * w : 4 * w + 1].any()
    for j in range(len(data)):
        for r_threshold in THRESHOLDS:
            assert_paths_agree(engine, j, r_threshold)
    cands = [indexed_map(lambda j: engine.candidates(j, 0.99), len(data), threads,
                         engine.sweep_seconds(0.99))
             for threads in (1, 2)]
    assert all(np.array_equal(a, b) for one, two in zip(*cands) for a, b in zip(one, two))

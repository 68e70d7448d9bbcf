"""Numeric kernels: Pearson correlation, rolling window stats and the
window-correlation kernel of the correlator's scan.

The forecaster's scan correlates a short query (typically 13-14 points)
against every window of a series, from window stds precomputed once per
(series, window length). r comes from one kernel, ``_window_r``: one
column pass per query term over all windows at once, which for such short
windows beats FFT-based schemes. Its fixed summation order makes a window's
r independent of how windows are batched, so the correlator's two scan
paths give the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ConstantInputError(ValueError):
    """Correlation is undefined because an input has zero standard deviation."""


def _std_floor(mean: np.ndarray | float) -> np.ndarray | float:
    """Threshold below which a window is treated as constant."""
    return 1e-12 * (1.0 + np.abs(mean))


@dataclass(frozen=True)
class RollingStats:
    """Per-window mean/std (population, divisor n) for all length-w windows.

    ``valid`` marks windows whose std exceeds the constancy floor; constant
    windows have undefined correlation and are excluded from scans.
    """

    w: int
    mean: np.ndarray
    std: np.ndarray
    valid: np.ndarray


def pearson(a, b) -> float:
    """Pearson correlation of two equal-length vectors, clamped to [-1, 1].

    Uses the population definition of std (divisor n). Raises
    ConstantInputError when either vector is constant.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError(f"expected equal-length 1-D vectors, got {a.shape} and {b.shape}")
    if a.size < 2:
        raise ValueError("correlation needs at least 2 points")
    da = a - a.mean()
    db = b - b.mean()
    na = np.sqrt(np.dot(da, da))
    nb = np.sqrt(np.dot(db, db))
    sqn = np.sqrt(a.size)
    if na / sqn <= _std_floor(a.mean()) or nb / sqn <= _std_floor(b.mean()):
        raise ConstantInputError("correlation undefined: constant input vector")
    r = np.dot(da, db) / (na * nb)
    return float(min(1.0, max(-1.0, r)))


def rolling_stats(series, w: int) -> RollingStats:
    """Mean/std of every length-w window of ``series``.

    Computed by the direct two-pass formula per window (vectorized), so the
    results match a per-window recomputation to within rounding even for
    large offsets; no prefix-sum cancellation is involved.
    """
    series = np.asarray(series, dtype=np.float64)
    if w < 1:
        raise ValueError(f"window length must be positive, got {w}")
    if series.size < w:
        raise ValueError(f"series length {series.size} < window length {w}")
    windows = sliding_window_view(series, w)
    mean = windows.mean(axis=1)
    dev = windows - mean[:, None]
    std = np.sqrt(np.einsum("ij,ij->i", dev, dev) / w)
    valid = std > _std_floor(mean)
    mean.flags.writeable = False
    std.flags.writeable = False
    valid.flags.writeable = False
    return RollingStats(w=w, mean=mean, std=std, valid=valid)


def _window_r(windows: np.ndarray, std: np.ndarray, qhat: np.ndarray) -> np.ndarray:
    """r of every row of ``windows`` (globally centered values, a view or a
    gathered copy) against a normalized query: sum_i qhat[i] * windows[:, i]
    / (w * std), the products summed left to right, clipped to [-1, 1].
    Rows whose std is 0 get NaN or +-1; callers mask invalid windows.
    """
    w = qhat.size
    acc = windows[:, 0] * qhat[0]
    term = np.empty_like(acc)
    for i in range(1, w):
        acc += np.multiply(windows[:, i], qhat[i], out=term)
    with np.errstate(divide="ignore", invalid="ignore"):
        acc /= w * std
    return np.clip(acc, -1.0, 1.0, out=acc)


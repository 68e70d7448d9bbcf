"""Numeric kernels: Pearson correlation, window moments and the
window-correlation kernel of the correlator's scan.

The correlator compares a short query (typically 14 points) with every
window of every series. Two kernels serve it in column passes over a stack
of windows (a strided view or a gathered copy), which for such short
windows beat FFT-based and per-window schemes: ``_window_moments`` gives
each window's mean, std and index coordinates, ``_window_r`` its r against
a normalized query. Each sums a row's terms left to right, so a row gets
the same bits in any stack: the build's blocks of raw values and a matched
window's one-row copy give it the same mean, and both scan paths the same r.
"""

from __future__ import annotations

import numpy as np


class ConstantInputError(ValueError):
    """Correlation is undefined because an input has zero standard deviation."""


def _std_floor(mean: np.ndarray | float) -> np.ndarray | float:
    """Threshold below which a window is treated as constant."""
    return 1e-12 * (1.0 + np.abs(mean))


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


def _window_moments(windows: np.ndarray, rows=()) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean, population std and the dot products of the deviations with
    each of ``rows`` (length-w vectors) of every row of ``windows``, an
    (m, w) stack. The mean sums the columns left to right, then one pass per
    column accumulates the squared deviations and the products. A row with
    all-equal values has std 0 when its sum is exact, and otherwise at most
    about w eps times its mean, below ``_std_floor``.
    """
    w = windows.shape[1]
    mean = windows[:, 0].copy()
    for i in range(1, w):
        mean += windows[:, i]
    mean /= w
    dots = np.zeros((len(rows), mean.size))
    var = np.zeros_like(mean)
    dev = np.empty_like(mean)
    term = np.empty_like(mean)
    for i in range(w):
        np.subtract(windows[:, i], mean, out=dev)
        for dot, u in zip(dots, rows):
            dot += np.multiply(dev, u[i], out=term)
        var += np.multiply(dev, dev, out=term)
    var /= w
    return mean, np.sqrt(var, out=var), dots


def _window_r(windows: np.ndarray, std: np.ndarray, qhat: np.ndarray,
              out: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """r of every row of ``windows`` (globally centered values, a view or a
    gathered copy) against a normalized query: sum_i qhat[i] * windows[:, i]
    / (w * std), the products summed left to right, clipped to [-1, 1].
    Rows whose std is 0 get NaN or +-1; callers mask invalid windows.

    ``out`` is a pair of float64 buffers of at least one entry per row, which
    the scans reuse: the result is a view of the first, the second holds the
    terms and the divisor, and the call allocates no array of its own.
    """
    m, w = windows.shape[0], qhat.size
    acc, term = (b[:m] for b in out)
    np.multiply(windows[:, 0], qhat[0], out=acc)
    for i in range(1, w):
        acc += np.multiply(windows[:, i], qhat[i], out=term)
    with np.errstate(divide="ignore", invalid="ignore"):
        acc /= np.multiply(std, w, out=term)
    return np.clip(acc, -1.0, 1.0, out=acc)


"""Deterministic parallel mapping over series indices.

Work is distributed by forking, so the callable and any large shared state
(datasets, precomputed statistics) are inherited copy-on-write instead of
being pickled. Results are returned in index order, making the output
independent of the worker count.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import warnings
from concurrent.futures import ProcessPoolExecutor

_WORK = None


def _invoke(i):
    return _WORK(i)


def check_threads(threads: int) -> int:
    """Return ``threads``; raise ValueError when it is below 1."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def indexed_map(work, n: int, threads: int = 1) -> list:
    """Return [work(0), ..., work(n-1)], optionally computed in parallel;
    ValueError for ``threads`` below 1."""
    if check_threads(threads) == 1 or n <= 1:
        return [work(i) for i in range(n)]
    try:
        ctx = mp.get_context("fork")
    except ValueError:
        warnings.warn("fork start method unavailable; running sequentially")
        return [work(i) for i in range(n)]
    global _WORK
    _WORK = work
    try:
        workers = min(threads, n, os.cpu_count() or 1)
        chunk = max(1, n // (workers * 8))
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as ex:
            return list(ex.map(_invoke, range(n), chunksize=chunk))
    finally:
        _WORK = None

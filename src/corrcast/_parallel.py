"""Deterministic parallel mapping over series indices.

Work is distributed by forking, so the callable and any large shared state
(datasets, precomputed statistics) are inherited copy-on-write instead of
being pickled. Results are returned in index order, making the output
independent of the worker count.

A pool starts only when the caller's estimate of the map's one-thread time
reaches ``_POOL_BREAK_EVEN_S``. Each caller derives that estimate from its
input alone, so whether an input forks does not depend on the machine's
load.

Warnings are independent of it too. A worker records the warnings each call
raises and returns them with the result; the parent emits them again in
index order, through the registry of the module that raised them, so each is
shown or suppressed as it would be in one process.
"""

from __future__ import annotations

import os
import sys
import warnings

_WORK = None

# One-thread seconds from which a map forks. On a 2-vCPU VM the first pool
# of a process costs 30-40 ms before its first item (importing
# multiprocessing and concurrent.futures, forking two workers: 20 trivial
# items in 6 fresh processes), and its workers then take copy-on-write
# faults on the shared state, about 4k minor faults on sweep-smooth's scan.
# Two workers ran that 0.37 s scan in 0.23-0.52 s, and the correlator scan
# and ensemble of 1000 M4-like walks 1.3 and 1.4 times faster than one
# (medians of 10). At a speedup of 1.3 a map of S seconds saves
# S (1 - 1/1.3) - 0.035 s, which is positive from 0.15 s.
_POOL_BREAK_EVEN_S = 0.15


def _invoke(i):
    with warnings.catch_warnings(record=True) as caught:
        result = _WORK(i)
    return result, [(w.category, str(w.message), w.filename, w.lineno) for w in caught]


def _replay(caught, modules: dict) -> None:
    """Emit warnings recorded in a worker as if raised here, where they were."""
    for category, text, filename, lineno in caught:
        if filename not in modules:
            modules[filename] = next((m for m in list(sys.modules.values())
                                      if getattr(m, "__file__", None) == filename), None)
        module = modules[filename]
        if module is None:
            warnings.warn_explicit(text, category, filename, lineno)
        else:
            warnings.warn_explicit(text, category, filename, lineno, module=module.__name__,
                                   registry=vars(module).setdefault("__warningregistry__", {}),
                                   module_globals=vars(module))


def check_threads(threads: int) -> int:
    """Return ``threads``; raise ValueError when it is below 1."""
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    return threads


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one, else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def indexed_map(work, n: int, threads: int, serial_s: float) -> list:
    """Return [work(0), ..., work(n-1)], optionally computed in parallel;
    ValueError for ``threads`` below 1.

    ``serial_s`` is the caller's estimate of the map's time on one thread.
    The workers are capped by ``threads``, ``n`` and the CPUs this process
    may use. The map forks only when that leaves more than one worker and
    ``serial_s`` reaches ``_POOL_BREAK_EVEN_S``; otherwise it runs in this
    process.
    """
    workers = min(check_threads(threads), n, _usable_cpus())
    if workers <= 1 or serial_s < _POOL_BREAK_EVEN_S:
        return [work(i) for i in range(n)]
    # Imported here, so that a serial run never loads them.
    import multiprocessing as mp
    from concurrent.futures import ProcessPoolExecutor

    try:
        ctx = mp.get_context("fork")
    except ValueError:
        warnings.warn("fork start method unavailable; running sequentially")
        return [work(i) for i in range(n)]
    global _WORK
    _WORK = work
    try:
        chunk = max(1, n // (workers * 8))
        results, modules = [], {}
        with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as ex:
            for result, caught in ex.map(_invoke, range(n), chunksize=chunk):
                _replay(caught, modules)
                results.append(result)
        return results
    finally:
        _WORK = None

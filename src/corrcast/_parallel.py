"""Deterministic parallel mapping over series indices.

Work is distributed by forking, so the callable and any large shared state
(datasets, precomputed statistics) are inherited copy-on-write instead of
being pickled. Results are returned in index order, making the output
independent of the worker count.

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


def indexed_map(work, n: int, threads: int = 1, min_saved: int = 1) -> list:
    """Return [work(0), ..., work(n-1)], optionally computed in parallel;
    ValueError for ``threads`` below 1.

    The workers are capped by ``threads``, ``n`` and the CPUs this process
    may use. The map runs in this process unless a pool would take at
    least ``min_saved`` items off it: n less the most items one worker
    gets. So a map that would get one worker never forks.
    """
    workers = min(check_threads(threads), n, _usable_cpus())
    if workers <= 1 or n - -(-n // workers) < min_saved:
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

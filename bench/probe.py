"""Set-up probe, run in a fresh untraced process.

    python bench/probe.py <workload> <corpus_dir>

Imports ``corrcast.cli``, loads the workload's inputs and builds every
engine its command builds, then prints one JSON line with the time of each
step and the rise in peak RSS across ``GlobalScanEngine(...)``. The parent
times the whole process from spawn to exit as ``setup_s``.
"""

import json
import os
import resource
import sys
import time


def _maxrss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(workload, corpus):
    t0 = time.perf_counter()
    import corrcast.cli  # noqa: F401  (the import the command pays for)
    from corrcast.analysis import GlobalScanEngine
    from corrcast.correlator import CorrelationEngine, CorrelatorParams
    from corrcast.dataset import attach_meta, load_m4_info, load_m4_values, read_forecast_csv

    t1 = time.perf_counter()
    dataset = load_m4_values(os.path.join(corpus, "values.csv"))
    if workload in ("forecast-rw", "audit-leaky"):
        dataset = attach_meta(dataset, load_m4_info(os.path.join(corpus, "info.csv")))
    if workload == "sweep-smooth":
        read_forecast_csv(os.path.join(corpus, "test.csv"))
    t2 = time.perf_counter()
    if workload != "validate-short":
        engine = CorrelationEngine(dataset, CorrelatorParams())
        del engine
    t3 = time.perf_counter()
    rss_rise = 0.0
    if workload == "audit-leaky":
        before = _maxrss_mb()
        engine = GlobalScanEngine(dataset)
        rss_rise = _maxrss_mb() - before
    t4 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "load_s": t2 - t1, "correlator_build_s": t3 - t2,
                      "analysis_build_s": t4 - t3, "analysis_build_rss_mb": rss_rise}))


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])

"""In-process traced run: the calls each workload's CLI command makes, in the
same order, with a span around each call.

A span records name, start, end, parent span and run id. Spans stay in
memory until the benchmark writes them out. Per-target calls
(``engine.forecast``, ``engine.sweep``, ``engine.best_match``) run one after
another in this process, so each gets its own span; ``pipeline_forecast``
runs at the workload's thread count, like the command. Only public corrcast
functions are called. CLI-private writes (provenance, JSON reports,
``sweep.csv``) are not mirrored; they show in no layer.
"""

from __future__ import annotations

import contextlib
import time
import warnings
from pathlib import Path

import numpy as np

from corpus import AUDIT_MARGIN, AUDIT_THRESHOLD, HORIZON, W


def _cli_defaults(*argv):
    from corrcast.cli import build_parser

    return build_parser().parse_args([*argv, "--data", "-", "--out", "-"])


# The grids and bin width the commands use when run without those flags.
_SWEEP = _cli_defaults("sweep", "--test", "-")
SWEEP_COMBOS = [(float(r), None if s == "none" else float(s))
                for r in _SWEEP.r_grid.split(",") for s in _SWEEP.std_grid.split(",")]
AUDIT_BIN_WIDTH = _cli_defaults("audit").bin_width


class Tracer:
    """Span recorder; a disabled tracer records nothing and adds only a
    no-op context manager per call."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = None

    def span(self, name: str):
        if self.run_id is None:
            return contextlib.nullcontext()
        return self._span(name)

    @contextlib.contextmanager
    def _span(self, name):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _correlate(tr, dataset, params):
    """run_correlator with one span per target."""
    from corrcast.correlator import CorrelationEngine

    with tr.span("correlator.run"):
        with tr.span("correlator.build"):
            engine = CorrelationEngine(dataset, params)
        results = []
        for j in range(len(dataset)):
            with tr.span("correlator.target"):
                results.append(engine.forecast(j))
        matches = {ts.id: m for ts, m in zip(dataset, results) if m is not None}
    return engine, matches


def _load(tr, corpus, info):
    from corrcast import attach_meta, load_m4_info, load_m4_values

    with tr.span("dataset.load"):
        dataset = load_m4_values(corpus / "values.csv")
        if info:
            dataset = attach_meta(dataset, load_m4_info(corpus / "info.csv"))
    return dataset


def mirror_forecast(tr, corpus: Path, out: Path, threads: int) -> dict:
    """cmd_forecast: forecast --info --threads N."""
    from corrcast import CorrelatorParams, PipelineConfig, pipeline_forecast, write_forecast_csv
    from corrcast.correlator import write_matches_csv

    with tr.span("cli.forecast"):
        dataset = _load(tr, corpus, info=True)
        params = CorrelatorParams()
        engine, matches = _correlate(tr, dataset, params)
        with tr.span("ensemble.pipeline"):
            forecasts = pipeline_forecast(dataset, PipelineConfig(correlator=params),
                                          threads=threads, precomputed_matches=matches)
        with tr.span("dataset.write"):
            write_forecast_csv({sid: fc.values for sid, fc in forecasts.items()},
                               out / "forecast.csv")
            write_matches_csv(matches, out / "correlator_matches.csv")
    return {"dataset": dataset, "engine": engine, "loosest_r": params.r_threshold,
            "accepted": len(matches),
            "member_inputs": [(ts.values, ts.horizon) for ts in dataset if ts.id not in matches]}


def mirror_sweep(tr, corpus: Path, out: Path, threads: int) -> dict:
    """cmd_sweep: sweep over the default r and std grids."""
    from corrcast import CorrelatorParams, HoldoutSplit, naive_forecast, owa_report, read_forecast_csv
    from corrcast.correlator import CorrelationEngine

    with tr.span("cli.sweep"):
        dataset = _load(tr, corpus, info=False)
        with tr.span("dataset.load"):
            test = read_forecast_csv(corpus / "test.csv")
        with tr.span("correlator.run"):
            with tr.span("correlator.build"):
                engine = CorrelationEngine(dataset, CorrelatorParams())
            per_target = []
            for j in range(len(dataset)):
                with tr.span("correlator.sweep_target"):
                    per_target.append(engine.sweep(j, SWEEP_COMBOS))
            results = [{ts.id: row[c] for ts, row in zip(dataset, per_target) if row[c] is not None}
                       for c in range(len(SWEEP_COMBOS))]
        split = HoldoutSplit(train=dataset, test=test)
        for matches in results:
            scored = {sid: m for sid, m in matches.items() if sid in test}
            if not scored:
                continue
            fcs = {sid: np.maximum(m.forecast[: len(test[sid])], 0.0) for sid, m in scored.items()}
            benchmark = {sid: naive_forecast(dataset[sid].values, len(test[sid])) for sid in scored}
            with tr.span("metrics.owa_report"):
                owa_report(fcs, benchmark, split, m=1)
    return {"dataset": dataset, "engine": engine, "loosest_r": min(r for r, _ in SWEEP_COMBOS),
            "accepted": len(results[-1]), "used_counts": [len(m) for m in results],
            "combo_matches": results,
            "scored_series": sum(len([s for s in m if s in test]) for m in results)}


def mirror_audit(tr, corpus: Path, out: Path, threads: int) -> dict:
    """cmd_audit: audit --info (the correlator runs for the future-use
    fraction because start dates are present)."""
    from corrcast import (CorrelatorParams, GlobalMatch, categorize, future_use_stats,
                          overlap_histogram)
    from corrcast.analysis import GlobalScanEngine, write_global_matches_csv, write_histogram_csv

    with tr.span("cli.audit"):
        dataset = _load(tr, corpus, info=True)
        params = CorrelatorParams()
        engine, correlator_matches = _correlate(tr, dataset, params)
        with tr.span("analysis.run"):
            with tr.span("analysis.build"):
                scan = GlobalScanEngine(dataset)
            bests = []
            for j in range(len(dataset)):
                with tr.span("analysis.target"):
                    bests.append(scan.best_match(j))
            matches = [
                GlobalMatch(target_id=ts.id, source_id=dataset.series[b[0]].id, tau=b[1],
                            r_prime=b[2], overlap=b[3])
                for ts, b in zip(dataset, bests) if b is not None and b[2] >= AUDIT_THRESHOLD
            ]
            with tr.span("analysis.categorize"):
                categories = categorize(matches, dataset)
                histogram = overlap_histogram(matches, AUDIT_BIN_WIDTH)
            if correlator_matches:
                with tr.span("analysis.future_use"):
                    try:
                        future_use_stats(correlator_matches, dataset)
                    except ValueError:
                        pass
        with tr.span("dataset.write"):
            write_global_matches_csv(matches, categories, out / "matches.csv")
            write_histogram_csv(histogram, AUDIT_BIN_WIDTH, out / "histogram.csv")
    return {"dataset": dataset, "engine": engine, "loosest_r": params.r_threshold,
            "accepted": len(correlator_matches), "audit_matches": len(matches),
            "categories": {label: len(v) for label, v in categories.items()}}


def mirror_validate(tr, corpus: Path, out: Path, threads: int) -> dict:
    """cmd_validate: validate --no-correlator --threads N."""
    from corrcast import (PipelineConfig, holdout_split, naive_benchmark, owa_report,
                          pipeline_forecast, write_forecast_csv)

    with tr.span("cli.validate"):
        dataset = _load(tr, corpus, info=False)
        with tr.span("dataset.split"):
            split = holdout_split(dataset, HORIZON)
        with tr.span("ensemble.pipeline"):
            forecasts = pipeline_forecast(split.train, PipelineConfig(correlator=None, horizon=HORIZON),
                                          threads=threads)
        with tr.span("ensemble.naive_benchmark"):
            benchmark = naive_benchmark(split.train, horizon=HORIZON)
        with tr.span("metrics.owa_report"):
            owa_report(forecasts, benchmark, split, m=1)
        with tr.span("dataset.write"):
            write_forecast_csv({sid: fc.values for sid, fc in forecasts.items()},
                               out / "forecast.csv")
    return {"dataset": dataset, "engine": None, "scored_series": len(forecasts),
            "member_inputs": [(ts.values, HORIZON) for ts in split.train]}


def _quiet(mirror):
    """Per-series warnings are silenced in the traced run (the command
    prints them to its log); forked pool workers inherit the filter."""
    def run(*args):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return mirror(*args)
    return run


MIRRORS = {"forecast-rw": _quiet(mirror_forecast), "sweep-smooth": _quiet(mirror_sweep),
           "audit-leaky": _quiet(mirror_audit), "validate-short": _quiet(mirror_validate)}

# Files each mirror writes with corrcast's public writers; they must be
# byte-identical to the command's.
MIRRORED_FILES = {"forecast-rw": ("forecast.csv", "correlator_matches.csv"),
                  "sweep-smooth": (), "audit-leaky": ("matches.csv", "histogram.csv"),
                  "validate-short": ("forecast.csv",)}


def run_members(tr, inputs) -> int:
    """Each built-in ensemble member on each series, one call at a time, as
    the pipeline's workers call them. Returns the number of failed calls."""
    from corrcast import custom_forecast, naive_forecast, ses_forecast

    failures = 0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with tr.span("bench.members"):
            for values, h in inputs:
                for name, fn in (("naive", naive_forecast), ("ses", ses_forecast),
                                 ("custom", custom_forecast)):
                    with tr.span(f"forecasters.{name}"):
                        try:
                            fn(values, h)
                        except Exception:  # noqa: BLE001 - counted, as the pipeline does
                            failures += 1
    return failures


def count_candidates(result) -> int:
    """Candidates at or above the loosest threshold, over all targets."""
    engine = result.get("engine")
    if engine is None:
        return 0
    return sum(engine.candidates(j, result["loosest_r"])[0].size
               for j in range(len(result["dataset"])))


def _durations(spans, name, run=None):
    return [s["end"] - s["start"] for s in spans
            if s["name"] == name and (run is None or s["run"] == run)]


def _pct(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _self_time(spans, span):
    """Span duration minus its direct children's (spans here never overlap)."""
    children = sum(s["end"] - s["start"] for s in spans if s["parent"] == span["id"])
    return span["end"] - span["start"] - children


def pass_metrics(spans, run, result, points) -> dict:
    """Layer metrics of one traced pass of the command."""
    d = lambda name: _durations(spans, name, run)  # noqa: E731
    dataset = result["dataset"]
    lengths = [len(ts) for ts in dataset]
    m = {}
    root = next(s for s in spans if s["run"] == run and s["parent"] is None)
    m["cli.self_s"] = _self_time(spans, root)
    m["cli.command_s"] = root["end"] - root["start"]
    load_s = sum(d("dataset.load"))
    m["dataset.load_s"] = load_s
    m["dataset.load_mpts_per_s"] = points / load_s / 1e6 if load_s else 0.0
    m["dataset.split_s"] = sum(d("dataset.split"))
    m["dataset.write_s"] = sum(d("dataset.write"))
    m["correlator.build_s"] = sum(d("correlator.build"))
    target = [t * 1e3 for t in d("correlator.target")]
    sweep = [t * 1e3 for t in d("correlator.sweep_target")]
    m["correlator.target_ms.p50"], m["correlator.target_ms.p99"] = _pct(target, 50), _pct(target, 99)
    m["correlator.sweep_target_ms.p50"] = _pct(sweep, 50)
    m["correlator.sweep_target_ms.p99"] = _pct(sweep, 99)
    # Windows one target's scan correlates: every window of every series
    # long enough to hold a non-terminal window.
    windows = sum(n - W + 1 for n in lengths if n >= 2 * W) * sum(n >= W for n in lengths)
    scan_ms = sum(target) or sum(sweep)
    m["correlator.mwindows_per_s"] = windows / scan_ms / 1e3 if scan_ms else 0.0
    m["ensemble.pipeline_s"] = sum(d("ensemble.pipeline"))
    owa_s = sum(d("metrics.owa_report"))
    m["metrics.owa_report_s"] = owa_s
    m["metrics.series_per_s"] = result.get("scored_series", 0) / owa_s if owa_s else 0.0
    m["analysis.build_s"] = sum(d("analysis.build"))
    audit = [t * 1e3 for t in d("analysis.target")]
    m["analysis.target_ms.p50"], m["analysis.target_ms.p99"] = _pct(audit, 50), _pct(audit, 99)
    # Alignments one target's audit scan evaluates: taus margin..n_k-margin
    # of every source.
    aligns = sum(n - 2 * AUDIT_MARGIN + 1 for n in lengths if n >= 2 * AUDIT_MARGIN) * len(lengths)
    m["analysis.malignments_per_s"] = aligns / sum(audit) / 1e3 if audit else 0.0
    m["analysis.categorize_s"] = sum(d("analysis.categorize"))
    m["analysis.future_use_s"] = sum(d("analysis.future_use"))
    return m


def member_metrics(spans, run, failures) -> dict:
    d = lambda name: [t * 1e3 for t in _durations(spans, name, run)]  # noqa: E731
    naive, ses, custom = d("forecasters.naive"), d("forecasters.ses"), d("forecasters.custom")
    return {
        "forecasters.naive_ms.p50": _pct(naive, 50),
        "forecasters.ses_ms.p50": _pct(ses, 50), "forecasters.ses_ms.p99": _pct(ses, 99),
        "forecasters.custom_ms.p50": _pct(custom, 50), "forecasters.custom_ms.p99": _pct(custom, 99),
        "ensemble.member_s": (sum(naive) + sum(ses) + sum(custom)) / 1e3,
        "ensemble.member_failures": failures,
    }

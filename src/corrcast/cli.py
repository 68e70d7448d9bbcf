"""Command-line interface: forecasting runs, evaluation, parameter sweeps,
leakage audits, and the holdout validation workflow.

A key-value config file can predefine any run parameter; explicit flags
override config values. Exit codes: 0 success, 1 runtime failure,
2 usage or config error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import analysis, ensemble, metrics
from .correlator import (
    CorrelatorParams,
    check_past_only,
    run_correlator,
    sweep_correlator,
    write_matches_csv,
)
from .dataset import (
    Dataset,
    HoldoutSplit,
    attach_meta,
    holdout_split,
    load_m4_info,
    load_m4_values,
    read_forecast_csv,
    write_forecast_csv,
)
from .forecasters import Forecast, naive_forecast

_UNSET = object()


class ConfigError(ValueError):
    """A config file or flag combination is invalid."""


def _parse_bool(text: str) -> bool:
    value = text.strip().lower()
    if value in ("1", "true", "yes", "on"):
        return True
    if value in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_std_ratio(text: str):
    value = text.strip().lower()
    if value in ("none", "off", "-", "disabled"):
        return None
    return float(text)


def _parse_members(text: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in text.split(",") if m.strip())


def _parse_external(text: str) -> dict[str, str]:
    out = {}
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ConfigError(f"external forecast entry {item!r} must look like name=path")
        name, path = item.split("=", 1)
        out[name.strip()] = path.strip()
    return out


CONFIG_KEYS = {
    "window": int,
    "r_threshold": float,
    "std_ratio": _parse_std_ratio,
    "bug1": _parse_bool,
    "bug2": _parse_bool,
    "past_only": _parse_bool,
    "include_self": _parse_bool,
    "correlator": _parse_bool,
    "members": _parse_members,
    "external_forecast_paths": _parse_external,
    "horizon": int,
    "threads": int,
}


def load_config(path: str | Path) -> dict:
    """Parse a ``key = value`` config file; unknown keys are rejected."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
            key, text = (part.strip() for part in line.split("=", 1))
            if key not in CONFIG_KEYS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown config key {key!r}; valid keys are "
                    f"{', '.join(sorted(CONFIG_KEYS))}"
                )
            try:
                values[key] = CONFIG_KEYS[key](text)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _resolve(flag_value, config: dict, key: str, default):
    """Flag overrides config overrides default; None/_UNSET flags are unset."""
    if flag_value is not _UNSET and flag_value is not None:
        return flag_value
    if key in config:
        return config[key]
    return default


def _load_dataset(args) -> Dataset:
    dataset = load_m4_values(args.data)
    if getattr(args, "info", None):
        dataset = attach_meta(dataset, load_m4_info(args.info))
    return dataset


def _correlator_params(args, config: dict) -> CorrelatorParams:
    std_ratio = args.std_ratio
    if isinstance(std_ratio, str):
        std_ratio = _parse_std_ratio(std_ratio)
    elif std_ratio is _UNSET:
        std_ratio = _resolve(_UNSET, config, "std_ratio", 2.5)
    return CorrelatorParams(
        w=_resolve(args.window, config, "window", 14),
        r_threshold=_resolve(args.r_threshold, config, "r_threshold", 0.9999),
        std_ratio=std_ratio,
        bug1=_resolve(args.bug1, config, "bug1", False),
        bug2=_resolve(args.bug2, config, "bug2", False),
        past_only=_resolve(args.past_only, config, "past_only", False),
        include_self=_resolve(None, config, "include_self", True),
    )


def _check_past_only(dataset: Dataset, params: CorrelatorParams | None) -> None:
    """``past_only`` without a start date for every series is a config error."""
    if params is None:
        return
    try:
        check_past_only(dataset, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _threads(args, config: dict) -> int:
    return _resolve(args.threads, config, "threads", 1)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(payload: dict, path: Path, no_timestamp: bool) -> None:
    if not no_timestamp:
        payload = dict(payload)
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_provenance(forecasts: dict[str, Forecast], path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "method"])
        for sid, fc in forecasts.items():
            writer.writerow([sid, fc.method])


def _report_payload(report: metrics.MetricReport) -> dict:
    return {
        "aggregate": {
            "mase": report.aggregate_mase,
            "smape": report.aggregate_smape,
            "benchmark_mase": report.benchmark_mase,
            "benchmark_smape": report.benchmark_smape,
            "relative_mase": report.relative_mase,
            "relative_smape": report.relative_smape,
            "owa": report.owa,
            "series": len(report.per_series),
            "excluded_from_mase": report.excluded,
        },
        "per_series": {
            sid: {"mase": m, "smape": s} for sid, (m, s) in report.per_series.items()
        },
    }


def _write_report_csv(report: metrics.MetricReport, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "mase", "smape"])
        for sid, (m, s) in report.per_series.items():
            writer.writerow([sid, "" if m is None else repr(m), repr(s)])


def _pipeline_config(args, config: dict) -> ensemble.PipelineConfig:
    correlator_on = _resolve(getattr(args, "correlator", None), config, "correlator", True)
    params = _correlator_params(args, config) if correlator_on else None
    members = args.members
    if isinstance(members, str):
        members = _parse_members(members)
    else:
        members = _resolve(_UNSET, config, "members", ensemble.DEFAULT_MEMBERS)
    external = args.external
    if isinstance(external, str):
        external = _parse_external(external)
    else:
        external = _resolve(_UNSET, config, "external_forecast_paths", {})
    try:
        return ensemble.PipelineConfig(
            correlator=params,
            members=members,
            external=external,
            horizon=_resolve(args.horizon, config, "horizon", None),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def cmd_forecast(args) -> int:
    config = load_config(args.config) if args.config else {}
    dataset = _load_dataset(args)
    cfg = _pipeline_config(args, config)
    _check_past_only(dataset, cfg.correlator)
    threads = _threads(args, config)
    out = _out_dir(args)

    matches = None
    if cfg.correlator is not None:
        matches = run_correlator(dataset, cfg.correlator, threads=threads)
    forecasts = ensemble.pipeline_forecast(dataset, cfg, threads=threads,
                                           precomputed_matches=matches)
    write_forecast_csv({sid: fc.values for sid, fc in forecasts.items()}, out / "forecast.csv")
    _write_provenance(forecasts, out / "provenance.csv")
    if matches is not None:
        write_matches_csv(matches, out / "correlator_matches.csv")
    return 0


def cmd_evaluate(args) -> int:
    config = load_config(args.config) if args.config else {}
    dataset = _load_dataset(args)
    forecasts = read_forecast_csv(args.forecast)
    test = read_forecast_csv(args.test)
    missing = [sid for sid in forecasts if sid not in test]
    if missing:
        raise ValueError(f"forecast ids missing from the test file: {missing}")
    missing = [sid for sid in forecasts if sid not in dataset]
    if missing:
        raise ValueError(f"forecast ids missing from the training data: {missing}")

    if args.benchmark:
        benchmark = read_forecast_csv(args.benchmark)
        missing = [sid for sid in forecasts if sid not in benchmark]
        if missing:
            raise ValueError(f"forecast ids missing from the benchmark file: {missing}")
    else:
        benchmark = {sid: naive_forecast(dataset[sid].values, len(test[sid]))
                     for sid in forecasts}

    split = HoldoutSplit(train=dataset, test=test)
    report = metrics.owa_report(forecasts, benchmark, split, m=args.m)
    out = _out_dir(args)
    _write_json(_report_payload(report), out / "report.json", args.no_timestamp)
    _write_report_csv(report, out / "report.csv")
    print(f"OWA {report.owa:.6f}  (relative MASE {report.relative_mase:.6f}, "
          f"relative sMAPE {report.relative_smape:.6f})")
    return 0


def _parse_grid(text: str, kind):
    items = [kind(part) for part in text.split(",") if part.strip()]
    if not items:
        raise ConfigError(f"empty parameter grid: {text!r}")
    return items


def cmd_sweep(args) -> int:
    config = load_config(args.config) if args.config else {}
    dataset = _load_dataset(args)
    test = read_forecast_csv(args.test)
    threads = _threads(args, config)
    base = _correlator_params(args, config)
    _check_past_only(dataset, base)

    r_grid = _parse_grid(args.r_grid, float)
    std_grid = _parse_grid(args.std_grid, _parse_std_ratio)
    combos = [(r, s) for r in r_grid for s in std_grid]

    results = sweep_correlator(dataset, combos, base, threads=threads)
    split = HoldoutSplit(train=dataset, test=test)
    out = _out_dir(args)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r_threshold", "std_ratio", "used_count", "used_pct",
                         "mase", "smape", "owa"])
        for (r, s), matches in zip(combos, results):
            row = [repr(r), "none" if s is None else repr(s), len(matches),
                   f"{100.0 * len(matches) / max(len(dataset), 1):.4f}"]
            scored = {sid: m for sid, m in matches.items() if sid in test}
            if scored:
                fcs = {sid: np.maximum(m.forecast[: len(test[sid])], 0.0)
                       for sid, m in scored.items()}
                benchmark = {sid: naive_forecast(dataset[sid].values, len(test[sid]))
                             for sid in scored}
                report = metrics.owa_report(fcs, benchmark, split, m=args.m)
                row += [repr(report.aggregate_mase), repr(report.aggregate_smape),
                        repr(report.owa)]
            else:
                row += ["", "", ""]
            writer.writerow(row)
    return 0


def cmd_audit(args) -> int:
    config = load_config(args.config) if args.config else {}
    dataset = _load_dataset(args)
    threads = _threads(args, config)
    exclusions = analysis.load_exclusions_csv(args.exclusions) if args.exclusions else None
    params = _correlator_params(args, config)
    _check_past_only(dataset, params)

    correlator_matches = None
    if args.future_use is not False and any(ts.start_date is not None for ts in dataset):
        correlator_matches = run_correlator(dataset, params, threads=threads)

    report = analysis.build_leakage_report(
        dataset,
        threshold=args.audit_threshold,
        exclusions=exclusions,
        bin_width=args.bin_width,
        correlator_matches=correlator_matches,
        threads=threads,
    )
    out = _out_dir(args)
    analysis.write_global_matches_csv(report.set_c, report.categories, out / "matches.csv")
    analysis.write_histogram_csv(report.histogram, report.bin_width, out / "histogram.csv")
    payload = {
        "threshold": report.threshold,
        "matches": len(report.set_c),
        "pre_exclusion_matches": report.pre_exclusion_count,
        "excluded_pairs": report.excluded_pairs,
        "categories": {label: len(entries) for label, entries in report.categories.items()},
        "future_use_fraction": report.future_use_fraction,
        "max_overlap": max((m.overlap for m in report.set_c), default=0),
    }
    _write_json(payload, out / "summary.json", args.no_timestamp)
    counts = payload["categories"]
    print(f"matches {len(report.set_c)}  categories "
          f"T1={counts['T1']} T2={counts['T2']} T3={counts['T3']} T4={counts['T4']}")
    return 0


def cmd_validate(args) -> int:
    config = load_config(args.config) if args.config else {}
    dataset = _load_dataset(args)
    cfg = _pipeline_config(args, config)
    _check_past_only(dataset, cfg.correlator)
    threads = _threads(args, config)
    h = cfg.horizon if cfg.horizon is not None else 14
    split = holdout_split(dataset, h)
    cfg = ensemble.PipelineConfig(correlator=cfg.correlator, members=cfg.members,
                                  external=cfg.external, horizon=h)

    forecasts = ensemble.pipeline_forecast(split.train, cfg, threads=threads)
    benchmark = ensemble.naive_benchmark(split.train, horizon=h)
    report = metrics.owa_report(forecasts, benchmark, split, m=args.m)

    out = _out_dir(args)
    write_forecast_csv({sid: fc.values for sid, fc in forecasts.items()}, out / "forecast.csv")
    _write_provenance(forecasts, out / "provenance.csv")
    _write_json(_report_payload(report), out / "report.json", args.no_timestamp)
    _write_report_csv(report, out / "report.csv")
    print(f"holdout OWA {report.owa:.6f} over {len(report.per_series)} series")
    return 0


def _add_common(parser: argparse.ArgumentParser, data_required: bool = True) -> None:
    parser.add_argument("--data", required=data_required, help="M4-format values CSV")
    parser.add_argument("--info", help="M4-format info CSV (metadata and start dates)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--config", help="key = value config file (flags override it)")
    parser.add_argument("--threads", type=int, default=None,
                        help="parallel workers (results are thread-count independent)")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp field from JSON outputs")


def _add_correlator_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--window", type=int, default=None, help="match window length")
    parser.add_argument("--r-threshold", type=float, default=None,
                        help="minimum acceptable window correlation")
    parser.add_argument("--std-ratio", default=_UNSET,
                        help="forecast dispersion cap as a multiple of the target "
                             "window std; 'none' disables the condition")
    parser.add_argument("--bug1", action=argparse.BooleanOptionalAction, default=None,
                        help="reproduce the submission cutoff after file position 2138")
    parser.add_argument("--bug2", action=argparse.BooleanOptionalAction, default=None,
                        help="compare dispersion against the source window instead "
                             "of the target window")
    parser.add_argument("--past-only", action=argparse.BooleanOptionalAction, default=None,
                        help="skip matches that would consume future-dated values")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrcast",
        description="Window-matching forecasts, median ensembling, M4-style "
                    "evaluation, and dataset leakage audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("forecast", help="run the forecast pipeline")
    _add_common(p)
    _add_correlator_flags(p)
    p.add_argument("--correlator", action=argparse.BooleanOptionalAction, default=None,
                   help="enable/disable the window-matching stage")
    p.add_argument("--members", default=None,
                   help="comma-separated ensemble members (built-ins: naive, ses, custom)")
    p.add_argument("--external", default=None,
                   help="external member forecasts as name=path[,name=path...]")
    p.add_argument("--horizon", type=int, default=None,
                   help="forecast horizon (default: per-series horizon)")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="score a forecast file against actuals")
    _add_common(p)
    p.add_argument("--forecast", required=True, help="forecast CSV to score")
    p.add_argument("--test", required=True, help="actual future values CSV")
    p.add_argument("--benchmark", help="benchmark forecast CSV (default: naive)")
    p.add_argument("--m", type=int, default=1, help="seasonal-naive lag for MASE")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="grid of correlation/dispersion thresholds")
    _add_common(p)
    _add_correlator_flags(p)
    p.add_argument("--test", required=True, help="actual future values CSV")
    p.add_argument("--r-grid", default="0.9999,0.999,0.99",
                   help="comma-separated correlation thresholds")
    p.add_argument("--std-grid", default="2,2.5,3,none",
                   help="comma-separated dispersion caps ('none' = disabled)")
    p.add_argument("--m", type=int, default=1, help="seasonal-naive lag for MASE")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("audit", help="global cross-correlation leakage audit")
    _add_common(p)
    _add_correlator_flags(p)
    p.add_argument("--audit-threshold", type=float, default=analysis.DEFAULT_AUDIT_THRESHOLD,
                   help="minimum global correlation to retain a match")
    p.add_argument("--bin-width", type=int, default=100,
                   help="overlap histogram bin width")
    p.add_argument("--exclusions", help="CSV of (target_id, source_id) pairs to discard")
    p.add_argument("--future-use", action=argparse.BooleanOptionalAction, default=None,
                   help="also run the forecaster to measure future-data use "
                        "(on when dates are available)")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("validate", help="holdout split, forecast, and evaluate")
    _add_common(p)
    _add_correlator_flags(p)
    p.add_argument("--correlator", action=argparse.BooleanOptionalAction, default=None,
                   help="enable/disable the window-matching stage")
    p.add_argument("--members", default=None,
                   help="comma-separated ensemble members")
    p.add_argument("--external", default=None,
                   help="external member forecasts as name=path[,name=path...]")
    p.add_argument("--horizon", type=int, default=None,
                   help="holdout length and forecast horizon (default 14)")
    p.add_argument("--m", type=int, default=1, help="seasonal-naive lag for MASE")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

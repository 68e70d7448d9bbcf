"""Command-line interface: forecasting runs, evaluation, parameter sweeps,
leakage audits, and the holdout validation workflow.

The run parameters are declared once, in ``PARAMS``: each row gives the
config key, the flag, the text parser, the field it sets and the commands
that take the flag. A key-value config file can set any of them; flags
given on the command line override it. Defaults and checks are those of
``CorrelatorParams`` and ``PipelineConfig``. Exit codes: 0 success,
1 runtime failure, 2 usage or config error (invalid values included).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, NamedTuple

from . import analysis, ensemble, metrics
from ._parallel import check_threads
from .correlator import (
    CorrelatorParams,
    check_past_only,
    check_sweep,
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

# Holdout length and horizon of ``validate`` when none is given.
HOLDOUT_HORIZON = 14


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


def _parse_threads(text: str) -> int:
    return check_threads(int(text))


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


class Param(NamedTuple):
    """One run parameter. ``owner`` is the dataclass whose ``field`` it sets,
    or None for a keyword argument of the library calls (``threads``).
    Boolean parameters get a ``--flag/--no-flag`` pair."""

    key: str
    parse: Callable[[str], object]
    owner: type | None
    field: str
    flag: str | None
    commands: tuple[str, ...]
    help: str


_MATCHING = ("forecast", "sweep", "audit", "validate")
_PIPELINE = ("forecast", "validate")

PARAMS = {p.key: p for p in (
    Param("window", int, CorrelatorParams, "w", "--window", _MATCHING,
          "match window length"),
    Param("r_threshold", float, CorrelatorParams, "r_threshold", "--r-threshold", _MATCHING,
          "minimum acceptable window correlation"),
    Param("std_ratio", _parse_std_ratio, CorrelatorParams, "std_ratio", "--std-ratio", _MATCHING,
          "forecast dispersion cap as a multiple of the target window std; "
          "'none' disables the condition"),
    Param("bug1", _parse_bool, CorrelatorParams, "bug1", "--bug1", _MATCHING,
          "reproduce the submission cutoff after file position 2138"),
    Param("bug2", _parse_bool, CorrelatorParams, "bug2", "--bug2", _MATCHING,
          "compare dispersion against the source window instead of the target window"),
    Param("past_only", _parse_bool, CorrelatorParams, "past_only", "--past-only", _MATCHING,
          "skip matches that would consume future-dated values"),
    Param("include_self", _parse_bool, CorrelatorParams, "include_self", None, (),
          "whether a target's own earlier windows are eligible sources"),
    Param("correlator", _parse_bool, ensemble.PipelineConfig, "correlator", "--correlator",
          _PIPELINE, "enable/disable the window-matching stage"),
    Param("members", _parse_members, ensemble.PipelineConfig, "members", "--members", _PIPELINE,
          "comma-separated ensemble members (built-ins: naive, ses, custom)"),
    Param("external_forecast_paths", _parse_external, ensemble.PipelineConfig, "external",
          "--external", _PIPELINE, "external member forecasts as name=path[,name=path...]"),
    Param("horizon", int, ensemble.PipelineConfig, "horizon", "--horizon", _PIPELINE,
          "forecast horizon (forecast: each series' own by default; validate: also the "
          f"holdout length, {HOLDOUT_HORIZON} by default)"),
    Param("threads", _parse_threads, None, "threads", "--threads", ("evaluate", *_MATCHING),
          "parallel workers (results are thread-count independent)"),
)}


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
            if key not in PARAMS:
                raise ConfigError(
                    f"{path}:{lineno}: unknown config key {key!r}; valid keys are "
                    f"{', '.join(sorted(PARAMS))}"
                )
            try:
                values[key] = PARAMS[key].parse(text)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    return values


def _run_values(args) -> dict:
    """The config file's run values, overridden by the flags given (an
    unset flag is absent from ``args``)."""
    config = load_config(args.config) if args.config else {}
    return {**config, **{key: value for key, value in vars(args).items() if key in PARAMS}}


def _usage(fn, *args, **kwargs):
    """Call ``fn``; a ValueError it raises is a usage error."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _fields(values: dict, owner: type | None) -> dict:
    """The run values of ``owner``'s parameters, keyed by field."""
    return {p.field: values[p.key] for p in PARAMS.values()
            if p.owner is owner and p.key in values}


def _build(cls, values: dict, **fixed):
    """``cls`` from the run values of its fields; its checks give usage errors."""
    return _usage(cls, **{**_fields(values, cls), **fixed})


def _pipeline(values: dict) -> ensemble.PipelineConfig:
    """The pipeline of the run values; ``correlator`` false drops the matching stage."""
    params = _build(CorrelatorParams, values) if values.get("correlator", True) else None
    return _build(ensemble.PipelineConfig, values, correlator=params)


def _load_dataset(args) -> Dataset:
    dataset = load_m4_values(args.data)
    if args.info:
        dataset = attach_meta(dataset, load_m4_info(args.info))
    return dataset


def _check_past_only(dataset: Dataset, params: CorrelatorParams | None) -> None:
    """``past_only`` without a start date for every series is a config error."""
    if params is not None:
        _usage(check_past_only, dataset, params)


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(payload: dict, path: Path, no_timestamp: bool) -> None:
    if not no_timestamp:
        payload = dict(payload)
        payload["timestamp"] = datetime.now(timezone.utc).isoformat()
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_forecasts(forecasts: dict[str, Forecast], out: Path) -> None:
    """forecast.csv, and provenance.csv naming the method of each forecast."""
    write_forecast_csv({sid: fc.values for sid, fc in forecasts.items()}, out / "forecast.csv")
    with open(out / "provenance.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "method"])
        for sid, fc in forecasts.items():
            writer.writerow([sid, fc.method])


def _score(forecasts: dict, split: HoldoutSplit, m: int,
           benchmark: dict | None = None) -> metrics.MetricReport:
    """OWA report of ``forecasts`` against the split's actuals, relative to
    ``benchmark`` or else to the naive forecast over each test length."""
    if benchmark is None:
        benchmark = {sid: naive_forecast(split.train[sid].values, len(split.test[sid]))
                     for sid in forecasts}
    return metrics.owa_report(forecasts, benchmark, split, m=m)


def _write_report(report: metrics.MetricReport, out: Path, no_timestamp: bool) -> None:
    """report.json (aggregate and per-series scores) and report.csv."""
    payload = {
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
    _write_json(payload, out / "report.json", no_timestamp)
    with open(out / "report.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "mase", "smape"])
        for sid, (m, s) in report.per_series.items():
            writer.writerow([sid, "" if m is None else repr(m), repr(s)])


def cmd_forecast(args) -> int:
    values = _run_values(args)
    cfg = _pipeline(values)
    calls = _fields(values, None)
    dataset = _load_dataset(args)
    _check_past_only(dataset, cfg.correlator)
    out = _out_dir(args)

    matches = None
    if cfg.correlator is not None:
        matches = run_correlator(dataset, cfg.correlator, **calls)
    forecasts = ensemble.pipeline_forecast(dataset, cfg, precomputed_matches=matches, **calls)
    _write_forecasts(forecasts, out)
    if matches is not None:
        write_matches_csv(matches, out / "correlator_matches.csv")
    return 0


def cmd_evaluate(args) -> int:
    _run_values(args)  # rejects a bad config file, as every command does
    dataset = _load_dataset(args)
    forecasts = read_forecast_csv(args.forecast)
    test = read_forecast_csv(args.test)
    missing = [sid for sid in forecasts if sid not in test]
    if missing:
        raise ValueError(f"forecast ids missing from the test file: {missing}")
    missing = [sid for sid in forecasts if sid not in dataset]
    if missing:
        raise ValueError(f"forecast ids missing from the training data: {missing}")

    benchmark = None
    if args.benchmark:
        benchmark = read_forecast_csv(args.benchmark)
        missing = [sid for sid in forecasts if sid not in benchmark]
        if missing:
            raise ValueError(f"forecast ids missing from the benchmark file: {missing}")

    report = _score(forecasts, HoldoutSplit(train=dataset, test=test), args.m, benchmark)
    out = _out_dir(args)
    _write_report(report, out, args.no_timestamp)
    print(f"OWA {report.owa:.6f}  (relative MASE {report.relative_mase:.6f}, "
          f"relative sMAPE {report.relative_smape:.6f})")
    return 0


def _parse_grid(text: str, flag: str, parse) -> list:
    try:
        return [parse(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def cmd_sweep(args) -> int:
    values = _run_values(args)
    base = _build(CorrelatorParams, values)
    combos = [(r, s) for r in _parse_grid(args.r_grid, "--r-grid", float)
              for s in _parse_grid(args.std_grid, "--std-grid", _parse_std_ratio)]
    _usage(check_sweep, combos, base)
    dataset = _load_dataset(args)
    test = read_forecast_csv(args.test)
    longest = max(map(len, test.values()), default=0)
    if longest > base.w:
        raise ConfigError(f"the test file holds up to {longest} values per series, more than "
                          f"the window w = {base.w}: a match forecasts w values")
    _check_past_only(dataset, base)

    results = sweep_correlator(dataset, combos, base, **_fields(values, None))
    split = HoldoutSplit(train=dataset, test=test)
    out = _out_dir(args)
    with open(out / "sweep.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r_threshold", "std_ratio", "used_count", "used_pct",
                         "mase", "smape", "owa"])
        for (r, s), matches in zip(combos, results):
            row = [repr(r), "none" if s is None else repr(s), len(matches),
                   f"{100.0 * len(matches) / max(len(dataset), 1):.4f}"]
            fcs = {sid: ensemble.clip_negative(Forecast(sid, m.forecast[: len(test[sid])],
                                                        "Correlator"))
                   for sid, m in matches.items() if sid in test}
            if fcs:
                report = _score(fcs, split, args.m)
                row += [repr(report.aggregate_mase), repr(report.aggregate_smape),
                        repr(report.owa)]
            else:
                row += ["", "", ""]
            writer.writerow(row)
    return 0


def cmd_audit(args) -> int:
    values = _run_values(args)
    params = _build(CorrelatorParams, values)
    calls = _fields(values, None)
    _usage(analysis.check_audit_args, args.audit_threshold, args.bin_width)
    dataset = _load_dataset(args)
    exclusions = analysis.load_exclusions_csv(args.exclusions) if args.exclusions else None
    _check_past_only(dataset, params)

    correlator_matches = None
    if args.future_use is not False and any(ts.start_date is not None for ts in dataset):
        correlator_matches = run_correlator(dataset, params, **calls)

    report = analysis.build_leakage_report(
        dataset,
        threshold=args.audit_threshold,
        exclusions=exclusions,
        bin_width=args.bin_width,
        correlator_matches=correlator_matches,
        **calls,
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
    values = {"horizon": HOLDOUT_HORIZON, **_run_values(args)}
    cfg = _pipeline(values)
    dataset = _load_dataset(args)
    _check_past_only(dataset, cfg.correlator)
    split = holdout_split(dataset, cfg.horizon)

    forecasts = ensemble.pipeline_forecast(split.train, cfg, **_fields(values, None))
    report = _score(forecasts, split, args.m)

    out = _out_dir(args)
    _write_forecasts(forecasts, out)
    _write_report(report, out, args.no_timestamp)
    print(f"holdout OWA {report.owa:.6f} over {len(report.per_series)} series")
    return 0


def _flag_type(parse):
    """``parse`` as an argparse type, keeping its error message."""
    def convert(text: str):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from exc
    return convert


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> None:
    """The flags every command takes, then the run parameters ``command`` takes."""
    parser.add_argument("--data", required=True, help="M4-format values CSV")
    parser.add_argument("--info", help="M4-format info CSV (metadata and start dates)")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument("--config", help="key = value config file (flags override it)")
    parser.add_argument("--no-timestamp", action="store_true",
                        help="omit the timestamp field from JSON outputs")
    for p in PARAMS.values():
        if command in p.commands:
            kind = ({"action": argparse.BooleanOptionalAction} if p.parse is _parse_bool
                    else {"type": _flag_type(p.parse),
                          "metavar": p.flag[2:].replace("-", "_").upper()})
            parser.add_argument(p.flag, dest=p.key, default=argparse.SUPPRESS,
                                help=p.help, **kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corrcast",
        description="Window-matching forecasts, median ensembling, M4-style "
                    "evaluation, and dataset leakage audits.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        _add_arguments(p, name)
        p.set_defaults(func=func)
        return p

    command("forecast", cmd_forecast, "run the forecast pipeline")

    p = command("evaluate", cmd_evaluate, "score a forecast file against actuals")
    p.add_argument("--forecast", required=True, help="forecast CSV to score")
    p.add_argument("--test", required=True, help="actual future values CSV")
    p.add_argument("--benchmark", help="benchmark forecast CSV (default: naive)")

    p = command("sweep", cmd_sweep, "grid of correlation/dispersion thresholds")
    p.add_argument("--test", required=True, help="actual future values CSV")
    p.add_argument("--r-grid", default="0.9999,0.999,0.99",
                   help="comma-separated correlation thresholds")
    p.add_argument("--std-grid", default="2,2.5,3,none",
                   help="comma-separated dispersion caps ('none' = disabled)")

    p = command("audit", cmd_audit, "global cross-correlation leakage audit")
    p.add_argument("--audit-threshold", type=float, default=analysis.DEFAULT_AUDIT_THRESHOLD,
                   help="minimum global correlation to retain a match")
    p.add_argument("--bin-width", type=int, default=100,
                   help="overlap histogram bin width")
    p.add_argument("--exclusions", help="CSV of (target_id, source_id) pairs to discard")
    p.add_argument("--future-use", action=argparse.BooleanOptionalAction, default=None,
                   help="also run the forecaster to measure future-data use "
                        "(on when dates are available)")

    command("validate", cmd_validate, "holdout split, forecast, and evaluate")
    for name in ("evaluate", "sweep", "validate"):
        sub.choices[name].add_argument("--m", type=int, default=1,
                                       help="seasonal-naive lag for MASE")

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

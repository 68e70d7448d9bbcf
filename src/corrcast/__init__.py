"""corrcast: window-matching forecasts for time-series collections, median
ensembling, M4-style evaluation, and cross-correlation leakage audits."""

from .analysis import (
    GlobalMatch,
    LeakageReport,
    build_leakage_report,
    categorize,
    find_global_matches,
    future_use_stats,
    global_cross_correlation,
    overlap_histogram,
)
from .correlator import (
    CorrelationEngine,
    CorrelatorMatch,
    CorrelatorParams,
    affine_map,
    run_correlator,
    sweep_correlator,
)
from .dataset import (
    Dataset,
    HoldoutSplit,
    TimeSeries,
    attach_meta,
    holdout_split,
    load_m4_info,
    load_m4_values,
    read_forecast_csv,
    write_forecast_csv,
    write_values_csv,
)
from .ensemble import PipelineConfig, naive_benchmark, pipeline_forecast
from .forecasters import (
    Decomposition,
    Forecast,
    custom_forecast,
    decompose_classical,
    linear_extrapolate,
    naive_forecast,
    ses_forecast,
)
from .metrics import MetricReport, UndefinedMetricError, mase, owa_report, smape
from .stats import ConstantInputError, pearson

__version__ = "0.1.0"

__all__ = [
    "ConstantInputError",
    "CorrelationEngine",
    "CorrelatorMatch",
    "CorrelatorParams",
    "Dataset",
    "Decomposition",
    "Forecast",
    "GlobalMatch",
    "HoldoutSplit",
    "LeakageReport",
    "MetricReport",
    "PipelineConfig",
    "TimeSeries",
    "UndefinedMetricError",
    "affine_map",
    "attach_meta",
    "build_leakage_report",
    "categorize",
    "custom_forecast",
    "decompose_classical",
    "find_global_matches",
    "future_use_stats",
    "global_cross_correlation",
    "holdout_split",
    "linear_extrapolate",
    "load_m4_info",
    "load_m4_values",
    "mase",
    "naive_benchmark",
    "naive_forecast",
    "overlap_histogram",
    "owa_report",
    "pearson",
    "pipeline_forecast",
    "read_forecast_csv",
    "run_correlator",
    "ses_forecast",
    "smape",
    "sweep_correlator",
    "write_forecast_csv",
    "write_values_csv",
]

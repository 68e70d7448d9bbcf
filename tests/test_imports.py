"""The package's import surface: importing the CLI must not pull in scipy,
nor the process-pool modules a serial run never uses, and the public names
are pinned, so that adding or removing an export is a visible change to
this file. Static checks stand in for a linter: every name a module
imports is used there, every private name the package defines is read in
the package, and only ``dataset`` imports ``csv``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import corrcast
from corrcast import Dataset, TimeSeries, write_values_csv

SRC = Path(__file__).resolve().parents[1] / "src"


def _modules_after_cli_import(roots):
    """The loaded modules under ``roots`` once a fresh interpreter has
    imported ``corrcast.cli``."""
    code = ("import corrcast.cli, sys; "
            f"print(' '.join(m for m in sys.modules if m.split('.')[0] in {roots!r}))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    return out.stdout.split()


def test_cli_import_loads_no_scipy():
    assert _modules_after_cli_import(("scipy",)) == []


def test_cli_import_loads_no_process_pool():
    """``multiprocessing`` and ``concurrent.futures`` load only when a pool starts."""
    assert _modules_after_cli_import(("multiprocessing", "concurrent")) == []


def test_small_forecast_at_two_threads_starts_no_pool(tmp_path):
    """On two usable CPUs, ``forecast --threads 2`` on a small corpus runs
    its correlator scan and its ensemble in one process: neither map's
    estimated time reaches the break-even, so no pool module loads."""
    rng = np.random.default_rng(11)
    data = tmp_path / "values.csv"
    write_values_csv(Dataset([TimeSeries(f"D{i}", 100 + np.cumsum(rng.normal(0, 1, n)))
                              for i, n in enumerate(rng.integers(100, 400, 40))]), data)
    argv = ["forecast", "--data", str(data), "--out", str(tmp_path / "out"), "--horizon", "14",
            "--threads", "2", "--no-timestamp"]
    code = ("import sys; from corrcast import _parallel; "
            "_parallel._usable_cpus = lambda: 2; from corrcast.cli import main; "
            f"rc = main({argv!r}); "
            "print(' '.join(m for m in sys.modules "
            "if m.split('.')[0] in ('multiprocessing', 'concurrent'))); sys.exit(rc)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == []
    assert (tmp_path / "out" / "forecast.csv").exists()


PUBLIC = [
    "ConstantInputError", "CorrelationEngine", "CorrelatorMatch", "CorrelatorParams",
    "Dataset", "Decomposition", "Forecast", "GlobalMatch", "HoldoutSplit", "LeakageReport",
    "MetricReport", "PipelineConfig", "TimeSeries", "UndefinedMetricError",
    "affine_map", "attach_meta", "build_leakage_report", "categorize",
    "custom_forecast", "decompose_classical", "find_global_matches", "future_use_stats",
    "global_cross_correlation", "holdout_split", "linear_extrapolate", "load_m4_info",
    "load_m4_values", "mase", "naive_benchmark", "naive_forecast",
    "overlap_histogram", "owa_report", "pearson", "pipeline_forecast", "read_forecast_csv",
    "run_correlator", "ses_forecast", "smape", "sweep_correlator",
    "write_forecast_csv", "write_values_csv",
]


def test_public_names_are_pinned():
    assert PUBLIC == sorted(PUBLIC)
    assert corrcast.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(corrcast, name) is not None, name


def _imports(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, anywhere in the module, with
    its line; ``from __future__`` imports bind none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update({a.asname or a.name.split(".")[0]: node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update({a.asname or a.name: node.lineno for a in node.names})
    return names


MODULES = sorted((SRC / "corrcast").glob("*.py"))


def test_every_imported_name_is_used():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        # A package re-exports by listing a name in __all__.
        used |= {node.value for node in ast.walk(tree)
                 if isinstance(node, ast.Constant) and isinstance(node.value, str)
                 and path.name == "__init__.py"}
        unused += [f"{path.name}:{line} {name}" for name, line in _imports(tree).items()
                   if name not in used]
    assert unused == []


def test_only_dataset_imports_csv():
    assert [path.name for path in MODULES
            if "csv" in _imports(ast.parse(path.read_text()))] == ["dataset.py"]


def _private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each private (single-underscore) name a module defines at module
    level or in a class body, with its line."""
    names = {}
    bodies = [tree.body, *(node.body for node in tree.body if isinstance(node, ast.ClassDef))]
    for stmt in (stmt for body in bodies for stmt in body):
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[stmt.name] = stmt.lineno
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            names.update({node.id: stmt.lineno for target in targets
                          for node in ast.walk(target) if isinstance(node, ast.Name)})
    return {name: line for name, line in names.items()
            if name.startswith("_") and not name.startswith("__")}


def test_every_private_name_is_read():
    """A private name that no code of the package reads is dead: a docstring
    or a test naming it does not count."""
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = [f"{name}:{line} {private}" for name, tree in trees.items()
            for private, line in _private_definitions(tree).items() if private not in read]
    assert dead == []

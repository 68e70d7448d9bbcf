"""corrcast benchmark: seeded workloads run through the real CLI.

    python3 bench/run.py --workload forecast-rw --seed 0 --seconds 24 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 24   # every workload

With ``--trace 0`` the CLI runs in fresh subprocesses, untraced, for
``--seconds`` seconds (required, so every result names its own window;
BENCHMARK.json's ``run_seconds`` is the value to pass), and the end-to-end
metrics are reported. With ``--trace 1`` an in-process traced run of the
same calls gives the per-layer metrics. Every run's outputs are checked;
the last line of standard output is one JSON object ``{"correct",
"attempted", "failed", "metrics"}``. See bench/README.md for the workloads
and every metric.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
EXPECTED = BENCH / "expected_hashes.json"
SPEC = ROOT / "BENCHMARK.json"

THREADS = 2
SETUP_REPS = 3
# Every invocation ends well inside the 180 s limit, however slow the
# program gets: later runs are cut short and count as failed.
DEADLINE_S = 150.0
CLI_TIMEOUT_S = 60.0
# Significant digits of the floats in the recorded output fingerprint; the
# float columns are also checked against the reference oracles within 1e-9
# (r) and 1e-8 (r').
FINGERPRINT_DIGITS = 6

# End-to-end figures reported beside the BENCHMARK.json metrics but left out
# of its gate: each is n/a on some workload, or 0 on correct code.
REPORTED_ONLY = {"failed_frac": "ratio", "planted_recall": "ratio", "owa": "ratio",
                 "wall_threads1_s": "s"}


def _cli_args(workload: str, corpus: Path, out: Path, threads: int) -> list[str]:
    c = lambda name: str((corpus / name).relative_to(ROOT))  # noqa: E731
    command = {
        "forecast-rw": ["forecast", "--data", c("values.csv"), "--info", c("info.csv")],
        "sweep-smooth": ["sweep", "--data", c("values.csv"), "--test", c("test.csv")],
        "audit-leaky": ["audit", "--data", c("values.csv"), "--info", c("info.csv")],
        "validate-short": ["validate", "--data", c("values.csv"), "--no-correlator"],
    }[workload]
    return [sys.executable, "-m", "corrcast.cli", *command,
            "--out", str(out.relative_to(ROOT)), "--threads", str(threads), "--no-timestamp"]


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Launcher:
    """The small process that spawns every timed command (see launch.py).
    Start it before this process imports numpy, so it stays small."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "launch.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], log: Path, timeout: float) -> dict:
        request = {"argv": argv, "cwd": str(ROOT), "env": _child_env(), "log": str(log),
                   "timeout": timeout}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the launcher process died")
        return json.loads(line)

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=30)
        self.proc.stdout.close()


def output_hash(out: Path) -> str:
    """SHA-256 of every output file's bytes."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _round_float(value: float) -> str:
    return f"{value:.{FINGERPRINT_DIGITS}g}"


def _canonical_cell(cell: str) -> str:
    try:
        int(cell)
        return cell
    except ValueError:
        pass
    try:
        return _round_float(float(cell))
    except ValueError:
        return cell


def _canonical_json(node):
    if isinstance(node, dict):
        return {k: _canonical_json(v) for k, v in node.items()}
    if isinstance(node, list):
        return [_canonical_json(v) for v in node]
    return _round_float(node) if isinstance(node, float) else node


def output_fingerprint(out: Path) -> str:
    """SHA-256 of every output file with each float rounded to
    FINGERPRINT_DIGITS significant digits. Ids, sources, taus, categories
    and counts are kept exactly; a change in the last bits of a float (a
    reordered sum, an FFT in place of a direct product) leaves it alone."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.suffix == ".csv":
            with open(path, newline="") as fh:
                text = "\n".join(",".join(map(_canonical_cell, row)) for row in csv.reader(fh))
        elif path.suffix == ".json":
            text = json.dumps(_canonical_json(json.loads(path.read_text())), sort_keys=True)
        else:
            text = path.read_text()
        digest.update(path.name.encode() + b"\0" + text.encode() + b"\0")
    return digest.hexdigest()


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def check_outputs(workload: str, out: Path, data) -> tuple[list[str], dict]:
    """Problems found in one run's outputs, plus its quality figures
    (planted_recall, owa; None where the workload has none)."""
    import numpy as np
    from corrcast import (HoldoutSplit, global_cross_correlation, naive_forecast, owa_report,
                          pearson, read_forecast_csv)

    from corpus import AUDIT_THRESHOLD, HORIZON, PARAMS, W
    from traced import SWEEP_COMBOS

    truth, problems = data.truth, []
    index = {sid: i for i, sid in enumerate(data.ids)}
    quality = {"planted_recall": None, "owa": None}

    def forecasts_ok(name):
        fcs = read_forecast_csv(out / name)
        if list(fcs) != data.ids:
            problems.append(f"{name}: ids differ from the input's")
        bad = [sid for sid, v in fcs.items()
               if v.size != HORIZON or not (v >= 0).all() or not math.isfinite(v.sum())]
        if bad:
            problems.append(f"{name}: {len(bad)} rows not {HORIZON} finite non-negative values")
        return fcs

    if workload == "forecast-rw":
        rows = _rows(out / "correlator_matches.csv")
        found = {row[0]: (row[1], int(row[2])) for row in rows}
        for target, source, tau, r, _ in rows:
            tail = data.train[index[target]][-W:]
            window = data.train[index[source]][int(tau) - W: int(tau)]
            if float(r) < PARAMS.r_threshold or abs(pearson(tail, window) - float(r)) > 1e-9:
                problems.append(f"match {target}->{source}@{tau}: r={r} disagrees with pearson")
        fcs = forecasts_ok("forecast.csv")
        recovered = 0
        for p in truth["window_plants"]:
            if found.get(p["target"]) != (p["source"], p["tau"]):
                problems.append(f"planted match {p} not recovered")
                continue
            recovered += 1
            tail = data.train[index[p["target"]]][-W:]
            src = data.train[index[p["source"]]]
            window, cont = src[p["tau"] - W: p["tau"]], src[p["tau"]: p["tau"] + W]
            expected = np.maximum((cont - window.mean()) * (tail.std() / window.std()) + tail.mean(), 0)
            if not np.allclose(fcs.get(p["target"], np.zeros(0))[:W], expected, rtol=1e-9, atol=1e-9):
                problems.append(f"forecast of planted target {p['target']} is not the mapped continuation")
        methods = [row[1] for row in _rows(out / "provenance.csv")]
        if methods.count("Correlator") != len(rows):
            problems.append("provenance.csv: Correlator rows differ from the accepted matches")
        quality["planted_recall"] = recovered / len(truth["window_plants"])
        test = dict(zip(data.ids, data.test))
        split = HoldoutSplit(train=data.dataset, test=test)
        bench = {sid: naive_forecast(v, HORIZON) for sid, v in zip(data.ids, data.train)}
        quality["owa"] = owa_report(fcs, bench, split).owa

    elif workload == "sweep-smooth":
        # sweep.csv names no matches, only counts: every planted target must
        # be among them, so no combo (the strictest is mostly plants) may
        # accept fewer than the plants. The traced run checks each plant by
        # name.
        rows = _rows(out / "sweep.csv")
        used = [int(row[2]) for row in rows]
        planted = len(truth["window_plants"])
        if len(rows) != len(SWEEP_COMBOS):
            problems.append(f"sweep.csv: {len(rows)} rows, expected {len(SWEEP_COMBOS)}")
        elif min(used) < planted:
            problems.append(f"sweep.csv: a combo accepts fewer than the {planted} planted matches")
        else:
            # Rows run r-major over the default grids, each from strict to loose.
            grid = np.array(used).reshape(len({r for r, _ in SWEEP_COMBOS}), -1)
            if (np.diff(grid, axis=0) < 0).any() or (np.diff(grid, axis=1) < 0).any():
                problems.append("sweep.csv: accepted counts shrink as a threshold loosens")
            default = SWEEP_COMBOS.index((PARAMS.r_threshold, PARAMS.std_ratio))
            quality["owa"] = float(rows[default][6])

    elif workload == "audit-leaky":
        summary = json.loads((out / "summary.json").read_text())
        rows = _rows(out / "matches.csv")
        found = {(row[0], row[1], int(row[2])): row[5] for row in rows}
        for target, source, tau, r, _, _ in rows:
            ref = global_cross_correlation(index[target], index[source], int(tau), data.dataset)
            if float(r) < AUDIT_THRESHOLD or abs(ref - float(r)) > 1e-8:
                problems.append(f"audit match {target}->{source}@{tau}: r'={r} disagrees with the oracle")
        recovered = sum(found.get((p["target"], p["source"], p["tau"])) == p["category"]
                        for p in truth["leak_plants"])
        quality["planted_recall"] = recovered / len(truth["leak_plants"])
        expected = dict(truth["leak_counts"], date_unknown=0)
        if summary["categories"] != expected or summary["matches"] != len(truth["leak_plants"]):
            problems.append(f"audit categories {summary['categories']} != planted {expected}")
        if recovered != len(truth["leak_plants"]):
            problems.append(f"{len(truth['leak_plants']) - recovered} planted leaks not recovered")

    elif workload == "validate-short":
        forecasts_ok("forecast.csv")
        report = json.loads((out / "report.json").read_text())["aggregate"]
        if report["series"] != len(data.ids) or len(_rows(out / "report.csv")) != len(data.ids):
            problems.append("report: series count differs from the input's")
        if not report["owa"] > 0:
            problems.append(f"report: owa {report['owa']!r}")
        quality["owa"] = report["owa"]
    return problems, quality


class Session:
    """One benchmark invocation: a corpus, its checked CLI runs, and every
    other attempt (set-up probes, traced passes) whose failure counts."""

    def __init__(self, workload: str, seed: int, record: bool, launcher: Launcher):
        import corpus

        self.workload, self.seed, self.record = workload, seed, record
        self.launcher = launcher
        self.t0 = time.perf_counter()
        self.dir = WORK / f"{workload}-s{seed}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.data = corpus.generate(workload, seed, self.dir / "corpus")
        self.runs: list[dict] = []
        self.probes_tried = 0

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t0)

    def attempt(self, kind: str, problems: list[str], **fields) -> dict:
        rec = {"kind": kind, "problems": problems, **fields}
        self.runs.append(rec)
        return rec

    def cli(self, threads: int) -> dict:
        """One checked CLI run. The first is the --threads 1 reference: its
        fingerprint is compared with the recorded one, and every later
        run's bytes with its bytes."""
        n = len(self.runs)
        out = self.dir / f"out{n}"
        rec = self.launcher.run(_cli_args(self.workload, self.dir / "corpus", out, threads),
                                self.dir / f"cli{n}.log", min(CLI_TIMEOUT_S, self.remaining()))
        problems, quality, digest, fingerprint = [], {}, None, None
        if rec["rc"] != 0:
            problems.append("timed out" if rec["timed_out"] else f"exit code {rec['rc']}")
        else:
            try:
                problems, quality = check_outputs(self.workload, out, self.data)
                digest = output_hash(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"unreadable outputs: {exc!r}")
            ref = self.reference()
            if ref is None:
                if digest is not None:
                    fingerprint = output_fingerprint(out)
                problems += self._check_recorded(fingerprint)
            elif digest != ref["hash"]:
                problems.append(f"--threads {threads} outputs differ from --threads 1")
        return self.attempt("cli", problems, threads=threads, out=str(out), hash=digest,
                            fingerprint=fingerprint, quality=quality, **rec)

    def reference(self) -> dict | None:
        return next((r for r in self.runs if r["kind"] == "cli"), None)

    def _check_recorded(self, fingerprint: str | None) -> list[str]:
        recorded = json.loads(EXPECTED.read_text()).get(self.workload, {}).get(str(self.seed))
        if self.record or recorded in (None, fingerprint) or fingerprint is None:
            return []
        return [f"outputs fingerprint {fingerprint[:12]} != recorded {recorded[:12]} "
                f"for seed {self.seed}"]

    def record_hash(self) -> None:
        """Store the reference run's fingerprint for this workload and seed."""
        table = json.loads(EXPECTED.read_text())
        table.setdefault(self.workload, {})[str(self.seed)] = self.reference()["fingerprint"]
        EXPECTED.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")

    def setup_probe(self) -> dict | None:
        """One fresh untraced set-up process: import, load, engine builds."""
        log = self.dir / f"probe{self.probes_tried}.log"
        self.probes_tried += 1
        rec = self.launcher.run([sys.executable, str(BENCH / "probe.py"), self.workload,
                                 str(self.dir / "corpus")], log, min(CLI_TIMEOUT_S, self.remaining()))
        if rec["rc"] != 0:
            self.attempt("probe", [f"set-up probe exit code {rec['rc']}"], **rec)
            return None
        rec.update(json.loads(log.read_text().splitlines()[-1]))
        return rec

    def failed(self) -> int:
        return sum(bool(r["problems"]) for r in self.runs)


def quartiles(values: list) -> dict:
    values = [v for v in values if v is not None]
    if not values:
        return {"median": None, "q1": None, "q3": None, "n": 0}
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(s: Session, seconds: float) -> dict:
    """The --threads 1 reference run, then --threads 2 runs interleaved with
    the set-up probes, until ``seconds`` have passed since the reference
    run started; interleaving spreads both samples over the whole window."""
    start = time.perf_counter()
    s.cli(threads=1)
    probes = []
    while True:
        s.cli(threads=THREADS)
        if s.probes_tried < SETUP_REPS and (probe := s.setup_probe()) is not None:
            probes.append(probe)
        done = time.perf_counter() - start >= seconds and s.probes_tried == SETUP_REPS
        if done or s.remaining() < 1.5 * s.runs[-1]["wall_s"]:
            break
    timed = [r for r in s.runs if r["kind"] == "cli" and r["threads"] == THREADS]
    ref = s.reference()
    quality = ref["quality"]
    failed_frac = s.failed() / len(s.runs)
    return {
        "wall_s": quartiles([r["wall_s"] for r in timed]),
        "peak_rss_mb": quartiles([r["peak_rss_mb"] for r in timed]),
        "setup_s": quartiles([p["wall_s"] for p in probes]),
        "pass_frac": quartiles([1.0 - failed_frac]),
        "failed_frac": quartiles([failed_frac]),
        "planted_recall": quartiles([quality.get("planted_recall")]),
        "owa": quartiles([quality.get("owa")]),
        "wall_threads1_s": quartiles([ref["wall_s"]]),
    }


def per_layer(s: Session, seconds: float) -> tuple[dict, list]:
    """Traced and untraced in-process passes of the command's calls, plus
    an untraced CLI run whose rusage gives the pool's CPU time."""
    import traced

    start = time.perf_counter()
    s.cli(threads=1)
    probes = [p for p in (s.setup_probe() for _ in range(SETUP_REPS)) if p is not None]
    cli = s.cli(threads=THREADS)
    mirror = traced.MIRRORS[s.workload]
    tracer = traced.Tracer()
    warm = s.dir / "warmup"
    warm.mkdir()
    mirror(tracer, s.dir / "corpus", warm, THREADS)
    per_pass, untraced_s = [], []
    while True:
        out = s.dir / f"traced{len(per_pass)}"
        out.mkdir()
        tracer.run_id = f"{s.workload}-s{s.seed}-{out.name}"
        result = mirror(tracer, s.dir / "corpus", out, THREADS)
        m = traced.pass_metrics(tracer.spans, tracer.run_id, result, s.data.truth["points"])
        m["dataset.write_mb"] = sum(p.stat().st_size for p in out.iterdir()) / 1e6
        per_pass.append(m)
        s.attempt("traced", _mirror_problems(s, result, out))
        tracer.run_id = None
        t = time.perf_counter()
        mirror(tracer, s.dir / "corpus", warm, THREADS)
        untraced_s.append(time.perf_counter() - t)
        if time.perf_counter() - start >= seconds or s.remaining() < 3 * untraced_s[-1]:
            break
    command_s = [p.pop("cli.command_s") for p in per_pass]
    tracer.run_id = f"{s.workload}-s{s.seed}-members"
    failures = traced.run_members(tracer, result.get("member_inputs", []))
    m = traced.member_metrics(tracer.spans, tracer.run_id, failures)
    pipeline_s = statistics.median(p["ensemble.pipeline_s"] for p in per_pass)
    candidates, accepted = traced.count_candidates(result), result.get("accepted", 0)
    m.update({
        "ensemble.pool_speedup": m["ensemble.member_s"] / pipeline_s if pipeline_s else 0.0,
        "correlator.candidates": candidates,
        "correlator.accepted": accepted,
        "correlator.accepted_per_candidate": accepted / candidates if candidates else 0.0,
        "analysis.matches": result.get("audit_matches", 0),
        **{f"analysis.{c}": result.get("categories", {}).get(c, 0) for c in ("T1", "T2", "T3", "T4")},
        "trace.overhead_s": statistics.median(command_s) - statistics.median(untraced_s),
        "parallel.cpu_s": cli["cpu_s"],
        "parallel.utilisation": cli["cpu_s"] / (THREADS * cli["wall_s"]),
    })
    figures = {k: quartiles([v]) for k, v in m.items()}
    figures["cli.import_s"] = quartiles([p["import_s"] for p in probes])
    figures["analysis.build_rss_mb"] = quartiles([p["analysis_build_rss_mb"] for p in probes])
    figures.update({k: quartiles([p[k] for p in per_pass]) for k in per_pass[0]})
    return figures, tracer.spans


def _mirror_problems(s: Session, result: dict, out: Path) -> list[str]:
    """The traced pass must reproduce the command's outputs (and, on the
    sweep, accept every plant)."""
    import traced

    problems = []
    if s.workload == "sweep-smooth":
        problems += _planted_sweep_problems(s.data, result["combo_matches"])
    ref = s.reference()
    if ref["problems"]:
        return problems + ["not compared: the reference run failed"]
    ref_out = Path(ref["out"])
    problems += [f"traced {name} differs from the command's"
                 for name in traced.MIRRORED_FILES[s.workload]
                 if (out / name).read_bytes() != (ref_out / name).read_bytes()]
    if s.workload == "sweep-smooth":
        if result["used_counts"] != [int(row[2]) for row in _rows(ref_out / "sweep.csv")]:
            problems.append("traced sweep counts differ from the command's")
    if s.workload == "audit-leaky":
        summary = json.loads((ref_out / "summary.json").read_text())
        if result["categories"] != summary["categories"]:
            problems.append("traced audit categories differ from the command's")
    return problems


def _planted_sweep_problems(data, combo_matches: list[dict]) -> list[str]:
    """Every planted target is accepted at every combo, by a match at least
    as correlated as its plant (each plant passes every std cap)."""
    from corrcast import pearson

    from corpus import W
    from traced import SWEEP_COMBOS

    index = {sid: i for i, sid in enumerate(data.ids)}
    problems = []
    for p in data.truth["window_plants"]:
        tail = data.train[index[p["target"]]][-W:]
        r = pearson(tail, data.train[index[p["source"]]][p["tau"] - W: p["tau"]])
        for combo, matches in zip(SWEEP_COMBOS, combo_matches):
            m = matches.get(p["target"])
            if m is None or m.r < r - 1e-9:
                problems.append(f"planted target {p['target']} not accepted at {combo} "
                                f"(plant r={r!r}, accepted {m and (m.source_id, m.tau, m.r)})")
    return problems


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    env = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
           "python": platform.python_version(), "numpy": np.__version__,
           "scipy": scipy.__version__, "machine": platform.machine(), "seed": seed}
    try:
        with open("/proc/meminfo") as fh:
            meminfo = dict(line.split(":", 1) for line in fh)
        env["mem_available_mb"] = int(meminfo["MemAvailable"].split()[0]) // 1024
    except (OSError, KeyError, ValueError):
        env["mem_available_mb"] = None
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            caches.append((int((index / "level").read_text()), (index / "size").read_text().strip()))
        except (OSError, ValueError):
            continue
    env["llc"] = max(caches)[1] if caches else None
    digest = hashlib.sha256()
    for path in sorted((SRC / "corrcast").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env["corrcast_src_sha256"] = digest.hexdigest()
    env["corrcast_git_rev"] = None
    if (ROOT / ".git").exists():
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        env["corrcast_git_rev"] = rev.stdout.strip() or None
    return env


def _fmt(v) -> str:
    return "n/a" if v is None else f"{v:.6g}"


def run_one(workload: str, seed: int, seconds: float, trace: bool, record: bool,
            units: dict, launcher: Launcher) -> dict:
    s = Session(workload, seed, record, launcher)
    metrics, spans = per_layer(s, seconds) if trace else (end_to_end(s, seconds), None)
    problems = [p for r in s.runs for p in r["problems"]]
    if record and not problems:
        s.record_hash()
    result = {
        "workload": workload, "seed": seed, "trace": int(trace), "seconds": seconds,
        "environment": environment(seed), "truth": s.data.truth,
        "correct": not problems, "attempted": len(s.runs), "failed": s.failed(),
        "problems": problems, "metrics": metrics, "runs": s.runs,
        "elapsed_s": time.perf_counter() - s.t0,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-s{seed}-trace{int(trace)}"
    (results / f"{stem}.json").write_text(json.dumps(result, indent=1) + "\n")
    if spans is not None:
        (results / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    for p in problems:
        print(f"{workload}: CHECK FAILED: {p}")
    for name, q in metrics.items():
        print(f"{workload:15s} {name:36s} {_fmt(q['median']):>12s} {units.get(name, ''):9s} "
              f"q1 {_fmt(q['q1'])} q3 {_fmt(q['q3'])} n={q['n']}")
    return result


def main(argv=None) -> int:
    # One thread per process for numpy's native libraries, here and in every
    # child: the only concurrency is the CLI's own --threads workers.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measuring window; pass run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this seed's output fingerprint in bench/expected_hashes.json")
    args = parser.parse_args(argv)
    if not (SRC / "corrcast" / "cli.py").is_file():
        print(f"error: corrcast sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    launcher = Launcher()
    try:
        return _main(args, launcher)
    finally:
        launcher.close()


def _main(args, launcher: Launcher) -> int:
    import corpus

    if args.workload not in (*corpus.WORKLOADS, "all"):
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(corpus.WORKLOADS)} or all", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    names = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    units = dict(REPORTED_ONLY, **{m["name"]: m["unit"]
                                   for m in spec["end_to_end"] + spec["per_layer"]})
    workloads = corpus.WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_one(w, args.seed, args.seconds, bool(args.trace), args.record, units, launcher)
               for w in workloads]
    prefix = len(results) > 1
    metrics = {(f"{r['workload']}/" if prefix else "") + n:
               {"value": r["metrics"][n]["median"], "unit": units[n]}
               for r in results for n in names}
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""End-to-end command tests on temp directories."""

import argparse
import csv
import json
from datetime import date

import numpy as np
import pytest

from corrcast import Dataset, TimeSeries, load_m4_values, write_forecast_csv, write_values_csv
from corrcast.cli import PARAMS, _run_values, build_parser, main
from conftest import make_multi_planted, make_planted


def _write_dataset(d, path):
    write_values_csv(d, path)
    return str(path)


def _write_info(d, path, start=date(2000, 1, 1)):
    # Weekly label to sidestep the Daily length-range warning on toy series.
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M4id", "category", "Frequency", "Horizon", "SP", "StartingDate"])
        for ts in d:
            writer.writerow([ts.id, "Other", 1, 14, "Weekly", start.isoformat()])
    return str(path)


def _write_test_values(d, path, rng, h=14):
    test = {ts.id: np.abs(rng.normal(5, 1, h)) for ts in d}
    write_forecast_csv(test, path)
    return str(path)


@pytest.fixture
def planted_env(tmp_path, rng):
    d, plants = make_multi_planted(rng, n_series=5)
    data = _write_dataset(d, tmp_path / "train.csv")
    test = _write_test_values(d, tmp_path / "test.csv", rng)
    return d, plants, data, test, tmp_path


class TestForecastCommand:
    def test_end_to_end(self, planted_env):
        d, plants, data, _, tmp = planted_env
        out = tmp / "out"
        rc = main(["forecast", "--data", data, "--out", str(out), "--horizon", "14"])
        assert rc == 0
        from corrcast import read_forecast_csv

        fcs = read_forecast_csv(out / "forecast.csv")
        assert list(fcs) == d.ids()
        assert all(len(v) == 14 for v in fcs.values())
        prov = dict(
            row for row in csv.reader((out / "provenance.csv").open()) if row
        )
        for sid in plants:
            assert prov[sid] == "Correlator"
        matches = list(csv.DictReader((out / "correlator_matches.csv").open()))
        assert {m["target_id"] for m in matches} == set(plants)

    def test_naive_only(self, tmp_path, rng):
        d = Dataset([TimeSeries("A", np.abs(rng.normal(5, 1, 40)))])
        data = _write_dataset(d, tmp_path / "t.csv")
        out = tmp_path / "out"
        rc = main(["forecast", "--data", data, "--out", str(out),
                   "--no-correlator", "--members", "naive", "--horizon", "3"])
        assert rc == 0
        from corrcast import read_forecast_csv

        fcs = read_forecast_csv(out / "forecast.csv")
        assert fcs["A"].tolist() == [d["A"].values[-1]] * 3
        assert not (out / "correlator_matches.csv").exists()

    def test_missing_data_flag_exits_2(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["forecast", "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "--data" in capsys.readouterr().err

    def test_submission_mode_flags(self, planted_env):
        _, _, data, _, tmp = planted_env
        out = tmp / "sub"
        rc = main(["forecast", "--data", data, "--out", str(out), "--horizon", "14",
                   "--bug1", "--bug2", "--r-threshold", "0.9999"])
        assert rc == 0
        assert (out / "forecast.csv").exists()

    def test_threads_give_identical_bytes(self, planted_env):
        _, _, data, _, tmp = planted_env
        out1, out2 = tmp / "t1", tmp / "t2"
        assert main(["forecast", "--data", data, "--out", str(out1),
                     "--horizon", "14", "--threads", "1"]) == 0
        assert main(["forecast", "--data", data, "--out", str(out2),
                     "--horizon", "14", "--threads", "2"]) == 0
        for name in ("forecast.csv", "provenance.csv", "correlator_matches.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestConfig:
    def test_unknown_key_exits_2(self, planted_env, capsys, tmp_path):
        _, _, data, _, tmp = planted_env
        cfg = tmp_path / "run.cfg"
        cfg.write_text("not_a_key = 1\n")
        rc = main(["forecast", "--data", data, "--out", str(tmp / "o"), "--config", str(cfg)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "not_a_key" in err and "r_threshold" in err

    def test_config_supplies_values_and_flags_override(self, planted_env):
        d, plants, data, _, tmp = planted_env
        cfg = tmp / "run.cfg"
        cfg.write_text(
            "horizon = 14\n"
            "members = naive\n"
            "r_threshold = 0.9999   # comment\n"
            "std_ratio = none\n"
        )
        out = tmp / "cfg_out"
        assert main(["forecast", "--data", data, "--out", str(out), "--config", str(cfg)]) == 0
        prov = dict(row for row in csv.reader((out / "provenance.csv").open()) if row)
        assert all(prov[sid] == "Correlator" for sid in plants)
        from corrcast import read_forecast_csv

        assert all(len(v) == 14 for v in read_forecast_csv(out / "forecast.csv").values())

        # The horizon flag overrides the config's 14.
        out2 = tmp / "cfg_out2"
        assert main(["forecast", "--data", data, "--out", str(out2), "--config", str(cfg),
                     "--horizon", "7"]) == 0
        assert all(len(v) == 7 for v in read_forecast_csv(out2 / "forecast.csv").values())

    def test_malformed_config_exits_2(self, planted_env, tmp_path, capsys):
        _, _, data, _, tmp = planted_env
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("just some words\n")
        assert main(["forecast", "--data", data, "--out", str(tmp / "o"),
                     "--config", str(cfg)]) == 2


class TestEvaluateCommand:
    def test_naive_vs_naive_owa_one(self, tmp_path, rng):
        d = Dataset([TimeSeries(f"A{i}", np.abs(rng.normal(5, 1, 40))) for i in range(3)])
        data = _write_dataset(d, tmp_path / "train.csv")
        test = _write_test_values(d, tmp_path / "test.csv", rng, h=5)
        naive = {ts.id: np.full(5, ts.values[-1]) for ts in d}
        fpath = tmp_path / "naive.csv"
        write_forecast_csv(naive, fpath)
        out = tmp_path / "out"
        rc = main(["evaluate", "--data", data, "--forecast", str(fpath),
                   "--test", test, "--out", str(out), "--no-timestamp"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["aggregate"]["owa"] == 1.0
        assert "timestamp" not in report

    def test_id_mismatch_exits_nonzero(self, tmp_path, rng, capsys):
        d = Dataset([TimeSeries("A", np.abs(rng.normal(5, 1, 40)))])
        data = _write_dataset(d, tmp_path / "train.csv")
        test = _write_test_values(d, tmp_path / "test.csv", rng, h=5)
        write_forecast_csv({"ZZZ": np.ones(5)}, tmp_path / "f.csv")
        rc = main(["evaluate", "--data", data, "--forecast", str(tmp_path / "f.csv"),
                   "--test", test, "--out", str(tmp_path / "o")])
        assert rc == 1
        assert "ZZZ" in capsys.readouterr().err


class TestSweepCommand:
    def test_grid_shape_and_monotonicity(self, planted_env):
        _, _, data, test, tmp = planted_env
        out = tmp / "sweep"
        rc = main(["sweep", "--data", data, "--test", test, "--out", str(out),
                   "--r-grid", "0.9999,0.999,0.99", "--std-grid", "2,2.5,3,none"])
        assert rc == 0
        rows = list(csv.DictReader((out / "sweep.csv").open()))
        assert len(rows) == 12
        # Counts relax along the std axis within each threshold, and along
        # the threshold axis at fixed std.
        for i in range(0, 12, 4):
            counts = [int(r["used_count"]) for r in rows[i : i + 4]]
            assert counts == sorted(counts)
        for j in range(4):
            counts = [int(rows[i + j]["used_count"]) for i in (0, 4, 8)]
            assert counts == sorted(counts)

    def test_single_cell_matches_forecast_plus_evaluate(self, planted_env):
        d, _, data, test, tmp = planted_env
        out = tmp / "single"
        rc = main(["sweep", "--data", data, "--test", test, "--out", str(out),
                   "--r-grid", "0.9999", "--std-grid", "2.5"])
        assert rc == 0
        row = next(csv.DictReader((out / "sweep.csv").open()))

        fc_out = tmp / "fc"
        assert main(["forecast", "--data", data, "--out", str(fc_out),
                     "--horizon", "14", "--members", "naive"]) == 0
        from corrcast import read_forecast_csv

        prov = dict(r for r in csv.reader((fc_out / "provenance.csv").open()) if r)
        fcs = read_forecast_csv(fc_out / "forecast.csv")
        subset = {sid: v for sid, v in fcs.items() if prov[sid] == "Correlator"}
        assert len(subset) == int(row["used_count"])
        sub_path = tmp / "subset.csv"
        write_forecast_csv(subset, sub_path)
        ev_out = tmp / "ev"
        assert main(["evaluate", "--data", data, "--forecast", str(sub_path),
                     "--test", test, "--out", str(ev_out)]) == 0
        report = json.loads((ev_out / "report.json").read_text())
        assert float(row["owa"]) == pytest.approx(report["aggregate"]["owa"], rel=1e-12)
        assert float(row["mase"]) == pytest.approx(report["aggregate"]["mase"], rel=1e-12)

    def test_empty_grid_exits_2(self, planted_env):
        _, _, data, test, tmp = planted_env
        rc = main(["sweep", "--data", data, "--test", test, "--out", str(tmp / "o"),
                   "--r-grid", ",", "--std-grid", "2.5"])
        assert rc == 2


class TestAuditCommand:
    def _audit_dataset(self, rng, tmp_path, with_dates):
        s = rng.normal(0, 1, 70)
        s[-20:] = s[:20]  # T1
        a = rng.normal(0, 1, 60)
        b = np.concatenate([a, rng.normal(0, 1, 14)])  # T3 against A
        series = [TimeSeries("S", s), TimeSeries("A", a), TimeSeries("B", b)]
        d = Dataset(series)
        data = _write_dataset(d, tmp_path / "audit.csv")
        info = _write_info(d, tmp_path / "info.csv") if with_dates else None
        return d, data, info

    def test_categories_match_hand_enumeration(self, tmp_path, rng):
        _, data, info = self._audit_dataset(rng, tmp_path, with_dates=True)
        out = tmp_path / "audit_out"
        rc = main(["audit", "--data", data, "--info", info, "--out", str(out),
                   "--audit-threshold", "0.99", "--no-timestamp"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["categories"]["T1"] == 1
        assert summary["categories"]["T3"] == 1
        assert summary["matches"] == 2
        rows = list(csv.DictReader((out / "matches.csv").open()))
        assert {r["category"] for r in rows} == {"T1", "T3"}
        hist_rows = list(csv.DictReader((out / "histogram.csv").open()))
        assert sum(int(r["count"]) for r in hist_rows) == 2

    def test_degraded_without_info(self, tmp_path, rng):
        _, data, _ = self._audit_dataset(rng, tmp_path, with_dates=False)
        out = tmp_path / "audit_deg"
        rc = main(["audit", "--data", data, "--out", str(out),
                   "--audit-threshold", "0.99", "--no-timestamp"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["categories"]["T1"] == 1
        assert summary["categories"]["date_unknown"] == 1
        assert summary["categories"]["T3"] == 0
        assert summary["future_use_fraction"] is None

    def test_exclusions_reduce_matches(self, tmp_path, rng):
        _, data, info = self._audit_dataset(rng, tmp_path, with_dates=True)
        excl = tmp_path / "excl.csv"
        excl.write_text("j,k\nA,B\n")
        out = tmp_path / "audit_ex"
        rc = main(["audit", "--data", data, "--info", info, "--out", str(out),
                   "--audit-threshold", "0.99", "--exclusions", str(excl),
                   "--no-timestamp"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["matches"] == 1
        assert summary["pre_exclusion_matches"] == 2
        assert summary["excluded_pairs"] == 1

    def test_future_use_reported_with_dates(self, tmp_path, rng):
        d, plant = make_planted(rng, start_dates={"T1": date(2000, 1, 1),
                                                  "S1": date(2005, 1, 1)})
        data = _write_dataset(d, tmp_path / "v.csv")
        info = _write_info_per_series(d, tmp_path / "i.csv")
        out = tmp_path / "fu"
        rc = main(["audit", "--data", data, "--info", info, "--out", str(out),
                   "--no-timestamp"])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["future_use_fraction"] == 1.0


def _write_info_per_series(d, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["M4id", "category", "Frequency", "Horizon", "SP", "StartingDate"])
        for ts in d:
            writer.writerow([ts.id, "Other", 1, ts.horizon, "Weekly",
                             ts.start_date.isoformat() if ts.start_date else ""])
    return str(path)


class TestValidateCommand:
    def test_end_to_end(self, tmp_path, rng):
        d = Dataset([TimeSeries(f"A{i}", np.abs(rng.normal(10, 2, 80))) for i in range(3)])
        data = _write_dataset(d, tmp_path / "train.csv")
        out = tmp_path / "val"
        rc = main(["validate", "--data", data, "--out", str(out),
                   "--members", "naive,ses", "--no-timestamp"])
        assert rc == 0
        report = json.loads((out / "report.json").read_text())
        assert report["aggregate"]["series"] == 3
        from corrcast import read_forecast_csv

        fcs = read_forecast_csv(out / "forecast.csv")
        assert all(len(v) == 14 for v in fcs.values())

    def test_short_series_fails_cleanly(self, tmp_path, rng):
        d = Dataset([TimeSeries("A", np.ones(10) + np.arange(10.0))])
        data = _write_dataset(d, tmp_path / "train.csv")
        rc = main(["validate", "--data", data, "--out", str(tmp_path / "o")])
        assert rc == 1


class TestPastOnlyNeedsDates:
    """past_only cannot be honoured without start dates, so every command
    that runs the correlator refuses it with a config error."""

    @pytest.mark.parametrize("command", ["forecast", "sweep", "validate", "audit"])
    def test_flag_without_info_exits_2(self, planted_env, command, capsys):
        _, _, data, test, tmp = planted_env
        argv = [command, "--data", data, "--out", str(tmp / command), "--past-only"]
        if command == "sweep":
            argv += ["--test", test]
        assert main(argv) == 2
        assert "past_only needs a start date" in capsys.readouterr().err

    def test_config_without_info_exits_2(self, planted_env, capsys):
        _, _, data, _, tmp = planted_env
        cfg = tmp / "run.cfg"
        cfg.write_text("past_only = true\n")
        assert main(["forecast", "--data", data, "--out", str(tmp / "o"),
                     "--config", str(cfg)]) == 2
        assert "5 of 5 have none" in capsys.readouterr().err

    def test_dated_info_runs(self, planted_env):
        d, _, data, _, tmp = planted_env
        info = _write_info(d, tmp / "info.csv")
        assert main(["forecast", "--data", data, "--info", info, "--out", str(tmp / "o"),
                     "--past-only"]) == 0


def _exit_code(argv):
    """main's return code, or the code of the SystemExit argparse raises."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


@pytest.fixture
def toy_env(tmp_path, rng):
    d = Dataset([TimeSeries(f"A{i}", np.abs(rng.normal(10, 2, 60))) for i in range(4)])
    data = _write_dataset(d, tmp_path / "train.csv")
    test = _write_test_values(d, tmp_path / "test.csv", rng)
    return data, test, tmp_path


class TestInvalidValues:
    """An invalid run value is a usage error: exit 2, the parameter named
    on stderr, and nothing written."""

    CASES = {
        "window": (["forecast", "--window", "1"], "window"),
        "r_threshold": (["forecast", "--r-threshold", "1.5"], "r_threshold"),
        "std_ratio_text": (["forecast", "--std-ratio", "abc"], "--std-ratio"),
        "std_ratio_negative": (["validate", "--std-ratio", "-1"], "std_ratio"),
        "horizon": (["forecast", "--no-correlator", "--horizon", "0"], "horizon"),
        "validate_horizon": (["validate", "--horizon", "0"], "horizon"),
        "external": (["forecast", "--external", "nopath"], "--external"),
        "r_grid_text": (["sweep", "--r-grid", "abc"], "--r-grid"),
        "r_grid_range": (["sweep", "--r-grid", "1.5"], "r_threshold"),
        "std_grid_negative": (["sweep", "--std-grid", "-1"], "std_ratio"),
        "bin_width": (["audit", "--bin-width", "0"], "bin width"),
        "audit_threshold": (["audit", "--audit-threshold", "1.5"], "audit threshold"),
        **{f"threads_{cmd}": ([cmd, "--threads", value], "--threads")
           for cmd, value in (("forecast", "0"), ("sweep", "-3"), ("audit", "0"),
                              ("validate", "-1"), ("evaluate", "0"))},
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_exits_2_naming_the_parameter(self, toy_env, capsys, case):
        data, test, tmp = toy_env
        argv, name = self.CASES[case]
        out = tmp / "out"
        argv = [*argv, "--data", data, "--out", str(out)]
        if argv[0] == "sweep":
            argv += ["--test", test]
        if argv[0] == "evaluate":
            argv += ["--test", test, "--forecast", test]
        assert _exit_code(argv) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["forecast", "evaluate", "sweep", "audit", "validate"])
    def test_threads_config_value_exits_2(self, toy_env, capsys, command):
        data, test, tmp = toy_env
        cfg = tmp / "run.cfg"
        cfg.write_text("threads = 0\n")
        out = tmp / "out"
        extra = {"sweep": ["--test", test], "evaluate": ["--test", test, "--forecast", test]}
        argv = [command, "--data", data, "--out", str(out), "--config", str(cfg),
                *extra.get(command, [])]
        assert main(argv) == 2
        assert "threads" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_test_longer_than_window_exits_2(self, toy_env, capsys, rng):
        # A match forecasts w values, so it cannot be scored on 20.
        data, _, tmp = toy_env
        d = load_m4_values(data)
        test = _write_test_values(d, tmp / "long_test.csv", rng, h=20)
        out = tmp / "out"
        assert main(["sweep", "--data", data, "--test", test, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "20 values" in err and "w = 14" in err
        assert not out.exists()

    def test_invalid_config_value_exits_2(self, toy_env, capsys):
        data, _, tmp = toy_env
        cfg = tmp / "run.cfg"
        cfg.write_text("window = 1\n")
        out = tmp / "out"
        assert main(["forecast", "--data", data, "--out", str(out), "--config", str(cfg)]) == 2
        assert "window" in capsys.readouterr().err
        assert not out.exists()


# Per flag row: (config text A, flag argv A, config text B); B differs from
# A, so a flag that failed to override the config would show.
FLAG_ROWS = {
    "window": ("10", ["--window", "10"], "12"),
    "r_threshold": ("0.99", ["--r-threshold", "0.99"], "0.9999"),
    "std_ratio": ("none", ["--std-ratio", "none"], "2"),
    "bug1": ("true", ["--bug1"], "false"),
    "bug2": ("true", ["--bug2"], "false"),
    "past_only": ("true", ["--past-only"], "false"),
    "correlator": ("false", ["--no-correlator"], "true"),
    "members": ("naive", ["--members", "naive"], "naive,ses"),
    "external_forecast_paths": ("ext=ext_a.csv", ["--external", "ext=ext_a.csv"],
                                "ext=ext_b.csv"),
    "horizon": ("7", ["--horizon", "7"], "5"),
    "threads": ("2", ["--threads", "2"], "1"),
}


class TestFlagsAndConfig:
    """Every run parameter with a flag: the config file and the flag give the
    same run, and the flag overrides the config."""

    @pytest.fixture
    def env(self, planted_env):
        d, _, data, _, tmp = planted_env
        for name, level in (("ext_a.csv", 1.0), ("ext_b.csv", 50.0)):
            write_forecast_csv({ts.id: np.full(14, level) for ts in d}, tmp / name)
        info = _write_info(d, tmp / "info.csv")
        return data, info, tmp

    def _run(self, env, name, flags=(), config=""):
        data, info, tmp = env
        argv = ["forecast", "--data", data, "--info", info, "--out", str(tmp / name),
                "--config", str(tmp / f"{name}.cfg"), *flags]
        (tmp / f"{name}.cfg").write_text(
            f"members = naive,ext\nexternal_forecast_paths = ext=ext_a.csv\n{config}\n")
        values = _run_values(build_parser().parse_args(argv))
        assert main(argv) == 0
        return values, {p.name: p.read_bytes() for p in sorted((tmp / name).iterdir())}

    def test_every_flag_row_is_covered(self):
        assert set(FLAG_ROWS) == {key for key, p in PARAMS.items() if p.flag}

    @pytest.mark.filterwarnings("ignore:match for")
    @pytest.mark.parametrize("key", sorted(FLAG_ROWS))
    def test_config_equals_flag_and_flag_overrides(self, env, key, monkeypatch):
        monkeypatch.chdir(env[2])  # external paths are relative
        text_a, flag_a, text_b = FLAG_ROWS[key]
        by_flag = self._run(env, "flag", flag_a)
        assert self._run(env, "config", config=f"{key} = {text_a}") == by_flag
        assert self._run(env, "override", flag_a, config=f"{key} = {text_b}") == by_flag
        assert by_flag[0][key] == PARAMS[key].parse(text_a) != PARAMS[key].parse(text_b)


class TestOptionPin:
    """No knob is added or lost: each subcommand's option strings and the
    config keys are pinned."""

    MATCHING = {"--window", "--r-threshold", "--std-ratio", "--bug1", "--no-bug1",
                "--bug2", "--no-bug2", "--past-only", "--no-past-only"}
    COMMON = {"-h", "--help", "--data", "--info", "--out", "--config", "--threads",
              "--no-timestamp"}
    PIPELINE = {"--correlator", "--no-correlator", "--members", "--external", "--horizon"}
    OPTIONS = {
        "forecast": COMMON | MATCHING | PIPELINE,
        "evaluate": COMMON | {"--forecast", "--test", "--benchmark", "--m"},
        "sweep": COMMON | MATCHING | {"--test", "--r-grid", "--std-grid", "--m"},
        "audit": COMMON | MATCHING | {"--audit-threshold", "--bin-width", "--exclusions",
                                      "--future-use", "--no-future-use"},
        "validate": COMMON | MATCHING | PIPELINE | {"--m"},
    }

    def test_option_strings(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(self.OPTIONS)
        for name, sp in sub.choices.items():
            options = [s for action in sp._actions for s in action.option_strings]
            assert len(options) == len(set(options))
            assert set(options) == self.OPTIONS[name], name

    def test_config_keys(self):
        assert sorted(PARAMS) == sorted([
            "window", "r_threshold", "std_ratio", "bug1", "bug2", "past_only",
            "include_self", "correlator", "members", "external_forecast_paths",
            "horizon", "threads",
        ])
        assert PARAMS["include_self"].flag is None

    def test_bench_defaults(self):
        # Defaults the benchmark reads through build_parser().
        parse = build_parser().parse_args
        sweep = parse(["sweep", "--data", "-", "--out", "-", "--test", "-"])
        assert (sweep.r_grid, sweep.std_grid) == ("0.9999,0.999,0.99", "2,2.5,3,none")
        assert parse(["audit", "--data", "-", "--out", "-"]).bin_width == 100

"""corrcast's CSV format: the exact bytes of every CSV the package writes,
and the rules its three readers share."""

import re

import numpy as np
import pytest

from corrcast import (CorrelatorMatch, Dataset, Forecast, GlobalMatch, MetricReport, TimeSeries,
                      load_m4_info, read_forecast_csv, write_forecast_csv, write_values_csv)
from corrcast import cli
from corrcast.analysis import load_exclusions_csv, write_global_matches_csv, write_histogram_csv
from corrcast.correlator import write_matches_csv
from corrcast.dataset import LoadError

# Ids with a comma, a quote and non-ASCII characters; values with -0.0 and
# floats that need 17 significant digits to round-trip.
IDS = ("D1", "a,b", 'say "hi"', "Zürich")
THIRD, TENTH_SUM = 1.0 / 3.0, 0.1 + 0.2
VALUES = {"D1": [1.0, -0.0, TENTH_SUM], "a,b": [123456789.12345679], 'say "hi"': [1e-300, -2.5],
          "Zürich": [THIRD, 2.0 / 3.0, 0.0, 5e22]}
REPORT = MetricReport(
    per_series={"D1": (None, 0.5), "a,b": (-0.0, TENTH_SUM), "Zürich": (THIRD, 2.0)},
    aggregate_mase=TENTH_SUM, aggregate_smape=-0.0, benchmark_mase=1.0, benchmark_smape=2.0,
    relative_mase=THIRD, relative_smape=0.5, owa=0.1, excluded=["D1"])
GLOBAL = [GlobalMatch("a,b", "Zürich", 20, TENTH_SUM, 20),
          GlobalMatch('say "hi"', "D1", 7, -0.0, 7),
          GlobalMatch("D1", "D1", 300, 1.0, 150)]


def _matches():
    forecast = np.array([1.0, 2.0])
    return [CorrelatorMatch("a,b", "D1", 15, TENTH_SUM, forecast, None),
            CorrelatorMatch('say "hi"', "Zürich", 40, -0.0, forecast, True),
            CorrelatorMatch("Zürich", "Zürich", 17, THIRD, forecast, False)]


def _sweep(tmp_path, monkeypatch):
    """``sweep`` over four combos, two of which accept a match, with the
    scan and the scores replaced by fixed results; returns its CSV."""
    d = Dataset([TimeSeries(sid, np.arange(30.0) + i) for i, sid in enumerate(IDS)])
    write_values_csv(d, tmp_path / "values.csv")
    write_forecast_csv({sid: np.ones(3) for sid in IDS}, tmp_path / "test.csv")
    found = {m.target_id: m for m in _matches()}
    monkeypatch.setattr(cli, "sweep_correlator",
                        lambda dataset, combos, base, **kw: [found, {}, {"a,b": found["a,b"]}, {}])
    monkeypatch.setattr(cli, "_score", lambda *args, **kw: REPORT)
    out = tmp_path / "out"
    assert cli.main(["sweep", "--data", str(tmp_path / "values.csv"), "--test",
                     str(tmp_path / "test.csv"), "--out", str(out), "--r-grid", "0.9999,0.99",
                     "--std-grid", "2.5,none"]) == 0
    return out / "sweep.csv"


def _write(kind, tmp_path, monkeypatch):
    path = tmp_path / f"{kind}.csv"
    if kind == "values":
        write_values_csv(Dataset([TimeSeries(sid, v) for sid, v in VALUES.items()]), path)
    elif kind == "forecast":
        write_forecast_csv({sid: np.array(v) for sid, v in VALUES.items()}, path)
    elif kind == "forecast_empty":
        write_forecast_csv({}, path)
    elif kind == "matches":
        write_matches_csv({m.target_id: m for m in _matches()}, path)
    elif kind == "matches_empty":
        write_matches_csv([], path)
    elif kind == "global_matches":
        write_global_matches_csv(GLOBAL, {"T1": [GLOBAL[2]], "T3": [GLOBAL[0]]}, path)
    elif kind == "global_matches_empty":
        write_global_matches_csv([], {}, path)
    elif kind == "histogram":
        write_histogram_csv(np.array([3, 0, 1]), 100, path)
    elif kind == "histogram_empty":
        write_histogram_csv(np.zeros(0, dtype=np.int64), 7, path)
    elif kind == "provenance":
        cli._write_forecasts({sid: Forecast(sid, np.array(v), method)
                              for (sid, v), method in zip(VALUES.items(),
                                                          ("Correlator", "Ensemble", "Naive",
                                                           "Ensemble"))}, tmp_path)
        path = tmp_path / "provenance.csv"
    elif kind == "report":
        cli._write_report(REPORT, tmp_path, no_timestamp=True)
        path = tmp_path / "report.csv"
    elif kind == "sweep":
        path = _sweep(tmp_path, monkeypatch)
    return path.read_bytes()


# Recorded before the writers shared ``write_csv``: these are the files users have.
EXPECTED = {
    "values": (
        b'id,V1,V2,V3,V4\r\n'
        b'D1,1.0,-0.0,0.30000000000000004\r\n'
        b'"a,b",123456789.12345679\r\n'
        b'"say ""hi""",1e-300,-2.5\r\n'
        b'Z\xc3\xbcrich,0.3333333333333333,0.6666666666666666,0.0,5e+22\r\n'),
    "forecast": (
        b'id,F1,F2,F3,F4\r\n'
        b'D1,1.0,-0.0,0.30000000000000004\r\n'
        b'"a,b",123456789.12345679\r\n'
        b'"say ""hi""",1e-300,-2.5\r\n'
        b'Z\xc3\xbcrich,0.3333333333333333,0.6666666666666666,0.0,5e+22\r\n'),
    "forecast_empty": b'id\r\n',
    "matches": (
        b'target_id,source_id,tau,r,used_future\r\n'
        b'"a,b",D1,15,0.30000000000000004,\r\n'
        b'"say ""hi""",Z\xc3\xbcrich,40,-0.0,true\r\n'
        b'Z\xc3\xbcrich,Z\xc3\xbcrich,17,0.3333333333333333,false\r\n'),
    "matches_empty": b'target_id,source_id,tau,r,used_future\r\n',
    "global_matches": (
        b'j,k,tau,r,overlap,category\r\n'
        b'"a,b",Z\xc3\xbcrich,20,0.30000000000000004,20,T3\r\n'
        b'"say ""hi""",D1,7,-0.0,7,\r\n'
        b'D1,D1,300,1.0,150,T1\r\n'),
    "global_matches_empty": b'j,k,tau,r,overlap,category\r\n',
    "histogram": (
        b'bin_start,bin_end,count\r\n'
        b'0,100,3\r\n'
        b'100,200,0\r\n'
        b'200,300,1\r\n'),
    "histogram_empty": b'bin_start,bin_end,count\r\n',
    "provenance": (
        b'id,method\r\n'
        b'D1,Correlator\r\n'
        b'"a,b",Ensemble\r\n'
        b'"say ""hi""",Naive\r\n'
        b'Z\xc3\xbcrich,Ensemble\r\n'),
    "report": (
        b'id,mase,smape\r\n'
        b'D1,,0.5\r\n'
        b'"a,b",-0.0,0.30000000000000004\r\n'
        b'Z\xc3\xbcrich,0.3333333333333333,2.0\r\n'),
    "sweep": (
        b'r_threshold,std_ratio,used_count,used_pct,mase,smape,owa\r\n'
        b'0.9999,2.5,3,75.0000,0.30000000000000004,-0.0,0.1\r\n'
        b'0.9999,none,0,0.0000,,,\r\n'
        b'0.99,2.5,1,25.0000,0.30000000000000004,-0.0,0.1\r\n'
        b'0.99,none,0,0.0000,,,\r\n'),
}


@pytest.mark.parametrize("kind", sorted(EXPECTED))
def test_writer_bytes_are_pinned(kind, tmp_path, monkeypatch):
    assert _write(kind, tmp_path, monkeypatch) == EXPECTED[kind]


# Per reader: a header, two rows it accepts and one it refuses naming the line.
READERS = {
    "ragged": (lambda p: {k: v.tolist() for k, v in read_forecast_csv(p).items()},
               "id,V1,V2", ["D1,1,2", "D2,3"], ",4"),
    "info": (load_m4_info, "M4id,SP,Horizon,StartingDate",
             ["D1,Daily,14,2000-01-01", "D2,Weekly,13,"], ",Daily,14,"),
    "exclusions": (load_exclusions_csv, "target_id,source_id", ["D1,D2", "D3,D1"], "D4"),
}


@pytest.mark.parametrize("name", sorted(READERS))
def test_readers_share_the_rules(name, tmp_path):
    read, header, rows, bad = READERS[name]
    path = tmp_path / f"{name}.csv"

    def load(text):
        path.write_bytes(text.encode())
        return read(path)

    plain = load("\n".join([header, *rows]) + "\n")
    assert len(plain) == 2
    # A byte-order mark and blank lines after the header change nothing.
    assert load("\ufeff" + "\r\n\r\n".join([header, *rows]) + "\n\n") == plain
    assert len(load(header + "\n")) == 0
    # The header is the first non-blank row.
    assert load("\n\r\n" + "\n".join([header, *rows]) + "\n") == plain
    for empty in ("", "\ufeff", "\n\r\n", "\ufeff\n"):
        with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: empty file$"):
            load(empty)
    # Line numbers count every line of the file, blank ones included.
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: row 5 "):
        load(f"{header}\n\n{rows[0]}\n\n{bad}\n{rows[1]}\n")
    with pytest.raises(LoadError, match=f"^{re.escape(str(path))}: row 4 "):
        load(f"\n\n{header}\n{bad}\n")

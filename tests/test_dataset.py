"""Loader, metadata, and splitting tests on temp CSV files."""

from datetime import date

import numpy as np
import pytest

from corrcast import (
    Dataset,
    TimeSeries,
    attach_meta,
    holdout_split,
    load_m4_info,
    load_m4_values,
    read_forecast_csv,
    write_forecast_csv,
    write_values_csv,
)
from corrcast.dataset import LoadError


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n")
    return path


def refused_by_both(path, message):
    """Both public readers refuse ``path`` with the same message, prefixed
    by the file name."""
    for read in (load_m4_values, read_forecast_csv):
        with pytest.raises(LoadError) as exc:
            read(path)
        assert str(exc.value) == f"{path}: {message}", read.__name__


class TestLoadValues:
    def test_basic_ragged(self, tmp_path):
        path = write_lines(tmp_path / "v.csv", ["id,V1,V2,V3", "D1,1,2,3", "D2,5,4"])
        d = load_m4_values(path)
        assert d.ids() == ["D1", "D2"]
        assert len(d["D1"]) == 3 and len(d["D2"]) == 2
        assert d["D2"].values.tolist() == [5.0, 4.0]

    def test_trailing_empties_dropped(self, tmp_path):
        path = write_lines(tmp_path / "v.csv", ["id,V1,V2,V3,V4", "D1,1,2,,", "D2,7,,,"])
        d = load_m4_values(path)
        assert len(d["D1"]) == 2 and len(d["D2"]) == 1

    def test_malformed_cell_names_row_and_column(self, tmp_path):
        path = write_lines(tmp_path / "v.csv", ["id,V1,V2,V3", "D1,1,x,3"])
        refused_by_both(path, "malformed value in row 'D1', column 3: 'x'")

    def test_interior_empty_rejected(self, tmp_path):
        path = write_lines(tmp_path / "v.csv", ["id,V1,V2,V3", "D1,1,,3"])
        refused_by_both(path, "malformed value in row 'D1', column 3: ''")

    def test_nonfinite_rejected(self, tmp_path):
        path = write_lines(tmp_path / "v.csv", ["id,V1,V2", "D1,1,nan"])
        refused_by_both(path, "non-finite value in row 'D1', column 3: 'nan'")

    def test_duplicate_id_rejected(self, tmp_path):
        path = write_lines(tmp_path / "v.csv", ["id,V1", "D1,1", "D1,2"])
        refused_by_both(path, "duplicate series id 'D1'")

    def test_empty_series_rejected(self, tmp_path):
        path = write_lines(tmp_path / "v.csv", ["id,V1", "D1,"])
        refused_by_both(path, "series 'D1' has no values")
        path = write_lines(tmp_path / "w.csv", ["id,V1", "D1"])
        refused_by_both(path, "series 'D1' has no values")

    def test_empty_id_rejected(self, tmp_path):
        path = write_lines(tmp_path / "v.csv", ["id,V1", "D1,1", " ,2"])
        refused_by_both(path, "row 3 has an empty series id")

    @pytest.mark.parametrize("lines", [["id,V1,V2"], ["id,V1,V2", "", ""]])
    def test_file_without_series_refused(self, tmp_path, lines):
        """A header and no series is no dataset; the reader of forecast and
        test files still returns an empty map."""
        path = write_lines(tmp_path / "v.csv", lines)
        with pytest.raises(LoadError) as exc:
            load_m4_values(path)
        assert str(exc.value) == f"{path}: no series"
        assert read_forecast_csv(path) == {}

    def test_series_adopt_the_rows_they_were_read_from(self, tmp_path):
        path = write_lines(tmp_path / "v.csv", ["id,V1,V2,V3", "D1,1,2,3", "D2,5,4"])
        for ts in load_m4_values(path):
            assert ts.values.base is None and not ts.values.flags.writeable

    def test_quoted_m4_row(self, tmp_path):
        path = write_lines(tmp_path / "v.csv", ['"V1","V2","V3"', '"D1","1.5","2"'])
        d = load_m4_values(path)
        assert d.ids() == ["D1"]
        assert d["D1"].values.tolist() == [1.5, 2.0]

    # Each row is cast in one go; every cell must read as float() reads it.
    @pytest.mark.parametrize("cell", [" 2.5", "3.25 ", " 7 ", "\t4", "1_000", "1_0.5_5", "-0.0",
                                      "+.5", "5.", "1e-400", "4.9e-324", "1.7976931348623157e308"])
    def test_cells_read_as_float_reads_them(self, tmp_path, cell):
        values = write_lines(tmp_path / "v.csv", ["id,V1,V2", f"D1,{cell},1"])
        forecasts = write_lines(tmp_path / "f.csv", ["id,F1,F2", f"D1,{cell},1"])
        want = np.array([float(cell), 1.0]).tobytes()
        assert load_m4_values(values)["D1"].values.tobytes() == want
        assert read_forecast_csv(forecasts)["D1"].tobytes() == want

    @pytest.mark.parametrize("cell", ["1e400", "-1e400"])
    def test_overflowing_cell(self, tmp_path, cell):
        path = write_lines(tmp_path / "v.csv", ["id,V1,V2", f"D1,1,{cell}"])
        refused_by_both(path, f"non-finite value in row 'D1', column 3: '{cell}'")

    @pytest.mark.parametrize("cell", ["1__0", "_1", "1_", "1 2", "0x10", "1.5.1"])
    def test_cells_float_refuses(self, tmp_path, cell):
        with pytest.raises(ValueError):
            float(cell)
        path = write_lines(tmp_path / "v.csv", ["id,V1,V2,V3", f"D1,1,{cell},2"])
        refused_by_both(path, f"malformed value in row 'D1', column 3: '{cell}'")

    def test_first_bad_cell_is_named(self, tmp_path):
        # A non-finite cell before a malformed one is the one reported.
        path = write_lines(tmp_path / "v.csv", ["id,V1,V2,V3,V4", "D1,1,inf,x,,"])
        refused_by_both(path, "non-finite value in row 'D1', column 3: 'inf'")

    def test_round_trip_bit_identical(self, tmp_path, rng):
        series = [
            TimeSeries("D1", rng.normal(0, 1, 17)),
            TimeSeries("D2", rng.uniform(1, 1e9, 5)),
            TimeSeries("D3", np.array([0.1, 1 / 3, 2.5])),
        ]
        d = Dataset(series)
        path = tmp_path / "out.csv"
        write_values_csv(d, path)
        d2 = load_m4_values(path)
        for ts, ts2 in zip(d, d2):
            assert ts.id == ts2.id
            assert np.array_equal(ts.values, ts2.values)


class TestInfo:
    def test_byte_order_mark_before_header(self, tmp_path):
        """Spreadsheets save "CSV UTF-8" with a byte-order mark before the
        first column's name."""
        info = tmp_path / "i.csv"
        info.write_bytes(b"\xef\xbb\xbf" + b"M4id,Horizon,SP,StartingDate\nD1,14,Daily,1994-01-01\n")
        records = load_m4_info(info)
        assert list(records) == ["D1"]
        assert records["D1"].horizon == 14
        assert records["D1"].start_date == date(1994, 1, 1)

    def test_parse_and_attach(self, tmp_path):
        vals = write_lines(tmp_path / "v.csv", ["id,V1,V2,V3", "D1,1,2,3"])
        info = write_lines(
            tmp_path / "i.csv",
            [
                "M4id,category,Frequency,Horizon,SP,StartingDate",
                "D1,Macro,1,14,Daily,1994-01-01 12:00",
            ],
        )
        records = load_m4_info(info)
        assert records["D1"].horizon == 14
        assert records["D1"].start_date == date(1994, 1, 1)
        assert records["D1"].frequency_label == "Daily"
        with pytest.warns(UserWarning, match="outside the expected range"):
            d = attach_meta(load_m4_values(vals), records)
        assert d["D1"].horizon == 14
        assert d["D1"].start_date == date(1994, 1, 1)

    def test_daily_lengths_out_of_range_warn_once(self, tmp_path):
        """Out-of-range Daily lengths are counted in one warning that names
        the first five; other labels and in-range lengths are not counted."""
        lengths = [3, 100, 4, 5, 6, 7, 10000, 8]
        data = Dataset([TimeSeries(f"D{i}", np.arange(float(n))) for i, n in enumerate(lengths)]
                       + [TimeSeries("W", np.arange(3.0))])
        info = write_lines(tmp_path / "i.csv", [self.HEADER, "W,1,7,Weekly,2001-02-03"]
                           + [f"D{i},1,14,Daily,2001-02-03" for i in range(len(lengths))])
        with pytest.warns(UserWarning) as caught:
            attach_meta(data, load_m4_info(info))
        assert [str(w.message) for w in caught] == [
            "7 Daily series have a length outside the expected range [93, 9919] "
            "(first: 'D0' (3), 'D2' (4), 'D3' (5), 'D4' (6), 'D5' (7))"
        ]

    def test_attach_and_split_share_the_values(self, tmp_path):
        vals = write_lines(tmp_path / "v.csv", ["id,V1,V2,V3,V4", "D1,1,2,3,4", "D2,5,4,3"])
        info = write_lines(tmp_path / "i.csv", [self.HEADER, "D1,1,2,Weekly,2001-02-03",
                                                "D2,1,2,Weekly,2001-02-03"])
        loaded = load_m4_values(vals)
        attached = attach_meta(loaded, load_m4_info(info))
        split = holdout_split(attached, 2)
        for ts in loaded:
            assert attached[ts.id].values is ts.values
            assert split.train[ts.id].values.base is ts.values
            assert split.train[ts.id].values.tolist() == ts.values[:-2].tolist()

    def test_series_without_info_row_warn_once(self, tmp_path):
        info = write_lines(tmp_path / "i.csv", [self.HEADER, "D1,1,2,Weekly,2001-02-03"])
        records = load_m4_info(info)
        data = Dataset([TimeSeries(f"D{i}", np.arange(20.0)) for i in range(1, 9)])
        with pytest.warns(UserWarning) as caught:
            d = attach_meta(data, records)
        assert [str(w.message) for w in caught] == [
            "7 of 8 series have no info row and keep their horizon and start date "
            "(first: 'D2', 'D3', 'D4', 'D5', 'D6')"
        ]
        assert (d["D1"].horizon, d["D2"].horizon) == (2, data["D2"].horizon)
        assert d["D2"].start_date is None

    def test_complete_info_file_does_not_warn(self, tmp_path, recwarn):
        info = write_lines(tmp_path / "i.csv", [self.HEADER, "D1,1,2,Weekly,2001-02-03",
                                                "D2,1,3,Weekly,2001-02-03"])
        attach_meta(Dataset([TimeSeries(f"D{i}", np.arange(20.0)) for i in (1, 2)]),
                    load_m4_info(info))
        assert not recwarn.list

    def test_unparseable_date_warns_and_absent(self, tmp_path):
        info = write_lines(
            tmp_path / "i.csv",
            ["M4id,Frequency,Horizon,SP,StartingDate", "D1,1,14,Daily,not-a-date",
             "D2,1,14,Daily,1994-01-01", "D3,1,14,Daily,", "D4,1,14,Daily,31-31-1999"],
        )
        with pytest.warns(UserWarning) as caught:
            records = load_m4_info(info)
        assert [str(w.message) for w in caught] == [
            "2 of 4 series have an unparseable start date and are treated as undated "
            "(first: 'D1' ('not-a-date'), 'D4' ('31-31-1999'))"
        ]
        assert [records[f"D{i}"].start_date for i in (1, 3, 4)] == [None, None, None]
        assert records["D2"].start_date == date(1994, 1, 1)

    def test_frequency_column_is_not_read(self, tmp_path):
        info = write_lines(
            tmp_path / "i.csv",
            ["M4id,Frequency,Horizon,SP,StartingDate", "D1,x,7,Daily,2001-02-03"],
        )
        records = load_m4_info(info)
        assert records["D1"].horizon == 7
        assert records["D1"].start_date == date(2001, 2, 3)

    HEADER = "M4id,Frequency,Horizon,SP,StartingDate"

    def test_duplicate_id_refused(self, tmp_path):
        info = write_lines(tmp_path / "i.csv",
                           [self.HEADER, "D1,1,14,Daily,", "D2,1,14,Daily,", "D1,1,7,Daily,"])
        with pytest.raises(LoadError, match="duplicate series id 'D1'"):
            load_m4_info(info)

    @pytest.mark.parametrize("row", [",1,14,Daily,", " ,1,14,Daily,1994-01-01", ",,,,"])
    def test_empty_id_refused(self, tmp_path, row):
        info = write_lines(tmp_path / "i.csv", [self.HEADER, "D1,1,14,Daily,", row])
        with pytest.raises(LoadError, match="row 3 has an empty series id"):
            load_m4_info(info)

    def test_empty_id_in_a_later_id_column_refused(self, tmp_path):
        info = write_lines(tmp_path / "i.csv", ["Frequency,Horizon,M4id", "1,14,D1", "1,14,"])
        with pytest.raises(LoadError, match="row 3 has an empty series id"):
            load_m4_info(info)

    @pytest.mark.parametrize("horizon", ["14.7", "0", "-3", "0.5", "nan", "inf", "", "x"])
    def test_horizon_not_a_whole_number_refused(self, tmp_path, horizon):
        info = write_lines(tmp_path / "i.csv", [self.HEADER, f"D1,1,{horizon},Daily,"])
        with pytest.raises(LoadError, match="bad horizon for series 'D1'"):
            load_m4_info(info)

    @pytest.mark.parametrize("horizon", ["14", "14.0", " 14 ", "1"])
    def test_whole_horizon_loads(self, tmp_path, horizon):
        info = write_lines(tmp_path / "i.csv", [self.HEADER, f"D1,1,{horizon},Daily,", ""])
        assert load_m4_info(info)["D1"].horizon == int(float(horizon))

    def test_missing_info_means_no_dates(self, tmp_path):
        vals = write_lines(tmp_path / "v.csv", ["id,V1,V2", "D1,1,2"])
        d = load_m4_values(vals)
        assert d["D1"].start_date is None
        assert d["D1"].horizon == 14


class TestAdoption:
    """A series adopts a read-only float64 array and copies anything else."""

    @staticmethod
    def frozen(values):
        values = np.array(values, dtype=np.float64)
        values.flags.writeable = False
        return values

    def test_writeable_input_is_copied(self):
        values = np.arange(5.0)
        ts = TimeSeries("A", values)
        values[0] = 99.0
        assert ts.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert not np.shares_memory(ts.values, values)
        assert not ts.values.flags.writeable

    def test_read_only_view_of_a_writeable_array_is_copied(self):
        values = np.arange(5.0)
        view = values[1:]
        view.flags.writeable = False
        ts = TimeSeries("A", view)
        values[1] = 99.0
        assert ts.values.tolist() == [1.0, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("values", [np.arange(5, dtype=np.float32), np.arange(5),
                                        [0, 1, 2, 3, 4], np.arange(5.0).astype(">f8")])
    def test_other_types_are_converted(self, values):
        if isinstance(values, np.ndarray):
            values.flags.writeable = False
        ts = TimeSeries("A", values)
        assert ts.values.dtype == np.dtype(np.float64)
        assert ts.values.tolist() == [0.0, 1.0, 2.0, 3.0, 4.0]
        assert not ts.values.flags.writeable

    def test_read_only_float64_is_shared(self):
        values = self.frozen(np.arange(5.0))
        assert TimeSeries("A", values).values is values
        view = values[1:4]
        assert TimeSeries("B", view).values is view

    @pytest.mark.parametrize("bad", [[1.0, np.nan], [np.inf], [], [[1.0, 2.0]]])
    @pytest.mark.parametrize("adopted", [False, True])
    def test_bad_values_raise_adopted_or_not(self, bad, adopted):
        values = self.frozen(bad) if adopted else np.array(bad, dtype=np.float64)
        with pytest.raises(ValueError, match="'A'"):
            TimeSeries("A", values)


class TestHoldoutSplit:
    def test_basic(self):
        d = Dataset([TimeSeries("A", [1.0, 2.0, 3.0, 4.0, 5.0])])
        split = holdout_split(d, 2)
        assert split.train["A"].values.tolist() == [1.0, 2.0, 3.0]
        assert split.test["A"].tolist() == [4.0, 5.0]

    def test_concat_is_identity(self, rng):
        d = Dataset([TimeSeries(f"A{i}", rng.normal(0, 1, int(rng.integers(20, 60))))
                     for i in range(5)])
        split = holdout_split(d, 14)
        for ts in d:
            rebuilt = np.concatenate([split.train[ts.id].values, split.test[ts.id]])
            assert np.array_equal(rebuilt, ts.values)
            assert split.test[ts.id].size == 14

    def test_too_short_names_series(self):
        d = Dataset([TimeSeries("A", np.ones(20) + np.arange(20)),
                     TimeSeries("B", np.arange(14.0))])
        with pytest.raises(ValueError, match="'B'"):
            holdout_split(d, 14)


class TestForecastCsv:
    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "id,V1,V2\nD1,1,2\nD2,5\n"
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text)
        marked.write_bytes(b"\xef\xbb\xbf" + text.encode())
        one, two = read_forecast_csv(plain), read_forecast_csv(marked)
        assert list(two) == list(one) == ["D1", "D2"]
        assert all(np.array_equal(one[sid], two[sid]) for sid in one)

    def test_round_trip(self, tmp_path, rng):
        fcs = {"D1": rng.normal(0, 1, 14), "D2": rng.normal(0, 1, 6)}
        path = tmp_path / "f.csv"
        write_forecast_csv(fcs, path)
        back = read_forecast_csv(path)
        assert list(back) == ["D1", "D2"]
        for sid in fcs:
            assert np.array_equal(back[sid], fcs[sid])

    def test_header_layout(self, tmp_path):
        path = tmp_path / "f.csv"
        write_forecast_csv({"D1": np.array([1.5, 2.5])}, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,F1,F2"
        assert lines[1] == "D1,1.5,2.5"

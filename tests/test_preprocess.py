import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from batadal_fixture import BATADAL_COLUMNS, write_batadal_csv
from conftest import traced_peak
from oracles import reference_load_csv, write_table_reference
from tdcae import preprocess
from tdcae.errors import ConfigError, DimensionError, IngestionError, NumericError
from tdcae.preprocess import (
    EDGE_FEATURES,
    DatasetFrame,
    RobustScalerParams,
    apply_scaler,
    fit_scaler,
    load_csv,
    read_table,
    save_csv,
    write_table,
)
from tdcae.synth import TankSystemConfig, simulate


def frame_bits(frame: DatasetFrame) -> list:
    """Every field of a frame, arrays as (dtype, shape, bytes)."""
    fields = [(f.name, getattr(frame, f.name)) for f in dataclasses.fields(frame)]
    return [(name, (v.dtype, v.shape, v.tobytes()) if isinstance(v, np.ndarray) else v)
            for name, v in fields]


def load_outcome(path, load=load_csv):
    """frame_bits of load(path), or the message of its IngestionError."""
    try:
        return frame_bits(load(path))
    except IngestionError as exc:
        return str(exc)


def frame_from_columns(**columns) -> DatasetFrame:
    names = list(columns.keys())
    values = np.column_stack([np.asarray(v, dtype=float) for v in columns.values()])
    return DatasetFrame(feature_names=names, values=values)


class TestScaler:
    def test_median_and_iqr_with_linear_interpolation(self):
        frame = frame_from_columns(a=[1, 2, 3, 4, 100])
        params = fit_scaler(frame)
        assert params.median[0] == pytest.approx(3.0)
        assert params.iqr[0] == pytest.approx(2.0)  # p75=4, p25=2

    def test_constant_feature_gets_unit_divisor(self):
        params = fit_scaler(frame_from_columns(s=[5, 5, 5, 5]))
        assert params.median[0] == 5.0
        assert params.iqr[0] == 0.0
        assert params.divisors[0] == 1.0

    def test_symmetric_data_has_zero_median(self):
        params = fit_scaler(frame_from_columns(a=[-3.0, 0.0, 3.0, -3.0, 3.0, 0.0]))
        assert params.median[0] == 0.0

    def test_memory_is_about_one_scaled_matrix(self):
        values = np.random.default_rng(0).standard_normal((20_000, 8))
        frame = DatasetFrame([f"c{k}" for k in range(8)], values)
        params = fit_scaler(frame)
        assert traced_peak(lambda: apply_scaler(params, frame)) < 1.5 * values.nbytes

    def test_needs_at_least_four_rows(self):
        with pytest.raises(ConfigError):
            fit_scaler(frame_from_columns(a=[1, 2, 3]))

    def test_value_at_median_scales_to_zero(self):
        frame = frame_from_columns(a=[1, 2, 3, 4, 100])
        params = fit_scaler(frame)
        scaled = apply_scaler(params, frame)
        assert scaled.values[2, 0] == 0.0

    def test_value_at_p75_scales_to_half_iqr_ratio(self):
        frame = frame_from_columns(a=[1, 2, 3, 4, 100])
        scaled = apply_scaler(fit_scaler(frame), frame)
        # (4 - 3) / 2 = 0.5 at the p75 sample
        assert scaled.values[3, 0] == pytest.approx(0.5)

    def test_not_idempotent(self):
        frame = frame_from_columns(a=[1, 2, 3, 4, 100])
        params = fit_scaler(frame)
        once = apply_scaler(params, frame)
        twice = apply_scaler(params, once)
        assert not np.allclose(once.values, twice.values)

    def test_unknown_feature_raises(self):
        params = fit_scaler(frame_from_columns(a=[1, 2, 3, 4]))
        with pytest.raises(ConfigError):
            apply_scaler(params, frame_from_columns(b=[1, 2, 3, 4]))

    def test_scaled_train_has_zero_median_unit_iqr(self, rng):
        frame = frame_from_columns(a=rng.normal(5, 2, 101), b=rng.exponential(3, 101))
        scaled = apply_scaler(fit_scaler(frame), frame)
        med = np.percentile(scaled.values, 50, axis=0)
        iqr = np.percentile(scaled.values, 75, axis=0) - np.percentile(
            scaled.values, 25, axis=0
        )
        assert np.allclose(med, 0.0, atol=1e-12)
        assert np.allclose(iqr, 1.0, atol=1e-12)

    def test_labels_pass_through_untouched(self):
        frame = DatasetFrame(
            feature_names=["a"],
            values=np.arange(6.0).reshape(-1, 1),
            labels=np.array([0, 1, 1, 0, 0, 1]),
        )
        scaled = apply_scaler(fit_scaler(frame), frame)
        assert np.array_equal(scaled.labels, frame.labels)

    @pytest.mark.parametrize("median, iqr", [
        ([0.0], [np.nan]), ([0.0], [np.inf]), ([np.nan], [1.0]), ([-np.inf], [1.0]),
    ])
    def test_non_finite_median_or_iqr_rejected(self, median, iqr):
        with pytest.raises(ConfigError, match="finite"):
            RobustScalerParams(["a"], median, iqr)

    @pytest.mark.parametrize("median, iqr, message", [
        ([np.nan], [1.0], "a.median must be finite, got nan"),
        ([0.0], [-1.0], "a.iqr must be >= 0"),
        # Within one feature the median is checked first, and features in order.
        ([np.inf], [-1.0], "a.median must be finite, got inf"),
        ([0.0, np.nan], [-1.0, 1.0], "a.iqr must be >= 0"),
        (["1.0"], [1.0], "a.median must be a number, got '1.0'"),
        ([0.0], [True], "a.iqr must be a number, got True"),
        ([[1.0, 2.0], 0.0], [1.0, 1.0], "a.median must be a number, got [1.0, 2.0]"),
        ([10**400], [1.0], "a.median must be finite, got an int beyond float range"),
        (np.zeros(2), np.array([1.0, -2.0]), "b.iqr must be >= 0"),
    ])
    def test_each_entry_is_checked_and_named(self, median, iqr, message):
        names = ["a", "b"][: len(median)]
        with pytest.raises(ConfigError) as info:
            RobustScalerParams(names, median, iqr)
        assert str(info.value) == message

    @pytest.mark.parametrize("median", [np.zeros((2, 1)), [[1.0], [2.0]], [1.0], 1.0])
    def test_median_of_another_shape_is_a_dimension_error(self, median):
        with pytest.raises(DimensionError, match="^median/iqr must have one entry per feature$"):
            RobustScalerParams(["a", "b"], median, [1.0, 1.0])

    def test_iqr_that_overflows_is_rejected_at_fit(self):
        # p75 - p25 = 2e308 is not a float64: a scaler over it would map the feature to 0.
        with np.errstate(over="ignore"), pytest.raises(ConfigError, match="finite"):
            fit_scaler(frame_from_columns(a=[-1e308, -1e308, 1e308, 1e308]))

    def test_scaler_is_frozen_over_read_only_copies(self):
        median, iqr = np.array([1.0, 2.0]), np.array([0.0, 4.0])
        params = RobustScalerParams(["a", "b"], median, iqr)
        median[0], iqr[0] = 9.0, 9.0
        assert params.median.tolist() == [1.0, 2.0]
        assert params.divisors.tolist() == [1.0, 4.0]
        for array in (params.median, params.iqr, params.divisors):
            with pytest.raises(ValueError):
                array[0] = 3.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            params.iqr = np.ones(2)

    @pytest.mark.parametrize("scale, iqr", [(apply_scaler, 1e-3)])
    def test_finite_value_that_overflows_when_scaled_is_rejected(self, scale, iqr):
        params = RobustScalerParams(["a"], [0.0], [iqr])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite"):
            scale(params, frame_from_columns(a=[1.0, 1e308]))


class TestFrame:
    def test_with_values_copies_everything_but_the_values(self):
        frame = DatasetFrame(["a", "b"], np.zeros((3, 2)), labels=[0, 1, 0],
                             timestamps=range(5, 8), datetimes=["x", "y", "z"])
        out = frame.with_values(np.ones((3, 1)), ["c"])
        assert out.feature_names == ["c"] and np.array_equal(out.values, np.ones((3, 1)))
        assert frame.with_values(frame.values).feature_names == ["a", "b"]
        out.labels[0], out.datetimes[0] = 1, "w"
        assert frame.labels[0] == 0 and frame.datetimes[0] == "x"

    @pytest.mark.parametrize("values, names", [
        (np.zeros((2, 2)), None), (np.zeros((4, 2)), None), (np.zeros((3, 3)), None),
        (np.zeros((3, 2)), ["c"]), (np.zeros(3), None), (np.zeros((3, 2, 1)), None),
    ])
    def test_with_values_rejects_a_wrong_shape(self, values, names):
        frame = DatasetFrame(["a", "b"], np.zeros((3, 2)), timestamps=range(5, 8))
        with pytest.raises(DimensionError):
            frame.with_values(values, names)

    def test_names_and_datetimes_may_be_tuples(self):
        frame = DatasetFrame(("a", "b"), np.zeros((2, 2)), datetimes=("x", "y"))
        assert frame.select(["b"]).feature_names == ["b"] and frame.stamps == ("x", "y")

    def test_with_values_checks_new_names_and_values(self):
        frame = DatasetFrame(["a", "b"], np.zeros((3, 2)))
        with pytest.raises(IngestionError, match="duplicate"):
            frame.with_values(np.zeros((3, 2)), ["c", "c"])
        with pytest.raises(NumericError):
            frame.with_values(np.full((3, 2), np.nan))
        # Names edited in place after construction are checked again.
        frame.feature_names[1] = "a"
        with pytest.raises(IngestionError, match="^duplicate feature names$"):
            frame.with_values(frame.values)
        frame.feature_names[1] = "b"
        assert frame.with_values(np.ones((3, 2), dtype=int)).values.dtype == np.float64


class TestEdgeSegmentation:
    def full_frame(self, rows: int = 6) -> DatasetFrame:
        names = [n for fs in EDGE_FEATURES.values() for n in fs]
        values = np.arange(rows * len(names), dtype=float).reshape(rows, len(names))
        return DatasetFrame(
            feature_names=names, values=values, labels=np.zeros(rows, dtype=int)
        )

    def test_edge1_columns_exact(self):
        frame1 = self.full_frame().select(EDGE_FEATURES[1])
        assert frame1.feature_names == [
            "L_T1", "F_PU1", "S_PU1", "F_PU2", "S_PU2", "F_PU3", "S_PU3",
            "P_J280", "P_J269",
        ]

    def test_segment_widths(self):
        frame = self.full_frame()
        widths = [frame.select(names).n_features for names in EDGE_FEATURES.values()]
        assert widths == [9, 19, 15]

    def test_union_is_disjoint_and_covers_43(self):
        all_names = [n for fs in EDGE_FEATURES.values() for n in fs]
        assert len(all_names) == 43
        assert len(set(all_names)) == 43

    def test_missing_feature_is_named(self):
        frame = self.full_frame()
        keep = [n for n in frame.feature_names if n != "P_J269"]
        with pytest.raises(IngestionError, match="P_J269"):
            frame.select(keep).select(EDGE_FEATURES[1])

    def test_labels_replicated(self):
        frame = self.full_frame()
        frame.labels[2] = 1
        for names in EDGE_FEATURES.values():
            assert np.array_equal(frame.select(names).labels, frame.labels)


class TestCsv:
    def test_basic_load(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,4\n5,6\n")
        frame = load_csv(path)
        assert frame.n_rows == 3
        assert frame.feature_names == ["a", "b"]
        assert frame.labels is None

    def test_label_column_any_case(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,Att_Flag\n1,0\n2,1\n3,1\n")
        frame = load_csv(path)
        assert frame.feature_names == ["a"]
        assert np.array_equal(frame.labels, [0, 1, 1])

    def test_negative_label_sentinel_becomes_zero(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,ATT_FLAG\n1,-999\n2,1\n")
        assert np.array_equal(load_csv(path).labels, [0, 1])

    def test_datetime_column_kept_as_strings(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("DATETIME, a\n01/01/16 00, 1.5\n01/01/16 01, 2.5\n")
        frame = load_csv(path)
        assert frame.datetimes == ["01/01/16 00", "01/01/16 01"]
        assert frame.values[1, 0] == 2.5

    def test_nan_cell_is_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,NaN\n")
        with pytest.raises(IngestionError, match="row 3"):
            load_csv(path)

    def test_ragged_row_is_rejected_with_row_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3\n")
        with pytest.raises(IngestionError, match="row 3"):
            load_csv(path)

    def test_unparseable_number_names_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n3,oops\n")
        with pytest.raises(IngestionError, match="b"):
            load_csv(path)

    @pytest.mark.parametrize("text, message", [
        # a non-finite cell before a later unparseable cell or short row
        ("a,b\n1,2\n3,inf\n4,x\n", "row 3: non-finite value in b"),
        ("a,b\n1,nan\n2\n", "row 2: non-finite value in b"),
        # an unparseable cell or short row before a later non-finite cell
        ("a,b\n1,x\n2,inf\n", "row 2: cannot parse b='x' as a number"),
        ("a,b\n1,2\n3\n4,nan\n", "row 3: expected 2 cells, got 1"),
        ("a,b\n1,x\n2,3,4\n", "row 2: cannot parse b='x' as a number"),
        # within a row, left to right
        ("a,b\nnan,x\n", "row 2: non-finite value in a"),
        ("a,b\n x ,inf\n", "row 2: cannot parse a='x' as a number"),
        # a bad label cell before a later bad feature cell, and after one
        ("a,ATT_FLAG\n1,x\n2,nan\n", "row 2: cannot parse ATT_FLAG='x' as a number"),
        ("a,ATT_FLAG\n1,nan\nx,0\n", "row 2: non-finite value in ATT_FLAG"),
        ("a,ATT_FLAG\n1,0\nnan,x\n", "row 3: non-finite value in a"),
        # the feature cells of a row come before its label cell
        ("ATT_FLAG,a\nx,inf\n", "row 2: non-finite value in a"),
        # blank lines are skipped but still counted
        ("a,b\n1,2\n\n3,nan\n", "row 4: non-finite value in b"),
        # float() rejects \x1c-\x1f, which str.strip() would remove
        ("a,b\n1,2\x1c\n", "row 2: cannot parse b='2\\x1c' as a number"),
        ("a,b\n1,2\x1c\n3,x\n", "row 2: cannot parse b='2\\x1c' as a number"),
    ])
    def test_first_bad_cell_in_file_order_wins(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(IngestionError) as info:
            load_csv(path)
        assert str(info.value) == f"{path}: {message}"

    def test_whitespace_around_cells_and_a_datetime_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            " a ,DateTime , b ,ATT_FLAG\n"
            " 1.5 , 01/01/16 00 ,\t-2e-3\t, 0 \n"
            "\t7\t,01/01/16 01, 1_0 ,1\n"
        )
        frame = load_csv(path)
        assert frame.feature_names == ["a", "b"]
        assert frame.datetimes == ["01/01/16 00", "01/01/16 01"]
        assert frame.values.tolist() == [[1.5, -0.002], [7.0, 10.0]]
        assert frame.labels.tolist() == [0, 1]

    @pytest.mark.parametrize("layout", ["batadal", "synth"])
    def test_a_byte_order_mark_is_skipped_by_both_readers(self, tmp_path, monkeypatch, layout):
        # Excel's "CSV UTF-8" starts the file with U+FEFF; the BATADAL
        # layout has DATETIME first, the synth layout a feature.
        path = tmp_path / "d.csv"
        if layout == "batadal":
            write_batadal_csv(path, rows=60, seed=3)
        else:
            save_csv(simulate(TankSystemConfig(horizon=150, seed=3)), path)
        expected = frame_bits(load_csv(path))
        head, rest = path.read_bytes().split(b",", 1)
        bom = tmp_path / "bom.csv"
        bom.write_bytes(b"\xef\xbb\xbf" + head + b"," + rest)
        # A quoted header cell sends the file to the reference reader.
        quoted = tmp_path / "quoted.csv"
        quoted.write_bytes(b'\xef\xbb\xbf"' + head + b'",' + rest)
        assert frame_bits(reference_load_csv(quoted)) == expected
        assert frame_bits(load_csv(quoted)) == expected

        def refuse(path):
            raise AssertionError("the reference reader ran")

        monkeypatch.setattr(preprocess, "_read_csv_reference", refuse)
        assert frame_bits(load_csv(bom)) == expected

    def test_text_that_is_not_utf8_is_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n1,\xff\n")
        with pytest.raises(IngestionError, match="not UTF-8"):
            load_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(IngestionError):
            load_csv(path)

    def test_a_header_of_empty_cells_is_named_by_the_reference_reader(self, tmp_path):
        # The C reader hands such a header to the reference reader.
        path = tmp_path / "d.csv"
        path.write_text(",,\n1,2,3\n")
        with pytest.raises(IngestionError, match=f"^{re.escape(str(path))}: header row is empty$"):
            load_csv(path)

    @pytest.mark.parametrize("text", ["a,b\n", "a,b", "DATETIME,a\r\n\r\n", "a\n\n\n"])
    def test_header_only_file_has_no_data_rows_and_warns_nothing(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IngestionError, match="d.csv: no data rows"):
                load_csv(path)

    @pytest.mark.parametrize("text", [
        # numpy strips \x1c-\x1f around a number, float() does not
        "a,b\n1,2\x1c\n", "a,b\n1,\x1f2\n",
        # csv.reader caps a cell at csv.field_size_limit() characters,
        # numpy does not
        "a,b\n1," + " " * 200_000 + "2\n",
        # csv.reader unquotes a cell, numpy called without quoting does not
        'DATETIME,a\n"x",1\n',
        # csv.reader rejects NUL before Python 3.11
        "DATETIME,a\nx\x00,1\n",
        # a whitespace-only line is blank to csv.reader, a cell to numpy
        "DATETIME\nx\n \ny\n",
    ])
    def test_what_numpy_could_misread_loads_as_the_reference_loads_it(self, tmp_path, text):
        path = tmp_path / "d.csv"
        path.write_text(text)
        assert load_outcome(path) == load_outcome(path, reference_load_csv)

    @pytest.mark.parametrize("text, message", [
        ("a,b,att_flag,ATT_FLAG\n1,2,0,1\n",
         "header names the ATT_FLAG column twice: columns 3 ('att_flag') and 4 ('ATT_FLAG')"),
        ("DATETIME,a, DateTime\nx,1,y\n",
         "header names the DATETIME column twice: columns 1 ('DATETIME') and 3 ('DateTime')"),
    ])
    def test_a_second_label_or_datetime_column_is_rejected(self, tmp_path, text, message):
        # Both readers refuse it; neither reads the second one as a feature.
        path = tmp_path / "d.csv"
        path.write_text(text)
        assert load_outcome(path) == f"{path}: {message}"
        assert load_outcome(path, reference_load_csv) == f"{path}: {message}"

    @pytest.mark.parametrize("name, column", [("att_flag", "ATT_FLAG"),
                                              (" DateTime ", "DATETIME")])
    def test_save_refuses_a_feature_that_would_load_as_a_reserved_column(
        self, tmp_path, name, column
    ):
        frame = DatasetFrame([name, "b"], np.zeros((2, 2)))
        with pytest.raises(ConfigError) as info:
            save_csv(frame, tmp_path / "d.csv")
        assert str(info.value) == f"feature {name!r} would be read back as the {column} column"
        assert not (tmp_path / "d.csv").exists()

    def test_save_load_round_trip(self, tmp_path, rng):
        frame = DatasetFrame(
            feature_names=["x", "y"],
            values=rng.normal(size=(20, 2)),
            labels=(rng.uniform(size=20) > 0.7).astype(int),
        )
        save_csv(frame, tmp_path / "d.csv")
        back = load_csv(tmp_path / "d.csv")
        assert back.feature_names == frame.feature_names
        assert np.array_equal(back.values, frame.values)
        assert np.array_equal(back.labels, frame.labels)


class TestBatadalLayout:
    def test_fixture_columns_are_the_edge_features(self):
        assert sorted(BATADAL_COLUMNS) == sorted(n for fs in EDGE_FEATURES.values() for n in fs)

    def test_fixture_loads_with_stripped_names_stamps_and_sentinels(self, tmp_path):
        frame = load_csv(write_batadal_csv(tmp_path / "b.csv", rows=60))
        assert frame.feature_names == list(BATADAL_COLUMNS)
        assert (frame.datetimes[0], frame.datetimes[-1]) == ("06/01/14 00", "08/01/14 11")
        assert frame.labels.tolist() == [0] * 30 + [1] * 6 + [0] * 24
        widths = [frame.select(EDGE_FEATURES[e]).n_features for e in (1, 2, 3)]
        assert widths == [9, 19, 15]

    @pytest.mark.parametrize("layout", ["batadal", "synth"])
    def test_numpy_reads_the_file_as_the_reference_does(self, tmp_path, monkeypatch, layout):
        path = tmp_path / "d.csv"
        if layout == "batadal":
            write_batadal_csv(path, rows=200, seed=3)
        else:
            save_csv(simulate(TankSystemConfig(horizon=200, seed=3)), path)
        expected = frame_bits(reference_load_csv(path))

        def refuse(path):
            raise AssertionError("the reference reader ran")

        monkeypatch.setattr(preprocess, "_read_csv_reference", refuse)
        assert frame_bits(load_csv(path)) == expected

    def test_stamps_are_text_under_the_numpy_1_loadtxt_default(self, tmp_path, monkeypatch):
        # numpy < 2 defaults loadtxt's encoding to "bytes", which hands
        # converters bytes; numpy 2 still does so when asked explicitly.
        path = write_batadal_csv(tmp_path / "b.csv", rows=60)
        expected = reference_load_csv(path).datetimes
        loadtxt = np.loadtxt

        def loadtxt_numpy_1(*args, **kwargs):
            kwargs.setdefault("encoding", "bytes")
            return loadtxt(*args, **kwargs)

        def refuse(path):
            raise AssertionError("the reference reader ran")

        monkeypatch.setattr(np, "loadtxt", loadtxt_numpy_1)
        monkeypatch.setattr(preprocess, "_read_csv_reference", refuse)
        datetimes = load_csv(path).datetimes
        assert all(type(stamp) is str for stamp in datetimes)
        assert datetimes == expected


BLOCK = preprocess._BLOCK_ROWS


class TestTableCodec:
    def test_write_table_golden_bytes_read_back(self, tmp_path):
        path = tmp_path / "t.csv"
        floats = np.array([0.1 + 0.2, -0.0, 1e-300])
        write_table(path, ["n", 'a,"b"', "x"], [np.array([7, -2, 0]), ["p", "q,r", 's"t'], floats])
        assert path.read_bytes() == (
            b'n,"a,""b""",x\r\n'
            b"7,p,0.30000000000000004\r\n"
            b'-2,"q,r",-0.0\r\n'
            b'0,"s""t",1e-300\r\n'
        )
        rows = list(read_table(path, ["n", 'a,"b"']))
        assert rows == [
            (2, ["7", "p", "0.30000000000000004"]),
            (3, ["-2", "q,r", "-0.0"]),
            (4, ["0", 's"t', "1e-300"]),
        ]
        assert np.array([float(r[2]) for _, r in rows]).tobytes() == floats.tobytes()

    @pytest.mark.parametrize("rows", [0, BLOCK, 2 * BLOCK + 3])
    def test_blocks_of_rows_keep_the_bytes_of_csv_writer(self, tmp_path, rows):
        # Around repr's switches to exponent notation at 1e16 and 1e-4.
        floats = [-0.0, np.nan, np.inf, -np.inf, 1e16, 9999999999999998.0, 1e-4,
                  9.999999999999999e-05, 0.1 + 0.2, 5e-324, -1.7976931348623157e308]
        texts = ['"', ",", "\r", "\n", 'a"b,c\r\nd', "", "plain"]
        int64 = np.iinfo(np.int64)
        ints = np.resize(np.array([int64.min, -1, 0, int64.max]), rows)
        epochs, losses = zip(*[(k, k / 3) for k in range(rows)]) if rows else ((), ())
        # A frame's timestamps, here from below int64's range to beyond it.
        stamps = range(-(2**64), -(2**64) + rows * 2**60, 2**60)
        columns = [np.resize(np.array(floats), rows), ints, np.arange(rows) % 3 == 0,
                   [texts[k % len(texts)] for k in range(rows)], epochs, losses, stamps]
        header = ["f", 'i"', "b,", "t", "epoch", "loss", "stamp"]
        write_table(tmp_path / "fast.csv", header, columns)
        write_table_reference(tmp_path / "reference.csv", header, columns)
        assert (tmp_path / "fast.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_a_lone_empty_cell_opening_a_block_is_quoted(self, tmp_path):
        column = ["x"] * BLOCK + ["", "y", ""]
        write_table(tmp_path / "fast.csv", [""], [column])
        write_table_reference(tmp_path / "reference.csv", [""], [column])
        data = (tmp_path / "fast.csv").read_bytes()
        assert data == (tmp_path / "reference.csv").read_bytes()
        assert data.endswith(b'x\r\n""\r\ny\r\n""\r\n')

    def test_memory_is_bounded_by_a_block(self, tmp_path):
        rows = 50_000
        values = np.random.default_rng(0).standard_normal((rows, 8))
        columns = [np.arange(rows, dtype=np.int64), *values.T]
        table_bytes = sum(column.nbytes for column in columns)
        header = [f"c{k}" for k in range(9)]
        peak = traced_peak(lambda: write_table(tmp_path / "t.csv", header, columns))
        assert peak < table_bytes

    @pytest.mark.parametrize("columns", [
        [np.arange(3), np.zeros(2)],
        [["a", "b"], np.arange(3)],
        [np.arange(2), np.arange(2), ["x"]],
    ])
    def test_columns_of_unequal_length_are_rejected(self, tmp_path, columns):
        path = tmp_path / "t.csv"
        with pytest.raises(DimensionError, match="unequal length"):
            write_table(path, ["a"] * len(columns), columns)
        assert not path.exists()

    @pytest.mark.parametrize("data, message", [
        (b"a,b\n1,2\n", "expected a header starting with a,c"),
        (b"", "expected a header starting with a,c"),
        (b"a,c\n1,\xff\n", "not UTF-8 text"),
    ])
    def test_read_table_errors_leave_the_file_to_the_caller(self, tmp_path, data, message):
        path = tmp_path / "t.csv"
        path.write_bytes(data)
        with pytest.raises(IngestionError) as info:
            list(read_table(path, ["a", "c"]))
        assert str(info.value) == message


class TestFrameInvariants:
    def test_nonfinite_values_rejected(self):
        with pytest.raises(NumericError):
            DatasetFrame(feature_names=["a"], values=np.array([[np.inf]]))

    # Today's labels of 2 would pass the attack-free check of training, and
    # a float label would be truncated to an integer.
    @pytest.mark.parametrize("labels", [[0, 2, 0], [0.7, 0, 1], [0, -1, 0], ["0", "1", "0"]])
    def test_labels_that_are_not_binary_rejected(self, labels):
        with pytest.raises(ConfigError, match="^labels must be binary$"):
            DatasetFrame(["a"], np.zeros((3, 1)), labels=labels)

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            DatasetFrame(
                feature_names=["a"],
                values=np.zeros((3, 1)),
                labels=np.zeros(2, dtype=int),
            )

    def test_timestamps_default_to_the_row_indices(self):
        assert DatasetFrame(["a"], np.zeros((3, 1))).timestamps == range(3)
        assert DatasetFrame(["a"], np.zeros((0, 1))).timestamps == range(0)

    # A stamp or a step beyond int64 is a Python int like any other.
    @pytest.mark.parametrize("stamps", [range(4, 12, 2), range(7, 8), range(5, 4, -1),
                                        range(-7, 20_000 * 3 - 7, 3), range(3, 3),
                                        range(2**63 - 1, 2**63 + 3 * 2**64, 2**64)],
                             ids=["step-2", "one-row", "one-row-decreasing", "20000-rows",
                                  "no-rows", "beyond-int64"])
    def test_a_range_of_the_row_count_is_kept_as_the_same_object(self, stamps):
        frame = DatasetFrame(["a"], np.zeros((len(stamps), 1)), timestamps=stamps)
        assert frame.timestamps is stamps

    def test_a_decreasing_range_is_rejected(self):
        with pytest.raises(ConfigError, match="^timestamps must be strictly increasing "
                                              "with uniform spacing$"):
            DatasetFrame(["a"], np.zeros((3, 1)), timestamps=range(2, -1, -1))

    # The longest range has more stamps than sys.maxsize, which len() of it
    # refuses with an OverflowError.
    @pytest.mark.parametrize("stamps", [range(4), range(2), range(0, 6, 3)[1:],
                                        range(3, 0, -1)[:2], range(-(2**64), 2**64)],
                             ids=["longer", "shorter", "sliced-short", "decreasing-short",
                                  "beyond-maxsize"])
    def test_a_range_of_another_length_is_rejected(self, stamps):
        with pytest.raises(DimensionError, match="^timestamps length must equal row count$"):
            DatasetFrame(["a"], np.zeros((3, 1)), timestamps=stamps)

    # Refused, not coerced: even uniform integer stamps in another type, and
    # floats, strings, NaN, stamps beyond int64 and booleans, are a named
    # error, not a truncation, a parse, a ValueError or an OverflowError.
    @pytest.mark.parametrize("stamps, kind", [
        ([0, 1, 2], "list"),
        (np.arange(3, dtype=np.int64), "ndarray"),
        (np.array([0.0, 1.0, 2.0]), "ndarray"),
        ((0, 1, 2), "tuple"),
        (["0", "1", "2"], "list"),
        ([0, 1, math.nan], "list"),
        ([0, 2**63, 2**64], "list"),
        (np.array([0, 1, 2], dtype=np.uint64), "ndarray"),
        ([True, False, True], "list"),
        (np.array([0, 1, 2], dtype=object), "ndarray"),
    ], ids=["list", "int64", "float", "tuple", "string", "nan", "beyond-int64", "uint64",
            "bool", "object"])
    def test_timestamps_that_are_not_a_range_are_refused_by_type(self, stamps, kind):
        with pytest.raises(ConfigError, match=f"^timestamps must be a range, got {kind}$"):
            DatasetFrame(["a"], np.zeros((3, 1)), timestamps=stamps)

    def test_derived_frames_share_the_range(self):
        stamps = range(5, 20, 5)
        frame = DatasetFrame(["a", "b"], np.zeros((3, 2)), timestamps=stamps)
        scaler = RobustScalerParams(["a", "b"], [0.0, 0.0], [1.0, 1.0])
        for out in (frame.with_values(np.ones((3, 2))), frame.select(["b"]),
                    apply_scaler(scaler, frame)):
            assert out.timestamps is stamps

    def test_select_preserves_order_and_errors(self):
        frame = frame_from_columns(a=[1, 2, 3, 4], b=[5, 6, 7, 8], c=[9, 10, 11, 12])
        sub = frame.select(["c", "a"])
        assert sub.feature_names == ["c", "a"]
        assert np.array_equal(sub.values[:, 0], frame.values[:, 2])
        with pytest.raises(IngestionError, match="zz"):
            frame.select(["a", "zz"])

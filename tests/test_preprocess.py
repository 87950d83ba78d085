import dataclasses
import warnings

import numpy as np
import pytest

from batadal_fixture import BATADAL_COLUMNS, write_batadal_csv
from tdcae import preprocess
from tdcae.errors import ConfigError, DimensionError, IngestionError, NumericError
from tdcae.model import load_scaler, save_scaler
from tdcae.preprocess import (
    EDGE_FEATURES,
    DatasetFrame,
    RobustScalerParams,
    apply_scaler,
    fit_scaler,
    invert_scaler,
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


def load_outcome(path):
    """frame_bits of load_csv(path), or the message of its IngestionError."""
    try:
        return frame_bits(load_csv(path))
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

    def test_inverse_round_trip(self, rng):
        frame = frame_from_columns(
            a=rng.normal(10, 4, 50), b=rng.uniform(0, 1, 50), c=np.full(50, 2.5)
        )
        params = fit_scaler(frame)
        restored = invert_scaler(params, apply_scaler(params, frame))
        assert np.allclose(restored.values, frame.values, atol=1e-12)

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

    def test_json_round_trip(self, tmp_path):
        params = fit_scaler(frame_from_columns(a=[1, 2, 3, 4, 100], b=[5, 5, 5, 5, 5]))
        save_scaler(params, tmp_path / "scaler.json")
        loaded = load_scaler(tmp_path / "scaler.json")
        assert loaded.feature_names == params.feature_names
        assert np.array_equal(loaded.median, params.median)
        assert np.array_equal(loaded.iqr, params.iqr)

    @pytest.mark.parametrize("median, iqr", [
        ([0.0], [np.nan]), ([0.0], [np.inf]), ([np.nan], [1.0]), ([-np.inf], [1.0]),
    ])
    def test_non_finite_median_or_iqr_rejected(self, median, iqr):
        with pytest.raises(ConfigError, match="finite"):
            RobustScalerParams(["a"], median, iqr)

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

    @pytest.mark.parametrize("scale, iqr", [(apply_scaler, 1e-3), (invert_scaler, 1e3)])
    def test_finite_value_that_overflows_when_scaled_is_rejected(self, scale, iqr):
        params = RobustScalerParams(["a"], [0.0], [iqr])
        with np.errstate(over="ignore"), pytest.raises(NumericError, match="non-finite"):
            scale(params, frame_from_columns(a=[1.0, 1e308]))

    @pytest.mark.parametrize("text, field", [
        ('{"a": {"median": 1}}', "missing field a.iqr"),
        ('{"a": {"median": "x", "iqr": 1}}', "a.median"),
        ("[1, 2]", "expected an object"),
        ('{"a": {"median": 1,', "invalid JSON"),
    ])
    def test_malformed_file_names_the_field(self, tmp_path, text, field):
        (tmp_path / "scaler.json").write_text(text)
        with pytest.raises(ConfigError, match=field):
            load_scaler(tmp_path / "scaler.json")


class TestFrame:
    def test_with_values_copies_everything_but_the_values(self):
        frame = DatasetFrame(["a", "b"], np.zeros((3, 2)), labels=[0, 1, 0],
                             timestamps=[5, 6, 7], datetimes=["x", "y", "z"])
        out = frame.with_values(np.ones((3, 1)), ["c"])
        assert out.feature_names == ["c"] and np.array_equal(out.values, np.ones((3, 1)))
        assert frame.with_values(frame.values).feature_names == ["a", "b"]
        out.labels[0], out.timestamps[0], out.datetimes[0] = 1, 0, "w"
        assert frame.labels[0] == 0 and frame.timestamps[0] == 5 and frame.datetimes[0] == "x"

    @pytest.mark.parametrize("values, names", [
        (np.zeros((2, 2)), None), (np.zeros((4, 2)), None), (np.zeros((3, 3)), None),
        (np.zeros((3, 2)), ["c"]), (np.zeros(3), None), (np.zeros((3, 2, 1)), None),
    ])
    def test_with_values_rejects_a_wrong_shape(self, values, names):
        frame = DatasetFrame(["a", "b"], np.zeros((3, 2)), timestamps=[5, 6, 7])
        with pytest.raises(DimensionError):
            frame.with_values(values, names)

    def test_with_values_checks_new_names_and_values(self):
        frame = DatasetFrame(["a", "b"], np.zeros((3, 2)))
        with pytest.raises(IngestionError, match="duplicate"):
            frame.with_values(np.zeros((3, 2)), ["c", "c"])
        with pytest.raises(NumericError):
            frame.with_values(np.full((3, 2), np.nan))
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
    ])
    def test_first_bad_cell_in_file_order_wins(self, tmp_path, text, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(IngestionError) as info:
            load_csv(path)
        assert str(info.value) == message

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
    def test_what_numpy_could_misread_loads_as_the_reference_loads_it(
        self, tmp_path, monkeypatch, text
    ):
        path = tmp_path / "d.csv"
        path.write_text(text)
        got = load_outcome(path)
        monkeypatch.setattr(preprocess, "_read_numbers", lambda path, text_index: None)
        assert got == load_outcome(path)

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
        expected = frame_bits(preprocess._read_csv_reference(path))

        def refuse(path):
            raise AssertionError("the reference reader ran")

        monkeypatch.setattr(preprocess, "_read_csv_reference", refuse)
        assert frame_bits(load_csv(path)) == expected

    def test_stamps_are_text_under_the_numpy_1_loadtxt_default(self, tmp_path, monkeypatch):
        # numpy < 2 defaults loadtxt's encoding to "bytes", which hands
        # converters bytes; numpy 2 still does so when asked explicitly.
        path = write_batadal_csv(tmp_path / "b.csv", rows=60)
        expected = preprocess._read_csv_reference(path).datetimes
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

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            DatasetFrame(
                feature_names=["a"],
                values=np.zeros((3, 1)),
                labels=np.zeros(2, dtype=int),
            )

    def test_nonuniform_timestamps_rejected(self):
        with pytest.raises(ConfigError):
            DatasetFrame(
                feature_names=["a"],
                values=np.zeros((3, 1)),
                timestamps=np.array([0, 1, 3]),
            )

    def test_select_preserves_order_and_errors(self):
        frame = frame_from_columns(a=[1, 2, 3, 4], b=[5, 6, 7, 8], c=[9, 10, 11, 12])
        sub = frame.select(["c", "a"])
        assert sub.feature_names == ["c", "a"]
        assert np.array_equal(sub.values[:, 0], frame.values[:, 2])
        with pytest.raises(IngestionError, match="zz"):
            frame.select(["a", "zz"])

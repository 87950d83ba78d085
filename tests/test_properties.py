"""Property-based checks of invariants that the example tests only sample."""

import contextlib
import dataclasses
import io
import json
import math
import os
import re
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracles import (
    adamax_with_temporaries,
    all_finite_reference,
    backward_matmul,
    backward_np_dot,
    backward_post,
    forward_matmul,
    forward_np_dot,
    init_params_reference,
    mean_square_np_dot,
    polyline_reference,
    reference_load_csv,
    run_calls,
    simulate_reference,
    smooth_reference,
    smooth_shifted_reference,
    tanh_derivatives,
    write_table_reference,
)
from tdcae.cli import TRAIN_SCORES_HEADER, _load_train_scores, main
from tdcae.detect import DetectionConfig, detect, fit_threshold, smooth
from tdcae.errors import ConfigError, DimensionError, NumericError, TdcaeError, _all_finite
from tdcae.metrics import AttackInterval, fuse_edges, intervals_from_labels, ttd_score
from tdcae.model import (LatentPartition, TrainingConfig, _mean_square, _settings, load_model,
                         save_model, train)
from tdcae.nn import Activation, GradientSet, _backward_calls, _forward_calls, init_mlp
from tdcae.optim import _AdamaxState, _adamax_update
from tdcae.preprocess import DatasetFrame, apply_scaler, fit_scaler, load_csv, save_csv, write_table
from tdcae.svgplot import line_plot
from tdcae.synth import AttackKind, AttackScenario, TankSystemConfig, simulate, simulate_trace

# No per-example deadline: timings on a shared machine vary too much.
relaxed = settings(deadline=None)

bits = st.lists(st.booleans(), min_size=1, max_size=60)


@relaxed
@given(data=st.data(), labels=bits)
def test_ttd_score_lies_in_unit_interval(data, labels):
    intervals = intervals_from_labels(np.array(labels, dtype=int))
    assume(intervals)
    flags = data.draw(st.lists(st.booleans(), min_size=len(labels), max_size=len(labels)))
    assert 0.0 <= ttd_score(flags, intervals) <= 1.0


@relaxed
@given(
    st.integers(1, 40).flatmap(
        lambda n: st.lists(st.lists(st.booleans(), min_size=n, max_size=n), min_size=1, max_size=7)
    )
)
def test_or_fusion_flags_an_hour_exactly_when_some_edge_does(edges):
    fused = fuse_edges(edges)
    assert fused.dtype == bool
    assert fused.tolist() == [any(edge[t] for edge in edges) for t in range(len(edges[0]))]


scores = st.lists(st.floats(0.0, 1e3), min_size=1, max_size=50)


@relaxed
@given(data=st.data(), values=scores, window=st.integers(1, 12))
def test_trailing_smooth_at_t_depends_only_on_scores_up_to_t(data, values, window):
    values = np.array(values)
    t = data.draw(st.integers(0, len(values) - 1))
    future = data.draw(st.lists(st.floats(0.0, 1e3), min_size=len(values) - t - 1,
                                max_size=len(values) - t - 1))
    changed = values.copy()
    changed[t + 1 :] = future
    whole = smooth(values, window)
    assert np.array_equal(whole[: t + 1], smooth(changed, window)[: t + 1])
    assert np.allclose(whole[: t + 1], smooth(values[: t + 1], window), rtol=1e-12, atol=0)


@pytest.fixture(scope="module")
def trained():
    """A model trained once on 300 simulated hours, the scaled frame, a
    threshold fitted on it and the detection of that frame."""
    frame = simulate(TankSystemConfig(horizon=300, seed=5))
    scaled = apply_scaler(fit_scaler(frame), frame)
    model, _ = train(TrainingConfig(epochs=2, hidden_size=scaled.n_features), scaled)
    config = DetectionConfig()
    threshold = fit_threshold(model, scaled, config)
    return model, scaled, threshold, config, detect(model, scaled, threshold, config)


# Finite values whose squared reconstruction errors cannot overflow.
huge = st.floats(-1e100, 1e100)


@relaxed
@given(data=st.data())
def test_detect_at_t_depends_only_on_rows_up_to_t(trained, data):
    model, frame, threshold, config, whole = trained
    t = data.draw(st.integers(0, frame.n_rows - 1))
    values = frame.values.copy()
    values[t + 1 :] = data.draw(
        arrays(np.float64, (frame.n_rows - t - 1, frame.n_features), elements=huge, fill=huge)
    )
    changed = detect(model, frame.with_values(values), threshold, config)
    for name in ("raw_scores", "smoothed_scores", "flags"):
        assert getattr(changed, name)[: t + 1].tobytes() == getattr(whole, name)[: t + 1].tobytes()


# Finite signed scores whose window sums cannot overflow, with signed
# zeros and subnormals drawn often, and often of one magnitude so that
# the order of the additions shows in the last bits.
signed = st.lists(
    st.floats(-1e300, 1e300) | st.floats(-1.0, 1.0)
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310]),
    max_size=40,
)


@relaxed
@given(values=signed, window=st.integers(1, 7))
def test_smooth_matches_the_reference_bit_for_bit_up_to_window_7(values, window):
    values = np.array(values, dtype=np.float64)
    expected = smooth_reference(values, window)
    assert smooth(values, window).tobytes() == expected.tobytes()


@relaxed
@given(values=signed, window=st.integers(1, 100))
# Where the running sums meet the windowed sums: n = window, and
# n = window + 1 with a 9-score window that a pairwise sum would round
# otherwise.
@example(values=[1e16] + [1.0] * 8, window=9)
@example(values=[0.0, 1e16] + [1.0] * 8, window=9)
# A leading run of -0.0 sums to +0.0 from +0.0.
@example(values=[-0.0, -0.0, 2.0], window=2)
# Scores that are not contiguous in memory.
@example(values=(np.arange(20.0) / 3)[::2], window=3)
def test_smooth_matches_the_shifted_slice_loop_bit_for_bit(values, window):
    values = np.asarray(values, dtype=np.float64)
    expected = smooth_shifted_reference(values, window)
    assert smooth(values, window).tobytes() == expected.tobytes()


@relaxed
@given(values=st.lists(st.floats(-1e300, 1e300, allow_subnormal=False), min_size=1, max_size=40),
       window=st.integers(1, 100))
def test_smooth_is_within_rounding_of_an_exact_mean(values, window):
    exact = []
    for t in range(len(values)):
        lo = max(t + 1 - window, 0)
        exact.append(math.fsum(values[lo : t + 1]) / (t + 1 - lo))
    bound = 4 * window * np.finfo(float).eps * max(abs(v) for v in values)
    assert np.all(np.abs(smooth(values, window) - exact) <= bound)


@settings(deadline=2000)
@given(values=st.lists(st.floats(0.0, 1e3), min_size=1, max_size=40))
def test_smooth_with_a_huge_window_averages_everything_in_reach(values):
    # A window of n already reaches every earlier row from every row.
    expected = smooth(values, len(values))
    assert smooth(values, 10**9).tobytes() == expected.tobytes()
    assert smooth(values, 10**30).tobytes() == expected.tobytes()


# Cell text that survives the CSV round trip: no surrounding whitespace
# (the loader strips it), no NUL, not a reserved column name.
cell_text = st.text(st.characters(blacklist_characters="\x00", blacklist_categories=("Cs",)),
                    max_size=8).filter(lambda s: s.strip() == s)
names = cell_text.filter(lambda s: s and s.upper() not in ("ATT_FLAG", "DATETIME"))


@st.composite
def frames(draw):
    feature_names = draw(st.lists(names, min_size=1, max_size=5, unique=True))
    n_rows = draw(st.integers(1, 12))
    values = draw(st.lists(
        st.lists(st.floats(allow_nan=False, allow_infinity=False),
                 min_size=len(feature_names), max_size=len(feature_names)),
        min_size=n_rows, max_size=n_rows,
    ))
    labels = draw(st.none() | st.lists(st.integers(0, 1), min_size=n_rows, max_size=n_rows))
    datetimes = draw(st.none() | st.lists(cell_text, min_size=n_rows, max_size=n_rows))
    start, step = draw(st.integers(-10**6, 10**6)), draw(st.integers(1, 24))
    timestamps = draw(st.none() | st.just(range(start, start + step * n_rows, step)))
    return DatasetFrame(feature_names, np.array(values), labels=labels,
                        timestamps=timestamps, datetimes=datetimes)


@relaxed
@given(frame=frames())
def test_csv_round_trip_is_bit_exact(tmp_path_factory, frame):
    path = tmp_path_factory.mktemp("csv") / "frame.csv"
    save_csv(frame, path)
    back = load_csv(path)
    assert back.feature_names == frame.feature_names
    assert back.values.tobytes() == frame.values.tobytes()
    if frame.labels is None:
        assert back.labels is None
    else:
        assert back.labels.tobytes() == frame.labels.tobytes()
    assert back.datetimes == frame.datetimes


def _built(build):
    """(fields, None) of the frame build() returns, or (None, error)."""
    try:
        frame = build()
    except TdcaeError as exc:
        return None, (type(exc), str(exc))
    fields = []
    for f in dataclasses.fields(frame):
        value = getattr(frame, f.name)
        if isinstance(value, np.ndarray):
            value = (value.dtype, value.shape, value.tobytes())
        fields.append((f.name, type(value), value))
    return fields, None


@relaxed
@given(frame=frames(), data=st.data())
def test_a_derived_frame_equals_the_constructor_built_one(frame, data):
    # New values of the right or a wrong shape, finite or not, under the
    # frame's names or new ones (duplicates allowed).
    rows = data.draw(st.sampled_from([frame.n_rows, frame.n_rows + 1]))
    cols = data.draw(st.sampled_from([frame.n_features, frame.n_features + 1]))
    values = np.array(data.draw(st.lists(st.lists(st.floats(), min_size=cols, max_size=cols),
                                         min_size=rows, max_size=rows)))
    names = data.draw(st.none() | st.lists(st.sampled_from(["a", "b", "c"]),
                                           min_size=cols, max_size=cols))
    built = _built(lambda: DatasetFrame(
        list(frame.feature_names if names is None else names), values, labels=frame.labels,
        timestamps=frame.timestamps, datetimes=frame.datetimes,
    ))
    assert _built(lambda: frame.with_values(values, names)) == built


# Starts and steps reach beyond int64; the verdict is read off the listed
# stamps, not off the range's own start, step and length. Half the frames
# have as many rows as the range has stamps.
@relaxed
@given(start=st.integers(-(2**65), 2**65),
       step=(st.integers(-3, 3) | st.integers(-(2**65), 2**65)).filter(bool),
       length=st.integers(0, 5), extra=st.sampled_from([0, 0, -1, 1]))
@example(start=5, step=-1, length=2, extra=0)
@example(start=2**63, step=-(2**64), length=3, extra=0)
def test_a_frame_accepts_exactly_the_increasing_ranges_of_its_row_count(start, step, length,
                                                                          extra):
    stamps = range(start, start + step * length, step)
    listed, rows = list(stamps), max(length + extra, 0)
    try:
        frame = DatasetFrame(["a"], np.zeros((rows, 1)), timestamps=stamps)
    except DimensionError as exc:
        assert len(listed) != rows
        assert str(exc) == "timestamps length must equal row count"
    except ConfigError as exc:
        assert len(listed) == rows and listed[1] <= listed[0]
        assert str(exc) == "timestamps must be strictly increasing with uniform spacing"
    else:
        assert len(listed) == rows and listed == sorted(set(listed))
        assert frame.timestamps is stamps


float64_edges = st.sampled_from([
    math.nan, math.inf, -math.inf, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
    np.finfo(np.float64).max, -np.finfo(np.float64).max,
])


@relaxed
@given(a=arrays(np.float64, array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4),
                elements=float64_edges | st.floats()),
       layout=st.sampled_from(["C", "F", "strided"]), step=st.sampled_from([-2, -1, 2]))
def test_all_finite_agrees_with_the_all_reduction(a, layout, step):
    if layout == "F":
        a = np.asfortranarray(a)
    elif layout == "strided":
        a = a[(slice(None, None, step),) * a.ndim]
    assert bool(_all_finite(a)) is all_finite_reference(a)


@relaxed
@given(data=st.data(), scores=st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                       min_size=1, max_size=30))
def test_train_scores_round_trip_is_bit_exact(tmp_path_factory, data, scores):
    # The stamp column holds timestamps or DATETIME cells, as train writes it.
    datetimes = data.draw(st.none() | st.lists(cell_text, min_size=len(scores),
                                               max_size=len(scores)))
    scores = np.array(scores)
    frame = DatasetFrame(["x"], np.zeros((len(scores), 1)), datetimes=datetimes)
    path = tmp_path_factory.mktemp("scores") / "train_scores.csv"
    write_table(path, TRAIN_SCORES_HEADER, [frame.stamps, scores])
    assert _load_train_scores(path).tobytes() == scores.tobytes()


VALID_CSV = (
    b"DATETIME,L_T1,F_PU1,S_PU1,ATT_FLAG\r\n"
    b"01/01/16 00,3.25,160.5,1.0,0\r\n"
    b"01/01/16 01,3.5,-0.0,0.0,1\r\n"
    b"01/01/16 02,1e-3,12,1,-999\r\n"
)


def byte_edits(size: int, blobs=st.binary(min_size=1, max_size=3)):
    """Up to six byte edits of a file of `size` bytes, each writing,
    inserting or deleting a blob."""
    return st.lists(
        st.tuples(st.sampled_from(["set", "insert", "delete"]), st.integers(0, size), blobs),
        min_size=1, max_size=6,
    )


def edited(content: bytes, edits) -> bytes:
    data = bytearray(content)
    for op, pos, blob in edits:
        pos = min(pos, len(data))
        if op == "set":
            data[pos : pos + len(blob)] = blob
        elif op == "insert":
            data[pos:pos] = blob
        else:
            del data[pos : pos + len(blob)]
    return bytes(data)


@relaxed
@given(edits=byte_edits(len(VALID_CSV)))
def test_mutated_csv_loads_or_raises_a_tdcae_error(tmp_path_factory, edits):
    path = tmp_path_factory.mktemp("mutated") / "data.csv"
    path.write_bytes(edited(VALID_CSV, edits))
    try:
        frame = load_csv(path)
    except TdcaeError:
        return
    assert np.isfinite(frame.values).all()


VALID_CSV_NO_DATETIME = b"".join(
    line.split(b",", 1)[1] for line in VALID_CSV.splitlines(keepends=True)
)

# Bytes on which numpy's C text reader and csv.reader with float() are the
# likeliest to part: the separators \x1c-\x1f, which numpy strips around a
# number and float() does not, quotes, line breaks, delimiters, underscores
# (float() reads "1_0") and blanks.
tricky_blobs = st.lists(st.sampled_from(list(b'\x1c\x1d\x1e\x1f"\r,_ \t')),
                        min_size=1, max_size=3).map(bytes)


@settings(deadline=None, max_examples=300)
@given(data=st.data(), seed=st.sampled_from([VALID_CSV, VALID_CSV_NO_DATETIME]))
def test_load_csv_equals_the_reference_reader(tmp_path_factory, data, seed):
    edits = data.draw(byte_edits(len(seed), tricky_blobs | st.binary(min_size=1, max_size=3)))
    path = tmp_path_factory.mktemp("edited") / "data.csv"
    path.write_bytes(edited(seed, edits))
    assert _built(lambda: load_csv(path)) == _built(lambda: reference_load_csv(path))


@st.composite
def tank_runs(draw):
    """A small tank network and attacks that never overlap within one
    kind and tank."""
    n = draw(st.integers(1, 3))
    horizon = draw(st.integers(100, 160))

    def per_tank(lo, hi):
        return st.lists(st.floats(lo, hi), min_size=n, max_size=n)

    on = draw(per_tank(0.5, 3.0))
    off = [a + b for a, b in zip(on, draw(per_tank(0.5, 3.0)))]
    height = [a + b for a, b in zip(off, draw(per_tank(0.1, 2.0)))]
    config = TankSystemConfig(
        tank_area=draw(per_tank(20.0, 200.0)),
        pump_on_level=on,
        pump_off_level=off,
        tank_height=height,
        pump_flow=draw(st.floats(20.0, 300.0)),
        demand_amplitude=draw(st.floats(0.0, 200.0)),
        demand_noise_std=draw(st.sampled_from([0.0, 8.0, 40.0])),
        noise_std=draw(st.sampled_from([0.0, 0.02])),
        horizon=horizon,
        seed=draw(st.integers(0, 2**32 - 1)),
        initial_levels=draw(st.none() | st.tuples(*(st.floats(0.0, h) for h in height))),
    )
    attacks = []
    for kind in AttackKind:
        for tank in range(n):
            cuts = sorted(draw(st.lists(st.integers(0, horizon - 1), max_size=4, unique=True)))
            for start, end in zip(cuts[::2], cuts[1::2]):
                magnitude = draw(st.floats(-5.0, 5.0))
                attacks.append(AttackScenario(kind, tank, AttackInterval(start, end), magnitude))
    return config, draw(st.permutations(attacks))


@relaxed
@given(run=tank_runs())
def test_simulator_matches_hour_by_hour_reference(run):
    config, attacks = run
    frame, trace = simulate_trace(config, attacks)
    *expected, clamped = simulate_reference(config, attacks)
    got = (frame.values, frame.labels, trace.levels, trace.pump_states,
           trace.inflows, trace.outflows, trace.demands, trace.spills)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
    assert trace.clamped == clamped


@pytest.fixture(scope="module")
def trained_model(tmp_path_factory):
    """A data CSV and the model.json text of a one-epoch run on it."""
    base = tmp_path_factory.mktemp("model")
    assert main(["synth", "--out", str(base / "s"), "--horizon", "120", "--seed", "7"]) == 0
    assert main(["train", "--data", str(base / "s" / "data.csv"), "--out", str(base / "m"),
                 "--epochs", "1", "--hidden", "4", "--seed", "7"]) == 0
    return base / "s" / "data.csv", (base / "m" / "model.json").read_text()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=6,
)


def _mutate_node(data, node):
    """node with one of its descendants (or node itself) replaced by a
    drawn JSON value, or deleted from its container."""
    keys = list(node) if isinstance(node, dict) else []
    if isinstance(node, list):
        keys = list(range(len(node)))
    if not keys or data.draw(st.integers(0, 3)) == 0:
        return data.draw(json_values)
    key = data.draw(st.sampled_from(keys))
    if data.draw(st.integers(0, 7)) == 0:
        del node[key]
    else:
        node[key] = _mutate_node(data, node[key])
    return node


@relaxed
@given(data=st.data(), structural=st.booleans())
def test_detect_on_a_mutated_model_exits_0_or_1(tmp_path_factory, trained_model, data,
                                                  structural):
    csv_path, text = trained_model
    if structural:
        mutated = json.dumps(_mutate_node(data, json.loads(text))).encode()
    else:
        mutated = edited(text.encode(), data.draw(byte_edits(len(text))))
    base = tmp_path_factory.mktemp("mutated")
    (base / "model.json").write_bytes(mutated)
    code = main(["detect", "--model", str(base / "model.json"), "--data", str(csv_path),
                 "--train-data", str(csv_path), "--out", str(base / "det")])
    assert code in (0, 1)


finite_numbers = st.integers(-2**53, 2**53) | st.floats(allow_nan=False, allow_infinity=False)


def right_kind(default):
    """JSON values that a settings field with this default accepts."""
    if isinstance(default, int):
        return st.integers()
    if isinstance(default, float):
        return finite_numbers
    lists = st.lists(finite_numbers, max_size=4)
    return lists if default is not None else lists | st.none()


def wrong_kind(default):
    """JSON values that a settings field with this default refuses: a
    string, a bool, null (unless the default is None), a float for an int,
    a list for a scalar, and a scalar or a list holding a non-number for a
    list."""
    kinds = [st.text(max_size=4), st.booleans()]
    if default is not None:
        kinds.append(st.none())
    if isinstance(default, int):
        kinds.append(st.floats())
    if isinstance(default, (int, float)):
        kinds.append(st.lists(finite_numbers, max_size=3))
    else:
        not_number = st.text(max_size=4) | st.booleans() | st.none()
        kinds += [finite_numbers, st.tuples(st.lists(finite_numbers, max_size=2), not_number)
                  .map(lambda parts: [*parts[0], parts[1]])]
    return st.one_of(kinds)


@relaxed
@given(data=st.data(), command=st.sampled_from(["train", "synth"]))
def test_settings_fields_are_checked_against_the_kind_of_their_default(
    tmp_path_factory, trained_model, data, command
):
    if command == "train":
        defaults, where = TrainingConfig().to_dict(), ""
    else:
        defaults, where = vars(TankSystemConfig()), "tanks."
    key = data.draw(st.sampled_from(sorted(defaults)))
    base = tmp_path_factory.mktemp("settings")
    wrong = data.draw(wrong_kind(defaults[key]))
    doc = {key: wrong} if command == "train" else {"tanks": {key: wrong}}
    (base / "cfg.json").write_text(json.dumps(doc))
    argv = [command, "--out", str(base / "out"), "--config", str(base / "cfg.json")]
    if command == "train":
        argv += ["--data", str(trained_model[0])]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 1
    assert re.search(rf"{re.escape(where + key)}(\[\d+\])? (must|needs) ", err.getvalue())

    fields = _settings({key: data.draw(right_kind(defaults[key]))}, defaults, where)
    try:
        TrainingConfig.from_dict(fields) if command == "train" else TankSystemConfig(**fields)
    except ConfigError as exc:
        assert not re.search(r"must be (an integer|a number|a list)", str(exc))


partitions = st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(lambda p: p != (0, 0))


@relaxed
@given(data=st.data(), n_features=st.integers(1, 10), hidden=st.integers(1, 12),
       partition=partitions, seed=st.integers(0, 2**32))
def test_save_model_round_trips_its_model_and_refuses_another(
    tmp_path_factory, data, n_features, hidden, partition, seed
):
    def frame_of(width):
        values = np.random.default_rng(seed).normal(size=(8, width))
        return DatasetFrame([f"f{k}" for k in range(width)], values)

    config = TrainingConfig(epochs=1, hidden_size=hidden, partition=LatentPartition(*partition),
                            seed=seed)
    frame = frame_of(n_features)
    scaler = fit_scaler(frame)
    model, _ = train(config, apply_scaler(scaler, frame))
    base = tmp_path_factory.mktemp("saved")
    save_model(base / "model.json", model, scaler, config)
    loaded, loaded_scaler, loaded_config = load_model(base / "model.json")
    assert loaded.partition == model.partition and loaded_config == config
    for mine, theirs in ((model.encoder, loaded.encoder), (model.decoder, loaded.decoder)):
        assert theirs.layer_sizes == mine.layer_sizes
        assert [l.activation for l in theirs.layers] == [l.activation for l in mine.layers]
        assert theirs.params.tobytes() == mine.params.tobytes()
    assert loaded_scaler.feature_names == scaler.feature_names
    assert loaded_scaler.median.tobytes() == scaler.median.tobytes()
    assert loaded_scaler.iqr.tobytes() == scaler.iqr.tobytes()
    save_model(base / "resaved.json", loaded, loaded_scaler, loaded_config)
    assert (base / "resaved.json").read_bytes() == (base / "model.json").read_bytes()

    # The model against a config or scaler that build_model would not
    # have built it from.
    other = data.draw(st.sampled_from(["partition", "hidden", "scaler"]))
    if other == "partition":
        config = dataclasses.replace(config, partition=LatentPartition(
            *data.draw(partitions.filter(lambda p: p != partition))))
    elif other == "hidden":
        config = dataclasses.replace(
            config, hidden_size=data.draw(st.integers(1, 12).filter(lambda h: h != hidden)))
    else:
        width = data.draw(st.integers(1, 10).filter(lambda n: n != n_features))
        scaler = fit_scaler(frame_of(width))
    with pytest.raises(ConfigError):
        save_model(base / "other.json", model, scaler, config)
    assert not (base / "other.json").exists()


@pytest.fixture(scope="module")
def small_pipeline(tmp_path_factory):
    """A 200-hour synth, train and detect chain whose files drawn argv use."""
    base = tmp_path_factory.mktemp("small")
    chain = [
        ["synth", "--out", base / "train", "--horizon", 200, "--seed", 4, "--attacks", "none"],
        ["synth", "--out", base / "test", "--horizon", 200, "--seed", 5, "--attacks", "default"],
        ["train", "--data", base / "train" / "data.csv", "--out", base / "model", "--epochs", 1],
        ["detect", "--model", base / "model" / "model.json", "--data", base / "test" / "data.csv",
         "--train-scores", base / "model" / "train_scores.csv", "--out", base / "det"],
    ]
    with contextlib.redirect_stdout(io.StringIO()):
        for argv in chain:
            assert main([str(a) for a in argv]) == 0
    return base


def command_flags(command, base, work) -> dict:
    """Each flag of the command with the value of a working run over the
    pipeline in base, or None where the run omits the flag."""
    model, test = base / "model" / "model.json", base / "test" / "data.csv"
    return {
        "detect": {"--model": model, "--data": test, "--out": work / "out",
                   "--train-scores": base / "model" / "train_scores.csv", "--window": None,
                   "--percentile": None, "--threshold": None, "--train-data": None},
        "evaluate": {"--detections": base / "det" / "detection.csv", "--labels": test,
                     "--out": work / "out"},
        "report": {"--model": model, "--data": test, "--out": work / "out", "--window": None,
                   "--plot-rows": None},
        "train": {"--data": base / "train" / "data.csv", "--out": work / "out", "--epochs": 1,
                  "--alpha": None, "--lr": None, "--delta-t": None, "--seed": None,
                  "--batch-size": None},
        "synth": {"--out": work / "out", "--horizon": 200, "--attacks": "none", "--seed": None},
    }[command]


# The flags that take drawn values. train and synth draw only those whose
# values are checked: no huge --epochs, --hidden, --pairs or --stat, and
# nothing that starts threads or processes.
DRAWN_FLAGS = {
    "train": {"--alpha", "--lr", "--delta-t", "--seed", "--batch-size"},
    "synth": {"--seed", "--horizon"},
}


@relaxed
@given(data=st.data(), command=st.sampled_from(["detect", "evaluate", "report", "train", "synth"]))
def test_drawn_argv_exits_0_or_1(tmp_path_factory, small_pipeline, data, command):
    work = tmp_path_factory.mktemp("argv")
    (work / "dir").mkdir()
    files = sorted(p for p in small_pipeline.rglob("*") if p.is_file())
    values = st.sampled_from(["0", "-1", str(10**30), "nan", "inf", "-inf", work / "dir",
                              work / "missing" / "x"]) | st.sampled_from(files)
    flags = command_flags(command, small_pipeline, work)
    drawn = data.draw(st.sets(st.sampled_from(sorted(DRAWN_FLAGS.get(command, flags))),
                              min_size=1, max_size=3))
    argv = [command]
    for flag, value in flags.items():
        value = data.draw(values) if flag in drawn else value
        if value is not None:
            argv.append(f"{flag}={value}")
    cwd = os.getcwd()
    os.chdir(work)  # a number drawn for --out names a directory here
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    except SystemExit as exc:  # argparse's usage errors
        code = exc.code
    finally:
        os.chdir(cwd)
    assert code in (0, 1), argv


# Floats at the edges of repr's forms: signed zero, non-finite values,
# subnormals, and both sides of the switches to exponent notation at 1e16
# and 1e-4.
EDGE_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -2.2250738585072009e-308,
               2.2250738585072014e-308, 1e16, -1e16, 9999999999999998.0, 1e-4, -1e-4,
               9.999999999999999e-05, 1.7976931348623157e308]
# Any text csv.writer can write, with spaces and the characters that make
# it quote a cell drawn often. Before Python 3.11 csv.writer refuses a NUL.
table_text = st.text(
    st.characters(blacklist_categories=("Cs",),
                  blacklist_characters="\x00" if sys.version_info < (3, 11) else "")
    | st.sampled_from(['"', ",", "\r", "\n", " "]),
    max_size=6,
)


def table_columns(rows):
    """One write_table column of `rows` entries: a float64, int64 or bool
    array, text, or a list of Python values as zip(*rows) gives them."""
    floats = st.floats() | st.sampled_from(EDGE_FLOATS)
    return st.one_of(
        arrays(np.float64, rows, elements=floats),
        arrays(np.int64, rows),
        arrays(np.bool_, rows),
        st.lists(table_text, min_size=rows, max_size=rows),
        st.lists(st.none() | st.integers() | floats | table_text, min_size=rows, max_size=rows),
    )


@relaxed
@given(data=st.data(), rows=st.integers(0, 8), width=st.integers(1, 4))
def test_write_table_writes_the_bytes_of_csv_writer(tmp_path_factory, data, rows, width):
    header = data.draw(st.lists(table_text, min_size=width, max_size=width))
    columns = [data.draw(table_columns(rows)) for _ in range(width)]
    base = tmp_path_factory.mktemp("table")
    write_table(base / "fast.csv", header, columns)
    write_table_reference(base / "reference.csv", header, columns)
    assert (base / "fast.csv").read_bytes() == (base / "reference.csv").read_bytes()


plot_series = st.one_of(
    arrays(np.float64, st.integers(0, 12)),
    st.builds(np.full, st.integers(1, 12), st.floats()),  # a constant series
)


@relaxed
@given(series=st.lists(plot_series, min_size=1, max_size=3),
       threshold=st.none() | st.floats())
def test_line_plot_polylines_match_the_scalar_oracle(tmp_path_factory, series, threshold):
    path = tmp_path_factory.mktemp("plot") / "p.svg"
    ys = np.concatenate(series).tolist()
    values = set(ys + ([] if threshold is None else [threshold]))
    finite_constant = bool(ys) and len(values) == 1 and math.isfinite(ys[0])
    try:
        expected = polyline_reference(series, threshold)
    except (ValueError, ZeroDivisionError, NumericError) as exc:
        # No y range: every series empty, or no finite one: a NaN, an
        # infinity or values more than the largest float apart. line_plot
        # fails the same way and writes nothing. A finite constant of any
        # size has a range.
        assert not finite_constant
        with pytest.raises(type(exc)):
            line_plot(path, [(f"s{k}", y) for k, y in enumerate(series)], threshold=threshold)
        assert not path.exists()
        return
    line_plot(path, [(f"s{k}", y) for k, y in enumerate(series)], threshold=threshold)
    svg = path.read_text()
    assert "nan" not in svg and "inf" not in svg
    assert re.findall(r'points="([^"]*)"', svg) == expected


def forward_lists(layers, x, post) -> None:
    """The forward pass by the call list that nn._forward_calls builds."""
    run_calls(_forward_calls(layers, x, post))


def backward_lists(*args) -> None:
    """The backward pass by the call list that nn._backward_calls builds."""
    run_calls(_backward_calls(*args))


def run_kernels(forward_kernel, backward_kernel, mlp, x, g):
    """One forward and one backward pass into fresh buffers: the network's
    output, the flat parameter gradient and every layer's input cotangent.
    A backward pass of nn._backward_calls's signature gets the tanh layers'
    derivatives as the training step makes them, by one np.multiply and one
    np.subtract; backward_post makes its own from post."""
    rows = x.shape[0]
    post = [np.empty((rows, layer.weights.shape[0])) for layer in mlp.layers]
    forward_kernel(mlp.layers, x, post)
    output = post[-1].copy()
    grads = GradientSet(np.empty(mlp.params.size), mlp)
    cotangents = [np.empty((rows, layer.weights.shape[1])) for layer in mlp.layers]
    if backward_kernel is backward_post:
        backward_kernel(mlp.layers, x, post, g, grads, np.ones(rows), cotangents)
    else:
        deriv = [None if d is None else np.empty_like(d)
                 for d in tanh_derivatives(mlp.layers, post)]
        for p, d in zip(post, deriv):
            if d is not None:
                np.multiply(p, p, out=d)
                np.subtract(1.0, d, out=d)
        backward_kernel(mlp.layers, x, post, deriv, g, grads, np.ones(rows), cotangents)
    return [output, grads.flat, *cotangents]


@relaxed
@given(data=st.data(), rows=st.integers(1, 100),
       sizes=st.lists(st.integers(1, 20), min_size=2, max_size=4),
       x_order=st.sampled_from("CF"), g_order=st.sampled_from("CF"),
       seed=st.integers(0, 2**32 - 1))
def test_dot_kernels_give_the_bits_of_the_matmul_kernels(data, rows, sizes, x_order, g_order,
                                                          seed):
    # C- or Fortran-order input and output cotangent; the pipeline passes
    # C-order. On a view strided in memory, np.dot and np.matmul choose
    # different BLAS calls and can round differently in the last bit. The
    # derivative-buffer backward kernel must also give the bits of the one
    # that computes tanh' from post in place.
    acts = data.draw(st.lists(st.sampled_from(list(Activation)),
                              min_size=len(sizes) - 1, max_size=len(sizes) - 1))
    mlp = init_mlp(sizes, acts, seed)
    rng = np.random.default_rng(seed)
    x = np.asarray(rng.normal(size=(rows, sizes[0])), order=x_order)
    g = np.asarray(rng.normal(size=(rows, sizes[-1])), order=g_order)
    got = run_kernels(forward_lists, backward_lists, mlp, x, g)
    want = [a.tobytes() for a in got]
    assert [a.tobytes() for a in run_kernels(forward_matmul, backward_matmul, mlp, x, g)] == want
    assert [a.tobytes() for a in run_kernels(forward_lists, backward_post, mlp, x, g)] == want


def laid_out(rng, shape, layout: str) -> np.ndarray:
    """Standard-normal draws of the given shape in C or Fortran order, or
    as a view that takes every other row or every other column of a larger
    C-order array, so strided in memory."""
    rows, cols = shape
    if layout == "rows":
        return rng.normal(size=(2 * rows, cols))[::2]
    if layout == "cols":
        return rng.normal(size=(rows, 2 * cols))[:, ::2]
    return np.asarray(rng.normal(size=shape), order=layout)


@relaxed
@given(data=st.data(), rows=st.integers(1, 100),
       sizes=st.lists(st.integers(1, 20), min_size=2, max_size=4),
       x_layout=st.sampled_from(["C", "F", "rows", "cols"]),
       g_layout=st.sampled_from(["C", "F", "rows", "cols"]),
       seed=st.integers(0, 2**32 - 1))
def test_dot_methods_give_the_bits_of_the_np_dot_kernels(data, rows, sizes, x_layout, g_layout,
                                                         seed):
    # The ndarray method and the function np.dot run the same C routine,
    # so they agree on every layout, strided views included: outputs,
    # gradients, cotangents and the mean square of the loss.
    acts = data.draw(st.lists(st.sampled_from(list(Activation)),
                              min_size=len(sizes) - 1, max_size=len(sizes) - 1))
    mlp = init_mlp(sizes, acts, seed)
    rng = np.random.default_rng(seed)
    x = laid_out(rng, (rows, sizes[0]), x_layout)
    g = laid_out(rng, (rows, sizes[-1]), g_layout)
    got = [a.tobytes() for a in run_kernels(forward_lists, backward_lists, mlp, x, g)]
    assert [a.tobytes() for a in run_kernels(forward_np_dot, backward_np_dot, mlp, x, g)] == got
    flat = x.ravel() if x_layout == "C" else x[:, 0]
    assert _mean_square(flat) == mean_square_np_dot(flat)


@relaxed
@given(sizes=st.lists(st.integers(1, 20), min_size=2, max_size=5),
       seed=st.integers(0, 2**64 - 1))
def test_init_mlp_draws_the_bits_of_per_layer_arrays(sizes, seed):
    # Drawn into the views of a zero Mlp, the parameters have the bits of
    # the same draws into per-layer arrays, concatenated.
    mlp = init_mlp(sizes, [Activation.TANH] * (len(sizes) - 1), seed)
    assert mlp.params.tobytes() == init_params_reference(sizes, seed).tobytes()


# Adamax vectors with the edges of float64: signed zeros, subnormals and
# magnitudes near the largest float, besides ordinary values.
adamax_floats = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e308, -1e308]),
    st.floats(-1e3, 1e3, allow_nan=False),
)


@relaxed
@given(data=st.data(), size=st.integers(1, 12), steps=st.integers(1, 4),
       learning_rate=st.sampled_from([0.01, 0.007, 1.0, 1e-300]))
def test_adamax_step_gives_the_bits_of_the_step_with_temporaries(data, size, steps,
                                                                  learning_rate):
    vector = st.lists(adamax_floats, min_size=size, max_size=size).map(np.array)
    params, state = data.draw(vector), _AdamaxState(size)
    state.moments[...] = data.draw(vector), np.abs(data.draw(vector))
    want_params, want_m, want_u = params.copy(), state.m.copy(), state.u.copy()
    for t in range(1, steps + 1):
        grads = data.draw(vector)
        # Both overflow alike near the largest float.
        with np.errstate(over="ignore", invalid="ignore"):
            assert _adamax_update(params, grads, state, t, learning_rate)
            adamax_with_temporaries(want_params, grads, want_m, want_u, t, learning_rate)
        assert params.tobytes() == want_params.tobytes()
        assert state.moments.tobytes() == np.stack((want_m, want_u)).tobytes()

    # A NaN or an infinity anywhere in the gradient changes nothing.
    grads = data.draw(vector)
    grads[data.draw(st.integers(0, size - 1))] = data.draw(
        st.sampled_from([math.nan, math.inf, -math.inf]))
    before = params.tobytes(), state.moments.tobytes()
    assert not _adamax_update(params, grads, state, steps + 1, learning_rate)
    assert (params.tobytes(), state.moments.tobytes()) == before

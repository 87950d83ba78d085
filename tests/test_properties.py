"""Property-based checks of invariants that the example tests only sample."""

import dataclasses
import json
import math
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import simulate_reference, smooth_reference, smooth_shifted_reference
from tdcae import preprocess
from tdcae.cli import TRAIN_SCORES_HEADER, _load_train_scores, main
from tdcae.detect import DetectionConfig, detect, fit_threshold, smooth
from tdcae.errors import TdcaeError
from tdcae.metrics import AttackInterval, fuse_edges, intervals_from_labels, ttd_score
from tdcae.model import TrainingConfig, train
from tdcae.preprocess import DatasetFrame, apply_scaler, fit_scaler, load_csv, save_csv, write_table
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
def test_or_fusion_flags_everything_majority_flags(edges):
    either = fuse_edges(edges, "or")
    majority = fuse_edges(edges, "majority")
    assert not np.any(majority & ~either)


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
def test_smooth_matches_the_shifted_slice_loop_bit_for_bit(values, window):
    values = np.array(values, dtype=np.float64)
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
    timestamps = draw(st.none() | st.just(start + step * np.arange(n_rows)))
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


def reference_load_csv(path):
    """load_csv with the reference reader alone."""
    with mock.patch.object(preprocess, "_read_numbers", return_value=None):
        return load_csv(path)


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
        n_tanks=n,
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

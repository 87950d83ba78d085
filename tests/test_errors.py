"""The two setting checks of tdcae.errors, `_check_int` and
`_check_number`, as every config type and entry point applies them: a bad
value of any setting is a ConfigError whose message starts with the
setting's name, and a numpy number is stored as a Python int or float.
Then the library's other user errors, each pinned by type and message."""

import dataclasses
import math
import re

import numpy as np
import pytest

from tdcae.detect import DetectionConfig, DetectionResult, detect, fit_threshold, smooth
from tdcae.errors import ConfigError, DimensionError, IngestionError, NumericError
from tdcae.metrics import AttackInterval, ConfusionCounts, fuse_edges
from tdcae.model import (
    HTdcAutoencoder, LatentPartition, TrainingConfig, _LossStep, build_model,
    central_difference, edge_training_config, load_model, save_model, train,
)
from tdcae.nn import Activation, Mlp, init_mlp
from tdcae.preprocess import DatasetFrame, RobustScalerParams, apply_scaler, fit_scaler
from tdcae.synth import AttackKind, AttackScenario, TankSystemConfig, simulate

TANH = Activation.TANH
FREEZE = AttackKind.SENSOR_FREEZE


def loss_step(**settings):
    model = build_model(3, TrainingConfig(hidden_size=2, partition=LatentPartition(1, 1)))
    return _LossStep(model, 2, **{"alpha": 0.002, "delta_t": 1.0, **settings})


def counts(**settings):
    return ConfusionCounts(**{"tp": 1, "fp": 1, "tn": 1, "fn": 1, **settings})


# (name that messages start with, a call that sets the setting to v, minimum).
INT_SETTINGS = [
    ("batch_size", lambda v: TrainingConfig(batch_size=v), 1),
    ("epochs", lambda v: TrainingConfig(epochs=v), 1),
    ("seed", lambda v: TrainingConfig(seed=v), 0),
    ("hidden_size", lambda v: TrainingConfig(hidden_size=v), 1),
    ("n_pairs", lambda v: LatentPartition(v, 1), 0),
    ("n_stat", lambda v: LatentPartition(1, v), 0),
    ("horizon", lambda v: TankSystemConfig(horizon=v), 100),
    ("seed", lambda v: TankSystemConfig(seed=v), 0),
    ("window", lambda v: DetectionConfig(window=v), 1),
    ("target", lambda v: AttackScenario(FREEZE, v, AttackInterval(10, 20)), 0),
    ("start", lambda v: AttackInterval(v, 20), 0),
    ("end", lambda v: AttackInterval(10, v), 10),
    ("tp", lambda v: counts(tp=v), 0),
    ("fp", lambda v: counts(fp=v), 0),
    ("tn", lambda v: counts(tn=v), 0),
    ("fn", lambda v: counts(fn=v), 0),
    ("every layer size", lambda v: Mlp([3, v, 2], [TANH, TANH]), 1),
    ("seed", lambda v: init_mlp([3, 2], [TANH], v), 0),
    ("edge_id", edge_training_config, 1),
    ("window", lambda v: smooth(np.arange(4.0), v), 1),
]

# (name, call, the largest value below the bound, or None for no bound).
NUMBER_SETTINGS = [
    ("learning_rate", lambda v: TrainingConfig(learning_rate=v), 0.0),
    ("alpha", lambda v: TrainingConfig(alpha=v), -1.0),
    ("delta_t", lambda v: TrainingConfig(delta_t=v), 0.0),
    ("tank_area[0]", lambda v: TankSystemConfig(tank_area=(v, 110.0)), 0.0),
    ("pump_on_level[0]", lambda v: TankSystemConfig(pump_on_level=(v, 2.2)), 0.0),
    ("pump_off_level[1]", lambda v: TankSystemConfig(pump_off_level=(5.5, v)), 0.0),
    ("tank_height[0]", lambda v: TankSystemConfig(tank_height=(v, 6.8)), 0.0),
    ("initial_levels[0]", lambda v: TankSystemConfig(initial_levels=(v, 3.0)), -1.0),
    ("pump_flow", lambda v: TankSystemConfig(pump_flow=v), 0.0),
    ("demand_amplitude", lambda v: TankSystemConfig(demand_amplitude=v), -1.0),
    ("demand_period", lambda v: TankSystemConfig(demand_period=v), 0.0),
    ("demand_noise_std", lambda v: TankSystemConfig(demand_noise_std=v), -1.0),
    ("noise_std", lambda v: TankSystemConfig(noise_std=v), -1.0),
    ("percentile", lambda v: DetectionConfig(percentile=v), 0.0),
    ("magnitude", lambda v: AttackScenario(FREEZE, 0, AttackInterval(10, 20), v), None),
    ("delta_t", lambda v: central_difference(np.zeros(2), np.ones(2), v), 0.0),
    ("delta_t", lambda v: loss_step(delta_t=v), 0.0),
    ("alpha", lambda v: loss_step(alpha=v), -1.0),
]

# The int beyond float range gets its test id by hand: its repr exceeds
# Python's limit on the digits of an int, which the checks must not trip.
CASES = [
    pytest.param(name, call, bad, id=f"{name}-{bad!r}")
    for name, call, minimum in INT_SETTINGS
    for bad in (2.5, 2.0, True, "3", None, minimum - 1)
] + [
    pytest.param(name, call, bad, id=f"{name}-{bad!r}")
    for name, call, below in NUMBER_SETTINGS
    for bad in (math.nan, math.inf, True, "0.1") + (() if below is None else (below,))
] + [
    pytest.param(name, call, 10**5000, id=f"{name}-10**5000") for name, call, _ in NUMBER_SETTINGS
] + [
    # A per-tank setting must be a list; only initial_levels may be None.
    pytest.param(name, lambda v, name=name: TankSystemConfig(**{name: v}), bad,
                 id=f"{name}-{bad!r}")
    for name in ("tank_area", "pump_on_level", "pump_off_level", "tank_height", "initial_levels")
    for bad in (140, 3.0, "abc", {"a": 1.0}) + (() if name == "initial_levels" else (None,))
] + [
    pytest.param("partition", lambda v: TrainingConfig(partition=v), (3, 1), id="partition"),
    pytest.param("interval", lambda v: AttackScenario(FREEZE, 0, v), (10, 20), id="interval"),
]


@pytest.mark.parametrize("name, call, bad", CASES)
def test_a_bad_setting_is_a_config_error_naming_it(name, call, bad):
    with pytest.raises(ConfigError) as info:
        call(bad)
    assert str(info.value).startswith(f"{name} must ")


def test_numpy_settings_are_stored_as_python_numbers(tmp_path):
    i, f = np.int64, np.float32
    stored = [
        DetectionConfig(window=i(7), percentile=f(95.0)),
        TankSystemConfig(tank_area=(f(140.0), i(110)), pump_flow=f(160.0), horizon=i(150),
                         seed=i(3), initial_levels=(f(4.0), i(3))),
        AttackScenario(FREEZE, i(1), AttackInterval(10, 20), f(2.0)),
        AttackInterval(i(10), i(20)),
        LatentPartition(i(1), i(1)),
        counts(tp=i(4), fn=i(2)),
    ]
    for config in stored:
        for name, value in vars(config).items():
            for v in value if isinstance(value, tuple) else (value,):
                assert type(v) in (int, float, AttackKind, AttackInterval), (config, name)

    # A model trained with numpy settings keeps them through model.json.
    config = TrainingConfig(learning_rate=f(0.01), batch_size=i(16), alpha=f(0.002),
                            epochs=i(1), seed=i(3), hidden_size=i(4),
                            partition=LatentPartition(i(1), i(1)), delta_t=f(1.0))
    settings = config.to_dict()
    assert {k: type(v) for k, v in settings.items()} == {
        k: type(v) for k, v in TrainingConfig().to_dict().items()}
    frame = simulate(TankSystemConfig(horizon=120, seed=0))
    frame = DatasetFrame(frame.feature_names, frame.values)
    scaler = fit_scaler(frame)
    model, _ = train(config, apply_scaler(scaler, frame))
    save_model(tmp_path / "model.json", model, scaler, config)
    loaded, _, loaded_config = load_model(tmp_path / "model.json")
    assert loaded_config.to_dict() == settings
    assert np.array_equal(loaded.encoder.params, model.encoder.params)
    assert np.array_equal(loaded.decoder.params, model.decoder.params)


IDENTITY = Activation.IDENTITY


def identity_model() -> HTdcAutoencoder:
    """One feature through one identity latent node."""
    return HTdcAutoencoder(Mlp([1, 1], [IDENTITY]), Mlp([1, 1], [IDENTITY]),
                           LatentPartition(0, 1))


def empty_frame() -> DatasetFrame:
    return DatasetFrame(["a"], np.zeros((0, 1)))


def made_nan_in_place() -> DatasetFrame:
    frame = DatasetFrame(["a"], np.arange(6.0).reshape(6, 1))
    frame.values[2, 0] = math.nan
    return frame


# (error type, its whole message, a call that raises it).
USER_ERRORS = {
    "unequal-result-lengths": (
        DimensionError, "score and flag sequences must share one length",
        lambda: DetectionResult(np.zeros(3), np.zeros(3), 1.0, np.zeros(2, dtype=bool))),
    "detect-no-rows": (
        DimensionError, "batch must contain at least one row",
        lambda: detect(identity_model(), empty_frame(), 1.0, DetectionConfig())),
    "threshold-no-rows": (
        ConfigError, "cannot fit a threshold on an empty frame",
        lambda: fit_threshold(identity_model(), empty_frame(), DetectionConfig())),
    "scaler-no-rows": (
        ConfigError, "cannot fit a scaler on an empty dataset",
        lambda: fit_scaler(empty_frame())),
    "fuse-nothing": (
        ConfigError, "fuse_edges needs at least one flag sequence", lambda: fuse_edges([])),
    "empty-latent": (
        ConfigError, "n_stat must be >= 1 when n_pairs is 0", lambda: LatentPartition(0, 0)),
    "encoder-input-decoder-output": (
        DimensionError, "encoder input size must equal decoder output size",
        lambda: HTdcAutoencoder(Mlp([3, 1], [IDENTITY]), Mlp([1, 2], [IDENTITY]),
                                LatentPartition(0, 1))),
    "central-difference-shapes": (
        DimensionError, "z_prev and z_next must share one shape",
        lambda: central_difference(np.zeros(3), np.zeros(4), 1.0)),
    "train-values-made-nan": (
        NumericError, "training frame contains non-finite entries",
        lambda: train(TrainingConfig(epochs=1), made_nan_in_place())),
    "datetimes-length": (
        DimensionError, "datetimes length must equal row count",
        lambda: DatasetFrame(["a"], np.zeros((3, 1)), datetimes=["x", "y"])),
    "feature-names-str": (
        ConfigError, "feature_names must be a list, got str",
        lambda: DatasetFrame("ab", np.zeros((3, 2)), datetimes="xyz")),
    "datetimes-str": (
        ConfigError, "datetimes must be a list, got str",
        lambda: DatasetFrame(["a", "b"], np.zeros((3, 2)), datetimes="xyz")),
    "feature-name-not-str": (
        ConfigError, "feature_names[1] must be a str, got int",
        lambda: DatasetFrame(["a", 2, "c"], np.zeros((3, 3)))),
    "scaler-feature-name-not-str": (
        ConfigError, "feature_names[0] must be a str, got int",
        lambda: RobustScalerParams([1, 2], np.zeros(2), np.ones(2))),
    "datetime-not-str": (
        ConfigError, "datetimes[1] must be a str, got NoneType",
        lambda: DatasetFrame(["a"], np.zeros((3, 1)), datetimes=["x", None, 2.5])),
    # Anything but a list or tuple of names is refused by name, before it is
    # read, by a frame, a scaler and select alike.
    "feature-names-int": (
        ConfigError, "feature_names must be a list, got int",
        lambda: DatasetFrame(5, np.zeros((2, 3)))),
    "feature-names-none": (
        ConfigError, "feature_names must be a list, got NoneType",
        lambda: DatasetFrame(None, np.zeros((2, 3)))),
    "datetimes-int": (
        ConfigError, "datetimes must be a list, got int",
        lambda: DatasetFrame(["a"], np.zeros((2, 1)), datetimes=7)),
    "feature-names-generator": (
        ConfigError, "feature_names must be a list, got generator",
        lambda: DatasetFrame((n for n in ("a", "b")), np.zeros((2, 2)))),
    "feature-names-ndarray": (
        ConfigError, "feature_names must be a list, got ndarray",
        lambda: DatasetFrame(np.array(["a", "b"]), np.zeros((2, 2))).select(["a"])),
    "select-str": (
        ConfigError, "names must be a list, got str",
        lambda: DatasetFrame(["L_T1", "L"], np.zeros((2, 2))).select("L_T1")),
    "select-int": (
        ConfigError, "names must be a list, got int",
        lambda: DatasetFrame(["a"], np.zeros((2, 1))).select(5)),
    "with-values-names-str": (
        ConfigError, "feature_names must be a list, got str",
        lambda: DatasetFrame(["a", "b"], np.zeros((2, 2))).with_values(np.ones((2, 2)), "xy")),
    "scaler-feature-names-str": (
        ConfigError, "feature_names must be a list, got str",
        lambda: RobustScalerParams("ab", np.zeros(2), np.ones(2))),
    "scaler-feature-names-int": (
        ConfigError, "feature_names must be a list, got int",
        lambda: RobustScalerParams(5, np.zeros(2), np.ones(2))),
    "scaler-feature-names-none": (
        ConfigError, "feature_names must be a list, got NoneType",
        lambda: RobustScalerParams(None, np.zeros(2), np.ones(2))),
    "scaler-duplicate-feature-names": (
        IngestionError, "duplicate feature names",
        lambda: RobustScalerParams(["a", "a"], np.zeros(2), np.ones(2))),
    "tank-below-its-pump-off-level": (
        ConfigError, "tank_height must exceed pump_off_level",
        lambda: TankSystemConfig(tank_height=(5.5, 6.8))),
    "unknown-activation": (
        ConfigError, "activations[0] must be one of tanh, identity, got 'relu'",
        lambda: Mlp([2, 2], ["relu"])),
}


@pytest.mark.parametrize("kind, message, call", USER_ERRORS.values(), ids=USER_ERRORS)
def test_a_user_error_is_named(kind, message, call):
    with pytest.raises(kind, match=f"^{re.escape(message)}$"):
        call()


# A config is frozen once checked: a field set afterwards would reach code
# that trusts the check, as a 0 window does `detect`'s smoothing.
@pytest.mark.parametrize("config, field, value", [
    (DetectionConfig(), "window", 0),
    (TrainingConfig(), "batch_size", 0),
    (TankSystemConfig(), "tank_area", (0.0, 110.0)),
], ids=["detection-window", "training-batch-size", "tank-area"])
def test_a_checked_config_refuses_a_field_set_after_its_check(config, field, value):
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, value)
    with pytest.raises(ConfigError, match=f"^{field}"):
        dataclasses.replace(config, **{field: value})


def test_a_gradient_beyond_float_range_is_named():
    # An alpha of 1e308 keeps a batch's loss finite but not its gradient.
    # pyproject.toml makes a RuntimeWarning an error, so a warning from the
    # backward pass would end the call before the raise pinned here.
    frame = DatasetFrame(["a", "b", "c"], np.random.default_rng(0).normal(size=(40, 3)))
    with pytest.raises(NumericError, match="^non-finite gradient at epoch 1, batch 1$"):
        train(TrainingConfig(epochs=1, alpha=1e308, hidden_size=3, seed=0), frame)


def test_a_learning_rate_that_leaves_the_parameters_non_finite_is_named():
    # One batch of all 38 triples: the step size 1e308 / (1 - beta1) is
    # beyond the float range, the parameters it writes are not finite, and
    # no later batch is left to fail on them.
    frame = DatasetFrame(["a", "b", "c"], np.random.default_rng(0).normal(size=(40, 3)))
    config = TrainingConfig(epochs=1, batch_size=64, learning_rate=1e308, hidden_size=3)
    with pytest.raises(NumericError, match=re.escape(
            "non-finite parameters after epoch 1, batch 1, at learning_rate 1e+308")):
        train(config, frame)

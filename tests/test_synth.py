import hashlib
import math
import re

import numpy as np
import pytest

from oracles import simulate_reference
from tdcae.errors import ConfigError
from tdcae.metrics import AttackInterval, intervals_from_labels
from tdcae.preprocess import load_csv, save_csv
from tdcae.synth import (
    AttackKind,
    AttackScenario,
    TankSystemConfig,
    default_attacks,
    simulate,
    simulate_trace,
)


def quiet_config(**overrides) -> TankSystemConfig:
    """One tank, no demand, no noise: nothing should ever move."""
    defaults = dict(
        tank_area=(100.0,),
        pump_on_level=(2.0,),
        pump_off_level=(5.0,),
        tank_height=(7.0,),
        demand_amplitude=0.0,
        demand_noise_std=0.0,
        noise_std=0.0,
        horizon=120,
        seed=0,
    )
    defaults.update(overrides)
    return TankSystemConfig(**defaults)


class TestPhysics:
    def test_zero_demand_pump_off_levels_constant(self):
        frame, trace = simulate_trace(quiet_config())
        # initial level sits mid-band, above the on-level: pump stays off
        assert np.all(trace.pump_states == 0.0)
        assert np.all(trace.levels == trace.levels[0])
        assert np.all(frame.values[:, 0] == frame.values[0, 0])

    def test_constant_inflow_euler_steps(self):
        # start below the on-level with zero demand: the pump fills the
        # tank at exactly Q/A per hour until the off-level switches it off
        config = quiet_config(initial_levels=(1.0,), pump_flow=150.0)
        _, trace = simulate_trace(config)
        rate = 150.0 / 100.0
        for k in range(1, 3):
            assert trace.levels[k, 0] == pytest.approx(1.0 + k * rate, abs=1e-12)
        assert np.all(trace.levels[:, 0] <= 7.0)
        # pump switched off once the level crossed 5.0
        crossed = np.argmax(trace.levels[:-1, 0] >= 5.0)
        assert trace.pump_states[crossed, 0] == 0.0

    def test_mass_balance_exact(self):
        config = TankSystemConfig(horizon=3000, seed=11)
        _, trace = simulate_trace(config, default_attacks(3000))
        area = np.array(config.tank_area)
        dl = np.diff(trace.levels, axis=0)
        expected = (trace.inflows - trace.outflows) / area
        assert np.abs(dl - expected).max() < 1e-12

    def test_hysteresis_switch_conditions(self):
        config = TankSystemConfig(horizon=2000, seed=3)
        _, trace = simulate_trace(config)
        on = np.array(config.pump_on_level)
        off = np.array(config.pump_off_level)
        states = trace.pump_states
        levels = trace.levels[:-1]  # level seen by the controller at step t
        for i in range(config.n_tanks):
            turned_on = (states[1:, i] == 1.0) & (states[:-1, i] == 0.0)
            turned_off = (states[1:, i] == 0.0) & (states[:-1, i] == 1.0)
            assert np.all(levels[1:][turned_on, i] <= on[i])
            assert np.all(levels[1:][turned_off, i] >= off[i])

    def test_pump_status_is_binary(self):
        frame, trace = simulate_trace(TankSystemConfig(horizon=500, seed=9))
        assert set(np.unique(trace.pump_states)) <= {0.0, 1.0}
        status = frame.values[:, [3, 5]]  # S_PU1, S_PU2
        assert set(np.unique(status)) <= {0.0, 1.0}

    def test_same_seed_bit_identical(self):
        a = simulate(TankSystemConfig(horizon=300, seed=21))
        b = simulate(TankSystemConfig(horizon=300, seed=21))
        assert a.values.tobytes() == b.values.tobytes()

    def test_different_seed_differs(self):
        a = simulate(TankSystemConfig(horizon=300, seed=1))
        b = simulate(TankSystemConfig(horizon=300, seed=2))
        assert not np.array_equal(a.values, b.values)


class TestAttacks:
    def test_sensor_freeze_constant_report_evolving_physics(self):
        attack = AttackScenario(AttackKind.SENSOR_FREEZE, 0, AttackInterval(200, 250))
        config = TankSystemConfig(horizon=400, seed=5)
        frame, trace = simulate_trace(config, [attack])
        reported = frame.values[:, 0]  # L_T1
        assert np.all(reported[200:251] == reported[200])
        # hidden level and the flow/status features keep moving
        assert trace.levels[200:251, 0].std() > 0
        assert frame.values[200:251, 2].std() > 0  # F_PU1
        assert np.array_equal(np.where(frame.labels == 1)[0], np.arange(200, 251))

    def test_pump_force_off(self):
        attack = AttackScenario(AttackKind.PUMP_FORCE_OFF, 1, AttackInterval(100, 160))
        frame, trace = simulate_trace(TankSystemConfig(horizon=300, seed=6), [attack])
        assert np.all(trace.pump_states[100:161, 1] == 0.0)
        assert np.all(frame.values[100:161, 5] == 0.0)  # S_PU2 honest
        # the tank drains while its pump is locked out
        assert trace.levels[160, 1] < trace.levels[100, 1]

    def test_level_spoof_shifts_report_and_misleads_controller(self):
        attack = AttackScenario(
            AttackKind.LEVEL_SPOOF_OFFSET, 0, AttackInterval(150, 260), -4.0
        )
        config = TankSystemConfig(horizon=400, seed=7, noise_std=0.0)
        frame, trace = simulate_trace(config, [attack])
        assert np.allclose(
            frame.values[150:261, 0], trace.levels[150:261, 0] - 4.0
        )
        # the controller sees "low" and overfills toward the rim
        assert trace.levels[150:262, 0].max() > config.pump_off_level[0]

    def test_labels_cover_attack_union(self):
        attacks = default_attacks(4000)
        frame = simulate(TankSystemConfig(horizon=4000, seed=8), attacks)
        expected = np.zeros(4000, dtype=int)
        for a in attacks:
            expected[a.interval.start : a.interval.end + 1] = 1
        assert np.array_equal(frame.labels, expected)

    def test_default_attacks_stay_four_at_short_horizons(self):
        # S_TTD scores each attack, so touching intervals must not merge.
        for horizon in range(100, 401):
            attacks = default_attacks(horizon)
            frame = simulate(TankSystemConfig(horizon=horizon, seed=9), attacks)
            assert intervals_from_labels(frame.labels) == [a.interval for a in attacks], horizon

    def test_attack_validation(self):
        config = TankSystemConfig(horizon=200, seed=0)
        with pytest.raises(ConfigError):
            simulate(config, [AttackScenario(
                AttackKind.SENSOR_FREEZE, 5, AttackInterval(10, 20))])
        with pytest.raises(ConfigError):
            simulate(config, [AttackScenario(
                AttackKind.SENSOR_FREEZE, 0, AttackInterval(150, 260))])
        with pytest.raises(ConfigError):
            simulate(config, [
                AttackScenario(AttackKind.SENSOR_FREEZE, 0, AttackInterval(10, 30)),
                AttackScenario(AttackKind.SENSOR_FREEZE, 0, AttackInterval(20, 40)),
            ])


class TestConfigValidation:
    def test_unknown_attack_kind_names_the_kinds(self):
        with pytest.raises(ConfigError, match="^kind must be one of sensor_freeze, "
                                              "pump_force_off, level_spoof_offset, got 'spoof'$"):
            AttackScenario("spoof", 0, AttackInterval(10, 20))
        attack = AttackScenario("sensor_freeze", 0, AttackInterval(10, 20))
        assert attack.kind is AttackKind.SENSOR_FREEZE

    def test_hysteresis_band_must_be_nonempty(self):
        with pytest.raises(ConfigError):
            TankSystemConfig(pump_on_level=(5.0, 2.0), pump_off_level=(5.0, 4.8))

    def test_horizon_minimum(self):
        with pytest.raises(ConfigError):
            TankSystemConfig(horizon=99)

    def test_per_tank_lengths_checked(self):
        with pytest.raises(ConfigError):
            TankSystemConfig(tank_area=(100.0,))

    def test_levels_positive(self):
        with pytest.raises(ConfigError):
            TankSystemConfig(pump_on_level=(0.0, 2.0))

    def test_tank_count_is_the_length_of_the_per_tank_lists(self):
        config = TankSystemConfig(**{k: list(v) for k, v in THREE_TANKS.items()}, horizon=150)
        assert config.n_tanks == 3
        assert config.tank_area == (140.0, 110.0, 90.0)
        frame = simulate(config)
        assert frame.values.shape == (150, 12)
        assert frame.feature_names[:3] == ["L_T1", "L_T2", "L_T3"]

    def test_tank_count_is_not_a_setting(self):
        with pytest.raises(TypeError):
            TankSystemConfig(n_tanks=2)
        with pytest.raises(ConfigError, match="^tank_area needs at least one entry$"):
            TankSystemConfig(tank_area=(), pump_on_level=(), pump_off_level=(), tank_height=())

    def test_initial_levels_checked_with_the_other_per_tank_lists(self):
        # Every list's entries are checked before any list's length.
        with pytest.raises(ConfigError, match=r"^tank_area\[0\] must be > 0$"):
            TankSystemConfig(tank_area=(-1.0, 110.0), initial_levels=(4.0,))
        with pytest.raises(ConfigError, match="^initial_levels needs one entry per tank$"):
            TankSystemConfig(initial_levels=(4.0,))
        message = r"^initial_levels\[1\] must be <= tank_height\[1\], got 7.0 > 6.8$"
        with pytest.raises(ConfigError, match=message):
            TankSystemConfig(initial_levels=(4.0, 7.0))
        assert TankSystemConfig(initial_levels=[4, 3]).initial_levels == (4.0, 3.0)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("field", [
        "tank_area", "pump_on_level", "pump_off_level", "tank_height", "initial_levels",
        "pump_flow", "demand_amplitude", "demand_period", "demand_noise_std", "noise_std",
    ])
    def test_non_finite_settings_named(self, field, bad):
        per_tank = field in ("tank_area", "pump_on_level", "pump_off_level", "tank_height",
                             "initial_levels")
        value = (4.0, bad) if per_tank else bad
        name = re.escape(f"{field}[1]" if per_tank else field)
        with pytest.raises(ConfigError, match=f"^{name} must be finite, got {bad}$"):
            TankSystemConfig(**{field: value})

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 2.5, 2.0, True])
    def test_seed_that_is_not_an_integer_named(self, bad):
        with pytest.raises(ConfigError, match=f"^seed must be an integer, got {bad!r}$"):
            TankSystemConfig(seed=bad)

    def test_numpy_integer_seed_is_kept_as_an_int(self):
        config = TankSystemConfig(horizon=150, seed=np.int64(3))
        assert type(config.seed) is int
        assert simulate(config).values.tobytes() == simulate(
            TankSystemConfig(horizon=150, seed=3)).values.tobytes()


class TestSchema:
    def test_feature_names_and_shape(self):
        config = TankSystemConfig(horizon=150, seed=1)
        frame = simulate(config)
        assert frame.feature_names == [
            "L_T1", "L_T2", "F_PU1", "S_PU1", "F_PU2", "S_PU2", "P_J1", "P_J2",
        ]
        assert frame.values.shape == (150, 8)
        assert frame.labels is not None

    def test_csv_round_trip_with_labels(self, tmp_path):
        frame = simulate(
            TankSystemConfig(horizon=150, seed=2),
            [AttackScenario(AttackKind.SENSOR_FREEZE, 0, AttackInterval(50, 60))],
        )
        save_csv(frame, tmp_path / "synth.csv")
        back = load_csv(tmp_path / "synth.csv")
        assert back.feature_names == frame.feature_names
        assert np.array_equal(back.values, frame.values)
        assert np.array_equal(back.labels, frame.labels)


SPOOF = AttackKind.LEVEL_SPOOF_OFFSET
FREEZE = AttackKind.SENSOR_FREEZE
FORCE_OFF = AttackKind.PUMP_FORCE_OFF


def attack(kind, target, start, end, magnitude=0.0) -> AttackScenario:
    return AttackScenario(kind, target, AttackInterval(start, end), magnitude)


THREE_TANKS = dict(
    tank_area=(140.0, 110.0, 90.0),
    pump_on_level=(3.0, 2.2, 2.0),
    pump_off_level=(5.5, 4.8, 4.0),
    tank_height=(7.5, 6.8, 6.0),
)
ONE_TANK = dict(
    tank_area=(120.0,),
    pump_on_level=(2.5,),
    pump_off_level=(5.0,),
    tank_height=(7.0,),
)

# name: (config, attacks, sha256 of every output array, clamped)
GOLDEN = {
    "default_attacks": (
        dict(horizon=1000, seed=3), default_attacks(1000),
        "f668dd4e094c79c8c0cf905097f2cd418f7b168d3409d0f0ec6d8ee2a35fca00", True,
    ),
    "one_tank": (
        dict(ONE_TANK, horizon=400, seed=4),
        [attack(SPOOF, 0, 50, 90, 1.5), attack(FORCE_OFF, 0, 200, 240)],
        "f4bc006edc0eab65291ebd6cc8128f634ed9875fc0ba5a9ccb38732168cdb055", True,
    ),
    # Tank 1: a freeze starts inside a spoof (it holds the spoofed value);
    # tank 0: a spoof starts inside a freeze; tank 2: a forced outage.
    "three_tanks_overlap": (
        dict(THREE_TANKS, horizon=600, seed=5),
        [
            attack(SPOOF, 1, 100, 180, -2.0), attack(FREEZE, 1, 140, 220),
            attack(FREEZE, 0, 400, 450), attack(SPOOF, 0, 430, 480, 3.0),
            attack(FORCE_OFF, 2, 300, 360),
        ],
        "42a81fadfc456b4329899f9af4d0abe3b6bcdfd263c3b4ed58da83639bd0a00c", True,
    ),
    # Both pumps locked out: the tanks run dry, a level rounds to just
    # below zero and an hour with zero demand then meets want_out == 0.
    "dry_clamp": (
        dict(tank_area=(40.0, 40.0), demand_amplitude=60.0, demand_noise_std=40.0,
             horizon=300, seed=86),
        [attack(FORCE_OFF, 0, 20, 250), attack(FORCE_OFF, 1, 20, 250)],
        "053ce10ac38513669441307de04d987fef3df9379ba4e47590a16a311cde0598", True,
    ),
    "overflow": (
        dict(horizon=300, seed=6), [attack(SPOOF, 0, 50, 200, -6.0)],
        "825ec79f28740227c82457ff8a771b165158484fbaf1bd7e56db6022fb812211", True,
    ),
    "no_demand_noise": (
        dict(horizon=500, seed=7, demand_noise_std=0.0), default_attacks(500),
        "08b9446506a60a497591452b39fd4e970816ede18b83a6ceff6397e549786042", True,
    ),
    "initial_levels": (
        dict(horizon=400, seed=8, initial_levels=(0.0, 6.8)), [],
        "e1a43b5cfc5519278dfa46337388652cdfb647bc617f3b59c8ed50b6c2c97e89", False,
    ),
}

# np.sin is the one step whose last bits may differ between numpy builds
# and CPUs; the golden digests hold where it gives these demand phases.
SIN_DIGEST = "4bc4005d8b91df29f2f8eab8f05da1274c60fcf29c34c5093037a39ffd13f56f"


def sin_digest() -> str:
    h = hashlib.sha256()
    for overrides, *_ in GOLDEN.values():
        config = TankSystemConfig(**overrides)
        hours = np.arange(config.horizon)[:, None]
        phases = np.arange(config.n_tanks) / config.n_tanks
        h.update(np.sin(2.0 * np.pi * (hours / config.demand_period + phases)).tobytes())
    return h.hexdigest()


def outputs(frame, trace) -> tuple:
    return (frame.values, frame.labels, trace.levels, trace.pump_states,
            trace.inflows, trace.outflows, trace.demands, trace.spills)


def output_digest(frame, trace) -> str:
    h = hashlib.sha256()
    for a in outputs(frame, trace):
        h.update(repr((a.dtype.str, a.shape)).encode())
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


class TestGoldenOutputs:
    """Every output array is bit-identical to digests recorded from the
    hour-by-hour numpy implementation (oracles.simulate_reference), and
    to that implementation itself."""

    @pytest.mark.parametrize("name", GOLDEN)
    def test_digest(self, name):
        if sin_digest() != SIN_DIGEST:
            pytest.skip("np.sin differs in the last bits from the recording build")
        overrides, attacks, expected, clamped = GOLDEN[name]
        frame, trace = simulate_trace(TankSystemConfig(**overrides), attacks)
        assert (output_digest(frame, trace), trace.clamped) == (expected, clamped)

    @pytest.mark.parametrize("name", GOLDEN)
    def test_matches_hour_by_hour_reference(self, name):
        overrides, attacks, *_ = GOLDEN[name]
        config = TankSystemConfig(**overrides)
        frame, trace = simulate_trace(config, attacks)
        *expected, clamped = simulate_reference(config, attacks)
        got = outputs(frame, trace)
        assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]
        assert trace.clamped == clamped

    def test_dry_case_reaches_want_out_zero(self):
        overrides, attacks, *_ = GOLDEN["dry_clamp"]
        _, trace = simulate_trace(TankSystemConfig(**overrides), attacks)
        # available < 0 needs a level below zero; want_out == 0 needs no
        # demand and no downstream draw in the same hour
        dry = (trace.levels[:-1] < 0) & (trace.demands == 0)
        assert dry[:, 1].any()

    def test_overflow_case_spills(self):
        overrides, attacks, *_ = GOLDEN["overflow"]
        _, trace = simulate_trace(TankSystemConfig(**overrides), attacks)
        assert trace.spills[:, 0].sum() > 0

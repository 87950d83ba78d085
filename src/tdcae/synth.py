"""Synthetic water-network generator: a cascade of tanks with hysteretic
inlet pumps and sinusoidal consumer demand, plus injectable sensor/actuator
attacks. Produces labeled hourly frames in the same CSV schema the
preprocessing loader reads, so the whole pipeline can be exercised without
any external dataset.

Physics: explicit Euler with a one-hour step on dL/dt = (Q_in - Q_out)/A.
Pump 1 draws from a reservoir; pump i>1 draws from tank i-1. Attacks
corrupt reported sensor values and/or actuator behaviour while the hidden
physical state keeps evolving consistently.

Only the truly sequential state runs hour by hour, on Python floats read
from and written to preallocated arrays: levels, pump hysteresis, the
upstream-first balance with its dry-tank clamp, and the overflow spill.
Noise, the demand table and the attack schedule (per-tank masks and
offsets over the horizon) are built before the loop; the reported levels,
flows and pressures, the spoof and freeze overlays and the labels are
whole-array operations after it, in the same operation order as an
hour-by-hour computation, so every value is bit-identical to one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, _check_int, _check_number
from .metrics import AttackInterval
from .preprocess import DatasetFrame

# Reported-value noise scales per feature class, multiplying noise_std.
_LEVEL_NOISE = 1.0
_FLOW_NOISE = 10.0
_PRESSURE_NOISE = 5.0

# Junction-pressure proxy coefficients: base + level + pump head - demand.
_P_BASE = 25.0
_P_LEVEL = 3.2
_P_PUMP = 2.5
_P_DEMAND = 0.04

# Largest simulated horizon in hours, about 114 years of hourly data. The
# simulator's arrays grow linearly with the horizon; checking the limit up
# front rejects a horizon too large for memory before anything is allocated.
MAX_HORIZON = 1_000_000

# The float settings of TankSystemConfig, each >= 0, and > 0 where marked
# strict: the per-tank lists, whose entries are checked one by one, and the
# scalars.
_PER_TANK = {"tank_area": True, "pump_on_level": True, "pump_off_level": True,
             "tank_height": True, "initial_levels": False}
_SCALARS = {"pump_flow": True, "demand_amplitude": False, "demand_period": True,
            "demand_noise_std": False, "noise_std": False}


class AttackKind(str, Enum):
    SENSOR_FREEZE = "sensor_freeze"
    PUMP_FORCE_OFF = "pump_force_off"
    LEVEL_SPOOF_OFFSET = "level_spoof_offset"


@dataclass(frozen=True)
class AttackScenario:
    kind: AttackKind
    target: int
    interval: AttackInterval
    magnitude: float = 0.0

    def __post_init__(self):
        if self.kind not in tuple(AttackKind):
            raise ConfigError(f"kind must be one of {', '.join(AttackKind)}, got {self.kind!r:.40}")
        object.__setattr__(self, "kind", AttackKind(self.kind))
        object.__setattr__(self, "target", _check_int(self.target, "target", 0))
        if not isinstance(self.interval, AttackInterval):
            raise ConfigError(
                f"interval must be an AttackInterval, got {type(self.interval).__name__}")
        object.__setattr__(self, "magnitude", _check_number(self.magnitude, "magnitude"))


@dataclass(frozen=True)
class TankSystemConfig:
    """Two coupled tanks by default: one per entry of each per-tank field.
    Levels in metres, areas in square metres, flows in cubic metres per
    hour, horizon in hours; float settings and entries must be finite and
    within the bounds of _PER_TANK and _SCALARS."""

    tank_area: tuple[float, ...] = (140.0, 110.0)
    pump_on_level: tuple[float, ...] = (3.0, 2.2)
    pump_off_level: tuple[float, ...] = (5.5, 4.8)
    tank_height: tuple[float, ...] = (7.5, 6.8)
    # Defaults keep every pump's duty cycle inside (1/3, 2/3) so that
    # flow/status features stay bimodal with a healthy interquartile range.
    pump_flow: float = 160.0
    demand_amplitude: float = 100.0
    demand_period: float = 24.0
    demand_noise_std: float = 8.0
    noise_std: float = 0.02
    horizon: int = 4000
    seed: int = 0
    initial_levels: tuple[float, ...] | None = None

    @property
    def n_tanks(self) -> int:
        return len(self.tank_area)

    def __post_init__(self):
        # Each list's entries are checked before the lists' lengths are
        # compared, so a bad entry is named even in a list of another length.
        for name, strict in _PER_TANK.items():
            value = getattr(self, name)
            if value is None and name == "initial_levels":
                continue
            try:
                entries = None if isinstance(value, (str, dict)) else tuple(value)
            except TypeError:
                entries = None
            if entries is None:
                raise ConfigError(f"{name} must be a list of numbers, got {type(value).__name__}")
            object.__setattr__(self, name, tuple(_check_number(v, f"{name}[{i}]", 0.0, strict)
                                                 for i, v in enumerate(entries)))
        if not self.n_tanks:
            raise ConfigError("tank_area needs at least one entry")
        for name in _PER_TANK:
            if getattr(self, name) is not None and len(getattr(self, name)) != self.n_tanks:
                raise ConfigError(f"{name} needs one entry per tank")
        for name, strict in _SCALARS.items():
            object.__setattr__(self, name, _check_number(getattr(self, name), name, 0.0, strict))
        for on, off, height in zip(
            self.pump_on_level, self.pump_off_level, self.tank_height
        ):
            if off <= on:
                raise ConfigError(
                    f"pump_off_level ({off}) must exceed pump_on_level ({on})"
                )
            if height <= off:
                raise ConfigError("tank_height must exceed pump_off_level")
        object.__setattr__(self, "horizon", _check_int(self.horizon, "horizon", 100))
        if self.horizon > MAX_HORIZON:
            raise ConfigError(f"horizon must be in [100, {MAX_HORIZON}], got {self.horizon}")
        object.__setattr__(self, "seed", _check_int(self.seed, "seed", 0))
        for i, (lv, height) in enumerate(zip(self.initial_levels or (), self.tank_height)):
            if lv > height:
                raise ConfigError(f"initial_levels[{i}] must be <= tank_height[{i}], "
                                  f"got {lv} > {height}")

    def feature_names(self) -> list[str]:
        names = [f"L_T{i + 1}" for i in range(self.n_tanks)]
        for i in range(self.n_tanks):
            names.extend([f"F_PU{i + 1}", f"S_PU{i + 1}"])
        names.extend(f"P_J{i + 1}" for i in range(self.n_tanks))
        return names


def _validate_attacks(config: TankSystemConfig, attacks) -> list[AttackScenario]:
    attacks = list(attacks)
    per_target: dict[tuple[AttackKind, int], list[AttackInterval]] = {}
    for attack in attacks:
        if attack.target >= config.n_tanks:
            raise ConfigError(f"attack target {attack.target} is not a tank index")
        iv = attack.interval
        if iv.end >= config.horizon:
            raise ConfigError(
                f"attack interval [{iv.start}, {iv.end}] outside horizon {config.horizon}"
            )
        per_target.setdefault((attack.kind, attack.target), []).append(iv)
    for (_, _), ivs in per_target.items():
        ivs = sorted(ivs, key=lambda iv: iv.start)
        for a, b in zip(ivs, ivs[1:]):
            if b.start <= a.end:
                raise ConfigError("attacks of one kind on one tank must not overlap")
    return attacks


def default_attacks(horizon: int = 4000) -> list[AttackScenario]:
    """Four mixed attacks spread over the horizon: a low spoof driving an
    overflow, a frozen level sensor, a forced pump outage, and a high
    spoof starving the tank. Short horizons shorten the attacks: each ends
    with at least one unlabelled hour before the next starts, so the labels
    keep the four apart, and the last ends by the end of the horizon."""
    starts = [int(horizon * frac) for frac in (0.20, 0.42, 0.62, 0.84)]
    ends = [start - 2 for start in starts[1:]] + [horizon - 1]

    def at(k: int, length: int) -> AttackInterval:
        return AttackInterval(starts[k], min(starts[k] + length - 1, ends[k]))

    return [
        AttackScenario(AttackKind.LEVEL_SPOOF_OFFSET, 0, at(0, 60), -4.0),
        AttackScenario(AttackKind.SENSOR_FREEZE, 1, at(1, 70)),
        AttackScenario(AttackKind.PUMP_FORCE_OFF, 1, at(2, 70)),
        AttackScenario(AttackKind.LEVEL_SPOOF_OFFSET, 1, at(3, 80), 2.8),
    ]


@dataclass
class SimulationTrace:
    """Hidden physical state, kept for invariant checks and debugging."""

    levels: np.ndarray  # (T+1, n) hidden level, index t = start of hour t
    pump_states: np.ndarray  # (T, n) realized on/off
    inflows: np.ndarray  # (T, n) realized pump inflow per tank
    outflows: np.ndarray  # (T, n) realized total outflow per tank
    demands: np.ndarray  # (T, n) realized consumer demand
    spills: np.ndarray  # (T, n) overflow volume lost per step
    clamped: bool = False


def _schedule(config: TankSystemConfig, attacks):
    """The attacks as per-hour arrays over the horizon: the spoof offset
    added to each tank's level (0 where no spoof is active), where forced
    pump outages are active, the labels (1 in hours with any attack
    active) and the frozen (tank, start, end) spans."""
    T, n = config.horizon, config.n_tanks
    offset = np.zeros((T, n))
    forced_off = np.zeros((T, n), dtype=bool)
    labels = np.zeros(T, dtype=np.int64)
    frozen = []
    for attack in attacks:
        i, start, end = attack.target, attack.interval.start, attack.interval.end
        span = slice(start, end + 1)
        labels[span] = 1
        if attack.kind is AttackKind.LEVEL_SPOOF_OFFSET:
            offset[span, i] = attack.magnitude
        elif attack.kind is AttackKind.PUMP_FORCE_OFF:
            forced_off[span, i] = True
        else:
            frozen.append((i, start, end))
    return offset, forced_off, labels, frozen


def _flat(a: np.ndarray) -> memoryview:
    """A flat view of a C-contiguous array whose items read and write as
    Python scalars, without a numpy call per item."""
    return memoryview(a.reshape(-1))


def _demand_table(config: TankSystemConfig, rng) -> np.ndarray:
    """Consumer demand per hour and tank, never negative: a daily
    sinusoid, phase-shifted per tank, plus an AR(1) disturbance with
    ~10 h memory drawn from rng, so different seeds explore different but
    equally normal trajectories."""
    T, n = config.horizon, config.n_tanks
    hours = np.arange(T)[:, None]
    table = (
        config.demand_amplitude
        / 2.0
        * (1.0 + np.sin(2.0 * np.pi * (hours / config.demand_period + np.arange(n) / n)))
    )
    if config.demand_noise_std > 0:
        wander = rng.normal(0.0, 1.0, (T, n))
        rho = 0.9
        # A Python float, so the loop below does no numpy-scalar arithmetic.
        scale = math.sqrt(1.0 - rho * rho)
        w = _flat(wander)
        for k in range(n, T * n):
            w[k] = rho * w[k - n] + scale * w[k]
        table = np.maximum(0.0, table + config.demand_noise_std * wander)
    return table


def _run_hours(config: TankSystemConfig, demand_table, offset, forced_off):
    """The sequential part of the simulation, on Python floats: levels,
    pump hysteresis (the controller sees level + offset), the
    upstream-first balance with its dry-tank clamp, and the overflow
    spill. Returns levels (T+1, n), pump states, inflows, outflows,
    realized demands and spills (T, n each) and whether any hour clamped
    or spilled."""
    T, n = config.horizon, config.n_tanks
    area, height = config.tank_area, config.tank_height
    on, off = config.pump_on_level, config.pump_off_level
    pump_flow = config.pump_flow
    levels = np.empty((T + 1, n))
    pumps, inflows, outflows, demands = (np.empty((T, n)) for _ in range(4))
    spills = np.zeros((T, n))
    level_out, pump_out, in_out, out_out, demand_out = map(
        _flat, (levels, pumps, inflows, outflows, demands)
    )
    demand, shift, forced = map(_flat, (demand_table, offset, forced_off))
    if config.initial_levels is not None:
        level = list(config.initial_levels)
    else:
        level = [(lo + hi) / 2.0 for lo, hi in zip(on, off)]
    pump = [1.0 if lv <= lo else 0.0 for lv, lo in zip(level, on)]
    new = [0.0] * n
    tanks = range(n)
    clamped = False

    for k in range(0, T * n, n):
        for i in tanks:
            level_out[k + i] = level[i]
            ctrl = level[i] + shift[k + i]
            if pump[i] == 1.0 and ctrl >= off[i]:
                pump[i] = 0.0
            elif pump[i] == 0.0 and ctrl <= on[i]:
                pump[i] = 1.0
            if forced[k + i]:
                pump[i] = 0.0
            pump_out[k + i] = pump[i]

        # Pump i+1 draws from tank i; nothing draws from the last tank.
        # Outflows shrink if a tank would run dry.
        realized_in = pump_flow * pump[0]
        for i in tanks:
            want_draw = pump_flow * pump[i + 1] if i + 1 < n else 0.0
            realized_demand = demand[k + i]
            want_out = realized_demand + want_draw
            available = level[i] * area[i] + realized_in
            if want_out > available:
                factor = available / want_out if want_out > 0 else 0.0
                realized_demand *= factor
                want_draw *= factor
                clamped = True
            realized_out = realized_demand + want_draw
            new[i] = level[i] + (realized_in - realized_out) / area[i]
            if new[i] > height[i]:
                # Overflow drains over the rim and counts as outflow.
                spill = spills[k // n, i] = (new[i] - height[i]) * area[i]
                new[i] = height[i]
                realized_out += spill
                clamped = True
            in_out[k + i] = realized_in
            out_out[k + i] = realized_out
            demand_out[k + i] = realized_demand
            realized_in = want_draw
        level, new = new, level
    levels[T] = level
    return levels, pumps, inflows, outflows, demands, spills, clamped


def simulate_trace(
    config: TankSystemConfig, attacks=()
) -> tuple[DatasetFrame, SimulationTrace]:
    """Run the simulator and also return the hidden state trajectory."""
    attacks = _validate_attacks(config, attacks)
    n = config.n_tanks
    T = config.horizon
    rng = np.random.default_rng(config.seed)
    noise_level = rng.normal(0.0, config.noise_std * _LEVEL_NOISE, (T, n))
    noise_flow = rng.normal(0.0, config.noise_std * _FLOW_NOISE, (T, n))
    noise_pressure = rng.normal(0.0, config.noise_std * _PRESSURE_NOISE, (T, n))
    offset, forced_off, labels, frozen = _schedule(config, attacks)
    levels, pumps, inflows, outflows, demands, spills, clamped = _run_hours(
        config, _demand_table(config, rng), offset, forced_off
    )
    hidden = levels[:-1]

    # Reported sensor values: physics plus noise plus telemetry attacks,
    # written in place into the frame so that no (T, n) temporaries pile up.
    # Outside a spoof the offset is +0.0, which moves no bit: noise is never -0.0.
    values = np.empty((T, 3 * n + n))
    reported_level = values[:, :n]
    np.add(hidden, offset, out=reported_level)
    reported_level += noise_level
    for i, start, end in frozen:
        reported_level[start : end + 1, i] = reported_level[start, i]
    np.add(inflows, noise_flow, out=values[:, n : 3 * n : 2])
    values[:, n + 1 : 3 * n : 2] = pumps
    pressure = values[:, 3 * n :]
    np.multiply(_P_LEVEL, hidden, out=pressure)
    np.add(_P_BASE, pressure, out=pressure)
    pressure += _P_PUMP * pumps
    pressure -= _P_DEMAND * demands
    pressure += noise_pressure

    frame = DatasetFrame(
        feature_names=config.feature_names(),
        values=values,
        labels=labels,
    )
    trace = SimulationTrace(
        levels=levels,
        pump_states=pumps,
        inflows=inflows,
        outflows=outflows,
        demands=demands,
        spills=spills,
        clamped=clamped,
    )
    return frame, trace


def simulate(config: TankSystemConfig, attacks=()) -> DatasetFrame:
    """Labeled hourly frame: per-tank level L_T*, pump flow F_PU* and
    status S_PU*, junction pressure P_J*; labels from attack intervals."""
    return simulate_trace(config, attacks)[0]

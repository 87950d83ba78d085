"""Synthetic water-network generator: a cascade of tanks with hysteretic
inlet pumps and sinusoidal consumer demand, plus injectable sensor/actuator
attacks. Produces labeled hourly frames in the same CSV schema the
preprocessing loader reads, so the whole pipeline can be exercised without
any external dataset.

Physics: explicit Euler with a one-hour step on dL/dt = (Q_in - Q_out)/A.
Pump 1 draws from a reservoir; pump i>1 draws from tank i-1. Attacks
corrupt reported sensor values and/or actuator behaviour while the hidden
physical state keeps evolving consistently.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError
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
        object.__setattr__(self, "kind", AttackKind(self.kind))
        if not np.isfinite(self.magnitude):
            raise ConfigError("attack magnitude must be finite")


@dataclass
class TankSystemConfig:
    """Two coupled tanks by default; every per-tank field must have
    n_tanks entries. Levels in metres, areas in square metres, flows in
    cubic metres per hour, horizon in hours."""

    n_tanks: int = 2
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

    def __post_init__(self):
        if self.n_tanks < 1:
            raise ConfigError("n_tanks must be >= 1")
        for name in ("tank_area", "pump_on_level", "pump_off_level", "tank_height"):
            vals = tuple(float(v) for v in getattr(self, name))
            if len(vals) != self.n_tanks:
                raise ConfigError(f"{name} needs one entry per tank")
            setattr(self, name, vals)
        for a in self.tank_area:
            if a <= 0:
                raise ConfigError("tank areas must be > 0")
        for on, off, height in zip(
            self.pump_on_level, self.pump_off_level, self.tank_height
        ):
            if on <= 0 or off <= 0:
                raise ConfigError("pump switching levels must be > 0")
            if off <= on:
                raise ConfigError(
                    f"pump_off_level ({off}) must exceed pump_on_level ({on})"
                )
            if height <= off:
                raise ConfigError("tank_height must exceed pump_off_level")
        if self.pump_flow <= 0:
            raise ConfigError("pump_flow must be > 0")
        if self.demand_amplitude < 0:
            raise ConfigError("demand_amplitude must be >= 0")
        if self.demand_period <= 0:
            raise ConfigError("demand_period must be > 0")
        if self.demand_noise_std < 0:
            raise ConfigError("demand_noise_std must be >= 0")
        if self.noise_std < 0:
            raise ConfigError("noise_std must be >= 0")
        if self.horizon < 100:
            raise ConfigError("horizon must be >= 100")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.initial_levels is not None:
            vals = tuple(float(v) for v in self.initial_levels)
            if len(vals) != self.n_tanks:
                raise ConfigError("initial_levels needs one entry per tank")
            for lv, height in zip(vals, self.tank_height):
                if not 0 <= lv <= height:
                    raise ConfigError("initial levels must lie within the tank")
            self.initial_levels = vals

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
        if not 0 <= attack.target < config.n_tanks:
            raise ConfigError(f"attack target {attack.target} is not a tank index")
        iv = attack.interval
        if iv.start < 0 or iv.end >= config.horizon:
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
    spoof starving the tank."""

    def at(frac: float, length: int) -> AttackInterval:
        start = int(horizon * frac)
        return AttackInterval(start, min(start + length - 1, horizon - 1))

    return [
        AttackScenario(AttackKind.LEVEL_SPOOF_OFFSET, 0, at(0.20, 60), -4.0),
        AttackScenario(AttackKind.SENSOR_FREEZE, 1, at(0.42, 70)),
        AttackScenario(AttackKind.PUMP_FORCE_OFF, 1, at(0.62, 70)),
        AttackScenario(AttackKind.LEVEL_SPOOF_OFFSET, 1, at(0.84, 80), 2.8),
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


def _active(attacks, kind: AttackKind, tank: int, t: int):
    for attack in attacks:
        if (
            attack.kind is kind
            and attack.target == tank
            and attack.interval.start <= t <= attack.interval.end
        ):
            return attack
    return None


def simulate_trace(
    config: TankSystemConfig, attacks=()
) -> tuple[DatasetFrame, SimulationTrace]:
    """Run the simulator and also return the hidden state trajectory."""
    attacks = _validate_attacks(config, attacks)
    n = config.n_tanks
    T = config.horizon
    area = np.array(config.tank_area)
    on = np.array(config.pump_on_level)
    off = np.array(config.pump_off_level)
    height = np.array(config.tank_height)

    rng = np.random.default_rng(config.seed)
    noise_level = rng.normal(0.0, config.noise_std * _LEVEL_NOISE, (T, n))
    noise_flow = rng.normal(0.0, config.noise_std * _FLOW_NOISE, (T, n))
    noise_pressure = rng.normal(0.0, config.noise_std * _PRESSURE_NOISE, (T, n))
    demand_eps = rng.normal(0.0, 1.0, (T, n))

    if config.initial_levels is not None:
        level = np.array(config.initial_levels, dtype=np.float64)
    else:
        level = (on + off) / 2.0
    pump = (level <= on).astype(np.float64)

    phases = np.arange(n) / n
    hours = np.arange(T)
    demand_table = (
        config.demand_amplitude
        / 2.0
        * (1.0 + np.sin(2.0 * np.pi * (hours[:, None] / config.demand_period + phases)))
    )
    # Stochastic demand: an AR(1) disturbance with ~10 h memory rides on
    # the daily sinusoid, so different seeds explore different but equally
    # normal trajectories. Demand never goes negative.
    if config.demand_noise_std > 0:
        wander = np.empty((T, n))
        wander[0] = demand_eps[0]
        rho = 0.9
        scale = np.sqrt(1.0 - rho * rho)
        for t in range(1, T):
            wander[t] = rho * wander[t - 1] + scale * demand_eps[t]
        demand_table = np.maximum(
            0.0, demand_table + config.demand_noise_std * wander
        )

    levels = np.empty((T + 1, n))
    pump_states = np.empty((T, n))
    inflows = np.empty((T, n))
    outflows = np.empty((T, n))
    demands = np.empty((T, n))
    spills = np.zeros((T, n))
    values = np.empty((T, 3 * n + n))
    labels = np.zeros(T, dtype=np.int64)
    frozen: dict[int, float] = {}
    clamped = False

    for t in range(T):
        levels[t] = level

        # Controller sees the spoofed level while a spoof attack is active.
        ctrl = level.copy()
        for i in range(n):
            spoof = _active(attacks, AttackKind.LEVEL_SPOOF_OFFSET, i, t)
            if spoof is not None:
                ctrl[i] = level[i] + spoof.magnitude

        for i in range(n):
            if pump[i] == 1.0 and ctrl[i] >= off[i]:
                pump[i] = 0.0
            elif pump[i] == 0.0 and ctrl[i] <= on[i]:
                pump[i] = 1.0
            if _active(attacks, AttackKind.PUMP_FORCE_OFF, i, t) is not None:
                pump[i] = 0.0

        demand = demand_table[t]
        desired_in = config.pump_flow * pump

        # Upstream-first balance; outflows shrink if a tank would run dry.
        realized_in = np.empty(n)
        realized_demand = demand.copy()
        realized_draw = np.zeros(n)  # draw taken out of tank i by pump i+1
        realized_in[0] = desired_in[0]
        for i in range(n):
            if i > 0:
                realized_in[i] = realized_draw[i - 1]
            want_draw = desired_in[i + 1] if i + 1 < n else 0.0
            want_out = realized_demand[i] + want_draw
            available = level[i] * area[i] + realized_in[i]
            if want_out > available:
                factor = available / want_out if want_out > 0 else 0.0
                realized_demand[i] *= factor
                want_draw *= factor
                clamped = True
            realized_draw[i] = want_draw

        # realized_draw[n-1] is always 0: nothing draws from the last tank.
        realized_out = realized_demand + realized_draw

        new_level = level + (realized_in - realized_out) / area
        over = new_level > height
        if np.any(over):
            # Overflow drains over the rim and counts as outflow.
            spills[t][over] = (new_level[over] - height[over]) * area[over]
            realized_out = realized_out + spills[t]
            new_level = np.minimum(new_level, height)
            clamped = True

        pump_states[t] = pump
        inflows[t] = realized_in
        outflows[t] = realized_out
        demands[t] = realized_demand

        # Reported sensor values: physics plus noise plus telemetry attacks.
        reported_level = level + noise_level[t]
        reported_flow = realized_in + noise_flow[t]
        pressure = (
            _P_BASE
            + _P_LEVEL * level
            + _P_PUMP * pump
            - _P_DEMAND * realized_demand
            + noise_pressure[t]
        )
        attacked = False
        for i in range(n):
            spoof = _active(attacks, AttackKind.LEVEL_SPOOF_OFFSET, i, t)
            if spoof is not None:
                reported_level[i] = level[i] + spoof.magnitude + noise_level[t, i]
                attacked = True
            freeze = _active(attacks, AttackKind.SENSOR_FREEZE, i, t)
            if freeze is not None:
                if t == freeze.interval.start:
                    frozen[i] = reported_level[i]
                reported_level[i] = frozen[i]
                attacked = True
            if _active(attacks, AttackKind.PUMP_FORCE_OFF, i, t) is not None:
                attacked = True

        values[t, :n] = reported_level
        values[t, n : 3 * n : 2] = reported_flow
        values[t, n + 1 : 3 * n : 2] = pump
        values[t, 3 * n :] = pressure
        labels[t] = 1 if attacked else 0

        level = new_level
    levels[T] = level

    frame = DatasetFrame(
        feature_names=config.feature_names(), values=values, labels=labels
    )
    trace = SimulationTrace(
        levels=levels,
        pump_states=pump_states,
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

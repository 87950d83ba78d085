"""Independent numerical oracles shared by the tests.

The finite-difference gradient here is the reference the analytic backward
kernel is checked against; it never calls the kernel itself.
`backward_reference` and `adamax_stepper` are the per-call forms of the
nn and optim kernels that the fused training step does without, and
`make_triples` and `tdc_loss` the per-call forms of its triple layout and
consistency term: the reference trainers in test_model.py are built from
them.
"""

import numpy as np


def rel_error(a: np.ndarray, b: np.ndarray, floor: float = 1e-4) -> float:
    """Guarded max relative error: |a-b| / max(|a|, |b|, floor).

    The floor keeps vanishing gradients (where the quotient is dominated by
    finite-difference rounding noise) from swamping the comparison; any
    systematic backprop bug distorts the O(1) entries and still trips it.
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


def fd_gradient_mlp(loss_fn, mlp, h: float = 1e-5):
    """Central finite differences of a scalar loss over every parameter of
    an Mlp. loss_fn takes no arguments and reads the (temporarily
    perturbed) parameters through its closure.
    """
    weight_grads, bias_grads = [], []
    for layer in mlp.layers:
        gw = np.zeros_like(layer.weights)
        for idx in np.ndindex(*layer.weights.shape):
            orig = layer.weights[idx]
            layer.weights[idx] = orig + h
            up = loss_fn()
            layer.weights[idx] = orig - h
            down = loss_fn()
            layer.weights[idx] = orig
            gw[idx] = (up - down) / (2.0 * h)
        gb = np.zeros_like(layer.bias)
        for idx in np.ndindex(*layer.bias.shape):
            orig = layer.bias[idx]
            layer.bias[idx] = orig + h
            up = loss_fn()
            layer.bias[idx] = orig - h
            down = loss_fn()
            layer.bias[idx] = orig
            gb[idx] = (up - down) / (2.0 * h)
        weight_grads.append(gw)
        bias_grads.append(gb)
    return weight_grads, bias_grads


def backward_reference(mlp, x, cotangent):
    """Gradients of sum(forward(mlp, x) * cotangent) by nn's kernels, run
    into fresh buffers: a GradientSet over a new flat vector, and the
    cotangent of the input x."""
    from tdcae.nn import GradientSet, _backward, _forward

    x = np.asarray(x, dtype=np.float64)
    rows = x.shape[0]
    post = [None] * len(mlp.layers)
    _forward(mlp._kernel, x, post)
    grads = GradientSet(np.zeros(mlp.params.size), mlp)
    cotangents = [np.empty((rows, layer.in_size)) for layer in mlp.layers]
    _backward(mlp._kernel, x, post, np.asarray(cotangent, dtype=np.float64), grads,
              np.ones(rows), cotangents)
    return grads, cotangents[0]


def adamax_stepper(mlps, learning_rate: float):
    """A function that makes one Adamax step on each Mlp of mlps, in place,
    given one GradientSet per Mlp; each Mlp has its own moments, and all
    share the step count."""
    from tdcae.optim import _adamax_update

    moments = [(np.zeros(mlp.params.size), np.zeros(mlp.params.size)) for mlp in mlps]
    steps = 0

    def step(*grads):
        nonlocal steps
        steps += 1
        for mlp, g, (m, u) in zip(mlps, grads, moments):
            _adamax_update(mlp.params, g.flat, m, u, steps, learning_rate)

    return step


def make_triples(values):
    """(x_prev, x_t, x_next): row k of each is row k, k+1 or k+2 of the
    (T, F) matrix values, so T rows give T-2 triples."""
    return values[:-2], values[1:-1], values[2:]


def tdc_loss(delta_z, zdot_t) -> float:
    """Mean squared difference between the central-difference estimate and
    the derivative nodes, over every entry of the batch; 0 when there are
    no derivative nodes."""
    return float(np.mean((delta_z - zdot_t) ** 2)) if delta_z.size else 0.0


def smooth_reference(scores, window: int, mode: str = "trailing") -> np.ndarray:
    """tdcae.detect.smooth written the slow way: a per-row loop of numpy
    means, and a sliding-window view for the full trailing windows. numpy
    sums fewer than eight numbers left to right from +0.0, so for windows
    up to 7 smooth must give these bits."""
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if n == 0 or window == 1:
        return scores.copy()
    out = np.empty(n, dtype=np.float64)
    if mode == "trailing":
        head = min(window - 1, n)
        for t in range(head):
            out[t] = scores[: t + 1].mean()
        if n >= window:
            windows = np.lib.stride_tricks.sliding_window_view(scores, window)
            out[window - 1 :] = windows.mean(axis=1)
    else:
        half = window // 2
        for t in range(n):
            lo = max(0, t - half)
            hi = min(n, t + window - half)
            out[t] = scores[lo:hi].mean()
    return out


def smooth_shifted_reference(scores, window: int, mode: str = "trailing") -> np.ndarray:
    """tdcae.detect.smooth as a loop over shifted slices: zero-pad the
    scores, then add each of the front + back + 1 slices of the padded
    vector to a +0.0 accumulator in turn. Every window is summed left to
    right, so smooth must give these bits for every window size."""
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if n == 0 or window == 1:
        return scores.copy()
    lead = window - 1 if mode == "trailing" else window // 2
    front, back = min(lead, n - 1), min(window - 1 - lead, n - 1)
    padded = np.concatenate([np.zeros(front), scores, np.zeros(back)])
    total = np.zeros(n)
    for start in range(front + back + 1):
        total += padded[start : start + n]
    t = np.arange(n)
    return total / (np.minimum(t + front + back + 1, front + n) - np.maximum(t, front))


def simulate_reference(config, attacks=()):
    """The tank simulator written hour by hour on numpy rows, with every
    attack looked up per tank and hour. Returns values, labels, levels,
    pump_states, inflows, outflows, demands, spills and clamped, which
    tdcae.synth.simulate_trace must reproduce bit for bit."""
    from tdcae import synth

    n, T = config.n_tanks, config.horizon
    area = np.array(config.tank_area)
    on = np.array(config.pump_on_level)
    off = np.array(config.pump_off_level)
    height = np.array(config.tank_height)

    def active(kind, tank, t):
        for attack in attacks:
            iv = attack.interval
            if attack.kind is kind and attack.target == tank and iv.start <= t <= iv.end:
                return attack
        return None

    rng = np.random.default_rng(config.seed)
    noise_level = rng.normal(0.0, config.noise_std * synth._LEVEL_NOISE, (T, n))
    noise_flow = rng.normal(0.0, config.noise_std * synth._FLOW_NOISE, (T, n))
    noise_pressure = rng.normal(0.0, config.noise_std * synth._PRESSURE_NOISE, (T, n))
    demand_eps = rng.normal(0.0, 1.0, (T, n))
    if config.initial_levels is not None:
        level = np.array(config.initial_levels, dtype=np.float64)
    else:
        level = (on + off) / 2.0
    pump = (level <= on).astype(np.float64)
    hours = np.arange(T)[:, None]
    demand_table = config.demand_amplitude / 2.0 * (
        1.0 + np.sin(2.0 * np.pi * (hours / config.demand_period + np.arange(n) / n))
    )
    if config.demand_noise_std > 0:
        wander = np.empty((T, n))
        wander[0] = demand_eps[0]
        scale = np.sqrt(1.0 - 0.9 * 0.9)
        for t in range(1, T):
            wander[t] = 0.9 * wander[t - 1] + scale * demand_eps[t]
        demand_table = np.maximum(0.0, demand_table + config.demand_noise_std * wander)

    levels = np.empty((T + 1, n))
    pump_states, inflows, outflows, demands = (np.empty((T, n)) for _ in range(4))
    spills = np.zeros((T, n))
    values = np.empty((T, 4 * n))
    labels = np.zeros(T, dtype=np.int64)
    frozen = {}
    clamped = False
    SPOOF = synth.AttackKind.LEVEL_SPOOF_OFFSET
    FREEZE = synth.AttackKind.SENSOR_FREEZE
    FORCE_OFF = synth.AttackKind.PUMP_FORCE_OFF
    for t in range(T):
        levels[t] = level
        ctrl = level.copy()
        for i in range(n):
            spoof = active(SPOOF, i, t)
            if spoof is not None:
                ctrl[i] = level[i] + spoof.magnitude
        for i in range(n):
            if pump[i] == 1.0 and ctrl[i] >= off[i]:
                pump[i] = 0.0
            elif pump[i] == 0.0 and ctrl[i] <= on[i]:
                pump[i] = 1.0
            if active(FORCE_OFF, i, t) is not None:
                pump[i] = 0.0
        desired_in = config.pump_flow * pump
        realized_in = np.empty(n)
        realized_demand = demand_table[t].copy()
        realized_draw = np.zeros(n)
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
        realized_out = realized_demand + realized_draw
        new_level = level + (realized_in - realized_out) / area
        over = new_level > height
        if np.any(over):
            spills[t][over] = (new_level[over] - height[over]) * area[over]
            realized_out = realized_out + spills[t]
            new_level = np.minimum(new_level, height)
            clamped = True
        pump_states[t] = pump
        inflows[t] = realized_in
        outflows[t] = realized_out
        demands[t] = realized_demand

        reported_level = level + noise_level[t]
        pressure = (
            synth._P_BASE + synth._P_LEVEL * level + synth._P_PUMP * pump
            - synth._P_DEMAND * realized_demand + noise_pressure[t]
        )
        attacked = False
        for i in range(n):
            spoof = active(SPOOF, i, t)
            if spoof is not None:
                reported_level[i] = level[i] + spoof.magnitude + noise_level[t, i]
                attacked = True
            freeze = active(FREEZE, i, t)
            if freeze is not None:
                if t == freeze.interval.start:
                    frozen[i] = reported_level[i]
                reported_level[i] = frozen[i]
                attacked = True
            if active(FORCE_OFF, i, t) is not None:
                attacked = True
        values[t, :n] = reported_level
        values[t, n : 3 * n : 2] = realized_in + noise_flow[t]
        values[t, n + 1 : 3 * n : 2] = pump
        values[t, 3 * n :] = pressure
        labels[t] = 1 if attacked else 0
        level = new_level
    levels[T] = level
    return values, labels, levels, pump_states, inflows, outflows, demands, spills, clamped

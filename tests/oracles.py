"""Independent numerical oracles shared by the tests.

The finite-difference gradient here is the reference the analytic backward
pass is checked against; it never runs that pass itself.
`backward_reference` and `adamax_stepper` are the per-call forms of the
nn and optim kernels that the fused training step does without, and
`make_triples` and `tdc_loss` the per-call forms of its triple layout and
consistency term: the reference trainers in test_model.py are built from
them. `total_loss` and `total_loss_grads` are not oracles but the code under
test: they stack one batch of triples into the input buffer of the fused
step that `train` runs, `model._LossStep`, and run its call lists, so the
finite-difference gate checks the gradient training uses.
`reference_load_csv` is load_csv without numpy's C text reader.
`write_table_reference` is write_table by csv.writer, and
`polyline_reference` the points of line_plot's polylines mapped and
formatted one point at a time. `init_params_reference` is init_mlp's
draw into per-layer arrays that are then concatenated. `forward_matmul`
and `backward_matmul` are the passes that nn's `_forward_calls` and
`_backward_calls` build, run directly with their products by `np.matmul`:
on C- and Fortran-order inputs, the bits the call lists must reproduce;
`matmul_builders` wraps them as call lists for the training step.
`forward_np_dot`, `backward_np_dot` and `mean_square_np_dot` are the two
passes and model._mean_square with their products by the function np.dot,
as they were before they called the ndarray method `.dot`: the bits the
method must reproduce on every layout. `backward_post`, `loss_step_post`,
`adamax_with_temporaries` and `train_unchunked` are the backward pass, the
fused step, the Adamax step and the training loop as they were before the
tanh' buffers, the work-buffer Adamax step, the call lists and the per-batch
gathers into the step's buffer: the bits those must reproduce. `run_calls`
runs a call list. `all_finite_reference` is the finiteness check as it was
written before `errors._all_finite`: the verdicts that must reproduce.
"""

import csv
import math
from pathlib import Path
from unittest import mock

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


def init_params_reference(layer_sizes, seed: int) -> np.ndarray:
    """init_mlp's parameter vector as it was drawn when each layer owned its
    arrays: per layer, Glorot-uniform weights of shape (out, in) and zero
    biases, concatenated weights then bias, layer by layer."""
    rng = np.random.default_rng(int(seed))
    parts = []
    for fan_in, fan_out in zip(layer_sizes, layer_sizes[1:]):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        parts += [rng.uniform(-limit, limit, size=(fan_out, fan_in)).ravel(), np.zeros(fan_out)]
    return np.concatenate(parts)


def tanh_derivatives(layers, post) -> list:
    """tanh' = 1 - post**2 of every tanh layer among an Mlp's layers, in
    new arrays, and None for the others: the `deriv` argument of
    nn._backward_calls."""
    return [1.0 - p * p if l.activation == "tanh" else None for l, p in zip(layers, post)]


def run_calls(calls) -> None:
    """Run a list of (function, args) pairs in order, as the training step
    does."""
    for function, args in calls:
        function(*args)


def backward_reference(mlp, x, cotangent):
    """Gradients of sum(forward(mlp, x) * cotangent) by nn's call lists,
    built on fresh buffers: a GradientSet over a new flat vector, and the
    cotangent of the input x."""
    from tdcae.nn import GradientSet, _backward_calls, _forward_calls

    x = np.asarray(x, dtype=np.float64)
    rows = x.shape[0]
    post = [np.empty((rows, layer.weights.shape[0])) for layer in mlp.layers]
    run_calls(_forward_calls(mlp.layers, x, post))
    grads = GradientSet(np.zeros(mlp.params.size), mlp)
    cotangents = [np.empty((rows, layer.weights.shape[1])) for layer in mlp.layers]
    run_calls(_backward_calls(mlp.layers, x, post, tanh_derivatives(mlp.layers, post),
                              np.asarray(cotangent, dtype=np.float64), grads, np.ones(rows),
                              cotangents))
    return grads, cotangents[0]


def forward_matmul(layers, x, post) -> None:
    """The pass of nn._forward_calls, run directly, with its product by
    np.matmul."""
    for k, (_, weights_t, bias, activation) in enumerate(layers):
        x = post[k] = np.matmul(x, weights_t, out=post[k])
        x += bias
        if activation == "tanh":
            np.tanh(x, out=x)


def backward_matmul(layers, x, post, deriv, g, grads, ones, cotangents) -> None:
    """The pass of nn._backward_calls, run directly, with its three products
    by np.matmul."""
    for k in range(len(layers) - 1, -1, -1):
        weights, _, _, activation = layers[k]
        if activation == "tanh":
            d = deriv[k]
            d *= g
            g = d
        np.matmul(g.T, post[k - 1] if k > 0 else x, out=grads.weight_grads[k])
        np.matmul(ones, g, out=grads.bias_grads[k])
        if cotangents[k] is not None:
            np.matmul(g, weights, out=cotangents[k])
            g = cotangents[k]


def matmul_builders(ran: list):
    """Stand-ins for nn's `_forward_calls` and `_backward_calls` whose call
    list is one call of forward_matmul or backward_matmul on the same
    buffers; each stand-in appends its name to `ran` when it builds."""
    def forward_calls(*args):
        ran.append("forward")
        return [(forward_matmul, args)]

    def backward_calls(*args):
        ran.append("backward")
        return [(backward_matmul, args)]

    return forward_calls, backward_calls


def forward_np_dot(layers, x, post) -> None:
    """The pass of nn._forward_calls, run directly, with its product by the
    function np.dot."""
    for k, (_, weights_t, bias, activation) in enumerate(layers):
        x = post[k] = np.dot(x, weights_t, out=post[k])
        x += bias
        if activation == "tanh":
            np.tanh(x, out=x)


def backward_np_dot(layers, x, post, deriv, g, grads, ones, cotangents) -> None:
    """The pass of nn._backward_calls, run directly, with its three products
    by the function np.dot."""
    for k in range(len(layers) - 1, -1, -1):
        weights, _, _, activation = layers[k]
        if activation == "tanh":
            d = deriv[k]
            d *= g
            g = d
        np.dot(g.T, post[k - 1] if k > 0 else x, out=grads.weight_grads[k])
        np.dot(ones, g, out=grads.bias_grads[k])
        if cotangents[k] is not None:
            np.dot(g, weights, out=cotangents[k])
            g = cotangents[k]


def mean_square_np_dot(flat) -> float:
    """model._mean_square with its product by the function np.dot."""
    return float(np.dot(flat, flat)) / flat.size


def backward_post(layers, x, post, g, grads, ones, cotangents) -> None:
    """The backward pass as it was before the derivative buffers and the
    call lists: each tanh layer's tanh' is computed from post[k] in place,
    by three calls, which overwrites post."""
    for k in range(len(layers) - 1, -1, -1):
        weights, _, _, activation = layers[k]
        if activation == "tanh":
            d = post[k]
            np.multiply(d, d, out=d)
            np.subtract(1.0, d, out=d)
            d *= g
            g = d
        np.dot(g.T, post[k - 1] if k > 0 else x, out=grads.weight_grads[k])
        np.dot(ones, g, out=grads.bias_grads[k])
        if cotangents[k] is not None:
            np.dot(g, weights, out=cotangents[k])
            g = cotangents[k]


def loss_step_post(step, x):
    """model._LossStep.__call__ through backward_post: the loss on the
    stacked batch x, in a LossBreakdown, and its gradient, written into
    step.grads, with no tanh' pass of its own."""
    from tdcae.model import LossBreakdown

    step.x[...] = x
    breakdown = LossBreakdown.from_parts(*step.loss(), step.alpha)
    step.residual *= step.rec_scale
    backward_post(step.dec, step.h_t, step.dec_post, step.residual, step.dec_grads,
                  step.ones[: step.b], step.dec_cotangents)
    if step.consistency:
        g_z_prev, g_z_next = step.g_z_sides
        step.g_zdot_t += step.zdot_scale * step.diff
        np.multiply(step.diff, step.side_scale, out=g_z_next)
        np.negative(g_z_next, out=g_z_prev)
    backward_post(step.enc, step.x, step.enc_post, step.g_latent, step.enc_grads,
                  step.ones, step.enc_cotangents)
    return breakdown


def adamax_with_temporaries(params, grads, m, u, t: int, learning_rate: float) -> None:
    """optim._adamax_update as it was before its work buffers: m and u in
    two vectors, four temporaries, and no check of the gradient."""
    from tdcae.optim import BETA1, BETA2, EPSILON

    m *= BETA1
    m += (1.0 - BETA1) * grads
    u *= BETA2
    np.maximum(u, np.abs(grads), out=u)
    delta = (learning_rate / (1.0 - BETA1**t)) * m
    delta /= u + EPSILON
    params -= delta


def adamax_stepper(mlps, learning_rate: float):
    """A function that makes one Adamax step on each Mlp of mlps, in place,
    given one GradientSet per Mlp; each Mlp has its own moments, and all
    share the step count."""
    from tdcae.optim import _AdamaxState, _adamax_update

    states = [_AdamaxState(mlp.params.size) for mlp in mlps]
    steps = 0

    def step(*grads):
        nonlocal steps
        steps += 1
        for mlp, g, state in zip(mlps, grads, states):
            assert _adamax_update(mlp.params, g.flat, state, steps, learning_rate)

    return step


def train_unchunked(config, frame):
    """model.train as it was before its gathers into the step's buffer,
    derivative buffers, call lists and work-buffer Adamax step: one fancy
    index per batch, loss_step_post, a separate np.isfinite check of the
    gradient, and adamax_with_temporaries on separate m and u vectors.
    Returns the shared encoder-then-decoder parameter vector and the loss
    history."""
    from tdcae import model as model_mod

    n = frame.n_rows - 2
    model = model_mod.build_model(frame.n_features, config)
    _, _, shuffle_seed = model_mod._seed_triple(config.seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    params = model_mod._share_params(model.encoder, model.decoder)
    m, u = np.zeros_like(params), np.zeros_like(params)
    b = min(config.batch_size, n)
    steps = {size: model_mod._LossStep(model, size, config.alpha, config.delta_t)
             for size in {b, n % b or b}}
    history, t = [], 0
    for _ in range(config.epochs):
        rows = model_mod._batch_rows(shuffle_rng.permutation(n), b)
        rec_sum = tdc_sum = 0.0
        for start in range(0, n, b):
            size = min(b, n - start)
            step = steps[size]
            breakdown = loss_step_post(step, frame.values[rows[3 * start : 3 * (start + size)]])
            assert np.isfinite(step.grads).all()
            t += 1
            adamax_with_temporaries(params, step.grads, m, u, t, config.learning_rate)
            rec_sum += breakdown.rec_loss * size
            tdc_sum += breakdown.tdc_loss * size
        history.append(model_mod.LossBreakdown.from_parts(rec_sum / n, tdc_sum / n,
                                                          config.alpha))
    return params, history


def make_triples(values):
    """(x_prev, x_t, x_next): row k of each is row k, k+1 or k+2 of the
    (T, F) matrix values, so T rows give T-2 triples."""
    return values[:-2], values[1:-1], values[2:]


def tdc_loss(delta_z, zdot_t) -> float:
    """Mean squared difference between the central-difference estimate and
    the derivative nodes, over every entry of the batch; 0 when there are
    no derivative nodes."""
    return float(np.mean((delta_z - zdot_t) ** 2)) if delta_z.size else 0.0


def _loss_step(model, x_prev, x_t, x_next, alpha, delta_t):
    """The fused training step for one batch of triples, with the batch
    stacked as [x_t; x_prev; x_next], the layout the step reads, in its
    input buffer."""
    from tdcae.model import _LossStep

    step = _LossStep(model, len(x_t), alpha, delta_t)
    step.x[...] = np.concatenate([np.asarray(v, dtype=np.float64)
                                  for v in (x_t, x_prev, x_next)])
    return step


def total_loss(model, x_prev, x_t, x_next, alpha: float, delta_t: float = 1.0):
    """Reconstruction MSE of x_t plus alpha times the consistency loss, as
    the fused training step computes it, in a LossBreakdown."""
    from tdcae.model import LossBreakdown

    step = _loss_step(model, x_prev, x_t, x_next, alpha, delta_t)
    return LossBreakdown.from_parts(*step.loss(), step.alpha)


def total_loss_grads(model, x_prev, x_t, x_next, alpha: float, delta_t: float = 1.0):
    """The loss plus the fused training step's exact gradients, as
    (LossBreakdown, encoder GradientSet, decoder GradientSet)."""
    from tdcae.model import LossBreakdown

    step = _loss_step(model, x_prev, x_t, x_next, alpha, delta_t)
    breakdown = LossBreakdown.from_parts(*step(), step.alpha)
    return breakdown, step.enc_grads, step.dec_grads


def smooth_reference(scores, window: int) -> np.ndarray:
    """tdcae.detect.smooth written the slow way: a per-row loop of numpy
    means over the first rows, and a sliding-window view for the full
    windows. numpy sums fewer than eight numbers left to right from +0.0,
    so for windows up to 7 smooth must give these bits."""
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if n == 0 or window == 1:
        return scores.copy()
    out = np.empty(n, dtype=np.float64)
    for t in range(min(window - 1, n)):
        out[t] = scores[: t + 1].mean()
    if n >= window:
        windows = np.lib.stride_tricks.sliding_window_view(scores, window)
        out[window - 1 :] = windows.mean(axis=1)
    return out


def smooth_shifted_reference(scores, window: int) -> np.ndarray:
    """tdcae.detect.smooth as a loop over shifted slices: zero-pad the
    front of the scores, then add each of the front + 1 slices of the
    padded vector to a +0.0 accumulator in turn. Every window is summed
    left to right, so smooth must give these bits for every window size."""
    scores = np.asarray(scores, dtype=np.float64)
    n = len(scores)
    if n == 0 or window == 1:
        return scores.copy()
    front = min(window - 1, n - 1)
    padded = np.concatenate([np.zeros(front), scores])
    total = np.zeros(n)
    for start in range(front + 1):
        total += padded[start : start + n]
    t = np.arange(n)
    return total / (np.minimum(t + front + 1, front + n) - np.maximum(t, front))


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


def reference_load_csv(path):
    """load_csv with the reference reader alone: the C reader refuses
    every file."""
    from tdcae import preprocess

    with mock.patch.object(preprocess, "_read_numbers", return_value=None):
        return preprocess.load_csv(path)


def write_table_reference(path, header, columns) -> None:
    """write_table by csv.writer, cell by cell: numpy columns go through
    tolist(), and rows stop at the shortest column."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(
            zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        )


def polyline_reference(series, threshold=None) -> list[str]:
    """The `points` of each series' polyline in line_plot's SVG, one point
    at a time: the y range of the series and the threshold, padded by 5%,
    mapped to pixels by scalar sx and sy and formatted by _fmt. A NaN or
    infinite value or threshold, or a range wider than the largest float,
    raises NumericError."""
    from tdcae import svgplot as s
    from tdcae.errors import NumericError

    series = [np.asarray(y, dtype=np.float64) for y in series]
    n = max((len(y) for y in series), default=0)
    ys = np.concatenate(series) if series else np.array([0.0])
    y_lo, y_hi = float(ys.min()), float(ys.max())
    if threshold is not None:
        y_lo, y_hi = min(y_lo, threshold), max(y_hi, threshold)
    if y_hi == y_lo:
        step = max(1.0, math.ulp(y_lo))
        if y_lo + step < math.inf:
            y_hi = y_lo + step
        else:
            y_lo -= step
    pad = 0.05 * (y_hi - y_lo)
    y_lo -= pad
    y_hi += pad
    if not math.isfinite(y_hi - y_lo) or threshold is not None and not math.isfinite(threshold):
        raise NumericError("no finite y range")
    plot_w = s._WIDTH - s._MARGIN_L - s._MARGIN_R
    plot_h = s._HEIGHT - s._MARGIN_T - s._MARGIN_B

    def sx(i):
        return s._MARGIN_L + (i / max(n - 1, 1)) * plot_w

    def sy(v):
        return s._MARGIN_T + (1.0 - (v - y_lo) / (y_hi - y_lo)) * plot_h

    return [" ".join(f"{s._fmt(sx(i))},{s._fmt(sy(v))}" for i, v in enumerate(y.tolist()))
            for y in series]


def all_finite_reference(a) -> bool:
    """Whether every entry of a is finite, by numpy's `all` reduction."""
    return bool(np.isfinite(a).all())

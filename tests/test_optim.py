import numpy as np
import pytest

from tdcae.errors import ConfigError, DimensionError, NumericError
from tdcae.nn import Activation, DenseLayer, GradientSet, Mlp, init_mlp
from tdcae.optim import AdamaxState, _adamax_update, adamax_step


def single_param_mlp(value: float = 1.0) -> Mlp:
    return Mlp([DenseLayer(np.array([[value]]), np.zeros(1), Activation.IDENTITY)])


def grads_for(mlp: Mlp, weight_grad: float) -> GradientSet:
    g = GradientSet.zeros_like(mlp)
    g.weight_grads[0][0, 0] = weight_grad
    return g


def test_zero_gradient_leaves_parameters_unchanged():
    mlp = single_param_mlp(0.37)
    state = AdamaxState.for_mlp(mlp)
    updated, new_state = adamax_step(mlp, GradientSet.zeros_like(mlp), state, 0.01)
    assert np.array_equal(updated.layers[0].weights, mlp.layers[0].weights)
    assert new_state.step_count == 1


def test_first_step_matches_hand_evaluation():
    # m = 0.1*4 = 0.4, u = max(0, |4|) = 4, scale = 0.01/(1-0.9) = 0.1,
    # delta = -0.1*0.4/(4+eps) ~ -0.01
    mlp = single_param_mlp(1.0)
    state = AdamaxState.for_mlp(mlp)
    updated, _ = adamax_step(mlp, grads_for(mlp, 4.0), state, 0.01)
    delta = updated.layers[0].weights[0, 0] - 1.0
    assert delta == pytest.approx(-0.01, abs=1e-9)


def test_infinity_accumulator_sticks_at_gradient_magnitude():
    # two identical gradients: u stays |g| because beta2*|g| < |g|
    mlp = single_param_mlp()
    state = AdamaxState.for_mlp(mlp)
    mlp, state = adamax_step(mlp, grads_for(mlp, 4.0), state, 0.01)
    assert state.u.weight_grads[0][0, 0] == pytest.approx(4.0)
    mlp, state = adamax_step(mlp, grads_for(mlp, 4.0), state, 0.01)
    assert state.u.weight_grads[0][0, 0] == pytest.approx(4.0)


def test_accumulator_monotone_and_nonnegative_under_constant_magnitude():
    mlp = single_param_mlp()
    state = AdamaxState.for_mlp(mlp)
    previous = 0.0
    for step in range(50):
        sign = 1.0 if step % 2 == 0 else -1.0
        mlp, state = adamax_step(mlp, grads_for(mlp, sign * 2.5), state, 0.001)
        u = state.u.weight_grads[0][0, 0]
        assert u >= previous
        assert u >= 0.0
        previous = u
    assert previous == pytest.approx(2.5)


def test_quadratic_loss_converges():
    # f(theta) = theta^2, gradient 2*theta, from theta0 = 1 with lr 0.01
    mlp = single_param_mlp(1.0)
    state = AdamaxState.for_mlp(mlp)
    for _ in range(2000):
        theta = mlp.layers[0].weights[0, 0]
        if abs(theta) < 0.01:
            break
        mlp, state = adamax_step(mlp, grads_for(mlp, 2.0 * theta), state, 0.01)
    assert abs(mlp.layers[0].weights[0, 0]) < 0.01


def test_step_count_increments_by_one():
    mlp = single_param_mlp()
    state = AdamaxState.for_mlp(mlp)
    for expected in (1, 2, 3):
        mlp, state = adamax_step(mlp, grads_for(mlp, 1.0), state, 0.01)
        assert state.step_count == expected


def test_nonfinite_gradient_raises():
    mlp = single_param_mlp()
    state = AdamaxState.for_mlp(mlp)
    with pytest.raises(NumericError):
        adamax_step(mlp, grads_for(mlp, float("nan")), state, 0.01)


def test_gradients_laid_out_unlike_the_mlp_raise():
    mlp = single_param_mlp()
    state = AdamaxState.for_mlp(mlp)
    other = init_mlp([1, 2], [Activation.IDENTITY], seed=0)
    with pytest.raises(DimensionError):
        adamax_step(mlp, GradientSet.zeros_like(other), state, 0.01)
    with pytest.raises(DimensionError):
        adamax_step(mlp, grads_for(mlp, 1.0), AdamaxState.for_mlp(other), 0.01)


def test_nonpositive_learning_rate_raises():
    mlp = single_param_mlp()
    state = AdamaxState.for_mlp(mlp)
    with pytest.raises(ConfigError):
        adamax_step(mlp, grads_for(mlp, 1.0), state, 0.0)


def test_inputs_left_untouched():
    mlp = single_param_mlp(0.5)
    state = AdamaxState.for_mlp(mlp)
    grads = grads_for(mlp, 1.0)
    adamax_step(mlp, grads, state, 0.01)
    assert mlp.layers[0].weights[0, 0] == 0.5
    assert state.step_count == 0
    assert state.m.weight_grads[0][0, 0] == 0.0


def test_pure_step_matches_in_place_kernel_bit_for_bit(rng):
    mlp = init_mlp([4, 3, 2], [Activation.TANH, Activation.IDENTITY], seed=3)
    state = AdamaxState.for_mlp(mlp)
    params = mlp.params.copy()
    m = np.zeros_like(params)
    u = np.zeros_like(params)
    for step in range(1, 8):
        grads = GradientSet.zeros_like(mlp)
        grads.flat[:] = rng.normal(scale=10.0 ** (step % 3 - 1), size=grads.flat.size)
        mlp, state = adamax_step(mlp, grads, state, 0.01)
        _adamax_update(params, grads.flat, m, u, step, 0.01)
        assert mlp.params.tobytes() == params.tobytes()
        assert state.m.flat.tobytes() == m.tobytes()
        assert state.u.flat.tobytes() == u.tobytes()


def test_kernel_matches_update_rule():
    params, grads = np.array([1.0, -2.0]), np.array([4.0, -0.5])
    m, u = np.array([0.2, 0.1]), np.array([3.0, 1.0])
    _adamax_update(params, grads, m, u, 2, 0.01)
    want_m = 0.9 * np.array([0.2, 0.1]) + 0.1 * grads
    want_u = np.maximum(0.999 * np.array([3.0, 1.0]), np.abs(grads))
    assert np.allclose(m, want_m, rtol=1e-15)
    assert np.allclose(u, want_u, rtol=1e-15)
    want = np.array([1.0, -2.0]) - (0.01 / (1 - 0.9**2)) * want_m / (want_u + 1e-8)
    assert np.allclose(params, want, rtol=1e-15)

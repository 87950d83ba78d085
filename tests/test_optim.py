import numpy as np
import pytest

from tdcae.errors import ConfigError
from tdcae.model import TrainingConfig
from tdcae.optim import BETA1, BETA2, EPSILON, _AdamaxState, _adamax_update


class Adamax:
    """One parameter vector with its moments, stepped by the kernel."""

    def __init__(self, *theta: float):
        self.params = np.array(theta, dtype=np.float64)
        self.state = _AdamaxState(self.params.size)
        self.m, self.u = self.state.m, self.state.u
        self.t = 0

    def step(self, *grads: float, learning_rate: float = 0.01) -> None:
        self.t += 1
        assert _adamax_update(self.params, np.array(grads, dtype=np.float64), self.state,
                              self.t, learning_rate)


def test_zero_gradient_leaves_parameters_unchanged():
    opt = Adamax(0.37, -2.0)
    opt.step(0.0, 0.0)
    assert np.array_equal(opt.params, [0.37, -2.0])


def test_first_step_matches_hand_evaluation():
    # m = 0.1*4 = 0.4, u = max(0, |4|) = 4, scale = 0.01/(1-0.9) = 0.1,
    # delta = -0.1*0.4/(4+eps) ~ -0.01
    opt = Adamax(1.0)
    opt.step(4.0)
    assert opt.params[0] - 1.0 == pytest.approx(-0.01, abs=1e-9)


def test_infinity_accumulator_sticks_at_gradient_magnitude():
    # two identical gradients: u stays |g| because beta2*|g| < |g|
    opt = Adamax(1.0)
    opt.step(4.0)
    assert opt.u[0] == pytest.approx(4.0)
    opt.step(4.0)
    assert opt.u[0] == pytest.approx(4.0)


def test_accumulator_monotone_and_nonnegative_under_constant_magnitude():
    opt = Adamax(1.0)
    previous = 0.0
    for step in range(50):
        sign = 1.0 if step % 2 == 0 else -1.0
        opt.step(sign * 2.5, learning_rate=0.001)
        assert opt.u[0] >= previous
        assert opt.u[0] >= 0.0
        previous = opt.u[0]
    assert previous == pytest.approx(2.5)


def test_quadratic_loss_converges():
    # f(theta) = theta^2, gradient 2*theta, from theta0 = 1 with lr 0.01
    opt = Adamax(1.0)
    for _ in range(2000):
        if abs(opt.params[0]) < 0.01:
            break
        opt.step(2.0 * opt.params[0])
    assert abs(opt.params[0]) < 0.01


def test_nonpositive_learning_rate_raises():
    # Training takes its learning rate from TrainingConfig, which checks it.
    for bad in (0.0, -0.01, float("inf"), float("nan")):
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainingConfig(learning_rate=bad)


def test_kernel_matches_elementwise_rule_bit_for_bit(rng):
    # Seven steps with gradients spanning three orders of magnitude, against
    # the rule evaluated on Python floats one parameter at a time.
    opt = Adamax(*rng.normal(size=5))
    theta, m, u = opt.params.tolist(), [0.0] * 5, [0.0] * 5
    for t in range(1, 8):
        grads = rng.normal(scale=10.0 ** (t % 3 - 1), size=5)
        opt.step(*grads)
        for i, g in enumerate(grads.tolist()):
            m[i] = BETA1 * m[i] + (1.0 - BETA1) * g
            u[i] = max(BETA2 * u[i], abs(g))
            theta[i] -= (0.01 / (1.0 - BETA1**t)) * m[i] / (u[i] + EPSILON)
        assert opt.params.tobytes() == np.array(theta).tobytes()
        assert opt.m.tobytes() == np.array(m).tobytes()
        assert opt.u.tobytes() == np.array(u).tobytes()


def test_kernel_matches_update_rule():
    params, grads = np.array([1.0, -2.0]), np.array([4.0, -0.5])
    state = _AdamaxState(2)
    state.moments[...] = [[0.2, 0.1], [3.0, 1.0]]
    m, u = state.m, state.u
    assert _adamax_update(params, grads, state, 2, 0.01)
    want_m = 0.9 * np.array([0.2, 0.1]) + 0.1 * grads
    want_u = np.maximum(0.999 * np.array([3.0, 1.0]), np.abs(grads))
    assert np.allclose(m, want_m, rtol=1e-15)
    assert np.allclose(u, want_u, rtol=1e-15)
    want = np.array([1.0, -2.0]) - (0.01 / (1 - 0.9**2)) * want_m / (want_u + 1e-8)
    assert np.allclose(params, want, rtol=1e-15)

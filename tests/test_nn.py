import numpy as np
import pytest

from oracles import fd_gradient_mlp, rel_error
from tdcae.errors import ConfigError, DimensionError
from tdcae.nn import (
    Activation,
    DenseLayer,
    GradientSet,
    Mlp,
    backward,
    forward,
    init_mlp,
)

TANH = Activation.TANH
IDENTITY = Activation.IDENTITY


class TestInit:
    def test_same_seed_is_bit_identical(self):
        a = init_mlp([2, 1], [TANH], seed=7)
        b = init_mlp([2, 1], [TANH], seed=7)
        for la, lb in zip(a.layers, b.layers):
            assert la.weights.tobytes() == lb.weights.tobytes()
            assert la.bias.tobytes() == lb.bias.tobytes()

    def test_different_seed_differs(self):
        a = init_mlp([4, 3], [TANH], seed=1)
        b = init_mlp([4, 3], [TANH], seed=2)
        assert not np.array_equal(a.layers[0].weights, b.layers[0].weights)

    def test_glorot_fan_bounds(self):
        mlp = init_mlp([9, 9, 7], [TANH, TANH], seed=3)
        bound_first = np.sqrt(6.0 / (9 + 9))
        bound_second = np.sqrt(6.0 / (9 + 7))
        assert np.all(np.abs(mlp.layers[0].weights) <= bound_first)
        assert np.all(np.abs(mlp.layers[1].weights) <= bound_second)

    def test_biases_start_at_zero(self):
        mlp = init_mlp([5, 4, 3, 2], [TANH, TANH, IDENTITY], seed=11)
        for layer in mlp.layers:
            assert np.all(layer.bias == 0.0)

    def test_bad_configurations_raise(self):
        with pytest.raises(ConfigError):
            init_mlp([3], [], seed=0)
        with pytest.raises(ConfigError):
            init_mlp([3, 2], [TANH, TANH], seed=0)
        with pytest.raises(ConfigError):
            init_mlp([], [], seed=0)


class TestForward:
    def test_zero_parameters_tanh_gives_zero(self):
        mlp = Mlp([DenseLayer(np.zeros((3, 2)), np.zeros(3), TANH)])
        out = forward(mlp, np.array([[5.0, -2.0], [1.0, 1.0]])).output
        assert np.all(out == 0.0)

    def test_identity_affine_arithmetic(self):
        mlp = Mlp([DenseLayer(np.array([[0.5]]), np.array([0.1]), IDENTITY)])
        out = forward(mlp, np.array([[2.0]])).output
        assert out == pytest.approx(1.1)

    def test_output_shape_matches_batch(self, rng):
        mlp = init_mlp([6, 5, 4, 3], [TANH, TANH, IDENTITY], seed=5)
        out = forward(mlp, rng.normal(size=(4, 6))).output
        assert out.shape == (4, 3)

    def test_pure_repeated_calls(self, rng):
        mlp = init_mlp([4, 4, 2], [TANH, IDENTITY], seed=9)
        x = rng.normal(size=(3, 4))
        first = forward(mlp, x).output
        second = forward(mlp, x).output
        assert np.array_equal(first, second)

    def test_shape_mismatch_raises(self):
        mlp = init_mlp([4, 2], [TANH], seed=0)
        with pytest.raises(DimensionError):
            forward(mlp, np.zeros((2, 3)))


class TestBackward:
    def test_zero_cotangent_gives_zero_gradients(self, rng):
        mlp = init_mlp([3, 4, 2], [TANH, IDENTITY], seed=2)
        trace = forward(mlp, rng.normal(size=(5, 3)))
        grads, g_in = backward(mlp, trace, np.zeros((5, 2)))
        assert all(np.all(g == 0) for g in grads.weight_grads)
        assert all(np.all(g == 0) for g in grads.bias_grads)
        assert np.all(g_in == 0)

    def test_identity_layer_weight_gradient_is_outer_product(self):
        mlp = Mlp([DenseLayer(np.array([[0.3, -0.7]]), np.zeros(1), IDENTITY)])
        x = np.array([[2.0, 5.0]])
        c = np.array([[3.0]])
        grads, g_in = backward(mlp, forward(mlp, x), c)
        assert np.array_equal(grads.weight_grads[0], c.T @ x)
        assert np.array_equal(grads.bias_grads[0], c.ravel())
        assert np.array_equal(g_in, c @ mlp.layers[0].weights)

    @pytest.mark.parametrize("sizes,acts", [
        ([3, 4, 2], [TANH, IDENTITY]),
        ([2, 5, 5, 1], [TANH, TANH, TANH]),
        ([6, 3, 6], [TANH, IDENTITY]),
    ])
    def test_matches_finite_differences(self, sizes, acts, rng):
        mlp = init_mlp(sizes, acts, seed=13)
        x = rng.normal(size=(4, sizes[0]))
        cot = rng.normal(size=(4, sizes[-1]))

        def loss():
            return float(np.sum(forward(mlp, x).output * cot))

        grads, _ = backward(mlp, forward(mlp, x), cot)
        fd_w, fd_b = fd_gradient_mlp(loss, mlp)
        for analytic, numeric in zip(grads.weight_grads, fd_w):
            assert rel_error(analytic, numeric) < 1e-6
        for analytic, numeric in zip(grads.bias_grads, fd_b):
            assert rel_error(analytic, numeric) < 1e-6

    def test_input_cotangent_matches_finite_differences(self, rng):
        mlp = init_mlp([3, 4, 2], [TANH, TANH], seed=21)
        x = rng.normal(size=(2, 3))
        cot = rng.normal(size=(2, 2))
        _, g_in = backward(mlp, forward(mlp, x), cot)
        h = 1e-5
        fd = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            xp = x.copy(); xp[idx] += h
            xm = x.copy(); xm[idx] -= h
            fd[idx] = (
                np.sum(forward(mlp, xp).output * cot)
                - np.sum(forward(mlp, xm).output * cot)
            ) / (2 * h)
        assert rel_error(g_in, fd) < 1e-6

    def test_batch_additivity(self, rng):
        mlp = init_mlp([4, 3, 2], [TANH, IDENTITY], seed=31)
        x = rng.normal(size=(6, 4))
        cot = rng.normal(size=(6, 2))
        whole, _ = backward(mlp, forward(mlp, x), cot)
        summed = GradientSet.zeros_like(mlp)
        for k in range(6):
            per_row, _ = backward(mlp, forward(mlp, x[k : k + 1]), cot[k : k + 1])
            summed.add_(per_row)
        for got, want in zip(whole.weight_grads, summed.weight_grads):
            assert np.allclose(got, want, atol=1e-12)
        for got, want in zip(whole.bias_grads, summed.bias_grads):
            assert np.allclose(got, want, atol=1e-12)

    def test_cotangent_shape_mismatch_raises(self, rng):
        mlp = init_mlp([3, 2], [TANH], seed=1)
        trace = forward(mlp, rng.normal(size=(2, 3)))
        with pytest.raises(DimensionError):
            backward(mlp, trace, np.zeros((2, 3)))


class TestStructures:
    def test_incompatible_layer_chain_raises(self):
        good = DenseLayer(np.zeros((3, 2)), np.zeros(3), TANH)
        bad = DenseLayer(np.zeros((2, 4)), np.zeros(2), TANH)
        with pytest.raises(DimensionError):
            Mlp([good, bad])

    def test_bias_length_must_match(self):
        with pytest.raises(DimensionError):
            DenseLayer(np.zeros((3, 2)), np.zeros(2), TANH)

    def test_layer_sizes_and_parameter_count(self):
        mlp = init_mlp([9, 9, 7], [TANH, TANH], seed=0)
        assert mlp.layer_sizes == [9, 9, 7]
        assert mlp.n_parameters() == 9 * 9 + 9 + 9 * 7 + 7


class TestFlatParameters:
    def test_layers_view_into_params(self):
        mlp = init_mlp([4, 3, 2], [TANH, IDENTITY], seed=8)
        assert mlp.params.shape == (mlp.n_parameters(),)
        mlp.params[:] = np.arange(mlp.params.size)
        assert np.array_equal(mlp.layers[0].weights, np.arange(12.0).reshape(3, 4))
        assert np.array_equal(mlp.layers[0].bias, [12.0, 13.0, 14.0])
        assert np.array_equal(mlp.layers[1].weights, np.arange(15.0, 21.0).reshape(2, 3))
        assert np.array_equal(mlp.layers[1].bias, [21.0, 22.0])

    def test_writes_through_layer_views_reach_params(self):
        mlp = init_mlp([3, 2], [TANH], seed=4)
        mlp.layers[0].weights[1, 2] = 7.5
        assert mlp.params[5] == 7.5

    def test_building_from_another_mlps_layers_copies(self):
        first = init_mlp([3, 4, 2], [TANH, IDENTITY], seed=6)
        before = first.params.copy()
        second = Mlp(first.layers)
        second.params[:] = 0.0
        second.layers[1].weights[:] = 1.0
        assert np.array_equal(first.params, before)
        assert np.array_equal(first.layers[0].weights.ravel(), before[:12])
        assert not np.shares_memory(first.params, second.params)

    def test_copy_is_independent(self):
        mlp = init_mlp([2, 2], [TANH], seed=1)
        clone = mlp.copy()
        clone.params += 1.0
        assert np.array_equal(mlp.params + 1.0, clone.params)

    def test_gradient_set_matches_layout(self, rng):
        mlp = init_mlp([3, 4, 2], [TANH, IDENTITY], seed=2)
        grads, _ = backward(mlp, forward(mlp, rng.normal(size=(5, 3))), rng.normal(size=(5, 2)))
        assert grads.flat.shape == mlp.params.shape
        expected = np.concatenate([
            a.ravel() for pair in zip(grads.weight_grads, grads.bias_grads) for a in pair
        ])
        assert np.array_equal(grads.flat, expected)
        rebuilt = GradientSet(grads.weight_grads, grads.bias_grads)
        assert np.array_equal(rebuilt.flat, grads.flat)
        assert not np.shares_memory(rebuilt.flat, grads.flat)

    def test_add_and_all_finite_cover_every_layer(self):
        mlp = init_mlp([3, 4, 2], [TANH, IDENTITY], seed=2)
        total = GradientSet.zeros_like(mlp)
        one = GradientSet.zeros_like(mlp)
        one.flat[:] = 1.0
        total.add_(one).add_(one)
        assert all(np.all(g == 2.0) for g in total.weight_grads + total.bias_grads)
        assert total.all_finite()
        total.bias_grads[-1][0] = np.inf
        assert not total.all_finite()

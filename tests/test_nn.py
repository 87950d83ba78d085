import numpy as np
import pytest

from conftest import one_layer_mlp
from oracles import backward_reference, fd_gradient_mlp, rel_error
from tdcae.errors import ConfigError, DimensionError, NumericError
from tdcae.nn import Activation, GradientSet, Mlp, _share_params, forward, init_mlp

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
        for sizes, acts, message in [
            ([3], [], "layer_sizes needs at least an input and an output size"),
            ([], [], "layer_sizes needs at least an input and an output size"),
            ([3, 2], [TANH, TANH], "expected 1 activations, got 2"),
            ([3, 0, 2], [TANH, TANH], "every layer size must be >= 1"),
        ]:
            with pytest.raises(ConfigError, match=f"^{message}$"):
                Mlp(sizes, acts)
            with pytest.raises(ConfigError, match=f"^{message}$"):
                init_mlp(sizes, acts, seed=0)


class TestForward:
    def test_zero_parameters_tanh_gives_zero(self):
        mlp = Mlp([2, 3], [TANH])
        out = forward(mlp, np.array([[5.0, -2.0], [1.0, 1.0]]))
        assert np.all(out == 0.0)

    def test_identity_affine_arithmetic(self):
        mlp = one_layer_mlp([[0.5]], 0.1, IDENTITY)
        out = forward(mlp, np.array([[2.0]]))
        assert out == pytest.approx(1.1)

    def test_output_shape_matches_batch(self, rng):
        mlp = init_mlp([6, 5, 4, 3], [TANH, TANH, IDENTITY], seed=5)
        out = forward(mlp, rng.normal(size=(4, 6)))
        assert out.shape == (4, 3)

    def test_pure_repeated_calls(self, rng):
        mlp = init_mlp([4, 4, 2], [TANH, IDENTITY], seed=9)
        x = rng.normal(size=(3, 4))
        first = forward(mlp, x)
        second = forward(mlp, x)
        assert np.array_equal(first, second)

    def test_shape_mismatch_raises(self):
        mlp = init_mlp([4, 2], [TANH], seed=0)
        with pytest.raises(DimensionError, match="^input has 3 columns, network expects 4$"):
            forward(mlp, np.zeros((2, 3)))

    @pytest.mark.parametrize("x, error, message", [
        (np.zeros(2), DimensionError, r"input must be 2-D, got shape \(2,\)"),
        (np.zeros((0, 2)), DimensionError, "batch must contain at least one row"),
        (np.array([[0.0, np.nan]]), NumericError, "input contains non-finite entries"),
        (np.array([[np.inf, 0.0]]), NumericError, "input contains non-finite entries"),
        (np.array([[0.0, -np.inf]]), NumericError, "input contains non-finite entries"),
        # Weights of 1e300 on inputs of 1e10 overflow the output to +inf.
        (np.full((1, 2), 1e10), NumericError, "forward pass produced non-finite output"),
    ], ids=["1-D", "no rows", "nan", "+inf", "-inf", "non-finite output"])
    def test_each_check_names_its_fault(self, x, error, message):
        mlp = one_layer_mlp(np.full((2, 2), 1e300), 0.0, IDENTITY)
        with np.errstate(over="ignore"), pytest.raises(error, match=f"^{message}$"):
            forward(mlp, x)


class TestBackward:
    """The backward kernel, through the per-call oracle that runs it into
    fresh buffers."""

    def test_zero_cotangent_gives_zero_gradients(self, rng):
        mlp = init_mlp([3, 4, 2], [TANH, IDENTITY], seed=2)
        grads, g_in = backward_reference(mlp, rng.normal(size=(5, 3)), np.zeros((5, 2)))
        assert all(np.all(g == 0) for g in grads.weight_grads)
        assert all(np.all(g == 0) for g in grads.bias_grads)
        assert np.all(g_in == 0)

    def test_identity_layer_weight_gradient_is_outer_product(self):
        mlp = one_layer_mlp([[0.3, -0.7]], 0.0, IDENTITY)
        x = np.array([[2.0, 5.0]])
        c = np.array([[3.0]])
        grads, g_in = backward_reference(mlp, x, c)
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
            return float(np.sum(forward(mlp, x) * cot))

        grads, _ = backward_reference(mlp, x, cot)
        fd_w, fd_b = fd_gradient_mlp(loss, mlp)
        for analytic, numeric in zip(grads.weight_grads, fd_w):
            assert rel_error(analytic, numeric) < 1e-6
        for analytic, numeric in zip(grads.bias_grads, fd_b):
            assert rel_error(analytic, numeric) < 1e-6

    def test_input_cotangent_matches_finite_differences(self, rng):
        mlp = init_mlp([3, 4, 2], [TANH, TANH], seed=21)
        x = rng.normal(size=(2, 3))
        cot = rng.normal(size=(2, 2))
        _, g_in = backward_reference(mlp, x, cot)
        h = 1e-5
        fd = np.zeros_like(x)
        for idx in np.ndindex(*x.shape):
            xp = x.copy(); xp[idx] += h
            xm = x.copy(); xm[idx] -= h
            fd[idx] = (np.sum(forward(mlp, xp) * cot) - np.sum(forward(mlp, xm) * cot)) / (2 * h)
        assert rel_error(g_in, fd) < 1e-6

    def test_batch_additivity(self, rng):
        mlp = init_mlp([4, 3, 2], [TANH, IDENTITY], seed=31)
        x = rng.normal(size=(6, 4))
        cot = rng.normal(size=(6, 2))
        whole, _ = backward_reference(mlp, x, cot)
        summed = sum(backward_reference(mlp, x[k : k + 1], cot[k : k + 1])[0].flat
                     for k in range(6))
        assert np.allclose(whole.flat, summed, atol=1e-12)


class TestStructures:
    def test_a_new_mlp_has_zero_parameters_seen_through_its_views(self):
        mlp = Mlp([4, 3, 2], [TANH, IDENTITY])
        assert mlp.params.shape == (4 * 3 + 3 + 3 * 2 + 2,)
        assert not mlp.params.any()
        assert [l.activation for l in mlp.layers] == [TANH, IDENTITY]
        assert [l.weights.shape for l in mlp.layers] == [(3, 4), (2, 3)]
        assert all(np.array_equal(l.weights_t, l.weights.T) for l in mlp.layers)
        views = [a for l in mlp.layers for a in (l.weights, l.weights_t, l.bias)]
        assert all(np.shares_memory(v, mlp.params) for v in views)

    def test_layer_sizes_and_parameter_count(self):
        mlp = init_mlp([9, 9, 7], [TANH, TANH], seed=0)
        assert mlp.layer_sizes == [9, 9, 7]
        assert mlp.params.size == 9 * 9 + 9 + 9 * 7 + 7


class TestFlatParameters:
    def test_layers_view_into_params(self):
        mlp = init_mlp([4, 3, 2], [TANH, IDENTITY], seed=8)
        assert mlp.params.shape == (4 * 3 + 3 + 3 * 2 + 2,)
        mlp.params[:] = np.arange(mlp.params.size)
        assert np.array_equal(mlp.layers[0].weights, np.arange(12.0).reshape(3, 4))
        assert np.array_equal(mlp.layers[0].bias, [12.0, 13.0, 14.0])
        assert np.array_equal(mlp.layers[1].weights, np.arange(15.0, 21.0).reshape(2, 3))
        assert np.array_equal(mlp.layers[1].bias, [21.0, 22.0])

    def test_writes_through_layer_views_reach_params(self):
        mlp = init_mlp([3, 2], [TANH], seed=4)
        mlp.layers[0].weights[1, 2] = 7.5
        assert mlp.params[5] == 7.5

    def test_gradient_set_matches_layout(self, rng):
        mlp = init_mlp([3, 4, 2], [TANH, IDENTITY], seed=2)
        grads, _ = backward_reference(mlp, rng.normal(size=(5, 3)), rng.normal(size=(5, 2)))
        assert grads.flat.shape == mlp.params.shape
        expected = np.concatenate([
            a.ravel() for pair in zip(grads.weight_grads, grads.bias_grads) for a in pair
        ])
        assert np.array_equal(grads.flat, expected)
        view = GradientSet(grads.flat, mlp)
        assert all(np.shares_memory(v, grads.flat) for v in view.weight_grads + view.bias_grads)
        grads.flat[:] = np.arange(grads.flat.size)
        assert np.array_equal(view.weight_grads[0], np.arange(12.0).reshape(4, 3))
        assert np.array_equal(view.bias_grads[1], [24.0, 25.0])

    def test_each_layer_record_follows_its_mlp_into_a_shared_vector(self, rng):
        enc = init_mlp([3, 4, 2], [TANH, TANH], seed=1)
        dec = init_mlp([2, 3], [IDENTITY], seed=2)
        flat = _share_params(enc, dec)
        for mlp in (enc, dec):
            assert np.shares_memory(mlp.params, flat)
            for layer in mlp.layers:
                assert all(np.shares_memory(a, mlp.params)
                           for a in (layer.weights, layer.weights_t, layer.bias))
        flat[...] = rng.normal(size=flat.size)
        for mlp in (enc, dec):
            copy = Mlp(mlp.layer_sizes, [l.activation for l in mlp.layers])
            copy.params[...] = mlp.params
            x = rng.normal(size=(5, mlp.input_size))
            assert forward(mlp, x).tobytes() == forward(copy, x).tobytes()

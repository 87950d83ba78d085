import numpy as np
import pytest

from conftest import identity_autoencoder
from oracles import fd_gradient_mlp, rel_error
from tdcae.errors import ConfigError, DimensionError, NumericError
from tdcae.model import (
    HTdcAutoencoder,
    LatentPartition,
    LossBreakdown,
    TrainingConfig,
    _seed_triple,
    build_model,
    central_difference,
    edge_training_config,
    encode,
    load_model,
    save_model,
    tdc_loss,
    total_loss,
    total_loss_grads,
    train,
)
from tdcae.nn import backward, forward, init_mlp
from tdcae.optim import AdamaxState, adamax_step
from tdcae.preprocess import DatasetFrame, fit_scaler, apply_scaler, make_triples
from tdcae.synth import TankSystemConfig, simulate


def edge1_model(seed: int = 0) -> HTdcAutoencoder:
    return build_model(9, edge_training_config(1, seed=seed))


def random_triple(rng, rows: int, features: int):
    return (
        rng.normal(size=(rows, features)),
        rng.normal(size=(rows, features)),
        rng.normal(size=(rows, features)),
    )


class TestPartitionAndEncode:
    def test_edge1_partition_shapes(self, rng):
        model = edge1_model()
        assert model.partition.width == 7
        z, zdot, s = encode(model, rng.normal(size=(5, 9)))
        assert z.shape == (5, 3)
        assert zdot.shape == (5, 3)
        assert s.shape == (5, 1)

    def test_zero_weight_encoder_gives_zero_latent(self):
        config = edge_training_config(1)
        model = build_model(9, config)
        for layer in model.encoder.layers:
            layer.weights[:] = 0.0
        z, zdot, s = encode(model, np.ones((2, 9)))
        assert np.all(z == 0) and np.all(zdot == 0) and np.all(s == 0)

    def test_slices_concatenate_to_raw_output(self, rng):
        model = edge1_model(3)
        x = rng.normal(size=(4, 9))
        z, zdot, s = encode(model, x)
        raw = forward(model.encoder, x).output
        assert np.array_equal(np.hstack([z, zdot, s]), raw)

    def test_partition_layout_indices(self):
        p = LatentPartition(3, 2)
        assert (p.z_slice, p.zdot_slice, p.s_slice) == (
            slice(0, 3), slice(3, 6), slice(6, 8),
        )

    def test_mismatched_latent_width_rejected(self):
        enc = init_mlp([4, 5], ["tanh"], 0)
        dec = init_mlp([5, 4], ["identity"], 0)
        with pytest.raises(DimensionError):
            HTdcAutoencoder(enc, dec, LatentPartition(3, 1))  # width 7 != 5


class TestCentralDifference:
    def test_exact_for_quadratic(self):
        f = lambda t: t**2
        est = central_difference(np.array([[f(1.0)]]), np.array([[f(3.0)]]), 1.0)
        assert abs(est[0, 0] - 4.0) < 1e-12  # f'(2) = 4 exactly

    def test_zero_when_endpoints_match(self):
        z = np.array([[1.7, -2.2]])
        assert np.all(central_difference(z, z, 0.5) == 0.0)

    def test_sine_matches_direct_evaluation(self):
        # (sin(0.1) - sin(-0.1)) / 0.2 = 0.99833...
        est = central_difference(
            np.array([[np.sin(-0.1)]]), np.array([[np.sin(0.1)]]), 0.1
        )
        assert est[0, 0] == pytest.approx(np.sin(0.1) / 0.1)
        assert est[0, 0] == pytest.approx(1.0, abs=2e-3)

    def test_second_order_error_decay(self):
        # halving the step shrinks the sine error by ~4x (>= 3.5x)
        t0 = 0.7
        err = []
        for dt in (0.2, 0.1):
            est = central_difference(
                np.array([[np.sin(t0 - dt)]]), np.array([[np.sin(t0 + dt)]]), dt
            )
            err.append(abs(est[0, 0] - np.cos(t0)))
        assert err[0] / err[1] >= 3.5

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ConfigError):
            central_difference(np.zeros((1, 1)), np.zeros((1, 1)), 0.0)


class TestTdcLoss:
    def test_perfect_consistency_is_zero(self, rng):
        z = rng.normal(size=(6, 3))
        assert tdc_loss(z, z) == 0.0

    def test_small_example(self):
        assert tdc_loss(np.array([[1.0, 0.0]]), np.array([[0.0, 0.0]])) == 0.5

    def test_matches_brute_force(self, rng):
        a = rng.normal(size=(8, 4))
        b = rng.normal(size=(8, 4))
        brute = sum(
            (a[i, j] - b[i, j]) ** 2 for i in range(8) for j in range(4)
        ) / 32.0
        assert tdc_loss(a, b) == pytest.approx(brute, rel=1e-12)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            tdc_loss(np.zeros((2, 2)), np.zeros((2, 3)))


class TestTotalLoss:
    def test_alpha_zero_reduces_to_reconstruction(self, rng):
        model = edge1_model(5)
        x_prev, x_t, x_next = random_triple(rng, 4, 9)
        breakdown = total_loss(model, x_prev, x_t, x_next, alpha=0.0)
        assert breakdown.total == breakdown.rec_loss

    def test_perfect_model_scores_zero(self, rng):
        model = identity_autoencoder(4)
        x = rng.normal(size=(5, 4))
        breakdown = total_loss(model, x, x, x, alpha=0.002)
        assert breakdown.rec_loss == 0.0
        assert breakdown.tdc_loss == 0.0
        assert breakdown.total == 0.0

    def test_breakdown_composition_invariant(self, rng):
        model = edge1_model(9)
        alpha = 0.37
        breakdown = total_loss(model, *random_triple(rng, 6, 9), alpha=alpha)
        assert breakdown.total == pytest.approx(
            breakdown.rec_loss + alpha * breakdown.tdc_loss, abs=1e-12
        )

    def test_gradients_match_finite_differences(self, rng):
        # The most important check in the repo: the analytic gradient of the
        # full training loss, including the consistency path through the
        # encoder passes at t-1 and t+1, against central differences.
        model = edge1_model(7)
        x_prev, x_t, x_next = random_triple(rng, 3, 9)
        alpha, delta_t = 0.1, 1.0

        breakdown, enc_grads, dec_grads = total_loss_grads(
            model, x_prev, x_t, x_next, alpha, delta_t
        )
        assert np.isfinite(breakdown.total)

        def loss():
            return total_loss(model, x_prev, x_t, x_next, alpha, delta_t).total

        fd_w, fd_b = fd_gradient_mlp(loss, model.encoder)
        for got, want in zip(enc_grads.weight_grads, fd_w):
            assert rel_error(got, want) < 1e-5
        for got, want in zip(enc_grads.bias_grads, fd_b):
            assert rel_error(got, want) < 1e-5

        fd_w, fd_b = fd_gradient_mlp(loss, model.decoder)
        for got, want in zip(dec_grads.weight_grads, fd_w):
            assert rel_error(got, want) < 1e-5
        for got, want in zip(dec_grads.bias_grads, fd_b):
            assert rel_error(got, want) < 1e-5

    def test_consistency_term_sees_neighbour_passes(self, rng):
        # perturbing only x_next must change the encoder gradient when
        # alpha > 0 and leave it untouched when alpha = 0
        model = edge1_model(11)
        x_prev, x_t, x_next = random_triple(rng, 4, 9)
        _, g1, _ = total_loss_grads(model, x_prev, x_t, x_next, alpha=0.5)
        _, g2, _ = total_loss_grads(model, x_prev, x_t, x_next + 0.1, alpha=0.5)
        assert not np.allclose(g1.weight_grads[0], g2.weight_grads[0])
        _, g3, _ = total_loss_grads(model, x_prev, x_t, x_next, alpha=0.0)
        _, g4, _ = total_loss_grads(model, x_prev, x_t, x_next + 0.1, alpha=0.0)
        assert np.array_equal(g3.weight_grads[0], g4.weight_grads[0])


def three_pass_loss_grads(model, x_prev, x_t, x_next, alpha, delta_t=1.0):
    """Reference gradients: separate encoder passes at t, t-1 and t+1 through
    the public forward/backward, each back-propagated on its own, summed."""
    p = model.partition
    trace_t = forward(model.encoder, x_t)
    trace_prev = forward(model.encoder, x_prev)
    trace_next = forward(model.encoder, x_next)
    trace_dec = forward(model.decoder, trace_t.output)
    dec_grads, g_latent = backward(
        model.decoder, trace_dec, (2.0 / x_t.size) * (trace_dec.output - x_t)
    )
    diff = (
        (trace_next.output[:, p.z_slice] - trace_prev.output[:, p.z_slice]) / (2.0 * delta_t)
        - trace_t.output[:, p.zdot_slice]
    )
    g_latent = g_latent.copy()
    g_side = np.zeros_like(trace_t.output)
    if diff.size:
        g_latent[:, p.zdot_slice] += (-2.0 * alpha / diff.size) * diff
        g_side[:, p.z_slice] = (2.0 * alpha / diff.size) * diff / (2.0 * delta_t)
    enc_grads, _ = backward(model.encoder, trace_t, g_latent)
    enc_grads.add_(backward(model.encoder, trace_next, g_side)[0])
    enc_grads.add_(backward(model.encoder, trace_prev, -g_side)[0])
    return enc_grads, dec_grads


class TestStackedPass:
    @pytest.mark.parametrize("partition, alpha, delta_t", [
        (LatentPartition(3, 1), 0.3, 1.0),
        (LatentPartition(3, 1), 0.0, 1.0),
        (LatentPartition(0, 2), 0.3, 1.0),
        (LatentPartition(2, 0), 0.7, 0.5),
    ])
    def test_matches_three_pass_reference(self, partition, alpha, delta_t, rng):
        config = TrainingConfig(hidden_size=6, partition=partition, seed=4)
        model = build_model(5, config)
        x_prev, x_t, x_next = random_triple(rng, 7, 5)
        breakdown, enc_grads, dec_grads = total_loss_grads(
            model, x_prev, x_t, x_next, alpha, delta_t
        )
        want_enc, want_dec = three_pass_loss_grads(model, x_prev, x_t, x_next, alpha, delta_t)
        assert np.allclose(enc_grads.flat, want_enc.flat, rtol=0, atol=1e-12)
        assert np.allclose(dec_grads.flat, want_dec.flat, rtol=0, atol=1e-12)
        assert breakdown == total_loss(model, x_prev, x_t, x_next, alpha, delta_t)

    @pytest.mark.parametrize("which", [0, 1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_triple_raises(self, which, bad, rng):
        model = edge1_model(2)
        triple = list(random_triple(rng, 4, 9))
        triple[which][2, 3] = bad
        with pytest.raises(NumericError):
            total_loss_grads(model, *triple, alpha=0.002)

    def test_mismatched_triple_shapes_raise(self, rng):
        model = edge1_model(2)
        x_prev, x_t, x_next = random_triple(rng, 4, 9)
        with pytest.raises(DimensionError):
            total_loss_grads(model, x_prev[:3], x_t, x_next, alpha=0.002)
        with pytest.raises(DimensionError):
            total_loss_grads(model, x_prev[:, :8], x_t[:, :8], x_next[:, :8], alpha=0.002)


def small_training_frame(seed: int = 0, rows: int = 240) -> DatasetFrame:
    frame = simulate(TankSystemConfig(horizon=max(rows, 100), seed=seed))
    frame = DatasetFrame(frame.feature_names, frame.values[:rows])
    return apply_scaler(fit_scaler(frame), frame)


def plain_autoencoder_train(config: TrainingConfig, frame: DatasetFrame):
    """Reference trainer without any consistency machinery: a straight
    reconstruction autoencoder on the same batch schedule."""
    triples = make_triples(frame, config.delta_t)
    model = build_model(frame.n_features, config)
    _, _, shuffle_seed = _seed_triple(config.seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    encoder, decoder = model.encoder, model.decoder
    enc_state = AdamaxState.for_mlp(encoder)
    dec_state = AdamaxState.for_mlp(decoder)
    n = triples.n_rows
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            x = triples.x_t[idx]
            enc_trace = forward(encoder, x)
            dec_trace = forward(decoder, enc_trace.output)
            cot = (2.0 / x.size) * (dec_trace.output - x)
            dec_grads, g_latent = backward(decoder, dec_trace, cot)
            enc_grads, _ = backward(encoder, enc_trace, g_latent)
            encoder, enc_state = adamax_step(encoder, enc_grads, enc_state, config.learning_rate)
            decoder, dec_state = adamax_step(decoder, dec_grads, dec_state, config.learning_rate)
    return encoder, decoder


class TestTraining:
    def test_fixed_seed_is_bit_identical(self):
        frame = small_training_frame(1)
        config = TrainingConfig(hidden_size=8, epochs=3, seed=17)
        model_a, hist_a = train(config, frame)
        model_b, hist_b = train(config, frame)
        for la, lb in zip(
            model_a.encoder.layers + model_a.decoder.layers,
            model_b.encoder.layers + model_b.decoder.layers,
        ):
            assert la.weights.tobytes() == lb.weights.tobytes()
            assert la.bias.tobytes() == lb.bias.tobytes()
        assert [h.total for h in hist_a] == [h.total for h in hist_b]

    def test_alpha_zero_equals_plain_autoencoder(self):
        frame = small_training_frame(2)
        config = TrainingConfig(hidden_size=8, epochs=3, seed=5, alpha=0.0)
        model, _ = train(config, frame)
        encoder, decoder = plain_autoencoder_train(config, frame)
        for got, want in zip(model.encoder.layers, encoder.layers):
            assert np.allclose(got.weights, want.weights, atol=1e-12)
        for got, want in zip(model.decoder.layers, decoder.layers):
            assert np.allclose(got.weights, want.weights, atol=1e-12)

    def test_history_has_one_entry_per_epoch(self):
        frame = small_training_frame(3)
        config = TrainingConfig(hidden_size=8, epochs=4, seed=1)
        _, history = train(config, frame)
        assert len(history) == 4
        for entry in history:
            assert isinstance(entry, LossBreakdown)
            assert entry.total == pytest.approx(
                entry.rec_loss + config.alpha * entry.tdc_loss, abs=1e-12
            )

    def test_losses_trend_down(self):
        frame = small_training_frame(4, rows=800)
        _, history = train(TrainingConfig(hidden_size=8, epochs=30, seed=2), frame)
        assert history[-1].rec_loss < history[0].rec_loss
        assert history[-1].tdc_loss < history[0].tdc_loss

    def test_numeric_blowup_names_epoch_and_batch(self):
        frame = small_training_frame(5)
        config = TrainingConfig(hidden_size=8, epochs=2, seed=0, learning_rate=1e200)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericError, match="epoch 1, batch"):
                train(config, frame)

    def test_labels_do_not_influence_training(self):
        frame = small_training_frame(6)
        labeled = DatasetFrame(
            frame.feature_names,
            frame.values,
            labels=np.ones(frame.n_rows, dtype=int),
        )
        config = TrainingConfig(hidden_size=8, epochs=2, seed=9)
        model_a, _ = train(config, frame)
        model_b, _ = train(config, labeled)
        for la, lb in zip(model_a.encoder.layers, model_b.encoder.layers):
            assert np.array_equal(la.weights, lb.weights)


class TestDefaultsAndPersistence:
    def test_edge_defaults_match_recipe(self):
        e1 = edge_training_config(1)
        assert (e1.hidden_size, e1.learning_rate, e1.alpha) == (9, 0.01, 0.002)
        assert (e1.partition.n_pairs, e1.partition.n_stat) == (3, 1)
        assert e1.batch_size == 32
        e2 = edge_training_config(2)
        assert (e2.hidden_size, e2.learning_rate, e2.alpha) == (19, 0.007, 0.003)
        assert (e2.partition.n_pairs, e2.partition.n_stat) == (3, 2)
        e3 = edge_training_config(3)
        assert (e3.hidden_size, e3.learning_rate, e3.alpha) == (15, 0.01, 0.002)
        assert (e3.partition.n_pairs, e3.partition.n_stat) == (3, 2)

    def test_unknown_edge_rejected(self):
        with pytest.raises(ConfigError):
            edge_training_config(4)

    def test_model_json_round_trip_is_bit_exact(self, tmp_path):
        frame = small_training_frame(7, rows=120)
        config = TrainingConfig(hidden_size=8, epochs=2, seed=3)
        model, _ = train(config, frame)
        scaler = fit_scaler(DatasetFrame(frame.feature_names, frame.values))
        save_model(tmp_path / "m.json", model, scaler, config)
        loaded, loaded_scaler, loaded_config = load_model(tmp_path / "m.json")
        for la, lb in zip(
            model.encoder.layers + model.decoder.layers,
            loaded.encoder.layers + loaded.decoder.layers,
        ):
            assert np.array_equal(la.weights, lb.weights)
            assert np.array_equal(la.bias, lb.bias)
            assert la.activation == lb.activation
        assert loaded.partition == model.partition
        assert np.array_equal(loaded_scaler.median, scaler.median)
        assert np.array_equal(loaded_scaler.iqr, scaler.iqr)
        assert loaded_config.to_dict() == config.to_dict()

    def test_training_config_validation(self):
        with pytest.raises(ConfigError):
            TrainingConfig(alpha=-0.1)
        with pytest.raises(ConfigError):
            TrainingConfig(epochs=0)
        with pytest.raises(ConfigError):
            TrainingConfig(batch_size=0)
        with pytest.raises(ConfigError):
            TrainingConfig(delta_t=0.0)

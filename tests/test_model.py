import numpy as np
import pytest

import tdcae.model as model_mod
from conftest import identity_autoencoder
from oracles import (
    adamax_stepper, backward_reference, fd_gradient_mlp, make_triples, rel_error, tdc_loss,
)
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
    reconstruct,
    save_model,
    total_loss,
    total_loss_grads,
    train,
)
from tdcae.nn import Activation, DenseLayer, Mlp, forward, init_mlp
from tdcae.preprocess import DatasetFrame, fit_scaler, apply_scaler
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
        raw = forward(model.encoder, x)
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


class TestReconstruct:
    def test_overflowing_latent_raises_even_if_the_decoder_saturates(self):
        # Identity encoder with huge weights: the latent overflows to +inf,
        # which a tanh decoder with positive weights would map to 1.0.
        encoder = Mlp([DenseLayer(np.full((2, 2), 1e300), np.zeros(2), Activation.IDENTITY)])
        decoder = Mlp([DenseLayer(np.ones((2, 2)), np.zeros(2), Activation.TANH)])
        model = HTdcAutoencoder(encoder, decoder, LatentPartition(0, 2))
        x = np.full((1, 2), 1e10)
        with np.errstate(over="ignore"):
            assert np.isinf(x @ encoder.layers[0].weights.T).all()
            assert np.isfinite(np.tanh(np.full((1, 2), np.inf) @ np.ones((2, 2)))).all()
            with pytest.raises(NumericError):
                reconstruct(model, x)

    def test_matches_two_public_forward_passes(self, rng):
        model = edge1_model(5)
        x = rng.normal(size=(7, 9))
        twice = forward(model.decoder, forward(model.encoder, x))
        assert reconstruct(model, x).tobytes() == twice.tobytes()


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


def identity_pairs_model(n_pairs: int) -> HTdcAutoencoder:
    """A model whose latent is its input, read as [z | zdot]."""
    identity = identity_autoencoder(2 * n_pairs)
    return HTdcAutoencoder(identity.encoder, identity.decoder, LatentPartition(n_pairs, 0))


class TestTdcLoss:
    """The consistency term of the fused loss step, total_loss(...).tdc_loss."""

    def test_perfect_consistency_is_zero(self):
        # z = c t^2 and zdot = 2 c t on integer hours: the central difference
        # of a quadratic is exact, so every derivative node is consistent.
        t = np.arange(-3.0, 5.0)[:, None]
        c = np.array([1.0, -2.0, 3.0])
        x = np.hstack([c * t**2, 2.0 * c * t])
        x_prev, x_t, x_next = make_triples(x)
        breakdown = total_loss(identity_pairs_model(3), x_prev, x_t, x_next, alpha=0.5)
        assert breakdown.tdc_loss == 0.0

    def test_small_example(self):
        # pair 0: (2 - 0) / 2 - 0 = 1; pair 1: 0; mean of squares 0.5
        zeros = np.zeros((1, 4))
        x_next = np.array([[2.0, 0.0, 0.0, 0.0]])
        breakdown = total_loss(identity_pairs_model(2), zeros, zeros, x_next, alpha=1.0)
        assert breakdown.tdc_loss == 0.5

    def test_matches_brute_force(self, rng):
        model = edge1_model(4)
        x_prev, x_t, x_next = random_triple(rng, 8, 9)
        z_prev, _, _ = encode(model, x_prev)
        _, zdot, _ = encode(model, x_t)
        z_next, _, _ = encode(model, x_next)
        brute = sum(
            ((z_next[i, j] - z_prev[i, j]) / 2.0 - zdot[i, j]) ** 2
            for i in range(8) for j in range(3)
        ) / 24.0
        breakdown = total_loss(model, x_prev, x_t, x_next, alpha=0.002)
        assert breakdown.tdc_loss == pytest.approx(brute, rel=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        x_prev, x_t, x_next = random_triple(rng, 2, 9)
        with pytest.raises(DimensionError):
            total_loss(edge1_model(), x_prev, x_t, x_next[:, :8], alpha=0.002)


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

    @pytest.mark.parametrize("partition", [
        LatentPartition(3, 1), LatentPartition(0, 2), LatentPartition(2, 0),
    ])
    def test_matches_oracle_loss_values(self, partition, rng):
        model = build_model(5, TrainingConfig(hidden_size=6, partition=partition, seed=6))
        x_prev, x_t, x_next = random_triple(rng, 7, 5)
        delta_t = 0.5
        z_prev, _, _ = encode(model, x_prev)
        _, zdot_t, _ = encode(model, x_t)
        z_next, _, _ = encode(model, x_next)
        want_rec = np.mean((reconstruct(model, x_t) - x_t) ** 2)
        want_tdc = tdc_loss(central_difference(z_prev, z_next, delta_t), zdot_t)
        breakdown = total_loss(model, x_prev, x_t, x_next, alpha=0.3, delta_t=delta_t)
        assert breakdown.rec_loss == pytest.approx(want_rec, rel=1e-12)
        assert breakdown.tdc_loss == pytest.approx(want_tdc, rel=1e-12)

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
    """Reference gradients: separate encoder passes at t, t-1 and t+1, each
    back-propagated on its own by the per-call oracle, summed."""
    p = model.partition
    h_t = forward(model.encoder, x_t)
    h_prev = forward(model.encoder, x_prev)
    h_next = forward(model.encoder, x_next)
    out = forward(model.decoder, h_t)
    dec_grads, g_latent = backward_reference(model.decoder, h_t, (2.0 / x_t.size) * (out - x_t))
    diff = (h_next[:, p.z_slice] - h_prev[:, p.z_slice]) / (2.0 * delta_t) - h_t[:, p.zdot_slice]
    g_side = np.zeros_like(h_t)
    if diff.size:
        g_latent[:, p.zdot_slice] += (-2.0 * alpha / diff.size) * diff
        g_side[:, p.z_slice] = (2.0 * alpha / diff.size) * diff / (2.0 * delta_t)
    enc_grads, _ = backward_reference(model.encoder, x_t, g_latent)
    enc_grads.flat += backward_reference(model.encoder, x_next, g_side)[0].flat
    enc_grads.flat += backward_reference(model.encoder, x_prev, -g_side)[0].flat
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
    _, x_t, _ = make_triples(frame.values)
    model = build_model(frame.n_features, config)
    _, _, shuffle_seed = _seed_triple(config.seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    encoder, decoder = model.encoder, model.decoder
    step = adamax_stepper((encoder, decoder), config.learning_rate)
    n = len(x_t)
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, config.batch_size):
            x = x_t[order[start : start + config.batch_size]]
            h = forward(encoder, x)
            cot = (2.0 / x.size) * (forward(decoder, h) - x)
            dec_grads, g_latent = backward_reference(decoder, h, cot)
            enc_grads, _ = backward_reference(encoder, x, g_latent)
            step(enc_grads, dec_grads)
    return encoder, decoder


def reference_train(config: TrainingConfig, frame: DatasetFrame):
    """Reference trainer: public total_loss_grads and one Adamax step per
    network per batch, on train's batch schedule. Returns the parameters
    as one encoder-then-decoder vector and the loss history."""
    x_prev, x_t, x_next = make_triples(frame.values)
    model = build_model(frame.n_features, config)
    _, _, shuffle_seed = _seed_triple(config.seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)
    step = adamax_stepper((model.encoder, model.decoder), config.learning_rate)
    n = len(x_t)
    history = []
    for _ in range(config.epochs):
        order = shuffle_rng.permutation(n)
        rec_sum = tdc_sum = 0.0
        for start in range(0, n, config.batch_size):
            idx = order[start : start + config.batch_size]
            breakdown, enc_grads, dec_grads = total_loss_grads(
                model, x_prev[idx], x_t[idx], x_next[idx],
                config.alpha, config.delta_t,
            )
            step(enc_grads, dec_grads)
            rec_sum += breakdown.rec_loss * len(idx)
            tdc_sum += breakdown.tdc_loss * len(idx)
        history.append(LossBreakdown.from_parts(rec_sum / n, tdc_sum / n, config.alpha))
    return np.concatenate((model.encoder.params, model.decoder.params)), history


class TestTriples:
    """train's triple layout: triple k of a T-row frame is rows (k, k+1,
    k+2), gathered batch by batch through _batch_rows."""

    @staticmethod
    def frame(*column: float) -> DatasetFrame:
        return DatasetFrame(["a"], np.array(column)[:, None])

    def test_five_rows_give_three_triples(self, monkeypatch):
        steps = []
        monkeypatch.setattr(model_mod, "_adamax_update", lambda *a: steps.append(a[4]))
        train(TrainingConfig(hidden_size=2, epochs=1, batch_size=1),
              self.frame(0.0, 1.0, 2.0, 3.0, 4.0))
        assert steps == [1, 2, 3]

    def test_alignment(self):
        values = np.arange(10.0, 17.0)[:, None]  # 7 rows, 5 triples
        order = np.array([3, 0, 4, 2, 1])
        x_prev, x_t, x_next = make_triples(values)
        assert (x_prev[0, 0], x_t[0, 0], x_next[0, 0], x_next[-1, 0]) == (10, 11, 12, 16)
        rows = model_mod._batch_rows(order, 2)  # batches of 2, 2 and a tail of 1
        for start in (0, 2, 4):
            idx = order[start : start + 2]
            want = np.concatenate((x_t[idx], x_prev[idx], x_next[idx]))
            assert np.array_equal(values[rows[3 * start : 3 * (start + len(idx))]], want)

    def test_default_delta_t_is_one_hour(self, rng):
        assert TrainingConfig().delta_t == 1.0
        model, triple = edge1_model(), random_triple(rng, 4, 9)
        assert total_loss(model, *triple, alpha=0.5) == total_loss(
            model, *triple, alpha=0.5, delta_t=1.0
        )

    def test_too_few_rows_raise(self):
        with pytest.raises(ConfigError, match="need >= 3 rows"):
            train(TrainingConfig(hidden_size=2, epochs=1), self.frame(1.0, 2.0))

    def test_nonpositive_delta_t_raises(self, rng):
        with pytest.raises(ConfigError):
            TrainingConfig(delta_t=0.0)
        with pytest.raises(ConfigError):
            total_loss(edge1_model(), *random_triple(rng, 4, 9), alpha=0.5, delta_t=0.0)


class TestTraining:
    @pytest.mark.parametrize("rows, overrides", [
        (103, {"batch_size": 32}),  # 101 triples: a tail batch of 5
        (40, {"batch_size": 64}),  # one batch, smaller than batch_size
        (24, {"batch_size": 1}),
        (103, {"alpha": 0.0}),
        (103, {"partition": LatentPartition(0, 2)}),
        (103, {"partition": LatentPartition(2, 0), "delta_t": 0.5}),
    ])
    def test_matches_reference_loop_bit_for_bit(self, rows, overrides):
        frame = small_training_frame(8, rows=rows)
        config = TrainingConfig(**{"hidden_size": 6, "epochs": 3, "seed": 12, "alpha": 0.3,
                                   **overrides})
        model, history = train(config, frame)
        want_params, want_history = reference_train(config, frame)
        got_params = np.concatenate((model.encoder.params, model.decoder.params))
        assert got_params.tobytes() == want_params.tobytes()
        assert history == want_history

    def test_one_fused_step_per_batch(self, monkeypatch):
        # Every batch, full or tail, runs each kernel once per network: the
        # encoder forward over the 3B stacked triple rows, the decoder over
        # the B x_t rows, then the two backward passes on the same rows.
        calls = []

        def spy(kind, kernel):
            def counted(layers, x, *rest):
                calls.append((kind, layers, x.shape[0]))
                return kernel(layers, x, *rest)
            return counted

        monkeypatch.setattr(model_mod, "_forward", spy("forward", model_mod._forward))
        monkeypatch.setattr(model_mod, "_backward", spy("backward", model_mod._backward))
        frame = small_training_frame(8, rows=103)  # 101 triples: 32, 32, 32 and a tail of 5
        model, _ = train(TrainingConfig(hidden_size=6, epochs=1, seed=12), frame)
        nets = {id(model.encoder._kernel): "encoder", id(model.decoder._kernel): "decoder"}
        got = [(kind, nets.get(id(layers)), rows) for kind, layers, rows in calls]
        want = []
        for b in (32, 32, 32, 5):
            want += [("forward", "encoder", 3 * b), ("forward", "decoder", b),
                     ("backward", "decoder", b), ("backward", "encoder", 3 * b)]
        assert got == want
        encoder_rows = sum(r for kind, net, r in got if (kind, net) == ("forward", "encoder"))
        assert encoder_rows / 101 == 3.0

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
        with pytest.raises(ConfigError):
            TrainingConfig(seed=-1)


NON_FINITE = [float("inf"), float("nan")]


class TestNonFiniteSettings:
    """An infinite time step divides every central difference to 0 and so
    silently turns the consistency term off; NaN settings poison training
    only later. Each entry point rejects them up front."""

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("entry", [
        "train", "total_loss", "total_loss_grads", "central_difference",
    ])
    def test_delta_t_rejected(self, entry, bad, rng):
        frame = small_training_frame(0, rows=40)
        model = edge1_model()
        triple = random_triple(rng, 4, 9)
        calls = {
            "train": lambda: train(TrainingConfig(hidden_size=6, epochs=1, delta_t=bad), frame),
            "total_loss": lambda: total_loss(model, *triple, alpha=0.002, delta_t=bad),
            "total_loss_grads": lambda: total_loss_grads(model, *triple, alpha=0.002, delta_t=bad),
            "central_difference": lambda: central_difference(triple[0], triple[2], bad),
        }
        with pytest.raises(ConfigError, match="delta_t must be finite"):
            calls[entry]()

    @pytest.mark.parametrize("bad", NON_FINITE)
    @pytest.mark.parametrize("name", ["learning_rate", "alpha"])
    def test_training_config_rejects_non_finite(self, name, bad):
        with pytest.raises(ConfigError, match=name):
            TrainingConfig(**{name: bad})

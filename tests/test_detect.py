import importlib
import re
import types
import warnings
from dataclasses import replace

import numpy as np
import pytest

from conftest import identity_autoencoder, one_layer_mlp, traced_peak
from oracles import smooth_reference, smooth_shifted_reference
from tdcae.detect import (
    DetectionConfig,
    DetectionResult,
    detect,
    fit_threshold,
    load_detection_flags,
    reconstruction_error,
    save_detection_csv,
    smooth,
    threshold_from_scores,
)
from tdcae.errors import ConfigError, DimensionError, NumericError
from tdcae.model import (
    HTdcAutoencoder, LatentPartition, TrainingConfig, build_model, edge_training_config,
)
from tdcae.nn import Activation, forward
from tdcae.preprocess import DatasetFrame


def frame_of(values: np.ndarray, labels=None) -> DatasetFrame:
    values = np.atleast_2d(np.asarray(values, dtype=float))
    names = [f"f{i}" for i in range(values.shape[1])]
    return DatasetFrame(feature_names=names, values=values, labels=labels)


def constant_output_model(value: float) -> HTdcAutoencoder:
    """Single-feature model that reconstructs everything to `value`."""
    encoder = one_layer_mlp(np.zeros((1, 1)), 0.0, Activation.IDENTITY)
    decoder = one_layer_mlp(np.zeros((1, 1)), value, Activation.IDENTITY)
    return HTdcAutoencoder(encoder, decoder, LatentPartition(0, 1))


class TestReconstructionError:
    def test_perfect_model_scores_zero(self, rng):
        model = identity_autoencoder(3)
        scores = reconstruction_error(model, frame_of(rng.normal(size=(10, 3))))
        assert np.all(scores == 0.0)

    def test_single_feature_off_by_one(self):
        model = constant_output_model(1.0)
        scores = reconstruction_error(model, frame_of([[2.0]]))
        assert scores[0] == 1.0

    def test_matches_brute_force(self, rng):
        model = build_model(4, TrainingConfig(hidden_size=5, partition=LatentPartition(1, 1)))
        frame = frame_of(rng.normal(size=(12, 4)))
        scores = reconstruction_error(model, frame)
        xhat = forward(model.decoder, forward(model.encoder, frame.values))
        brute = np.array(
            [np.mean((frame.values[t] - xhat[t]) ** 2) for t in range(12)]
        )
        assert scores.tobytes() == brute.tobytes()
        assert scores.shape == (12,)  # every timestep scored, no trimming

    def test_bytes_match_two_public_forward_passes(self, rng):
        model = build_model(9, replace(edge_training_config(1), seed=5))
        x = rng.normal(size=(7, 9))
        residual = x - forward(model.decoder, forward(model.encoder, x))
        expected = (residual**2).mean(axis=1)
        assert reconstruction_error(model, frame_of(x)).tobytes() == expected.tobytes()

    def test_memory_holds_at_most_two_activations(self, rng):
        # Two 8-wide activations take twice the values' bytes. A third
        # alive at once, or a residual apart from the reconstruction, takes
        # more.
        model = build_model(8, TrainingConfig(hidden_size=8, partition=LatentPartition(3, 1)))
        assert model.encoder.layer_sizes == [8, 8, 7]
        frame = frame_of(rng.normal(size=(20_000, 8)))
        peak = traced_peak(lambda: reconstruction_error(model, frame))
        assert peak <= 2.1 * frame.values.nbytes

    def test_memory_bound_holds_where_callers_keep_their_arguments(self, rng, monkeypatch):
        # CPython 3.10 keeps a call's arguments alive in the caller until
        # the call returns, where 3.11 hands them to the callee. Calling
        # each function that tdcae.detect calls through a frame that holds
        # its arguments gives 3.10's peak on any Python.
        detect_mod = importlib.import_module("tdcae.detect")
        for name, f in list(vars(detect_mod).items()):
            if isinstance(f, types.FunctionType) and f.__module__.startswith("tdcae."):
                monkeypatch.setattr(detect_mod, name, lambda *a, _f=f, **k: _f(*a, **k))
        model = build_model(8, TrainingConfig(hidden_size=8, partition=LatentPartition(3, 1)))
        frame = frame_of(rng.normal(size=(20_000, 8)))
        peak = traced_peak(lambda: reconstruction_error(model, frame))
        assert peak <= 2.1 * frame.values.nbytes

    def test_feature_mismatch_raises(self, rng):
        model = identity_autoencoder(3)
        with pytest.raises(DimensionError):
            reconstruction_error(model, frame_of(rng.normal(size=(4, 2))))


def saturating_model() -> HTdcAutoencoder:
    """Identity encoder with huge weights, whose latent overflows to +inf on
    inputs of 1e10, and a tanh decoder with positive weights, which maps
    that latent to a finite 1.0."""
    encoder = one_layer_mlp(np.full((2, 2), 1e300), 0.0, Activation.IDENTITY)
    decoder = one_layer_mlp(np.ones((2, 2)), 0.0, Activation.TANH)
    return HTdcAutoencoder(encoder, decoder, LatentPartition(0, 2))


class TestNonFiniteScoring:
    """reconstruction_error and detect name a non-finite input, latent or
    reconstruction with forward's messages and in that order, before an
    overflowing error."""

    @staticmethod
    def score(kind, model, frame):
        if kind == "reconstruction_error":
            return reconstruction_error(model, frame)
        return detect(model, frame, 1.0, DetectionConfig())

    @pytest.mark.parametrize("kind", ["reconstruction_error", "detect"])
    def test_overflowing_latent_raises_even_if_the_decoder_saturates(self, kind):
        frame = frame_of(np.full((3, 2), 1e10))
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match="^forward pass produced non-finite output$"):
            self.score(kind, saturating_model(), frame)

    @pytest.mark.parametrize("kind", ["reconstruction_error", "detect"])
    @pytest.mark.parametrize("cell", [np.nan, np.inf, -np.inf])
    def test_values_made_non_finite_in_place(self, kind, cell):
        # The frame checks its values when it is built, not after. A tanh
        # encoder maps an infinite entry to a finite latent, so only the
        # row's error shows it.
        frame = frame_of(np.full((3, 2), 0.5))
        frame.values[1, 0] = cell
        tanh_model = build_model(2, TrainingConfig(hidden_size=3, partition=LatentPartition(0, 2)))
        for model in (identity_autoencoder(2), saturating_model(), tanh_model):
            with pytest.raises(NumericError, match="^input contains non-finite entries$"):
                self.score(kind, model, frame)

    @pytest.mark.parametrize("kind", ["reconstruction_error", "detect"])
    def test_overflowing_reconstruction(self, kind):
        # A finite latent of 1 decoded to 1e308 + 1e308 overflows to inf.
        encoder = one_layer_mlp(np.zeros((1, 2)), 1.0, Activation.IDENTITY)
        decoder = one_layer_mlp(np.full((2, 1), 1e308), 1e308, Activation.IDENTITY)
        model = HTdcAutoencoder(encoder, decoder, LatentPartition(0, 1))
        with np.errstate(over="ignore"), pytest.raises(
                NumericError, match="^forward pass produced non-finite output$"):
            self.score(kind, model, frame_of(np.zeros((3, 2))))


class TestSmooth:
    def test_window_one_is_identity(self, rng):
        scores = rng.normal(size=17)
        assert np.array_equal(smooth(scores, 1), scores)

    def test_spike_example(self):
        scores = [0, 0, 7, 0, 0, 0, 0, 0, 0]
        out = smooth(scores, 7)
        assert out[2] == pytest.approx(7 / 3)  # window covers indices 0..2
        assert out[8] == pytest.approx(1.0)  # window covers 2..8, spike still in

    def test_spike_leaves_window(self):
        scores = [0, 0, 7, 0, 0, 0, 0, 0, 0, 0]
        assert smooth(scores, 7)[9] == 0.0  # window 3..9 no longer holds the spike

    def test_constant_series_unchanged(self):
        out = smooth(np.full(30, 4.2), 7)
        assert np.allclose(out, 4.2, atol=1e-12)

    def test_matches_hand_rolled_reference(self, rng):
        scores = rng.exponential(size=51)
        for window in (1, 2, 3, 7, 10, 51, 80):
            assert np.allclose(smooth(scores, window), smooth_reference(scores, window), atol=1e-12)

    def test_memory_is_about_one_output(self, rng):
        scores = rng.exponential(size=20_000)
        assert traced_peak(lambda: smooth(scores, 7)) < 2 * scores.nbytes

    def test_output_length_and_empty(self):
        assert smooth(np.array([]), 7).shape == (0,)
        assert smooth(np.arange(5.0), 7).shape == (5,)

    def test_never_widens_range(self, rng):
        scores = rng.normal(size=200)
        out = smooth(scores, 7)
        assert out.min() >= scores.min() - 1e-12
        assert out.max() <= scores.max() + 1e-12

    def test_bad_window_raises(self):
        with pytest.raises(ConfigError):
            smooth(np.arange(4.0), 0)

    @pytest.mark.parametrize("window", [2.5, 7.0, True, False, "7", None])
    def test_non_integer_window_is_a_named_error(self, window):
        with pytest.raises(ConfigError, match="window must be an integer, got "):
            smooth(np.arange(4.0), window)
        with pytest.raises(ConfigError, match="window must be an integer, got "):
            DetectionConfig(window=window)

    @pytest.mark.parametrize("window", [1, 3])
    @pytest.mark.parametrize("shape", [(2, 3), (4, 1), ()])
    def test_scores_that_are_not_one_dimensional_rejected(self, window, shape):
        message = f"^scores must be 1-D, got shape {re.escape(str(shape))}$"
        with pytest.raises(DimensionError, match=message):
            smooth(np.zeros(shape), window)

    def test_numpy_integer_window_is_accepted(self, rng):
        scores = rng.exponential(size=20)
        for window in (np.int64(7), np.int32(7), np.uint8(7)):
            assert np.array_equal(smooth(scores, window), smooth(scores, 7))
            assert DetectionConfig(window=window).window == 7


class TestThreshold:
    def test_constant_scores_give_that_constant(self):
        config = DetectionConfig()
        assert threshold_from_scores(np.full(100, 3.3), config) == pytest.approx(3.3)

    def test_uniform_percentile_by_linear_interpolation(self):
        config = DetectionConfig(window=1)
        threshold = threshold_from_scores(np.arange(1.0, 101.0), config)
        assert threshold == pytest.approx(95.05)

    def test_smoothed_source_smooths_before_percentile(self, rng):
        scores = rng.exponential(size=200)
        smoothed = smooth(scores, 7)
        config = DetectionConfig(window=7)
        assert threshold_from_scores(scores, config) == pytest.approx(
            np.percentile(smoothed, 95.0)
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_scores_raise(self, bad):
        with pytest.raises(NumericError, match="^training scores contain non-finite entries$"):
            threshold_from_scores(np.array([1.0, bad, 2.0]), DetectionConfig())

    @pytest.mark.parametrize("scores, row, value", [
        ([-1e308, 1e308], 0, "-1e+308"),
        ([1.0, -2.0, -3.0, 4.0], 1, "-2"),
    ])
    def test_negative_scores_raise_naming_the_first(self, scores, row, value):
        # A reconstruction error is a mean of squares. The first case's
        # percentile would interpolate across the whole float range.
        message = f"^training score at row {row} is negative: {re.escape(value)}$"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match=message):
                threshold_from_scores(np.array(scores), DetectionConfig(window=1, percentile=50))

    def test_empty_scores_raise(self):
        with pytest.raises(ConfigError):
            threshold_from_scores(np.array([]), DetectionConfig())

    @pytest.mark.parametrize("scores, window, row", [
        ([1e308, 1e308, 1.0], 2, 1),
        ([1.0, 1e308, 1e308, -1e308, -1e308], 3, 2),
        ([1.0] * 5 + [1e308] * 2, 7, 6),
    ])
    def test_overflowing_smoothed_scores_raise_without_a_warning(self, scores, window, row):
        # Finite scores whose windowed sum overflows; the second case's
        # later rows would add -inf to inf.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError,
                               match=f"^smoothed training score overflows at row {row}$"):
                threshold_from_scores(np.array(scores), DetectionConfig(window=window))

    def test_fit_threshold_refuses_a_frame_labelled_as_attacked(self):
        # A threshold fitted on attacked hours sits above their scores.
        model = constant_output_model(0.0)
        values = np.arange(20.0)[:, None]
        labels = np.zeros(20, dtype=int)
        assert fit_threshold(model, frame_of(values, labels), DetectionConfig()) > 0
        labels[12:] = 1
        with pytest.raises(ConfigError, match=r"8 of 20 hours labelled as attacked .* "
                                              r"the first at row 12 \(stamp 12\)"):
            fit_threshold(model, frame_of(values, labels), DetectionConfig())

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            DetectionConfig(window=0)
        with pytest.raises(ConfigError):
            DetectionConfig(percentile=100.0)


class TestDetect:
    def test_all_below_threshold_means_no_flags(self, rng):
        model = identity_autoencoder(2)
        result = detect(model, frame_of(rng.normal(size=(20, 2))), 0.5, DetectionConfig())
        assert not result.flags.any()

    def test_score_equal_to_threshold_not_flagged(self):
        model = constant_output_model(1.0)
        frame = frame_of(np.full((30, 1), 2.0))  # every raw score exactly 1.0
        result = detect(model, frame, 1.0, DetectionConfig())
        assert not result.flags.any()
        above = detect(model, frame, 1.0 - 1e-9, DetectionConfig())
        assert above.flags.all()

    def test_flags_match_definition(self, rng):
        model = constant_output_model(0.0)
        frame = frame_of(rng.normal(size=(50, 1)))
        config = DetectionConfig(window=7)
        result = detect(model, frame, 0.4, config)
        assert np.array_equal(result.flags, result.smoothed_scores > 0.4)
        assert len(result.raw_scores) == frame.n_rows

    def test_raising_threshold_never_adds_flags(self, rng):
        model = constant_output_model(0.0)
        frame = frame_of(rng.normal(size=(100, 1)))
        config = DetectionConfig()
        counts = [
            detect(model, frame, thr, config).flags.sum()
            for thr in (0.1, 0.3, 0.5, 1.0, 2.0)
        ]
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_training_flag_fraction_bounded(self, rng):
        # with window=1 and percentile p, self-flagging stays below
        # (100-p)/100 + 1/T
        model = constant_output_model(0.0)
        frame = frame_of(rng.exponential(size=(400, 1)))
        config = DetectionConfig(window=1, percentile=95.0)
        threshold = fit_threshold(model, frame, config)
        result = detect(model, frame, threshold, config)
        assert result.flags.mean() <= 0.05 + 1.0 / 400

    def test_overflowing_window_sum_raises_naming_the_row_without_a_warning(self):
        # Errors of 4.5e153**2 = 2.025e307: nine of them sum beyond the largest float.
        values = np.zeros((200, 1))
        values[100:130] = 4.5e153
        frame, model = frame_of(values), constant_output_model(0.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NumericError, match="^smoothed score overflows at row 108$"):
                detect(model, frame, 1.0, DetectionConfig(window=20))
            # Five of them sum to about 1.0e308, which is finite.
            result = detect(model, frame, 1.0, DetectionConfig(window=5))
        assert result.smoothed_scores.tobytes() == smooth(result.raw_scores, 5).tobytes()
        assert result.smoothed_scores.max() == pytest.approx(2.025e307)

    # detect smooths its errors through smooth's unchecked kernel. Fewer
    # rows than the window take only the running sums, as many take the
    # lone full window of a streamed hour, and more take the full windows.
    @pytest.mark.parametrize("rows", [1, 6, 7, 8, 40])
    @pytest.mark.parametrize("window", [1, 2, 7, 12])
    def test_smoothed_scores_have_the_bits_of_public_smooth(self, rng, window, rows):
        model = build_model(9, replace(edge_training_config(1), seed=5))
        frame = frame_of(rng.normal(size=(rows, 9)))
        result = detect(model, frame, 1.0, DetectionConfig(window=window))
        assert result.raw_scores.tobytes() == reconstruction_error(model, frame).tobytes()
        assert result.smoothed_scores.tobytes() == smooth(result.raw_scores, window).tobytes()
        assert result.smoothed_scores.tobytes() == \
            smooth_shifted_reference(result.raw_scores, window).tobytes()

    def test_nonfinite_threshold_rejected(self, rng):
        model = identity_autoencoder(1)
        with pytest.raises(ConfigError):
            detect(model, frame_of(rng.normal(size=(5, 1))), float("nan"), DetectionConfig())


class TestDetectionCsv:
    def test_round_trip_flags(self, tmp_path, rng):
        raw = rng.exponential(size=25)
        smoothed = smooth(raw, 7)
        flags = smoothed > 0.8
        result = DetectionResult(raw, smoothed, 0.8, flags)
        frame = frame_of(rng.normal(size=(25, 1)))
        save_detection_csv(result, frame, tmp_path / "d.csv")
        assert np.array_equal(load_detection_flags(tmp_path / "d.csv"), flags)

    def test_header_checked(self, tmp_path):
        (tmp_path / "bad.csv").write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            load_detection_flags(tmp_path / "bad.csv")

    @pytest.mark.parametrize("row, message", [
        ("0,1.0", "row 3: expected 4 cells, got 2"),
        ("0,1.0,1.0,yes", "row 3: flag must be 0 or 1, got 'yes'"),
        ("0,1.0,1.0,", "row 3: flag must be 0 or 1, got ''"),
        ("0,1.0,1.0,1,extra", "row 3: expected 4 cells, got 5"),
    ])
    def test_malformed_row_names_file_and_row(self, tmp_path, row, message):
        path = tmp_path / "det.csv"
        path.write_text(f"timestamp,raw,smoothed,flag\n0,1.0,1.0,1\n{row}\n")
        with pytest.raises(ConfigError) as info:
            load_detection_flags(path)
        assert str(info.value) == f"{path}: {message}"

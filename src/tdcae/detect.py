"""Reconstruction-error scoring, moving-average smoothing, percentile
thresholding and binary anomaly flagging. The one module that runs a
trained model on data, one `nn._layer` call per layer with at most two
activations alive: `_latent` is the checked encoder pass that `report`
also reads, `_reconstruction` runs the decoder over it, and
`reconstruction_error` squares the residual in the reconstruction's
buffer. The latent and the errors are tested by `errors._all_finite`, the
package's one finiteness test."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (ConfigError, DimensionError, IngestionError, NumericError, _all_finite,
                     _check_int, _check_number)
from .model import HTdcAutoencoder
from .nn import _as_matrix, _finite_output, _layer
from .preprocess import DatasetFrame, _check_attack_free, read_table, write_table


@dataclass
class DetectionConfig:
    """window/percentile defaults follow the deployment recipe: a 7-sample
    trailing moving average, flagged against the 95th percentile of the
    training errors smoothed the same way.

    Smoothing is causal only, since a flag that reads later scores would
    be raised early and inflate the time-to-detect score S_TTD.
    """

    window: int = 7
    percentile: float = 95.0

    def __post_init__(self):
        self.window = _check_int(self.window, "window", 1)
        self.percentile = _check_number(self.percentile, "percentile")
        if not 0.0 < self.percentile < 100.0:
            raise ConfigError("percentile must lie strictly between 0 and 100")


@dataclass
class DetectionResult:
    raw_scores: np.ndarray
    smoothed_scores: np.ndarray
    threshold: float
    flags: np.ndarray

    def __post_init__(self):
        n = len(self.raw_scores)
        if not (len(self.smoothed_scores) == len(self.flags) == n):
            raise DimensionError("score and flag sequences must share one length")


def _latent(model: HTdcAutoencoder, x: np.ndarray) -> np.ndarray:
    """The encoder's output for x, a finite float64 matrix of the model's
    width such as a frame's values, so only the latent outlives the pass.
    It is checked, as a saturating decoder can map an infinite latent to a
    finite output, and named as forward would, the input first: a frame
    checks its values when built, not after an in-place change."""
    if x.shape[0] < 1:
        raise DimensionError("batch must contain at least one row")
    latent = x
    for layer in model.encoder._kernel:
        latent = _layer(layer, latent)
    if not _all_finite(latent):
        _as_matrix(x, "input")
        _finite_output(latent)
    return latent


def _reconstruction(model: HTdcAutoencoder, x: np.ndarray) -> np.ndarray:
    """The decoder's output for `_latent(model, x)`, unchecked. The latent
    is bound only to this frame's local, which each layer's output replaces,
    so no caller keeps it alive while the decoder runs."""
    out = _latent(model, x)
    for layer in model.decoder._kernel:
        out = _layer(layer, out)
    return out


def reconstruction_error(model: HTdcAutoencoder, frame: DatasetFrame) -> np.ndarray:
    """Per-timestep MSE between each row and its reconstruction. Every
    timestep is scored; the frame must already be scaled with the model's
    scaler. A non-finite input, latent or reconstruction raises
    NumericError with forward's message, and an error beyond the largest
    float one naming the first such row."""
    return _scores(model, frame, None)[0]


def _scores(model: HTdcAutoencoder, frame: DatasetFrame, window: int | None) -> tuple:
    """reconstruction_error's checked errors and, for a window, their smooth
    under the same np.errstate; an overflowing window sum raises NumericError."""
    if frame.n_features != model.n_features:
        raise DimensionError(
            f"frame has {frame.n_features} features, model expects {model.n_features}"
        )
    values = frame.values
    # A non-finite input, latent or reconstruction, or finite rows and
    # reconstructions more than the largest float apart, are named below,
    # not warned about. A non-finite reconstruction makes its row's error
    # non-finite, and a non-finite error its smoothed score.
    with np.errstate(over="ignore", invalid="ignore"):
        # The residual and its square overwrite the reconstruction.
        residual = _reconstruction(model, values)
        np.subtract(values, residual, out=residual)
        residual *= residual
        # np.mean's own arithmetic: one row sum, then a division by the count,
        # here in place and by a float, which numpy would convert it to.
        errors = np.add.reduce(residual, axis=1)
        errors /= float(residual.shape[1])
        smoothed = errors if window is None else _smooth(errors, window)
    if not _all_finite(smoothed):
        if not _all_finite(errors):
            # In forward's order: values changed in place, then the output,
            # which is computed again as the residual took its place.
            _as_matrix(values, "input")
            with np.errstate(over="ignore", invalid="ignore"):
                reconstruction = _reconstruction(model, values)
            _finite_output(reconstruction)
            row = int(np.argmin(np.isfinite(errors)))
            raise NumericError(
                f"row {row} (timestamp {frame.stamps[row]}): reconstruction error overflows"
            )
        _name_overflow(smoothed, "smoothed score")
    return errors, smoothed


def smooth(scores, window: int) -> np.ndarray:
    """Trailing moving average: entry t is the mean of the min(window,
    t+1) most recent scores, so it never reads a later score, which would
    raise flags early and inflate S_TTD. Output length equals input
    length. Each window is summed left to right from +0.0, in
    O(n * min(window, n)) work. Scores that are not 1-D raise
    DimensionError."""
    window = _check_int(window, "window", 1)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 1:
        raise DimensionError(f"scores must be 1-D, got shape {scores.shape}")
    return _smooth(scores, window)


def _smooth(scores: np.ndarray, window: int) -> np.ndarray:
    """smooth's kernel, unchecked: scores a 1-D float64 array and window
    an int >= 1, such as `_scores`' fresh errors and a DetectionConfig's
    checked window."""
    n = len(scores)
    if n == 0 or window == 1:
        return scores.copy()
    # Rows whose window is not full are running sums, and so is a lone full
    # one: a one-column view below would be reduced as one vector, pairwise.
    # accumulate starts from scores[0], not from +0.0: adding +0.0 turns a
    # leading run of -0.0 into +0.0 and leaves every other sum as it is.
    # The counts are floats, as numpy would convert int64 ones.
    full = n - window + 1
    head = n if full < 2 else window - 1
    sums = np.add.accumulate(scores[:head])
    sums += 0.0
    sums /= np.arange(1.0, head + 1.0)
    if full < 2:
        return sums
    out = np.empty(n)
    out[:head] = sums
    # Row j of this read-only view is scores[j : j + full], so column
    # t - head holds row t's window. Reducing over axis 0 adds the rows
    # in order, so no pairwise summation reorders a window.
    scores = np.ascontiguousarray(scores)
    step = scores.itemsize
    shifted = np.ndarray((window, full), np.float64, scores, 0, (step, step))
    shifted.flags.writeable = False
    tail = out[head:]
    np.add.reduce(shifted, axis=0, out=tail, initial=0.0)
    tail /= float(window)
    return out


def _name_overflow(smoothed: np.ndarray, what: str) -> None:
    """Raise NumericError naming `what` and the first row of smoothed finite
    scores whose window sum overflowed; smooth itself checks no sum."""
    row = int(np.argmin(np.isfinite(smoothed)))
    raise NumericError(f"{what} overflows at row {row}")


def fit_threshold(
    model: HTdcAutoencoder, train_frame: DatasetFrame, config: DetectionConfig
) -> float:
    """Percentile of the smoothed training reconstruction errors, linear
    interpolation between order statistics. A frame whose labels mark an
    hour as attacked raises ConfigError."""
    if train_frame.n_rows == 0:
        raise ConfigError("cannot fit a threshold on an empty frame")
    _check_attack_free(train_frame)
    scores = reconstruction_error(model, train_frame)
    return threshold_from_scores(scores, config)


def threshold_from_scores(scores, config: DetectionConfig) -> float:
    """Threshold from precomputed raw training scores: the percentile of
    their trailing moving average. The scores, and their windowed sums,
    must be finite, and no score, a mean of squares, may be negative."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ConfigError("cannot fit a threshold on empty scores")
    if not _all_finite(scores):
        raise NumericError("training scores contain non-finite entries")
    with np.errstate(over="ignore", invalid="ignore"):
        smoothed = smooth(scores, config.window)
    if not _all_finite(smoothed):
        _name_overflow(smoothed, "smoothed training score")
    negative = np.flatnonzero(scores < 0)
    if negative.size:
        row = int(negative[0])
        raise NumericError(f"training score at row {row} is negative: {scores[row]:g}")
    return float(np.percentile(smoothed, config.percentile))


def detect(
    model: HTdcAutoencoder,
    frame: DatasetFrame,
    threshold: float,
    config: DetectionConfig,
) -> DetectionResult:
    """Flag timesteps whose smoothed reconstruction error strictly exceeds
    the threshold; scores equal to the threshold stay normal. A window sum
    that overflows raises NumericError naming its row."""
    threshold = _check_number(threshold, "threshold")
    raw, smoothed = _scores(model, frame, config.window)
    flags = smoothed > threshold
    return DetectionResult(raw, smoothed, threshold, flags)


DETECTION_HEADER = ("timestamp", "raw", "smoothed", "flag")


def save_detection_csv(result: DetectionResult, frame: DatasetFrame, path) -> None:
    """Columns: timestamp, raw, smoothed, flag."""
    columns = [frame.stamps, result.raw_scores, result.smoothed_scores, result.flags.astype(int)]
    write_table(path, DETECTION_HEADER, columns)


def load_detection_flags(path) -> np.ndarray:
    """Read back the flag column of a detection CSV. Every row needs all
    of the header's cells and a flag of 0 or 1; blank lines are skipped."""
    flags = []
    try:
        for row_number, cells in read_table(path, DETECTION_HEADER):
            if cells[3] not in ("0", "1"):
                raise IngestionError(f"row {row_number}: flag must be 0 or 1, got {cells[3]!r:.20}")
            flags.append(cells[3] == "1")
    except IngestionError as exc:
        raise ConfigError(f"{path}: {exc}") from None
    return np.array(flags, dtype=bool)

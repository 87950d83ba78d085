"""The hybrid temporal-differential-consistency autoencoder.

The latent space is split into static nodes z, their paired derivative
nodes zdot, and free statistical nodes s. Training adds a consistency
term to the reconstruction loss: the derivative nodes at time t must match
the central-difference estimate built from the static nodes at t-1 and
t+1. This module owns the triple layout: triple k is frame rows
(k, k+1, k+2), which `train` gathers batch by batch through the row
offsets `_TRIPLE_OFFSETS`. It also owns the check of the time step delta_t
between rows.

The loss and its exact gradient come from one fused step, `_LossStep`,
built once per model and batch size with every buffer preallocated: it runs
nn's forward kernel once over the stacked rows [x_t; x_prev; x_next] through
the encoder and once over the x_t rows through the decoder, then nn's
backward kernel once per network, with one combined encoder cotangent,
writing the gradients into one flat vector laid out like the shared
encoder-then-decoder parameter vector. `total_loss`, `total_loss_grads` and
`train` all run this step, so the gradient that the finite-difference tests
check is the one training uses. Inference (`encode`, `reconstruct`) runs the
checked public `forward`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .nn import Activation, DenseLayer, GradientSet, Mlp, forward, init_mlp
from .nn import _backward, _finite_output, _forward, _share_params
from .optim import _adamax_update
from .preprocess import DatasetFrame, RobustScalerParams

MODEL_FORMAT = "tdcae-model-v1"


def _check_delta_t(delta_t) -> float:
    """The time step between consecutive rows as a float. It must be finite
    and > 0: an infinite step would turn every central difference, and with
    it the consistency gradient, into 0."""
    if not (math.isfinite(delta_t) and delta_t > 0):
        raise ConfigError(f"delta_t must be finite and > 0, got {delta_t}")
    return float(delta_t)


@dataclass(frozen=True)
class LatentPartition:
    """Latent layout: [z_0..z_{p-1} | zdot_0..zdot_{p-1} | s_0..s_{k-1}].

    zdot_i is the derivative node paired with static node z_i.
    """

    n_pairs: int
    n_stat: int

    def __post_init__(self):
        if self.n_pairs < 0 or self.n_stat < 0:
            raise ConfigError("partition counts must be >= 0")
        if self.width < 1:
            raise ConfigError("latent space must contain at least one node")

    @property
    def width(self) -> int:
        return 2 * self.n_pairs + self.n_stat

    @property
    def z_slice(self) -> slice:
        return slice(0, self.n_pairs)

    @property
    def zdot_slice(self) -> slice:
        return slice(self.n_pairs, 2 * self.n_pairs)

    @property
    def s_slice(self) -> slice:
        return slice(2 * self.n_pairs, self.width)


@dataclass
class HTdcAutoencoder:
    encoder: Mlp
    decoder: Mlp
    partition: LatentPartition

    def __post_init__(self):
        w = self.partition.width
        if self.encoder.output_size != w or self.decoder.input_size != w:
            raise DimensionError(
                f"latent width {w} does not match encoder output "
                f"{self.encoder.output_size} / decoder input {self.decoder.input_size}"
            )
        if self.encoder.input_size != self.decoder.output_size:
            raise DimensionError("encoder input size must equal decoder output size")

    @property
    def n_features(self) -> int:
        return self.encoder.input_size


@dataclass
class TrainingConfig:
    learning_rate: float = 0.01
    batch_size: int = 32
    alpha: float = 0.002
    epochs: int = 40
    seed: int = 0
    hidden_size: int = 9
    partition: LatentPartition = LatentPartition(3, 1)
    delta_t: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be finite and > 0, got {self.learning_rate}")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise ConfigError(f"alpha must be finite and >= 0, got {self.alpha}")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.hidden_size < 1:
            raise ConfigError("hidden_size must be >= 1")
        _check_delta_t(self.delta_t)

    def to_dict(self) -> dict:
        return {
            "learning_rate": self.learning_rate,
            "batch_size": self.batch_size,
            "alpha": self.alpha,
            "epochs": self.epochs,
            "seed": self.seed,
            "hidden_size": self.hidden_size,
            "n_pairs": self.partition.n_pairs,
            "n_stat": self.partition.n_stat,
            "delta_t": self.delta_t,
        }

    @classmethod
    def from_dict(cls, doc: dict, where: str = "") -> "TrainingConfig":
        """Inverse of to_dict, checked field by field: the integer fields
        must be JSON integers and the others finite numbers. `where` is
        the JSON path that error messages put before a field name."""
        fields = {
            key: _field(doc, key, int, where)
            if key in _INTEGER_CONFIG_FIELDS
            else float(_number(doc, key, where))
            for key in cls().to_dict()
        }
        pairs, stat = fields.pop("n_pairs"), fields.pop("n_stat")
        return cls(partition=LatentPartition(pairs, stat), **fields)


# Per-edge defaults for the C-Town models: hidden width, latent layout,
# learning rate and consistency weight.
EDGE_HYPERPARAMS: dict[int, dict] = {
    1: {"hidden_size": 9, "partition": (3, 1), "learning_rate": 0.01, "alpha": 0.002},
    2: {"hidden_size": 19, "partition": (3, 2), "learning_rate": 0.007, "alpha": 0.003},
    3: {"hidden_size": 15, "partition": (3, 2), "learning_rate": 0.01, "alpha": 0.002},
}


def edge_training_config(edge_id: int, seed: int = 0, epochs: int = 40) -> TrainingConfig:
    """Default training configuration for one edge area."""
    if edge_id not in EDGE_HYPERPARAMS:
        raise ConfigError(f"unknown edge id {edge_id}; expected 1, 2 or 3")
    hp = EDGE_HYPERPARAMS[edge_id]
    return TrainingConfig(
        learning_rate=hp["learning_rate"],
        batch_size=32,
        alpha=hp["alpha"],
        epochs=epochs,
        seed=seed,
        hidden_size=hp["hidden_size"],
        partition=LatentPartition(*hp["partition"]),
        delta_t=1.0,
    )


@dataclass
class LossBreakdown:
    rec_loss: float
    tdc_loss: float
    total: float

    @classmethod
    def from_parts(cls, rec: float, tdc: float, alpha: float) -> "LossBreakdown":
        return cls(float(rec), float(tdc), float(rec) + float(alpha) * float(tdc))


def _seed_triple(seed: int) -> tuple[int, int, int]:
    """Derive (encoder init, decoder init, shuffle) seeds from one seed."""
    words = np.random.SeedSequence(int(seed)).generate_state(3, np.uint64)
    return int(words[0]), int(words[1]), int(words[2])


def build_model(n_features: int, config: TrainingConfig) -> HTdcAutoencoder:
    """Fresh model: encoder [F -> hidden -> latent] with tanh throughout,
    decoder [latent -> hidden -> F] with a linear output layer."""
    if n_features < 1:
        raise ConfigError("n_features must be >= 1")
    enc_seed, dec_seed, _ = _seed_triple(config.seed)
    width = config.partition.width
    encoder = init_mlp(
        [n_features, config.hidden_size, width],
        [Activation.TANH, Activation.TANH],
        enc_seed,
    )
    decoder = init_mlp(
        [width, config.hidden_size, n_features],
        [Activation.TANH, Activation.IDENTITY],
        dec_seed,
    )
    return HTdcAutoencoder(encoder, decoder, config.partition)


def encode(model: HTdcAutoencoder, x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Encoder output split into (z, zdot, s) column views."""
    h = forward(model.encoder, x)
    p = model.partition
    return h[:, p.z_slice], h[:, p.zdot_slice], h[:, p.s_slice]


def reconstruct(model: HTdcAutoencoder, x) -> np.ndarray:
    """Full autoencode of a batch; input, latent and output are checked once."""
    post = [None] * len(model.decoder.layers)
    _forward(model.decoder._kernel, forward(model.encoder, x), post)
    return _finite_output(post[-1])


def central_difference(z_prev, z_next, delta_t: float) -> np.ndarray:
    """(z_next - z_prev) / (2*delta_t), the second-order first-derivative
    estimate; exact for quadratic trajectories."""
    delta_t = _check_delta_t(delta_t)
    z_prev = np.asarray(z_prev, dtype=np.float64)
    z_next = np.asarray(z_next, dtype=np.float64)
    if z_prev.shape != z_next.shape:
        raise DimensionError("z_prev and z_next must share one shape")
    return (z_next - z_prev) / (2.0 * delta_t)


def _stack_triples(model: HTdcAutoencoder, x_prev, x_t, x_next) -> np.ndarray:
    """Validate a batch of triples once and stack it as [x_t; x_prev; x_next]."""
    parts = [np.asarray(x, dtype=np.float64) for x in (x_t, x_prev, x_next)]
    shape = parts[0].shape
    if not (parts[1].shape == shape == parts[2].shape):
        raise DimensionError("triple matrices must share one shape")
    if len(shape) != 2 or shape[0] < 1 or shape[1] != model.n_features:
        raise DimensionError(
            f"triples must be (batch >= 1, {model.n_features}) matrices, got {shape}"
        )
    x = np.concatenate(parts)
    if not np.isfinite(x).all():
        raise NumericError("triples contain non-finite entries")
    return x


def _mean_square(a: np.ndarray) -> float:
    """np.mean(a**2) as one dot product, a few times faster at batch size."""
    flat = a.ravel()
    return float(flat @ flat) / flat.size


class _LossStep:
    """The training loss and its exact gradient for batches of b triples.

    Built once per model and batch size. It keeps views of the model's
    parameters, so it follows in-place updates of them, and preallocates
    every buffer a batch needs. The gradients land in `grads`, one flat
    vector laid out like `_share_params(model.encoder, model.decoder)`;
    `enc_grads` and `dec_grads` view into it.

    The encoder runs once over the stacked [x_t; x_prev; x_next], so one
    backward pass takes one combined cotangent: the x_t rows get the
    decoder's latent cotangent plus the consistency term on the derivative
    nodes, and the x_prev and x_next rows get the consistency term on the
    static nodes, with opposite signs and scaled by 1/(2*delta_t). The
    cotangent's other entries are never written and stay zero.
    """

    def __init__(self, model: HTdcAutoencoder, b: int, alpha: float, delta_t: float):
        if not (math.isfinite(alpha) and alpha >= 0):
            raise ConfigError(f"alpha must be finite and >= 0, got {alpha}")
        _check_delta_t(delta_t)
        enc, dec, p = model.encoder, model.decoder, model.partition
        self.b, self.alpha = b, alpha
        self.enc, self.dec = enc._kernel, dec._kernel
        self.grads = np.empty(enc.params.size + dec.params.size)
        self.enc_grads = GradientSet(self.grads[: enc.params.size], enc)
        self.dec_grads = GradientSet(self.grads[enc.params.size :], dec)
        self.ones = np.ones(3 * b)  # bias gradients as ones @ g

        self.enc_post = [np.empty((3 * b, l.out_size)) for l in enc.layers]
        h = self.enc_post[-1]
        self.h_t = h[:b]
        self.dec_post = [np.empty((b, l.out_size)) for l in dec.layers]
        self.residual = np.empty((b, model.n_features))
        self.diff = np.empty((b, p.n_pairs))
        self.z_prev, self.z_next = h[b : 2 * b, p.z_slice], h[2 * b :, p.z_slice]
        self.zdot_t = h[:b, p.zdot_slice]

        self.g_latent = np.zeros((3 * b, p.width))
        self.g_zdot_t = self.g_latent[:b, p.zdot_slice]
        self.g_z_prev = self.g_latent[b : 2 * b, p.z_slice]
        self.g_z_next = self.g_latent[2 * b :, p.z_slice]
        self.dec_cotangents = [self.g_latent[:b]] + [
            np.empty((b, l.in_size)) for l in dec.layers[1:]
        ]
        self.enc_cotangents = [None] + [np.empty((3 * b, l.in_size)) for l in enc.layers[1:]]

        self.two_delta_t = 2.0 * delta_t
        self.rec_scale = 2.0 / self.residual.size
        self.consistency = self.diff.size > 0 and alpha != 0.0
        if self.consistency:
            self.zdot_scale = -2.0 * alpha / self.diff.size
            self.side_scale = alpha / (self.diff.size * delta_t)

    def loss(self, x: np.ndarray) -> LossBreakdown:
        """Forward passes on the stacked (3b, F) batch x, which must be
        finite; raises NumericError if the loss is not."""
        b = self.b
        _forward(self.enc, x, self.enc_post)
        _forward(self.dec, self.h_t, self.dec_post)
        np.subtract(self.dec_post[-1], x[:b], out=self.residual)
        np.subtract(self.z_next, self.z_prev, out=self.diff)
        self.diff /= self.two_delta_t
        self.diff -= self.zdot_t
        rec = _mean_square(self.residual)
        tdc = _mean_square(self.diff) if self.diff.size else 0.0
        breakdown = LossBreakdown.from_parts(rec, tdc, self.alpha)
        if not math.isfinite(breakdown.total):
            raise NumericError("non-finite loss")
        return breakdown

    def __call__(self, x: np.ndarray) -> LossBreakdown:
        """The loss on x plus its gradient, written into `grads`."""
        breakdown = self.loss(x)
        self.residual *= self.rec_scale
        _backward(self.dec, self.h_t, self.dec_post, self.residual, self.dec_grads,
                  self.ones[: self.b], self.dec_cotangents)
        if self.consistency:
            self.g_zdot_t += self.zdot_scale * self.diff
            np.multiply(self.diff, self.side_scale, out=self.g_z_next)
            np.negative(self.g_z_next, out=self.g_z_prev)
        _backward(self.enc, x, self.enc_post, self.g_latent, self.enc_grads,
                  self.ones, self.enc_cotangents)
        return breakdown


def total_loss(
    model: HTdcAutoencoder, x_prev, x_t, x_next, alpha: float, delta_t: float = 1.0
) -> LossBreakdown:
    """Reconstruction MSE of x_t plus alpha times the consistency loss."""
    x = _stack_triples(model, x_prev, x_t, x_next)
    return _LossStep(model, x.shape[0] // 3, alpha, delta_t).loss(x)


def total_loss_grads(
    model: HTdcAutoencoder, x_prev, x_t, x_next, alpha: float, delta_t: float = 1.0
) -> tuple[LossBreakdown, GradientSet, GradientSet]:
    """Loss plus exact gradients w.r.t. encoder and decoder parameters: one
    run of the fused step that training uses (see `_LossStep`)."""
    x = _stack_triples(model, x_prev, x_t, x_next)
    step = _LossStep(model, x.shape[0] // 3, alpha, delta_t)
    breakdown = step(x)
    return breakdown, step.enc_grads, step.dec_grads


# Row offsets of x_t, x_prev and x_next in the frame, relative to triple k's
# first row k: triple k is frame rows (k, k+1, k+2).
_TRIPLE_OFFSETS = np.array([[1], [0], [2]])


def _batch_rows(order: np.ndarray, b: int) -> np.ndarray:
    """Frame row indices of every batch of one epoch, batch after batch,
    each laid out as [x_t rows; x_prev rows; x_next rows]."""
    full = order.size - order.size % b
    blocks = order[:full].reshape(-1, 1, b) + _TRIPLE_OFFSETS
    tail = order[full:] + _TRIPLE_OFFSETS
    return np.concatenate((blocks.ravel(), tail.ravel()))


def train(
    config: TrainingConfig, train_frame: DatasetFrame
) -> tuple[HTdcAutoencoder, list[LossBreakdown]]:
    """Fit the autoencoder on an attack-free, already-scaled frame.

    Triples are shuffled each epoch with a generator derived from
    config.seed (the last partial batch is kept), so a fixed seed yields a
    bit-identical model. Labels on the frame are ignored. The history
    holds per-epoch mean losses, one entry per epoch. The encoder and
    decoder parameters share one flat vector, which each batch updates in
    place with one Adamax step on the gradient of the fused loss step.
    """
    if train_frame.n_rows < 3:
        raise ConfigError(f"need >= 3 rows to build triples, got {train_frame.n_rows}")
    n = train_frame.n_rows - 2
    values = train_frame.values
    if not np.isfinite(values).all():
        raise NumericError("training frame contains non-finite entries")
    model = build_model(train_frame.n_features, config)
    _, _, shuffle_seed = _seed_triple(config.seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)

    params = _share_params(model.encoder, model.decoder)
    m = np.zeros_like(params)
    u = np.zeros_like(params)
    b = config.batch_size
    # One step for full batches and one for the tail batch, if sizes differ.
    steps = {
        size: _LossStep(model, size, config.alpha, config.delta_t)
        for size in {min(b, n), n % b or b}
    }

    history: list[LossBreakdown] = []
    step_count = 0
    for epoch in range(config.epochs):
        rows = _batch_rows(shuffle_rng.permutation(n), b)
        rec_sum = 0.0
        tdc_sum = 0.0
        for batch_index, start in enumerate(range(0, n, b)):
            size = min(b, n - start)
            step = steps[size]
            try:
                breakdown = step(values[rows[3 * start : 3 * (start + size)]])
            except NumericError as exc:
                raise NumericError(
                    f"epoch {epoch + 1}, batch {batch_index + 1}: {exc}"
                ) from None
            if not np.isfinite(step.grads).all():
                raise NumericError(
                    f"non-finite gradient at epoch {epoch + 1}, batch {batch_index + 1}"
                )
            step_count += 1
            _adamax_update(params, step.grads, m, u, step_count, config.learning_rate)
            rec_sum += breakdown.rec_loss * size
            tdc_sum += breakdown.tdc_loss * size
        history.append(LossBreakdown.from_parts(rec_sum / n, tdc_sum / n, config.alpha))

    return model, history


def _mlp_to_doc(mlp: Mlp) -> dict:
    return {
        "layer_sizes": mlp.layer_sizes,
        "activations": [l.activation.value for l in mlp.layers],
        "layers": [
            {"weights": l.weights.ravel().tolist(), "bias": l.bias.tolist()}
            for l in mlp.layers
        ],
    }


# Model-document checks. `where` is the JSON path of the enclosing object,
# ending in a dot, or "" at the top level.
def _field(doc, key: str, kind: type | None, where: str):
    """doc[key], which must be present and, unless kind is None, of that
    JSON type."""
    if not isinstance(doc, dict) or key not in doc:
        raise ConfigError(f"missing field {where}{key}")
    value = doc[key]
    if kind is not None and (not isinstance(value, kind) or isinstance(value, bool)):
        raise ConfigError(f"{where}{key}: expected {kind.__name__}, got {value!r:.40}")
    return value


def _finite(value, where: str) -> float:
    try:
        ok = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):
        ok = False
    if not ok:
        raise ConfigError(f"{where}: expected a finite number, got {value!r:.40}")
    return value


def _number(doc, key: str, where: str) -> float:
    return _finite(_field(doc, key, None, where), f"{where}{key}")


def _numbers(doc, key: str, n: int, where: str) -> np.ndarray:
    """doc[key] as a float64 vector; it must be a list of n finite numbers."""
    values = _field(doc, key, list, where)
    if len(values) != n:
        raise ConfigError(f"{where}{key}: expected {n} values, got {len(values)}")
    return np.array([_finite(v, f"{where}{key}[{i}]") for i, v in enumerate(values)])


def _mlp_from_doc(doc, where: str) -> Mlp:
    sizes = _field(doc, "layer_sizes", list, where)
    if len(sizes) < 2 or not all(
        isinstance(s, int) and not isinstance(s, bool) and s >= 1 for s in sizes
    ):
        raise ConfigError(f"{where}layer_sizes: expected two or more integers >= 1")
    n_layers = len(sizes) - 1
    activations = _field(doc, "activations", list, where)
    payloads = _field(doc, "layers", list, where)
    if len(activations) != n_layers or len(payloads) != n_layers:
        raise ConfigError(f"{where[:-1]}: expected {n_layers} activations and {n_layers} layers")
    names = [a.value for a in Activation]
    layers = []
    for k, (fan_in, fan_out, act, payload) in enumerate(
        zip(sizes, sizes[1:], activations, payloads)
    ):
        if act not in names:
            raise ConfigError(f"{where}activations[{k}]: expected one of {names}")
        here = f"{where}layers[{k}]."
        weights = _numbers(payload, "weights", fan_in * fan_out, here)
        bias = _numbers(payload, "bias", fan_out, here)
        layers.append(DenseLayer(weights.reshape(fan_out, fan_in), bias, Activation(act)))
    return Mlp(layers)


# TrainingConfig fields that a document must hold as JSON integers.
_INTEGER_CONFIG_FIELDS = ("batch_size", "epochs", "seed", "hidden_size", "n_pairs", "n_stat")


def _scaler_to_doc(params: RobustScalerParams) -> dict:
    return {
        name: {"median": m, "iqr": q}
        for name, m, q in zip(params.feature_names, params.median.tolist(), params.iqr.tolist())
    }


def _scaler_from_doc(doc, where: str) -> RobustScalerParams:
    """Inverse of _scaler_to_doc, checked entry by entry."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where[:-1] or 'scaler'}: expected an object, got {doc!r:.40}")
    names = list(doc)
    return RobustScalerParams(
        names,
        np.array([_number(doc[n], "median", f"{where}{n}.") for n in names]),
        np.array([_number(doc[n], "iqr", f"{where}{n}.") for n in names]),
    )


def _model_from_doc(doc: dict):
    part = _field(doc, "partition", dict, "")
    model = HTdcAutoencoder(
        _mlp_from_doc(_field(doc, "encoder", dict, ""), "encoder."),
        _mlp_from_doc(_field(doc, "decoder", dict, ""), "decoder."),
        LatentPartition(*(_field(part, k, int, "partition.") for k in ("n_pairs", "n_stat"))),
    )
    scaler = None
    if doc.get("scaler") is not None:
        scaler = _scaler_from_doc(doc["scaler"], "scaler.")
        if len(scaler.feature_names) != model.n_features:
            raise ConfigError(
                f"scaler: expected {model.n_features} features, got {len(scaler.feature_names)}"
            )
    config = None
    if doc.get("config") is not None:
        config = TrainingConfig.from_dict(_field(doc, "config", dict, ""), "config.")
    return model, scaler, config


def read_json(path):
    """The parsed JSON document in a file; invalid JSON or text that is not
    UTF-8 raises ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def save_model(
    path,
    model: HTdcAutoencoder,
    scaler: RobustScalerParams | None = None,
    config: TrainingConfig | None = None,
) -> None:
    """Persist the model as JSON. Floats use the shortest representation
    that round-trips, so parameters survive save/load bit-exactly."""
    doc = {
        "format": MODEL_FORMAT,
        "partition": {
            "n_pairs": model.partition.n_pairs,
            "n_stat": model.partition.n_stat,
        },
        "encoder": _mlp_to_doc(model.encoder),
        "decoder": _mlp_to_doc(model.decoder),
        "scaler": None if scaler is None else _scaler_to_doc(scaler),
        "config": None if config is None else config.to_dict(),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_model(
    path,
) -> tuple[HTdcAutoencoder, RobustScalerParams | None, TrainingConfig | None]:
    """Read a model document, checking it field by field: a malformed or
    inconsistent field raises ConfigError naming it."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ConfigError(f"{path}: not a {MODEL_FORMAT} document")
    try:
        return _model_from_doc(doc)
    except (ConfigError, DimensionError) as exc:
        raise ConfigError(f"{path}: {exc}") from None


def save_scaler(params: RobustScalerParams, path) -> None:
    Path(path).write_text(json.dumps(_scaler_to_doc(params), indent=2) + "\n", encoding="utf-8")


def load_scaler(path) -> RobustScalerParams:
    """Read a scaler document, checking it entry by entry: a malformed
    entry raises ConfigError naming it."""
    try:
        return _scaler_from_doc(read_json(path), "")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None

"""The hybrid temporal-differential-consistency autoencoder.

The latent space is split into static nodes z, their paired derivative
nodes zdot, and free statistical nodes s. Training adds a consistency
term to the reconstruction loss: the derivative nodes at time t must match
the central-difference estimate built from the static nodes at t-1 and
t+1. Training runs the encoder once over the stacked rows at t, t-1 and
t+1, and gradients flow back through all three row blocks.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .nn import Activation, DenseLayer, GradientSet, Mlp, forward, init_mlp
from .nn import _backward, _forward, _share_params
from .optim import _adamax_update
from .preprocess import DatasetFrame, RobustScalerParams, make_triples

MODEL_FORMAT = "tdcae-model-v1"


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
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.alpha < 0:
            raise ConfigError("alpha must be >= 0")
        if self.epochs < 1:
            raise ConfigError("epochs must be >= 1")
        if self.hidden_size < 1:
            raise ConfigError("hidden_size must be >= 1")
        if self.delta_t <= 0:
            raise ConfigError("delta_t must be > 0")

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
    def from_dict(cls, doc: dict) -> "TrainingConfig":
        return cls(
            learning_rate=float(doc["learning_rate"]),
            batch_size=int(doc["batch_size"]),
            alpha=float(doc["alpha"]),
            epochs=int(doc["epochs"]),
            seed=int(doc["seed"]),
            hidden_size=int(doc["hidden_size"]),
            partition=LatentPartition(int(doc["n_pairs"]), int(doc["n_stat"])),
            delta_t=float(doc["delta_t"]),
        )


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
    h = forward(model.encoder, x).output
    p = model.partition
    return h[:, p.z_slice], h[:, p.zdot_slice], h[:, p.s_slice]


def reconstruct(model: HTdcAutoencoder, x) -> np.ndarray:
    """Full autoencode of a batch."""
    return forward(model.decoder, forward(model.encoder, x).output).output


def central_difference(z_prev, z_next, delta_t: float) -> np.ndarray:
    """(z_next - z_prev) / (2*delta_t), the second-order first-derivative
    estimate; exact for quadratic trajectories."""
    if delta_t <= 0:
        raise ConfigError("delta_t must be > 0")
    z_prev = np.asarray(z_prev, dtype=np.float64)
    z_next = np.asarray(z_next, dtype=np.float64)
    if z_prev.shape != z_next.shape:
        raise DimensionError("z_prev and z_next must share one shape")
    return (z_next - z_prev) / (2.0 * delta_t)


def tdc_loss(delta_z, zdot_t) -> float:
    """Mean squared difference between the central-difference estimate and
    the derivative nodes, over every entry of the batch."""
    delta_z = np.asarray(delta_z, dtype=np.float64)
    zdot_t = np.asarray(zdot_t, dtype=np.float64)
    if delta_z.shape != zdot_t.shape:
        raise DimensionError("delta_z and zdot_t must share one shape")
    if delta_z.size == 0:
        return 0.0
    return float(np.mean((delta_z - zdot_t) ** 2))


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


def _loss_pass(model, x_prev, x_t, x_next, alpha, delta_t):
    """One encoder pass over the stacked triples and one decoder pass over
    the x_t rows, plus everything the backward pass needs."""
    if alpha < 0:
        raise ConfigError("alpha must be >= 0")
    x = _stack_triples(model, x_prev, x_t, x_next)
    b = x.shape[0] // 3
    p = model.partition
    enc_trace = _forward(model.encoder, x)
    h = enc_trace.output
    dec_trace = _forward(model.decoder, h[:b])

    residual = dec_trace.output - x[:b]
    delta_z = central_difference(h[b : 2 * b, p.z_slice], h[2 * b :, p.z_slice], delta_t)
    diff = delta_z - h[:b, p.zdot_slice]
    rec = _mean_square(residual)
    tdc = _mean_square(diff) if diff.size else 0.0

    breakdown = LossBreakdown.from_parts(rec, tdc, alpha)
    if not np.isfinite(breakdown.total):
        raise NumericError("non-finite loss")
    return breakdown, enc_trace, dec_trace, residual, diff


def total_loss(
    model: HTdcAutoencoder, x_prev, x_t, x_next, alpha: float, delta_t: float = 1.0
) -> LossBreakdown:
    """Reconstruction MSE of x_t plus alpha times the consistency loss."""
    return _loss_pass(model, x_prev, x_t, x_next, alpha, delta_t)[0]


def total_loss_grads(
    model: HTdcAutoencoder, x_prev, x_t, x_next, alpha: float, delta_t: float = 1.0
) -> tuple[LossBreakdown, GradientSet, GradientSet]:
    """Loss plus exact gradients w.r.t. encoder and decoder parameters.

    The encoder runs once over the stacked [x_t; x_prev; x_next], so one
    backward pass takes one combined cotangent: the x_t rows get the
    decoder's latent cotangent plus the consistency term on the derivative
    nodes, and the x_prev and x_next rows get the consistency term on the
    static nodes, with opposite signs and scaled by 1/(2*delta_t).
    """
    breakdown, enc_trace, dec_trace, residual, diff = _loss_pass(
        model, x_prev, x_t, x_next, alpha, delta_t
    )
    p = model.partition
    b = residual.shape[0]

    dec_grads = GradientSet.zeros_like(model.decoder)
    g_latent = _backward(model.decoder, dec_trace, (2.0 / residual.size) * residual, dec_grads)

    g_enc = np.zeros_like(enc_trace.output)
    g_enc[:b] = g_latent
    if diff.size and alpha != 0.0:
        g_enc[:b, p.zdot_slice] += (-2.0 * alpha / diff.size) * diff
        g_side = (alpha / (diff.size * delta_t)) * diff
        np.negative(g_side, out=g_enc[b : 2 * b, p.z_slice])
        g_enc[2 * b :, p.z_slice] = g_side
    enc_grads = GradientSet.zeros_like(model.encoder)
    _backward(model.encoder, enc_trace, g_enc, enc_grads)
    return breakdown, enc_grads, dec_grads


def train(
    config: TrainingConfig, train_frame: DatasetFrame
) -> tuple[HTdcAutoencoder, list[LossBreakdown]]:
    """Fit the autoencoder on an attack-free, already-scaled frame.

    Triples are shuffled each epoch with a generator derived from
    config.seed (the last partial batch is kept), so a fixed seed yields a
    bit-identical model. Labels on the frame are ignored. The history
    holds per-epoch mean losses, one entry per epoch. The encoder and
    decoder parameters share one flat vector, which each batch updates in
    place with one Adamax step.
    """
    triples = make_triples(train_frame, config.delta_t)
    model = build_model(train_frame.n_features, config)
    _, _, shuffle_seed = _seed_triple(config.seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)

    params = _share_params(model.encoder, model.decoder)
    m = np.zeros_like(params)
    u = np.zeros_like(params)

    n = triples.n_rows
    history: list[LossBreakdown] = []
    step = 0
    for epoch in range(config.epochs):
        order = shuffle_rng.permutation(n)
        rec_sum = 0.0
        tdc_sum = 0.0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            idx = order[start : start + config.batch_size]
            try:
                breakdown, enc_grads, dec_grads = total_loss_grads(
                    model,
                    triples.x_prev[idx],
                    triples.x_t[idx],
                    triples.x_next[idx],
                    config.alpha,
                    config.delta_t,
                )
            except NumericError as exc:
                raise NumericError(
                    f"epoch {epoch + 1}, batch {batch_index + 1}: {exc}"
                ) from None
            grads = np.concatenate((enc_grads.flat, dec_grads.flat))
            if not np.isfinite(grads).all():
                raise NumericError(
                    f"non-finite gradient at epoch {epoch + 1}, batch {batch_index + 1}"
                )
            step += 1
            _adamax_update(params, grads, m, u, step, config.learning_rate)
            rec_sum += breakdown.rec_loss * len(idx)
            tdc_sum += breakdown.tdc_loss * len(idx)
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


def _model_from_doc(doc: dict):
    part = _field(doc, "partition", dict, "")
    model = HTdcAutoencoder(
        _mlp_from_doc(_field(doc, "encoder", dict, ""), "encoder."),
        _mlp_from_doc(_field(doc, "decoder", dict, ""), "decoder."),
        LatentPartition(*(_field(part, k, int, "partition.") for k in ("n_pairs", "n_stat"))),
    )
    scaler = None
    if doc.get("scaler") is not None:
        entries = _field(doc, "scaler", dict, "")
        if len(entries) != model.n_features:
            raise ConfigError(
                f"scaler: expected {model.n_features} features, got {len(entries)}"
            )
        names = list(entries)
        scaler = RobustScalerParams(
            names,
            np.array([_number(entries[n], "median", f"scaler.{n}.") for n in names]),
            np.array([_number(entries[n], "iqr", f"scaler.{n}.") for n in names]),
        )
    config = None
    if doc.get("config") is not None:
        entries = _field(doc, "config", dict, "")
        for key in TrainingConfig().to_dict():
            _number(entries, key, "config.")
        config = TrainingConfig.from_dict(entries)
    return model, scaler, config


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
        "scaler": None
        if scaler is None
        else {
            name: {"median": m, "iqr": q}
            for name, m, q in zip(
                scaler.feature_names, scaler.median.tolist(), scaler.iqr.tolist()
            )
        },
        "config": None if config is None else config.to_dict(),
    }
    Path(path).write_text(json.dumps(doc, indent=1) + "\n")


def load_model(
    path,
) -> tuple[HTdcAutoencoder, RobustScalerParams | None, TrainingConfig | None]:
    """Read a model document, checking it field by field: a malformed or
    inconsistent field raises ConfigError naming it."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # invalid JSON or not UTF-8 text
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ConfigError(f"{path}: not a {MODEL_FORMAT} document")
    try:
        return _model_from_doc(doc)
    except (ConfigError, DimensionError) as exc:
        raise ConfigError(f"{path}: {exc}") from None

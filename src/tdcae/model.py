"""The hybrid temporal-differential-consistency autoencoder.

The latent space is split into static nodes z, their paired derivative
nodes zdot, and free statistical nodes s. Training adds a consistency
term to the reconstruction loss: the derivative nodes at time t must match
the central-difference estimate built from the static nodes at t-1 and
t+1. This module owns the triple layout: triple k is frame rows
(k, k+1, k+2), which `train` gathers through the row offsets
`_TRIPLE_OFFSETS`. It also owns model.json: its config and its scaler's
feature count fix the architecture, and its `partition`, `layer_sizes` and
`activations` are checked against what `build_model` gives for them.

The loss and its exact gradient come from one fused step, `_LossStep`,
built once per model and batch size with every buffer preallocated, its
stacked input rows [x_t; x_prev; x_next] among them. The step also builds,
once, two flat lists of numpy calls on those buffers: the loss list runs
nn's forward calls once over the stacked rows through the encoder and once
over the x_t rows through the decoder, and the gradient list runs nn's
backward calls once per network, with one combined encoder cotangent,
writing the gradients into one flat vector laid out like the shared
encoder-then-decoder parameter vector. The outputs of all three tanh layers
view one flat buffer, so one np.multiply and one np.subtract give every
tanh' = 1 - post**2 that the backward calls read. `train` gathers each
batch's rows into its step's input buffer with one `values.take`, runs the
step, and makes one Adamax step per batch, which also checks the gradient.
The finite-difference tests run the same step, so the gradient they check is
the one training uses. Running a trained model on data is tdcae.detect's.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import (ConfigError, DimensionError, NumericError, _all_finite, _check_int,
                     _check_number)
from .nn import Activation, GradientSet, Mlp, init_mlp
from .nn import _backward_calls, _forward_calls, _share_params
from .optim import _AdamaxState, _adamax_update
from .preprocess import EDGE_FEATURES, DatasetFrame, RobustScalerParams, _check_attack_free

MODEL_FORMAT = "tdcae-model-v1"


@dataclass(frozen=True)
class LatentPartition:
    """Latent layout: [z_0..z_{p-1} | zdot_0..zdot_{p-1} | s_0..s_{k-1}].

    zdot_i is the derivative node paired with static node z_i.
    """

    n_pairs: int
    n_stat: int

    def __post_init__(self):
        object.__setattr__(self, "n_pairs", _check_int(self.n_pairs, "n_pairs", 0))
        object.__setattr__(self, "n_stat", _check_int(self.n_stat, "n_stat", 0))
        if self.width < 1:
            raise ConfigError("n_stat must be >= 1 when n_pairs is 0")

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


@dataclass(frozen=True)
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
        if not isinstance(self.partition, LatentPartition):
            raise ConfigError(
                f"partition must be a LatentPartition, got {type(self.partition).__name__}")
        checked = {
            "learning_rate": _check_number(self.learning_rate, "learning_rate", 0.0, strict=True),
            "seed": _check_int(self.seed, "seed", 0),
            "batch_size": _check_int(self.batch_size, "batch_size", 1),
            "alpha": _check_number(self.alpha, "alpha", 0.0),
            "epochs": _check_int(self.epochs, "epochs", 1),
            "hidden_size": _check_int(self.hidden_size, "hidden_size", 1),
            # An infinite delta_t would turn every central difference, and
            # with it the consistency gradient, into 0.
            "delta_t": _check_number(self.delta_t, "delta_t", 0.0, strict=True),
        }
        for name, value in checked.items():
            object.__setattr__(self, name, value)

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
        """Inverse of to_dict: every field must be present, and each value
        is checked by LatentPartition or TrainingConfig. `where` is the JSON
        path that error messages put before a field name."""
        defaults = cls().to_dict()
        fields = _settings(doc, defaults, where, required=defaults)
        with _at(where):
            pairs, stat = fields.pop("n_pairs"), fields.pop("n_stat")
            return cls(partition=LatentPartition(pairs, stat), **fields)


# C-Town per-edge learning rate, consistency weight and latent layout.
_EDGE_SETTINGS = {
    1: {"learning_rate": 0.01, "alpha": 0.002, "partition": LatentPartition(3, 1)},
    2: {"learning_rate": 0.007, "alpha": 0.003, "partition": LatentPartition(3, 2)},
    3: {"learning_rate": 0.01, "alpha": 0.002, "partition": LatentPartition(3, 2)},
}


def edge_training_config(edge_id: int) -> TrainingConfig:
    """Default training configuration for one edge area, as a new object;
    its hidden width is the edge's feature count, as for a run without one."""
    if _check_int(edge_id, "edge_id", 1) not in EDGE_FEATURES:
        raise ConfigError(f"unknown edge id {edge_id}; expected one of {list(EDGE_FEATURES)}")
    return TrainingConfig(hidden_size=len(EDGE_FEATURES[edge_id]), **_EDGE_SETTINGS[edge_id])


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


def _architecture(n_features: int, config: TrainingConfig) -> dict:
    """The architecture that build_model gives, as model.json records it:
    the partition, an encoder [F -> hidden -> latent] with tanh throughout
    and a decoder [latent -> hidden -> F] with a linear output layer."""
    sizes = [n_features, config.hidden_size, config.partition.width]
    return {
        "partition": asdict(config.partition),
        "encoder": {"layer_sizes": sizes, "activations": ["tanh", "tanh"]},
        "decoder": {"layer_sizes": sizes[::-1], "activations": ["tanh", "identity"]},
    }


def build_model(n_features: int, config: TrainingConfig) -> HTdcAutoencoder:
    """Fresh model with the architecture of _architecture(n_features, config)."""
    _check_int(n_features, "n_features", 1)
    enc_seed, dec_seed, _ = _seed_triple(config.seed)
    networks = _architecture(n_features, config)
    return HTdcAutoencoder(init_mlp(**networks["encoder"], seed=enc_seed),
                           init_mlp(**networks["decoder"], seed=dec_seed), config.partition)


def central_difference(z_prev, z_next, delta_t: float) -> np.ndarray:
    """(z_next - z_prev) / (2*delta_t), the second-order first-derivative
    estimate; exact for quadratic trajectories."""
    delta_t = _check_number(delta_t, "delta_t", 0.0, strict=True)
    z_prev = np.asarray(z_prev, dtype=np.float64)
    z_next = np.asarray(z_next, dtype=np.float64)
    if z_prev.shape != z_next.shape:
        raise DimensionError("z_prev and z_next must share one shape")
    return (z_next - z_prev) / (2.0 * delta_t)


def _mean_square(flat: np.ndarray) -> float:
    """np.mean(flat**2) of a 1-D array as one BLAS dot product by the
    ndarray method, a few times faster at batch size; the method skips the
    dispatcher that the function np.dot calls first and gives its bits."""
    return float(flat.dot(flat)) / flat.size


class _LossStep:
    """The training loss and its exact gradient for batches of b triples.

    Built once per model and batch size. It keeps views of the model's
    parameters, so it follows in-place updates of them, and preallocates
    every buffer a batch needs: the caller writes the batch, stacked as
    [x_t; x_prev; x_next], into `x`, of shape (3b, F). The gradients land in
    `grads`, one flat vector laid out like
    `_share_params(model.encoder, model.decoder)`; `enc_grads` and
    `dec_grads` view into it.

    The encoder runs once over the stacked rows, so one backward pass takes
    one combined cotangent: the x_t rows get the decoder's latent cotangent
    plus the consistency term on the derivative nodes, and the x_prev and
    x_next rows get the consistency term on the static nodes, with opposite
    signs and scaled by 1/(2*delta_t). The cotangent's other entries are
    never written and stay zero. Every operation of a batch is in one of two
    lists of (function, args) pairs, built here: `loss_calls` and
    `grad_calls`.
    """

    def __init__(self, model: HTdcAutoencoder, b: int, alpha: float, delta_t: float):
        alpha = _check_number(alpha, "alpha", 0.0)
        delta_t = _check_number(delta_t, "delta_t", 0.0, strict=True)
        enc, dec, p = model.encoder, model.decoder, model.partition
        self.b, self.alpha = b, alpha
        self.enc, self.dec = enc.layers, dec.layers
        self.x = np.empty((3 * b, model.n_features))
        self.grads = np.empty(enc.params.size + dec.params.size)
        self.enc_grads = GradientSet(self.grads[: enc.params.size], enc)
        self.dec_grads = GradientSet(self.grads[enc.params.size :], dec)
        self.ones = np.ones(3 * b)  # bias gradients as dot(ones, g)

        # The outputs of every tanh layer (both of the encoder's and the
        # decoder's hidden layer) view one flat buffer, so that one pass
        # after the forward passes writes each one's tanh' = 1 - post**2 into
        # the same view of `tanh_deriv`.
        layers = [(3 * b, l) for l in enc.layers] + [(b, l) for l in dec.layers]
        size = sum(rows * l.bias.size for rows, l in layers if l.activation is Activation.TANH)
        self.tanh_post, self.tanh_deriv = np.empty(size), np.empty(size)
        post, deriv, start = [], [], 0
        for rows, l in layers:
            if l.activation is Activation.TANH:
                end = start + rows * l.bias.size
                post.append(self.tanh_post[start:end].reshape(rows, -1))
                deriv.append(self.tanh_deriv[start:end].reshape(rows, -1))
                start = end
            else:
                post.append(np.empty((rows, l.bias.size)))
                deriv.append(None)
        n_enc = len(enc.layers)
        self.enc_post, self.dec_post = post[:n_enc], post[n_enc:]
        h = self.enc_post[-1]
        self.h_t = h[:b]
        self.residual = np.empty((b, model.n_features))
        self.diff = np.empty((b, p.n_pairs))
        self.residual_flat, self.diff_flat = self.residual.reshape(-1), self.diff.reshape(-1)

        self.g_latent = np.zeros((3 * b, p.width))
        self.g_zdot_t = self.g_latent[:b, p.zdot_slice]
        # The z_prev and z_next cotangents, in this order, as one view.
        self.g_z_sides = self.g_latent[b:].reshape(2, b, p.width)[:, :, p.z_slice]
        self.dec_cotangents = [self.g_latent[:b]] + [
            np.empty((b, i)) for _, i in dec._shapes[1:]
        ]
        self.enc_cotangents = [None] + [np.empty((3 * b, i)) for _, i in enc._shapes[1:]]

        self.rec_scale = 2.0 / self.residual.size
        self.consistency = self.diff.size > 0 and alpha != 0.0
        self.loss_calls = [
            *_forward_calls(self.enc, self.x, self.enc_post),
            *_forward_calls(self.dec, self.h_t, self.dec_post),
            (np.subtract, (self.dec_post[-1], self.x[:b], self.residual)),
            (np.subtract, (h[2 * b :, p.z_slice], h[b : 2 * b, p.z_slice], self.diff)),
            (np.true_divide, (self.diff, 2.0 * delta_t, self.diff)),
            (np.subtract, (self.diff, h[:b, p.zdot_slice], self.diff)),
        ]
        self.grad_calls = [
            (np.multiply, (self.tanh_post, self.tanh_post, self.tanh_deriv)),
            (np.subtract, (1.0, self.tanh_deriv, self.tanh_deriv)),
            (np.multiply, (self.residual, self.rec_scale, self.residual)),
            *_backward_calls(self.dec, self.h_t, self.dec_post, deriv[n_enc:], self.residual,
                             self.dec_grads, self.ones[:b], self.dec_cotangents),
        ]
        if self.consistency:
            self.zdot_scale = -2.0 * alpha / self.diff.size
            self.side_scale = alpha / (self.diff.size * delta_t)
            # Negation is exact, so diff * -s has the bits of -(diff * s).
            sides = np.array([-self.side_scale, self.side_scale])[:, None, None]
            zdot_term = np.empty_like(self.diff)
            self.grad_calls += [
                (np.multiply, (self.diff, self.zdot_scale, zdot_term)),
                (np.add, (self.g_zdot_t, zdot_term, self.g_zdot_t)),
                (np.multiply, (self.diff, sides, self.g_z_sides)),
            ]
        self.grad_calls += _backward_calls(self.enc, self.x, self.enc_post, deriv[:n_enc],
                                           self.g_latent, self.enc_grads, self.ones,
                                           self.enc_cotangents)

    def loss(self) -> tuple[float, float]:
        """The forward passes on the batch in `x`, which must be finite, and
        its (reconstruction, consistency) losses; raises NumericError if the
        total loss is not finite."""
        for function, args in self.loss_calls:
            function(*args)
        rec = _mean_square(self.residual_flat)
        tdc = _mean_square(self.diff_flat) if self.diff.size else 0.0
        if not math.isfinite(rec + self.alpha * tdc):
            raise NumericError("non-finite loss")
        return rec, tdc

    def __call__(self) -> tuple[float, float]:
        """The losses of the batch in `x`, with their gradient written
        into `grads`."""
        losses = self.loss()
        for function, args in self.grad_calls:
            function(*args)
        return losses


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
    """Fit the autoencoder on an attack-free, already-scaled frame; a frame
    whose labels mark an hour as attacked raises ConfigError.

    Triples are shuffled each epoch with a generator derived from
    config.seed (the last partial batch is kept), so a fixed seed yields a
    bit-identical model. The history holds per-epoch mean losses, one
    entry per epoch. Each batch's rows are gathered with one take into the
    input buffer of its loss step. The encoder and decoder parameters share
    one flat vector, which each batch updates in place with one Adamax step
    on the gradient of the fused loss step; that step also finds a
    non-finite gradient, which raises NumericError, as do parameters left
    non-finite by the last step.
    """
    if train_frame.n_rows < 3:
        raise ConfigError(f"need >= 3 rows to build triples, got {train_frame.n_rows}")
    _check_attack_free(train_frame)
    n = train_frame.n_rows - 2
    values = train_frame.values
    if not _all_finite(values):
        raise NumericError("training frame contains non-finite entries")
    model = build_model(train_frame.n_features, config)
    _, _, shuffle_seed = _seed_triple(config.seed)
    shuffle_rng = np.random.default_rng(shuffle_seed)

    params = _share_params(model.encoder, model.decoder)
    adamax = _AdamaxState(params.size)
    # A batch size beyond the triple count trains on one batch of them all.
    b = min(config.batch_size, n)
    # One step for full batches and one for the tail batch, if sizes differ.
    steps = {
        size: _LossStep(model, size, config.alpha, config.delta_t)
        for size in {b, n % b or b}
    }

    history: list[LossBreakdown] = []
    step_count = 0
    # A non-finite loss or gradient is named below, not warned about on the way.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            rows = _batch_rows(shuffle_rng.permutation(n), b)
            rec_sum = 0.0
            tdc_sum = 0.0
            for batch_index, start in enumerate(range(0, n, b)):
                size = min(b, n - start)
                step = steps[size]
                values.take(rows[3 * start : 3 * (start + size)], axis=0, out=step.x)
                try:
                    rec, tdc = step()
                except NumericError as exc:
                    raise NumericError(
                        f"epoch {epoch + 1}, batch {batch_index + 1}: {exc}"
                    ) from None
                step_count += 1
                if not _adamax_update(params, step.grads, adamax, step_count, config.learning_rate):
                    raise NumericError(
                        f"non-finite gradient at epoch {epoch + 1}, batch {batch_index + 1}"
                    )
                rec_sum += rec * size
                tdc_sum += tdc * size
            history.append(LossBreakdown.from_parts(rec_sum / n, tdc_sum / n, config.alpha))

    # A step checks its gradient, not the parameters it writes, and a step
    # size beyond the float range makes them non-finite with no later batch
    # to fail on.
    if not _all_finite(params):
        raise NumericError(f"non-finite parameters after epoch {epoch + 1}, batch "
                           f"{batch_index + 1}, at learning_rate {config.learning_rate}")
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


def _check_architecture(doc: dict, n_features: int, config: TrainingConfig) -> None:
    """Raise ConfigError unless the model document `doc` records the
    _architecture of n_features and the config, naming the first entry
    that differs and the values that fix it."""
    p = config.partition
    basis = (f"config n_pairs={p.n_pairs}, n_stat={p.n_stat}, hidden_size="
             f"{config.hidden_size} and {n_features} scaler features")
    for name, fields in _architecture(n_features, config).items():
        for key, want in fields.items():
            path, got = f"{name}.{key}", _field(doc[name], key, None, f"{name}.")
            entries = [(path, got, want)]
            if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
                entries = [(f"{path}[{i}]", g, w) for i, (g, w) in enumerate(zip(got, want))]
            for where, g, w in entries:
                # By type too: JSON's 3.0 and true are not the integers 3 and 1.
                if type(g) is not type(w) or g != w:
                    raise ConfigError(f"{where}: expected {w!r} from {basis}, got {g!r:.40}")


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


def _settings(doc, defaults: dict, where: str, required=()) -> dict:
    """`defaults` updated with the fields of the JSON object `doc`, whose
    values are passed on as they are: the config type they are given to
    checks them. A field whose default is a dict is an object, read by
    _settings against that dict. A `doc` that is not an object, a key that
    is not in `defaults`, or a key of `required` that is not in `doc`
    raises ConfigError naming it."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where[:-1] or 'settings'}: expected a JSON object, got {doc!r:.40}")
    unknown = sorted(set(doc) - set(defaults))
    if unknown:
        raise ConfigError(f"unknown settings: {', '.join(where + k for k in unknown)}")
    for key in required:
        _field(doc, key, None, where)
    out = dict(defaults)
    for key, value in doc.items():
        if isinstance(defaults[key], dict):
            value = _settings(value, defaults[key], f"{where}{key}.")
        out[key] = value
    return out


@contextmanager
def _at(where: str):
    """Put `where`, the JSON path of the settings being built, before the
    message of a ConfigError raised inside the block."""
    try:
        yield
    except ConfigError as exc:
        raise ConfigError(f"{where}{exc}") from None


def _numbers(doc, key: str, n: int, where: str) -> np.ndarray:
    """doc[key] as a float64 vector: a list of n entries, each checked by _check_number."""
    values = _field(doc, key, list, where)
    if len(values) != n:
        raise ConfigError(f"{where}{key}: expected {n} values, got {len(values)}")
    return np.array([_check_number(v, f"{where}{key}[{i}]") for i, v in enumerate(values)])


def _scaler_to_doc(params: RobustScalerParams) -> dict:
    return {
        name: {"median": m, "iqr": q}
        for name, m, q in zip(params.feature_names, params.median.tolist(), params.iqr.tolist())
    }


def _scaler_from_doc(doc: dict) -> RobustScalerParams:
    """Inverse of _scaler_to_doc. RobustScalerParams checks and names each
    entry, passed in vectors of objects so that a list stays one entry."""
    names = list(doc)
    median, iqr = (
        np.fromiter((_field(doc[n], key, None, f"scaler.{n}.") for n in names), object, len(names))
        for key in ("median", "iqr")
    )
    with _at("scaler."):
        return RobustScalerParams(names, median, iqr)


def read_json(path):
    """The parsed JSON document in a UTF-8 file, BOM or not; invalid JSON
    or text that is not UTF-8 raises ConfigError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8-sig"))
    except ValueError as exc:  # UnicodeDecodeError is a ValueError too
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None


def save_model(
    path, model: HTdcAutoencoder, scaler: RobustScalerParams, config: TrainingConfig
) -> None:
    """Persist the model as JSON. Floats use the shortest representation
    that round-trips, so parameters survive save/load bit-exactly. A model
    not of its config's and scaler's _architecture raises ConfigError."""
    doc = {
        "format": MODEL_FORMAT,
        "partition": asdict(model.partition),
        "encoder": _mlp_to_doc(model.encoder),
        "decoder": _mlp_to_doc(model.decoder),
        "scaler": _scaler_to_doc(scaler),
        "config": config.to_dict(),
    }
    _check_architecture(doc, len(scaler.feature_names), config)
    Path(path).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")


def load_model(path) -> tuple[HTdcAutoencoder, RobustScalerParams, TrainingConfig]:
    """Read a model document, checking it field by field: a malformed or
    inconsistent field raises ConfigError naming it."""
    doc = read_json(path)
    if not isinstance(doc, dict) or doc.get("format") != MODEL_FORMAT:
        raise ConfigError(f"{path}: not a {MODEL_FORMAT} document")
    with _at(f"{path}: "):
        for key in ("partition", "encoder", "decoder", "scaler", "config"):
            _field(doc, key, dict, "")
        scaler = _scaler_from_doc(doc["scaler"])
        config = TrainingConfig.from_dict(doc["config"], "config.")
        # Checked before the Mlps allocate what a damaged config asks for.
        _check_architecture(doc, len(scaler.feature_names), config)
        networks = _architecture(len(scaler.feature_names), config)
        model = HTdcAutoencoder(Mlp(**networks["encoder"]), Mlp(**networks["decoder"]),
                                config.partition)
        for name in ("encoder", "decoder"):
            layers = getattr(model, name).layers
            payloads = _field(doc[name], "layers", list, f"{name}.")
            if len(payloads) != len(layers):
                raise ConfigError(f"{name}.layers: expected {len(layers)} layers, "
                                  f"got {len(payloads)}")
            for k, (layer, payload) in enumerate(zip(layers, payloads)):
                here = f"{name}.layers[{k}]."
                for key, out in (("weights", layer.weights), ("bias", layer.bias)):
                    out[...] = _numbers(payload, key, out.size, here).reshape(out.shape)
    return model, scaler, config


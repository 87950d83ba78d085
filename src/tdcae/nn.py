"""Minimal dense-network engine: parameter storage, forward evaluation and
exact reverse-mode gradients for stacks of affine layers with tanh or
identity activations.

Everything is float64. Each Mlp keeps all of its parameters in one
contiguous vector, `params`; the layers' weights and biases are views into
it, and a GradientSet lays its gradients out the same way in one `flat`
buffer. An optimizer step is then a few elementwise operations on flat
vectors. The public `forward` and `backward` validate their arguments and
call the unchecked kernels `_forward` and `_backward`, which the training
loop calls directly after validating a whole batch once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, DimensionError, NumericError


class Activation(str, Enum):
    TANH = "tanh"
    IDENTITY = "identity"


def _as_matrix(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"{name} must be 2-D, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise NumericError(f"{name} contains non-finite entries")
    return x


@dataclass
class DenseLayer:
    """One affine layer: y = act(x @ weights.T + bias).

    weights has shape (out, in); bias has shape (out,).
    """

    weights: np.ndarray
    bias: np.ndarray
    activation: Activation

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weights.ndim != 2 or self.bias.ndim != 1:
            raise DimensionError("weights must be 2-D and bias 1-D")
        if self.bias.shape[0] != self.weights.shape[0]:
            raise DimensionError(
                f"bias length {self.bias.shape[0]} != weight rows {self.weights.shape[0]}"
            )
        self.activation = Activation(self.activation)

    @property
    def in_size(self) -> int:
        return self.weights.shape[1]

    @property
    def out_size(self) -> int:
        return self.weights.shape[0]


def _views(flat: np.ndarray, shapes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a flat vector that holds, layer
    by layer, the (out, in) weights in row-major order and then the bias."""
    weights, biases, start = [], [], 0
    for out_size, in_size in shapes:
        end = start + out_size * in_size
        weights.append(flat[start:end].reshape(out_size, in_size))
        biases.append(flat[end : end + out_size])
        start = end + out_size
    return weights, biases


def _pack(weights, biases) -> np.ndarray:
    """A new flat vector holding copies of per-layer weights and biases."""
    return np.concatenate([a.ravel() for pair in zip(weights, biases) for a in pair])


@dataclass
class Mlp:
    """An ordered stack of shape-compatible dense layers.

    The Mlp copies the given layers' parameters into its own `params`
    vector and holds new layers whose weights and biases view into it.
    """

    layers: list[DenseLayer]
    params: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("an Mlp needs at least one layer")
        for k in range(len(self.layers) - 1):
            if self.layers[k].out_size != self.layers[k + 1].in_size:
                raise DimensionError(
                    f"layer {k} outputs {self.layers[k].out_size} values but "
                    f"layer {k + 1} expects {self.layers[k + 1].in_size}"
                )
        self._shapes = [l.weights.shape for l in self.layers]
        params = _pack([l.weights for l in self.layers], [l.bias for l in self.layers])
        self.layers = [DenseLayer(l.weights, l.bias, l.activation) for l in self.layers]
        self._bind(params)

    def _bind(self, params: np.ndarray) -> None:
        """Adopt `params`, a vector laid out like this Mlp's parameters, and
        point the layer views at it."""
        self.params = params
        for layer, w, b in zip(self.layers, *_views(params, self._shapes)):
            layer.weights, layer.bias = w, b

    @property
    def input_size(self) -> int:
        return self.layers[0].in_size

    @property
    def output_size(self) -> int:
        return self.layers[-1].out_size

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_size] + [layer.out_size for layer in self.layers]

    def n_parameters(self) -> int:
        return self.params.size

    def copy(self) -> "Mlp":
        return Mlp(self.layers)


def _share_params(*mlps: Mlp) -> np.ndarray:
    """Move the parameters of several Mlps into one flat vector, in order,
    and return it; each Mlp's `params` becomes a slice of it."""
    flat = np.concatenate([mlp.params for mlp in mlps])
    start = 0
    for mlp in mlps:
        mlp._bind(flat[start : start + mlp.params.size])
        start += mlp.params.size
    return flat


@dataclass
class ActivationTrace:
    """Everything forward() saw, kept for the backward pass: the input and
    each layer's post-activation output."""

    input: np.ndarray
    post: list[np.ndarray] = field(default_factory=list)

    @property
    def output(self) -> np.ndarray:
        return self.post[-1]


class GradientSet:
    """Per-layer parameter gradients, shape-matched to an Mlp.

    `weight_grads` and `bias_grads` are views into one `flat` buffer laid
    out like the Mlp's `params`.
    """

    def __init__(self, weight_grads, bias_grads):
        weight_grads = [np.asarray(g, dtype=np.float64) for g in weight_grads]
        self.flat = _pack(weight_grads, [np.asarray(g, dtype=np.float64) for g in bias_grads])
        self.weight_grads, self.bias_grads = _views(self.flat, [g.shape for g in weight_grads])

    @classmethod
    def zeros_like(cls, mlp: Mlp) -> "GradientSet":
        grads = cls.__new__(cls)
        grads.flat = np.zeros(mlp.params.size)
        grads.weight_grads, grads.bias_grads = _views(grads.flat, mlp._shapes)
        return grads

    def add_(self, other: "GradientSet") -> "GradientSet":
        """Accumulate another gradient set into this one, in place."""
        self.flat += other.flat
        return self

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.flat).all())


def init_mlp(layer_sizes: list[int], activations: list[Activation], seed: int) -> Mlp:
    """Build an Mlp with Glorot-uniform weights and zero biases.

    Weights for a layer with fan_in inputs and fan_out outputs are drawn
    uniformly from [-sqrt(6/(fan_in+fan_out)), +sqrt(6/(fan_in+fan_out))].
    The same seed always yields bit-identical parameters.
    """
    if len(layer_sizes) < 2:
        raise ConfigError("layer_sizes needs at least an input and an output size")
    if len(activations) != len(layer_sizes) - 1:
        raise ConfigError(
            f"expected {len(layer_sizes) - 1} activations, got {len(activations)}"
        )
    if any(int(s) < 1 for s in layer_sizes):
        raise ConfigError("every layer size must be >= 1")

    rng = np.random.default_rng(int(seed))
    layers = []
    for fan_in, fan_out, act in zip(layer_sizes, layer_sizes[1:], activations):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        weights = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(DenseLayer(weights, np.zeros(fan_out), Activation(act)))
    return Mlp(layers)


def _forward(mlp: Mlp, x: np.ndarray) -> ActivationTrace:
    """Unchecked forward kernel: x must be a finite float64 matrix with
    mlp.input_size columns."""
    post = []
    a = x
    for layer in mlp.layers:
        a = a @ layer.weights.T
        a += layer.bias
        if layer.activation is Activation.TANH:
            np.tanh(a, out=a)
        post.append(a)
    return ActivationTrace(x, post)


def _backward(
    mlp: Mlp, trace: ActivationTrace, g: np.ndarray, grads: GradientSet
) -> np.ndarray:
    """Unchecked backward kernel: writes the parameter gradients into grads
    and returns the cotangent of the input."""
    ones = np.ones(g.shape[0])  # bias gradients as ones @ g: a BLAS call, unlike sum(axis=0)
    for k in range(len(mlp.layers) - 1, -1, -1):
        layer = mlp.layers[k]
        if layer.activation is Activation.TANH:
            # tanh' = 1 - post**2, from the stored post-activation
            d = trace.post[k] * trace.post[k]
            np.subtract(1.0, d, out=d)
            d *= g
            g = d
        a_in = trace.post[k - 1] if k > 0 else trace.input
        np.matmul(g.T, a_in, out=grads.weight_grads[k])
        np.matmul(ones, g, out=grads.bias_grads[k])
        g = g @ layer.weights
    return g


def forward(mlp: Mlp, x) -> ActivationTrace:
    """Evaluate the network on a batch, keeping per-layer activations.

    x has shape (batch, input_size); trace.output has shape
    (batch, output_size). Pure: does not touch the Mlp.
    """
    x = _as_matrix(x, "input")
    if x.shape[0] < 1:
        raise DimensionError("batch must contain at least one row")
    if x.shape[1] != mlp.input_size:
        raise DimensionError(
            f"input has {x.shape[1]} columns, network expects {mlp.input_size}"
        )
    trace = _forward(mlp, x)
    if not np.all(np.isfinite(trace.output)):
        raise NumericError("forward pass produced non-finite output")
    return trace


def backward(
    mlp: Mlp, trace: ActivationTrace, output_cotangent
) -> tuple[GradientSet, np.ndarray]:
    """Reverse-mode pass: cotangent of the output -> parameter gradients
    plus the cotangent of the input.

    The input cotangent carries the gradient on into an upstream network,
    as from the decoder into the encoder.
    """
    g = _as_matrix(output_cotangent, "output_cotangent")
    if g.shape != trace.output.shape:
        raise DimensionError(
            f"cotangent shape {g.shape} != output shape {trace.output.shape}"
        )
    grads = GradientSet.zeros_like(mlp)
    return grads, _backward(mlp, trace, g, grads)

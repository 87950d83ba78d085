"""Minimal dense-network engine: parameter storage, forward evaluation and
exact reverse-mode gradients for stacks of affine layers with tanh or
identity activations.

Everything is float64. Each Mlp keeps all of its parameters in one
contiguous vector, `params`; the layers' weights and biases are views into
it, and a GradientSet views a flat gradient vector laid out the same way.
An optimizer step is then a few elementwise operations on flat vectors.
The layer arithmetic lives in two unchecked kernels that write into
caller-provided buffers: `_forward`, which the checked public `forward`
wraps for inference, and `_backward`, which only the fused training step
in `tdcae.model` calls.
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
    if not np.isfinite(x).all():
        raise NumericError(f"{name} contains non-finite entries")
    return x


def _finite_output(out: np.ndarray) -> np.ndarray:
    if not np.isfinite(out).all():
        raise NumericError("forward pass produced non-finite output")
    return out


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
        params = np.concatenate([a.ravel() for l in self.layers for a in (l.weights, l.bias)])
        self.layers = [DenseLayer(l.weights, l.bias, l.activation) for l in self.layers]
        self._bind(params)

    def _bind(self, params: np.ndarray) -> None:
        """Adopt `params`, a vector laid out like this Mlp's parameters, and
        point the layer views at it."""
        self.params = params
        for layer, w, b in zip(self.layers, *_views(params, self._shapes)):
            layer.weights, layer.bias = w, b
        # What the kernels read, per layer: (weights, weights.T, bias, is_tanh).
        self._kernel = [
            (l.weights, l.weights.T, l.bias, l.activation is Activation.TANH)
            for l in self.layers
        ]

    @property
    def input_size(self) -> int:
        return self.layers[0].in_size

    @property
    def output_size(self) -> int:
        return self.layers[-1].out_size

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_size] + [layer.out_size for layer in self.layers]


def _share_params(*mlps: Mlp) -> np.ndarray:
    """Move the parameters of several Mlps into one flat vector, in order,
    and return it; each Mlp's `params` becomes a slice of it."""
    flat = np.concatenate([mlp.params for mlp in mlps])
    start = 0
    for mlp in mlps:
        mlp._bind(flat[start : start + mlp.params.size])
        start += mlp.params.size
    return flat


class GradientSet:
    """Per-layer parameter gradients of an Mlp: `weight_grads` and
    `bias_grads` are views into `flat`, a vector laid out like the Mlp's
    `params`; no data is copied."""

    def __init__(self, flat: np.ndarray, mlp: Mlp):
        self.flat = flat
        self.weight_grads, self.bias_grads = _views(flat, mlp._shapes)


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


def _forward(layers: list[tuple], x: np.ndarray, post: list) -> None:
    """Unchecked forward kernel over an Mlp's `_kernel` layers: layer k's
    post-activation output for the finite float64 matrix x goes into the
    buffer post[k], or into a new array stored there if post[k] is None."""
    for k, (_, weights_t, bias, tanh) in enumerate(layers):
        x = post[k] = np.matmul(x, weights_t, out=post[k])
        x += bias
        if tanh:
            np.tanh(x, out=x)


def _backward(
    layers: list[tuple],
    x: np.ndarray,
    post: list[np.ndarray],
    g: np.ndarray,
    grads: GradientSet,
    ones: np.ndarray,
    cotangents: list,
) -> None:
    """Unchecked backward kernel over an Mlp's `_kernel` layers, from the
    output cotangent g.

    Writes the parameter gradients into grads and the cotangent of layer k's
    input into cotangents[k]; cotangents[0] may be None when the caller does
    not need the input cotangent. ones is a vector of ones, one per row. The
    kernel overwrites post[k] of every tanh layer with the cotangent of its
    pre-activation, so post cannot be reused afterwards.
    """
    for k in range(len(layers) - 1, -1, -1):
        weights, _, _, tanh = layers[k]
        if tanh:
            # tanh' = 1 - post**2, from the stored post-activation
            d = post[k]
            np.multiply(d, d, out=d)
            np.subtract(1.0, d, out=d)
            d *= g
            g = d
        np.matmul(g.T, post[k - 1] if k > 0 else x, out=grads.weight_grads[k])
        # bias gradients as ones @ g: a BLAS call, unlike sum(axis=0)
        np.matmul(ones, g, out=grads.bias_grads[k])
        if cotangents[k] is not None:
            np.matmul(g, weights, out=cotangents[k])
            g = cotangents[k]


def forward(mlp: Mlp, x) -> np.ndarray:
    """Evaluate the network on a batch: x has shape (batch, input_size), the
    result (batch, output_size). Pure: does not touch the Mlp."""
    x = _as_matrix(x, "input")
    if x.shape[0] < 1:
        raise DimensionError("batch must contain at least one row")
    if x.shape[1] != mlp.input_size:
        raise DimensionError(
            f"input has {x.shape[1]} columns, network expects {mlp.input_size}"
        )
    post = [None] * len(mlp.layers)
    _forward(mlp._kernel, x, post)
    return _finite_output(post[-1])

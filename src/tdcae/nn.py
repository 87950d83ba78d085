"""Minimal dense-network engine: parameter storage, forward evaluation and
exact reverse-mode gradients for stacks of affine layers with tanh or
identity activations.

Everything is float64. Each Mlp keeps all of its parameters in one
contiguous vector, `params`; the layers' weights and biases are views into
it, and a GradientSet views a flat gradient vector laid out the same way.
An optimizer step is then a few elementwise operations on flat vectors.
Each layer is one `DenseLayer` record, in `Mlp.layers`, which every pass
reads. The layer arithmetic lives here. `_layers`, a stack of layers'
output in a new array, is the unchecked kernel that the checked `forward`
and the scorer in `tdcae.detect` call once per pass. The training step in
`tdcae.model` instead builds its passes once, with `_forward_calls` and
`_backward_calls`: each returns a flat list of (function, args) pairs, the
products, bias adds, tanh and derivative multiplies of one pass over fixed
buffers of the caller's, in order, which the step replays for every batch
with no loop over layers. `forward` tests its input and output with
`errors._all_finite`, the package's one finiteness test; it is the checked
array API and the tests' reference, and no module in the package calls it.
The backward list reads each tanh layer's derivative 1 - post**2 from a
buffer of the caller's, which the training step fills for every tanh layer
at once, and leaves the forward outputs as they are.

The products call BLAS through the ndarray method `a.dot(b, out)` (`_layers`
without `out`, which gives the same bits as `out=None`), bound on the
buffer it reads, not `np.matmul` and not the function `np.dot`: on the
32x8 matrices of a training batch the cost of a product is call overhead.
The method goes straight to `dgemm`/`dgemv`, skipping matmul's gufunc
dispatch (about 0.5 to 1.3 us a call) and the Python-level
`__array_function__` dispatcher that the function `np.dot` calls first in
numpy 2 (about 0.1 to 0.2 us a call). The method and the function run the
same C routine, so they give the same bits. Its `out` buffers must be
C-contiguous float64 of the result's exact shape, which every buffer of the
training step is. On C- and Fortran-order inputs the results are
bit-identical to the `np.matmul` form of the builders that
`tests/oracles.py` keeps; on views strided in memory the two can choose
different BLAS calls and differ in the last bit. The ufuncs take their
`out` positionally, as the same in-place operation written `x += bias`
does.
"""

from __future__ import annotations

from enum import Enum
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, DimensionError, NumericError, _all_finite, _check_int


class Activation(str, Enum):
    TANH = "tanh"
    IDENTITY = "identity"


_TANH = Activation.TANH


class DenseLayer(NamedTuple):
    """One affine layer of an Mlp: y = act(dot(x, weights_t) + bias).

    weights has shape (out, in) and bias shape (out,); both view into the
    Mlp's `params`, and weights_t is the transposed view weights.T.
    """

    weights: np.ndarray
    weights_t: np.ndarray
    bias: np.ndarray
    activation: Activation


def _views(flat: np.ndarray, shapes) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Per-layer weight and bias views into a flat vector that holds, layer
    by layer, the (out, in) weights in row-major order and then the bias."""
    weights, biases, start = [], [], 0
    for o, i in shapes:
        end = start + o * i
        weights.append(flat[start:end].reshape(o, i))
        biases.append(flat[end : end + o])
        start = end + o
    return weights, biases


class Mlp:
    """A stack of dense layers with the given sizes and activations. All
    parameters live in one flat vector, `params`, which starts at zero; the
    layers' weights and biases view into it."""

    def __init__(self, layer_sizes: list[int], activations: list[Activation]):
        if len(layer_sizes) < 2:
            raise ConfigError("layer_sizes needs at least an input and an output size")
        if len(activations) != len(layer_sizes) - 1:
            raise ConfigError(
                f"expected {len(layer_sizes) - 1} activations, got {len(activations)}"
            )
        sizes = [_check_int(s, "every layer size", 1) for s in layer_sizes]
        self._shapes = [(o, i) for i, o in zip(sizes, sizes[1:])]
        for k, a in enumerate(activations):
            if a not in tuple(Activation):
                raise ConfigError(
                    f"activations[{k}] must be one of {', '.join(Activation)}, got {a!r:.40}")
        self._activations = [Activation(a) for a in activations]
        self._bind(np.zeros(sum(o * i + o for o, i in self._shapes)))

    def _bind(self, params: np.ndarray) -> None:
        """Adopt `params`, a vector laid out like this Mlp's parameters, and
        point the layer views at it."""
        self.params = params
        weights, biases = _views(params, self._shapes)
        self.layers = [
            DenseLayer(w, w.T, b, act) for w, b, act in zip(weights, biases, self._activations)
        ]

    @property
    def input_size(self) -> int:
        return self._shapes[0][1]

    @property
    def output_size(self) -> int:
        return self._shapes[-1][0]

    @property
    def layer_sizes(self) -> list[int]:
        return [self.input_size] + [o for o, _ in self._shapes]


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
    mlp = Mlp(layer_sizes, activations)
    rng = np.random.default_rng(_check_int(seed, "seed", 0))
    for layer in mlp.layers:
        limit = np.sqrt(6.0 / sum(layer.weights.shape))
        layer.weights[...] = rng.uniform(-limit, limit, size=layer.weights.shape)
    return mlp


def _layers(layers: list[DenseLayer], x: np.ndarray) -> np.ndarray:
    """Unchecked output of a stack of an Mlp's layers, or of two Mlps' in
    order, for the finite float64 matrix x, in a new array. One local is
    rebound to each layer's output, so at most two activations are alive
    on every CPython: while a layer runs, only its input and its output
    exist, besides the x that the caller keeps."""
    for _, weights_t, bias, activation in layers:
        x = x.dot(weights_t)
        x += bias
        if activation is _TANH:
            np.tanh(x, out=x)
    return x


def _forward_calls(layers: list[DenseLayer], x: np.ndarray, post: list[np.ndarray]) -> list:
    """The forward pass over an Mlp's layers as (function, args) pairs
    that, run in order, write layer k's post-activation output for the
    finite float64 matrix in x into the buffer post[k]."""
    calls = []
    for (_, weights_t, bias, activation), out in zip(layers, post):
        calls += [(x.dot, (weights_t, out)), (np.add, (out, bias, out))]
        if activation is _TANH:
            calls.append((np.tanh, (out, out)))
        x = out
    return calls


def _backward_calls(
    layers: list[DenseLayer],
    x: np.ndarray,
    post: list[np.ndarray],
    deriv: list,
    g: np.ndarray,
    grads: GradientSet,
    ones: np.ndarray,
    cotangents: list,
) -> list:
    """The backward pass over an Mlp's layers, from the output cotangent
    in g, as (function, args) pairs to run in order after the forward
    pass.

    deriv[k] holds tanh'(layer k) = 1 - post[k]**2 for every tanh layer k
    when the calls run, and they overwrite it with the cotangent of that
    layer's pre-activation; post itself is only read. They write the
    parameter gradients into grads and the cotangent of layer k's input into
    cotangents[k]; cotangents[0] may be None when the caller does not need
    the input cotangent. ones is a vector of ones, one per row.
    """
    calls = []
    inputs = [x] + post[:-1]
    for k in range(len(layers) - 1, -1, -1):
        weights, _, _, activation = layers[k]
        if activation is _TANH:
            calls.append((np.multiply, (deriv[k], g, deriv[k])))
            g = deriv[k]
        # bias gradients as ones.dot(g): a BLAS call, unlike sum(axis=0)
        calls += [(g.T.dot, (inputs[k], grads.weight_grads[k])),
                  (ones.dot, (g, grads.bias_grads[k]))]
        if cotangents[k] is not None:
            calls.append((g.dot, (weights, cotangents[k])))
            g = cotangents[k]
    return calls


def forward(mlp: Mlp, x) -> np.ndarray:
    """Evaluate the network on a batch: x has shape (batch, input_size), the
    result (batch, output_size); both must be finite, with >= 1 row. Pure:
    does not touch the Mlp."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"input must be 2-D, got shape {x.shape}")
    if not _all_finite(x):
        raise NumericError("input contains non-finite entries")
    if x.shape[0] < 1:
        raise DimensionError("batch must contain at least one row")
    if x.shape[1] != mlp.input_size:
        raise DimensionError(
            f"input has {x.shape[1]} columns, network expects {mlp.input_size}"
        )
    out = _layers(mlp.layers, x)
    if not _all_finite(out):
        raise NumericError("forward pass produced non-finite output")
    return out

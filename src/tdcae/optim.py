"""Adamax: the infinity-norm variant of Adam.

Update rule per parameter theta with gradient g at step t:

    m <- beta1 * m + (1 - beta1) * g
    u <- max(beta2 * u, |g|)
    theta <- theta - (lr / (1 - beta1**t)) * m / (u + eps)

The rule is elementwise, so `_adamax_update` applies it in place to flat
vectors. Training keeps the encoder and decoder parameters in one such
vector, and the moments m and u as the two rows of one (2, P) array in an
`_AdamaxState`, and makes one call per batch. The call writes every
intermediate into the state's two work vectors, so a step allocates
nothing. It also checks the gradient: |g| is the first thing it computes,
and the largest |g| is NaN or infinite exactly when the gradient is not
finite, in which case the step leaves the parameters and the moments
untouched and reports it.
"""

from __future__ import annotations

import math

import numpy as np

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8

# The decay of each moment, as a column to scale the (2, P) moments by.
_BETAS = np.array([[BETA1], [BETA2]])


class _AdamaxState:
    """Adamax's moments for P parameters, m and u as the two rows of one
    (2, P) array, and two work vectors for the step's intermediates, all
    allocated once."""

    def __init__(self, size: int):
        self.moments = np.zeros((2, size))
        self.m, self.u = self.moments
        self.abs_g, self.delta = np.empty((2, size))


def _adamax_update(params, grads, state: _AdamaxState, t: int, learning_rate: float) -> bool:
    """Unchecked Adamax step number t, in place on the flat float64 vector
    params and on state's moments. Returns False, and changes nothing but
    state's work vectors, when grads is not finite."""
    abs_g, delta, m, u = state.abs_g, state.delta, state.m, state.u
    np.abs(grads, out=abs_g)
    # maximum propagates NaN, so this is finite exactly when grads is.
    if not math.isfinite(np.maximum.reduce(abs_g)):
        return False
    state.moments *= _BETAS
    np.multiply(grads, 1.0 - BETA1, out=delta)
    m += delta
    np.maximum(u, abs_g, out=u)
    np.multiply(m, learning_rate / (1.0 - BETA1**t), out=delta)
    np.add(u, EPSILON, out=abs_g)
    delta /= abs_g
    params -= delta
    return True

"""Adamax: the infinity-norm variant of Adam.

Update rule per parameter theta with gradient g at step t:

    m <- beta1 * m + (1 - beta1) * g
    u <- max(beta2 * u, |g|)
    theta <- theta - (lr / (1 - beta1**t)) * m / (u + eps)

The rule is elementwise, so `_adamax_update` applies it in place to flat
vectors. Training keeps the encoder and decoder parameters in one such
vector, and the moments m and u in two more, and makes one call per batch.
"""

from __future__ import annotations

import numpy as np

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


def _adamax_update(
    params, grads, m, u, t: int, learning_rate: float,
    beta1: float = BETA1, beta2: float = BETA2, epsilon: float = EPSILON,
) -> None:
    """Unchecked Adamax step number t, in place on the flat float64 vectors
    params, m and u."""
    m *= beta1
    m += (1.0 - beta1) * grads
    u *= beta2
    np.maximum(u, np.abs(grads), out=u)
    delta = (learning_rate / (1.0 - beta1**t)) * m
    delta /= u + epsilon
    params -= delta

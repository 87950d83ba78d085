"""Adamax: the infinity-norm variant of Adam.

Update rule per parameter theta with gradient g at step t:

    m <- beta1 * m + (1 - beta1) * g
    u <- max(beta2 * u, |g|)
    theta <- theta - (lr / (1 - beta1**t)) * m / (u + eps)

The rule is elementwise, so `_adamax_update` applies it in place to flat
vectors; `adamax_step` is the pure, checked form over an Mlp.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, DimensionError, NumericError
from .nn import GradientSet, Mlp

BETA1, BETA2, EPSILON = 0.9, 0.999, 1e-8


@dataclass
class AdamaxState:
    """First moment m and infinity-norm accumulator u, shaped like an Mlp."""

    m: GradientSet
    u: GradientSet
    step_count: int = 0
    beta1: float = BETA1
    beta2: float = BETA2
    epsilon: float = EPSILON

    @classmethod
    def for_mlp(
        cls,
        mlp: Mlp,
        beta1: float = BETA1,
        beta2: float = BETA2,
        epsilon: float = EPSILON,
    ) -> "AdamaxState":
        if not (0.0 <= beta1 < 1.0 and 0.0 <= beta2 < 1.0):
            raise ConfigError("beta1 and beta2 must lie in [0, 1)")
        if epsilon <= 0.0:
            raise ConfigError("epsilon must be positive")
        return cls(
            m=GradientSet.zeros_like(mlp),
            u=GradientSet.zeros_like(mlp),
            beta1=beta1,
            beta2=beta2,
            epsilon=epsilon,
        )


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


def adamax_step(
    mlp: Mlp, grads: GradientSet, state: AdamaxState, learning_rate: float
) -> tuple[Mlp, AdamaxState]:
    """One Adamax update. Returns a new Mlp and advanced state; the inputs
    are left untouched."""
    if learning_rate <= 0.0:
        raise ConfigError(f"learning_rate must be > 0, got {learning_rate}")
    if {grads.flat.shape, state.m.flat.shape, state.u.flat.shape} != {mlp.params.shape}:
        raise DimensionError("gradients and optimizer state must be laid out like the Mlp")
    if not grads.all_finite():
        raise NumericError("gradient contains non-finite entries")

    new_mlp = mlp.copy()
    new_state = replace(
        state,
        m=GradientSet(state.m.weight_grads, state.m.bias_grads),
        u=GradientSet(state.u.weight_grads, state.u.bias_grads),
        step_count=state.step_count + 1,
    )
    _adamax_update(new_mlp.params, grads.flat, new_state.m.flat, new_state.u.flat,
                   new_state.step_count, learning_rate, state.beta1, state.beta2, state.epsilon)
    return new_mlp, new_state

"""The shared Adam optimizer.

Adam is the standard bias-corrected form:

    m ← β1·m + (1−β1)·g          m̂ = m/(1−β1^k)
    v ← β2·v + (1−β2)·g²         v̂ = v/(1−β2^k)
    x ← x − lr·m̂/(sqrt(v̂) + ε)

`AdamState` holds lr, the step count k and m and v, shaped like x (any
shape). `adam_step` returns a new state and leaves its inputs untouched.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, require_shape

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8


@dataclass(frozen=True)
class AdamState:
    """Learning rate, step count k and the moments m and v (None before the first step)."""

    lr: float
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    step_count: int = 0


def adam_step(state: AdamState, x: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns (x_next, state_next)."""
    grad = require_shape(grad, x.shape, "grad")
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite gradient passed to adam_step")
    m = np.zeros(x.shape) if state.m is None else state.m
    v = np.zeros(x.shape) if state.v is None else state.v
    k = state.step_count + 1
    # The docstring's formula one operation at a time, in its order, so the
    # bits are the formula's; the inputs are read, never written.
    m = np.multiply(BETA1, m)
    step = np.multiply(1.0 - BETA1, grad)
    m += step
    v = np.multiply(BETA2, v)
    np.multiply(1.0 - BETA2, grad, out=step)
    step *= grad
    v += step
    # step is spent, so it now holds sqrt(v̂) + ε
    np.divide(v, 1.0 - BETA2**k, out=step)
    np.sqrt(step, out=step)
    step += EPSILON
    x_next = np.divide(m, 1.0 - BETA1**k)
    x_next *= state.lr
    x_next /= step
    np.subtract(x, x_next, out=x_next)
    return x_next, AdamState(state.lr, m, v, k)

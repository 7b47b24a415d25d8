"""Shared Adam optimizer, central differences and the gradient checker.

Adam is the standard bias-corrected form:

    m ← β1·m + (1−β1)·g          m̂ = m/(1−β1^k)
    v ← β2·v + (1−β2)·g²         v̂ = v/(1−β2^k)
    x ← x − lr·m̂/(sqrt(v̂) + ε)

`AdamState` holds lr, the step count k and m and v, shaped like x (any
shape). `adam_step` returns a new state and leaves its inputs untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, require_shape

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
_CENTRAL_STEP = float(np.finfo(np.float64).eps ** (1.0 / 3.0))


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


def central_difference(f: Callable[[np.ndarray], float], x: np.ndarray) -> np.ndarray:
    """Central-difference gradient of the scalar function f at x, shaped like x.

    Coordinate i steps by h_i = h·(1+|x_i|). The relative step h = eps^(1/3)
    ≈ 6.06e-6 (float64) balances the two error terms of a central difference:
    truncation, which grows as h², and round-off, which grows as |f|·eps/h. A
    smaller step lets round-off dominate. A floor remains at any step:
    round-off alone adds a relative error of up to about |f|·eps^(2/3)/|g_i|,
    with eps^(2/3) ≈ 3.7e-11.
    """
    x = np.asarray(x, dtype=np.float64)
    flat = x.ravel()
    out = np.empty(flat.size)
    for i in range(flat.size):
        h = _CENTRAL_STEP * (1.0 + abs(flat[i]))
        xp = flat.copy()
        xm = flat.copy()
        xp[i] += h
        xm[i] -= h
        out[i] = (f(xp.reshape(x.shape)) - f(xm.reshape(x.shape))) / (2.0 * h)
    return out.reshape(x.shape)


def gradient_check(f: Callable[[np.ndarray], float], grad_f: np.ndarray, x: np.ndarray) -> float:
    """Max relative error of grad_f against `central_difference(f, x)`.

    The relative error uses the finite-difference value as reference with an
    absolute floor of 1e-12. On a coordinate where |g_i| is much smaller than
    |f|·eps^(2/3) it is dominated by the differences' round-off rather than by
    a fault in grad_f. A non-finite entry of grad_f or of the differences
    raises DivergenceError naming its first coordinate.
    """
    x = np.asarray(x, dtype=np.float64)
    grad_f = require_shape(grad_f, x.shape, "grad_f").ravel()
    bad = np.flatnonzero(~np.isfinite(grad_f))
    if bad.size:
        raise DivergenceError(f"non-finite gradient under check at coordinate {bad[0]}")
    fd = central_difference(f, x).ravel()
    bad = np.flatnonzero(~np.isfinite(fd))
    if bad.size:
        raise DivergenceError(
            f"non-finite evaluation during gradient check at coordinate {bad[0]}")
    return float(np.max(np.abs(grad_f - fd) / np.maximum(np.abs(fd), 1e-12), initial=0.0))

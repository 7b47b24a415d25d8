"""Shared Adam optimizer, central differences and the gradient checker.

Adam is the standard bias-corrected form:

    m ← β1·m + (1−β1)·g          m̂ = m/(1−β1^k)
    v ← β2·v + (1−β2)·g²         v̂ = v/(1−β2^k)
    x ← x − lr·m̂/(sqrt(v̂) + ε)
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DivergenceError, InvalidInputError

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
_CENTRAL_STEP = float(np.finfo(np.float64).eps ** (1.0 / 3.0))


@dataclass(frozen=True, init=False)
class AdamState:
    """Learning rate, step count and both moments.

    m and v are the rows of one (2, …) array, `moments`, so adam_step updates
    both with one operation per stage of the formula. `moments` is None
    before the first step.
    """

    lr: float
    moments: np.ndarray | None
    step_count: int

    def __init__(self, lr: float, m: np.ndarray | None = None, v: np.ndarray | None = None,
                 step_count: int = 0):
        # m and v come together, or not at all
        _set_fields(self, lr, None if m is None and v is None else np.stack((m, v)), step_count)

    @property
    def m(self) -> np.ndarray | None:
        return None if self.moments is None else self.moments[0]

    @property
    def v(self) -> np.ndarray | None:
        return None if self.moments is None else self.moments[1]


def _set_fields(state: AdamState, lr: float, moments: np.ndarray | None,
                step_count: int) -> AdamState:
    object.__setattr__(state, "lr", lr)
    object.__setattr__(state, "moments", moments)
    object.__setattr__(state, "step_count", step_count)
    return state


@functools.cache
def _rates(ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """(β1, β2) and (1−β1, 1−β2) as read-only columns broadcasting over (2, …) moments."""
    rates = np.array([[BETA1, 1.0 - BETA1], [BETA2, 1.0 - BETA2]]).reshape((2, 2) + (1,) * ndim)
    rates.setflags(write=False)
    return rates[:, 0], rates[:, 1]


def adam_step(state: AdamState, x: np.ndarray, grad: np.ndarray) -> tuple[np.ndarray, AdamState]:
    """One bias-corrected Adam update; returns (x_next, state_next)."""
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != x.shape:
        raise InvalidInputError(
            f"grad shape {grad.shape} does not match x shape {x.shape}"
        )
    if not np.isfinite(grad).all():
        raise DivergenceError("non-finite gradient passed to adam_step")
    moments = state.moments if state.moments is not None else np.zeros((2,) + x.shape)
    k = state.step_count + 1
    # The docstring's formula one operation at a time, in its order, so the
    # bits are the formula's. m and v share each operation as rows of one
    # array: β·(m, v) + (1−β)·(g, g), with the second row's term times g.
    decay, gain = _rates(x.ndim)
    step = np.multiply(gain, grad)
    v_step = step[1]
    v_step *= grad
    moments_next = np.multiply(decay, moments)
    moments_next += step
    # step is spent, so its first row holds sqrt(v̂) + ε; x_next is the only
    # other new array
    denom = step[0]
    np.divide(moments_next[1], 1.0 - BETA2**k, out=denom)
    np.sqrt(denom, out=denom)
    denom += EPSILON
    x_next = np.divide(moments_next[0], 1.0 - BETA1**k)
    x_next *= state.lr
    x_next /= denom
    np.subtract(x, x_next, out=x_next)
    # _set_fields on a bare instance skips the constructor's stacking
    return x_next, _set_fields(object.__new__(AdamState), state.lr, moments_next, k)


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
    a fault in grad_f.
    """
    x = np.asarray(x, dtype=np.float64)
    grad_f = np.asarray(grad_f, dtype=np.float64)
    if grad_f.shape != x.shape:
        raise InvalidInputError(
            f"gradient shape {grad_f.shape} does not match probe shape {x.shape}"
        )
    fd = central_difference(f, x).ravel()
    bad = np.flatnonzero(~np.isfinite(fd))
    if bad.size:
        raise DivergenceError(
            f"non-finite evaluation during gradient check at coordinate {bad[0]}")
    worst = 0.0
    for g, d in zip(grad_f.ravel(), fd):
        worst = max(worst, abs(g - d) / max(abs(d), 1e-12))
    return float(worst)

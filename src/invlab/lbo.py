"""Per-step latent bias optimization for inverting deterministic sampling.

One generation transition maps z_t to z_prev = φ·z_t + ψ·F(z_t, t).
Inverting the transition exactly means solving a fixed-point problem in z_t;
the plain reverse step approximates F at the wrong point. Here the unknown is the
bias b = z_t − z_prev, and its residual r(b) = generate(z_prev + b) − z_prev is
zero exactly when (z_prev, z_prev + b) is a generation pair. Three refinement
modes drive r to zero:

  numerical  fixed-point sweep b ← b − r(b)
  gradient   Adam on J(b) = mean|r(b)|
  hybrid     the gradient mode's first five iterations, then sweeps

All modes start from the one-shot inversion bias and share one loop in
`lbo_invert_step`: its first iterations are Adam steps (all of them in
gradient mode, five in hybrid mode, none in numerical mode) and the rest are
sweeps. Every iteration returns ‖r‖∞ at the iterate it started from, and the
loop stops on that one number in every mode; one more evaluation after the
loop measures ‖r‖∞ at the iterate the step returns, and the step reports that.
Every step function takes the transition as its `StepCoefficients`, as the
DDIM steps do; `lbo_invert_trajectory` looks them up once per transition.
Both modes write r as `co.generate(z, eps) - z_prev`; the gradient objective
applies `generate` to the pulled-back cotangents too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .denoiser import DenoiserInterface
from .dynamics import INVERSION, Trajectory, ddim_invert_step, walk
from .errors import DivergenceError, check_fields, require
from .optim import AdamState, adam_step
from .schedule import NoiseSchedule, StepCoefficients, TimestepGrid, coefficients

# mode -> (default max_iters, how many of a step's first iterations are Adam steps; the
# rest are sweeps)
_MODES = {"numerical": (15, 0), "gradient": (20, math.inf), "hybrid": (15, 5)}


@dataclass(frozen=True)
class LboConfig:
    mode: str = "numerical"
    max_iters: Optional[int] = None
    tol: float = 1e-8
    lr: float = 1e-3

    def __post_init__(self):
        check_fields(self)
        names = tuple(_MODES)
        require(self.mode in names, "mode", self.mode, f"one of {names}")
        if self.max_iters is None:
            object.__setattr__(self, "max_iters", _MODES[self.mode][0])
        require(self.max_iters >= 0, "max_iters", self.max_iters, "an integer >= 0")
        require(0.0 < self.tol < math.inf, "tol", self.tol, "finite and > 0")
        require(0.0 < self.lr < math.inf, "lr", self.lr, "finite and > 0")


@dataclass(frozen=True)
class LboStepReport:
    """One inverted step. `residual` is ‖r(b)‖∞, r(b) = generate(z_prev + b) − z_prev, at the
    returned z_t = z_prev + b, in every mode; inf with a zero budget. `converged` is
    residual < tol, which a step whose budget ran out can also reach. `iters` counts the
    sweeps and Adam steps, not the final evaluation."""

    t: int
    iters: int
    residual: float
    converged: bool


def lbo_numerical_iterate(model: DenoiserInterface, co: StepCoefficients, z_prev: np.ndarray,
                          b: np.ndarray) -> tuple[np.ndarray, float]:
    """One fixed-point sweep b ← b − r(b); returns (b − r, ‖r‖∞), r the residual at b.

    A fixed point b* has r(b*) = 0: (z_prev, z_prev + b*) is an exact generation pair.
    """
    z = z_prev + b
    r = co.generate(z, model.eval(z, co.t)) - z_prev
    residual = float(np.abs(r).max())  # a NaN or ±inf anywhere in r reaches the max
    if not math.isfinite(residual):
        raise DivergenceError("numerical sweep produced non-finite bias", t=co.t)
    return b - r, residual


def objective_and_grad(model: DenoiserInterface, co: StepCoefficients, z_prev: np.ndarray,
                       b: np.ndarray) -> tuple[float, np.ndarray, float]:
    """J(b) = mean|r(b)|, its exact gradient and ‖r(b)‖∞.

    r(b) = generate(z_prev + b) − z_prev, so the chain rule only passes through
    one denoiser evaluation.
    """
    z = z_prev + b
    eps, pullback = model.linearize(z, co.t)
    r = co.generate(z, eps) - z_prev
    s = np.sign(r)
    grad = co.generate(s, pullback(s)) / r.size
    a = np.abs(r)
    # add.reduce / size is np.mean's own arithmetic without its dispatch
    return float(np.add.reduce(a) / r.size), grad, float(a.max())


def lbo_gradient_iterate(model: DenoiserInterface, co: StepCoefficients, z_prev: np.ndarray,
                         b: np.ndarray, state: AdamState) -> tuple[np.ndarray, AdamState, float]:
    """One Adam step on J(b); returns (b_next, state, ‖r‖∞ at the pre-step b)."""
    _, grad, residual = objective_and_grad(model, co, z_prev, b)
    if not math.isfinite(residual):  # a NaN or ±inf anywhere in r reaches the max
        raise DivergenceError("gradient objective became non-finite", t=co.t)
    b_next, state = adam_step(state, b, grad)
    return b_next, state, residual


def lbo_invert_step(model: DenoiserInterface, co: StepCoefficients, z_prev: np.ndarray,
                    cfg: LboConfig = LboConfig()) -> tuple[np.ndarray, LboStepReport]:
    """Invert one transition co.t_prev -> co.t; returns (z_t, step report).

    With max_iters=0 this returns the unrefined one-shot inversion unchanged.
    The one-shot start, every iteration and the evaluation at the returned z_t share co.
    A non-finite residual is a DivergenceError naming co.t and, inside the loop, the
    iteration; at the returned z_t it names the iterations run, `iters`.
    """
    y0 = ddim_invert_step(model, co, z_prev)
    if cfg.max_iters == 0:
        return y0, LboStepReport(t=co.t, iters=0, residual=float("inf"), converged=False)
    b = y0 - z_prev
    n_adam = _MODES[cfg.mode][1]
    state = AdamState(lr=cfg.lr)
    residual = math.inf
    k = 0
    try:
        while k < cfg.max_iters and residual >= cfg.tol:
            k += 1
            if k <= n_adam:
                b, state, residual = lbo_gradient_iterate(model, co, z_prev, b, state)
            else:
                b, residual = lbo_numerical_iterate(model, co, z_prev, b)
    except DivergenceError as e:
        raise DivergenceError(str(e), t=co.t, iteration=k) from None
    # the report describes the z_t returned, not the iterate the last iteration started from
    z_t = z_prev + b
    residual = float(np.abs(co.generate(z_t, model.eval(z_t, co.t)) - z_prev).max())
    if not math.isfinite(residual):
        raise DivergenceError("residual at the returned z_t is non-finite", t=co.t, iters=k)
    return z_t, LboStepReport(t=co.t, iters=k, residual=residual, converged=residual < cfg.tol)


def lbo_invert_trajectory(model: DenoiserInterface, sched: NoiseSchedule, grid: TimestepGrid,
                          z_0: np.ndarray, cfg: LboConfig = LboConfig()
                          ) -> tuple[Trajectory, list[LboStepReport]]:
    """Run refined inversion across the whole grid, from data to noise."""
    reports = []

    def step(z, t_prev, t):
        z_t, report = lbo_invert_step(model, coefficients(sched, t, t_prev), z, cfg)
        reports.append(report)
        return z_t
    return walk(grid, z_0, INVERSION, step), reports

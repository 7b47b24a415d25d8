"""Per-step latent bias optimization for inverting deterministic sampling.

One generation transition maps z_t to z_prev = φ·z_t + ψ·F(z_t, t, c).
Inverting the transition exactly means solving a fixed-point problem in z_t;
the plain reverse step approximates F at the wrong point. Here the unknown is the
bias b = z_t − z_prev and three refinement modes are offered:

  numerical  fixed-point iteration b ← bias_target(z_prev + b)
  gradient   Adam on J(b) = mean|b − bias_target(z_prev + b)|
  hybrid     a few gradient steps to settle into the basin, then numerical

All modes start from the one-shot inversion bias and report per-step
iteration counts and residuals. They share one loop in `lbo_invert_step`:
its first iterations are Adam steps (all of them in gradient mode, the
warm-up in hybrid mode, none in numerical mode) and the rest are sweeps. The
per-iteration functions take the transition as its `StepCoefficients`;
`lbo_invert_step` looks the coefficients up once per step. The gradient objective
applies their `generate` to (z, F(z)) and to the pulled-back cotangents.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .denoiser import Condition, DenoiserInterface
from .dynamics import INVERSION, Trajectory, ddim_invert_step, generate_step, walk
from .errors import DivergenceError, is_int, require
from .optim import AdamState, adam_step
from .schedule import NoiseSchedule, StepCoefficients, TimestepGrid, coefficients

_MODES = ("numerical", "gradient", "hybrid")
_DEFAULT_ITERS = {"numerical": 15, "gradient": 20, "hybrid": 15}


@dataclass(frozen=True)
class LboConfig:
    mode: str = "numerical"
    max_iters: Optional[int] = None
    tol: float = 1e-8
    lr: float = 1e-3
    n_grad_warmup: int = 5

    def __post_init__(self):
        require(self.mode in _MODES, "mode", self.mode, f"one of {_MODES}")
        if self.max_iters is None:
            object.__setattr__(self, "max_iters", _DEFAULT_ITERS[self.mode])
        require(is_int(self.max_iters) and self.max_iters >= 0, "max_iters", self.max_iters,
                "an integer >= 0")
        require(self.tol > 0, "tol", self.tol, "> 0")  # NaN fails too
        require(self.lr > 0, "lr", self.lr, "> 0")
        require(is_int(self.n_grad_warmup) and self.n_grad_warmup >= 0, "n_grad_warmup",
                self.n_grad_warmup, "an integer >= 0")


@dataclass(frozen=True)
class LboStepReport:
    t: int
    iters: int
    residual: float
    converged: bool

    def to_json_dict(self) -> dict:
        return {"t": self.t, "iters": self.iters, "residual": self.residual, "converged": self.converged}


def bias_target(model: DenoiserInterface, co: StepCoefficients, z: np.ndarray,
                c: Condition) -> np.ndarray:
    """Bias that candidate z would need to be self-consistent: z − generate(z).

    At the true preimage, generate_step lands exactly on z_prev and the
    returned value equals z − z_prev.
    """
    return z - generate_step(model, co, z, c)


def lbo_numerical_iterate(model: DenoiserInterface, co: StepCoefficients, z_prev: np.ndarray,
                          c: Condition, b: np.ndarray) -> np.ndarray:
    """One fixed-point sweep b ← bias_target(z_prev + b).

    A fixed point b* makes (z_prev, z_prev + b*) an exact generation pair.
    """
    b_next = bias_target(model, co, z_prev + b, c)
    if not np.isfinite(b_next).all():
        raise DivergenceError("numerical sweep produced non-finite bias", t=co.t)
    return b_next


def objective_and_grad(model: DenoiserInterface, co: StepCoefficients, z_prev: np.ndarray,
                       c: Condition, b: np.ndarray) -> tuple[float, np.ndarray]:
    """J(b) = mean|G(z_prev+b) − z_prev| and its exact gradient.

    b − bias_target(z_prev + b) telescopes to generate_step(z_prev+b) − z_prev,
    so the chain rule only passes through one denoiser evaluation.
    """
    z = z_prev + b
    eps, pullback = model.linearize(z, co.t, c)
    r = co.generate(z, eps) - z_prev
    s = np.sign(r)
    grad = co.generate(s, pullback(s)) / r.size
    # add.reduce / size is np.mean's own arithmetic without its dispatch
    return float(np.add.reduce(np.abs(r)) / r.size), grad


def lbo_gradient_iterate(model: DenoiserInterface, co: StepCoefficients,
                         z_prev: np.ndarray, c: Condition, b: np.ndarray,
                         state: AdamState) -> tuple[np.ndarray, AdamState, float]:
    """One Adam step on J(b); returns (b_next, state, J at the pre-step b)."""
    value, grad = objective_and_grad(model, co, z_prev, c, b)
    if not math.isfinite(value):
        raise DivergenceError("gradient objective became non-finite", t=co.t)
    b_next, state = adam_step(state, b, grad)
    return b_next, state, value


def lbo_invert_step(model: DenoiserInterface, sched: NoiseSchedule, z_prev: np.ndarray,
                    t_prev: int, t: int, c: Condition,
                    cfg: LboConfig = LboConfig()) -> tuple[np.ndarray, LboStepReport]:
    """Invert one transition; returns (z_t, step report).

    With max_iters=0 this returns the unrefined one-shot inversion unchanged.
    The step coefficients are looked up once and shared by the one-shot start
    and every iteration.
    """
    co = coefficients(sched, t, t_prev)
    y0 = ddim_invert_step(model, co, z_prev, c)
    if cfg.max_iters == 0:
        return y0, LboStepReport(t=t, iters=0, residual=float("inf"), converged=False)
    b = y0 - z_prev
    n_adam = {"gradient": cfg.max_iters,
              "hybrid": min(cfg.n_grad_warmup, cfg.max_iters)}.get(cfg.mode, 0)
    state = AdamState(lr=cfg.lr)
    residual = float("inf")  # hybrid's warm-up leaves it here
    k = 0
    while k < cfg.max_iters and residual >= cfg.tol:
        k += 1
        try:
            if k <= n_adam:
                b, state, value = lbo_gradient_iterate(model, co, z_prev, c, b, state)
                if cfg.mode == "gradient":
                    residual = value
            else:
                b_next = lbo_numerical_iterate(model, co, z_prev, c, b)
                residual = float(np.abs(b_next - b).max())
                b = b_next
        except DivergenceError as e:
            raise DivergenceError(str(e), t=t, iteration=k) from None
    return z_prev + b, LboStepReport(
        t=t, iters=k, residual=residual, converged=residual < cfg.tol)


def lbo_invert_trajectory(model: DenoiserInterface, sched: NoiseSchedule,
                          grid: TimestepGrid, z_0: np.ndarray, c: Condition,
                          cfg: LboConfig = LboConfig()
                          ) -> tuple[Trajectory, list[LboStepReport]]:
    """Run refined inversion across the whole grid, from data to noise."""
    reports = []

    def step(z, t_prev, t):
        z_t, report = lbo_invert_step(model, sched, z, t_prev, t, c, cfg)
        reports.append(report)
        return z_t
    return walk(grid, z_0, INVERSION, step), reports

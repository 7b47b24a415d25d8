"""Image latent boosting: refine z_0 so decoding and re-noising agree.

The image latent is the handoff point between pixel space and the diffusion
trajectory, so it gets optimized on two fronts at once: a consistency loss
(L1 − SSIM + perceptual, weighted) between the source image and D(z_0), and a
round-trip regularizer mean|z_0 − z0_rt| where z0_rt runs z_0 up to a small
timestep δt and straight back through the same model, the skip's
`StepCoefficients.invert` then its `.generate`. The regularizer takes those
coefficients as one `StepCoefficients`, looked up once per run. Adam drives the
sum; the best iterate seen wins, not the last one. `ilb_loss_and_grad` gives
both losses, their total and its gradient at one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autoencoder import LinearAutoencoder
from .denoiser import Condition, DenoiserInterface
from .errors import DivergenceError, is_int, require
from .metrics import ssim_with_grad
from .optim import AdamState, adam_step
from .perceptual import RandomConvPerceptual
from .schedule import NoiseSchedule, skip_coefficients

_STALL_LIMIT = 5
TRACE_COLUMNS = ("iter", "l_con", "l_reg", "total")


@dataclass(frozen=True)
class IlbConfig:
    lr: float = 0.1
    max_iters: int = 100
    rel_tol: float = 1e-5
    dt: Optional[int] = None
    use_reg: bool = True
    weights: tuple[float, ...] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        require(0.0 < self.lr < math.inf, "lr", self.lr, "finite and > 0")
        require(is_int(self.max_iters) and self.max_iters >= 1, "max_iters", self.max_iters,
                "an integer >= 1")
        require(0.0 < self.rel_tol < math.inf, "rel_tol", self.rel_tol, "finite and > 0")
        # its range needs the schedule: RunConfig checks it, skip_coefficients at use
        require(self.dt is None or is_int(self.dt), "dt", self.dt, "None or an integer")
        require(len(self.weights) == 3 and all(0.0 <= w < math.inf for w in self.weights),
                "weights", self.weights, "three finite reals >= 0")


@dataclass(frozen=True)
class IlbReport:
    iters_used: int
    initial_con: float
    initial_reg: float
    initial_total: float
    final_con: float
    final_reg: float
    final_total: float
    trace: tuple  # rows of TRACE_COLUMNS


def _con_value_and_grad(x0, z, ae, perc_ref, weights):
    # perc_ref is perc.reference(x0): y ↦ (perc.distance(x0, y), ∂/∂y)
    w1, w2, w3 = weights
    xh = ae.decode(z)
    r = x0 - xh
    value = w1 * float(np.mean(np.abs(r)))
    gx = w1 * (-np.sign(r)) / r.size
    if w2 != 0.0:
        s_val, s_grad = ssim_with_grad(x0, xh)
        value -= w2 * s_val
        gx -= w2 * s_grad
    if w3 != 0.0:
        p_val, p_grad = perc_ref(xh)
        value += w3 * p_val
        gx += w3 * p_grad
    return value, ae.decoder_vjp(z, gx)


def _reg_value_and_grad(model, co, z, c):
    # co: the 0 -> δt skip; z goes up to δt and straight back, both legs through F(·, δt)
    eps, back = model.linearize(z, co.t, c)
    z_dt = co.invert(z, eps)
    eps_dt, back_dt = model.linearize(z_dt, co.t, c)
    r = z - co.generate(z_dt, eps_dt)
    value = float(np.mean(np.abs(r)))
    s = np.sign(r) / r.size
    # chain through both legs: each is linear in (z, eps), so it is its own pullback
    u = co.generate(s, back_dt(s))
    grad = s - co.invert(u, back(u))
    return value, grad


def ilb_loss_and_grad(x0: np.ndarray, z0: np.ndarray, ae: LinearAutoencoder,
                      model: DenoiserInterface, sched: NoiseSchedule,
                      perc: RandomConvPerceptual, cfg: IlbConfig,
                      c: Condition) -> tuple[float, float, float, np.ndarray]:
    """(l_con, l_reg, total, ∇_{z0} total) at one point of the boosting objective.

    The regularizer is always evaluated; with use_reg=False it is excluded
    from the total and its gradient.
    """
    skip = skip_coefficients(sched, cfg.dt)
    return _loss_and_grad(x0, z0, ae, model, skip, perc.reference(x0), cfg, c)


def _loss_and_grad(x0, z0, ae, model, skip, perc_ref, cfg, c):
    l_con, g_con = _con_value_and_grad(x0, z0, ae, perc_ref, cfg.weights)
    l_reg, g_reg = _reg_value_and_grad(model, skip, z0, c)
    if cfg.use_reg:
        return l_con, l_reg, l_con + l_reg, g_con + g_reg
    return l_con, l_reg, l_con, g_con


def ilb_optimize(x0: np.ndarray, ae: LinearAutoencoder, model: DenoiserInterface,
                 sched: NoiseSchedule, perc: RandomConvPerceptual,
                 cfg: IlbConfig, c: Condition) -> tuple[np.ndarray, IlbReport]:
    """Adam refinement of encode(x0); returns the lowest-loss iterate.

    The regularizer is always evaluated for reporting; with use_reg=False it
    stays out of the optimized total. Trace rows hold TRACE_COLUMNS for
    iterations 1..iters_used, one per gradient step; the row's
    losses are measured at the post-step point. Early stop after 5 consecutive
    steps of relative improvement below rel_tol.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    require(np.all((x0 >= 0.0) & (x0 <= 1.0)), "x0",  # NaN fails both
            f"pixels in [{x0.min()}, {x0.max()}]", "pixels in [0, 1]")
    skip = skip_coefficients(sched, cfg.dt)  # refuses an unset or out-of-range dt by name

    z = ae.encode(x0)
    perc_ref = perc.reference(x0)  # x0's share of the perceptual metric, once per run

    def evaluate(z):
        return _loss_and_grad(x0, z, ae, model, skip, perc_ref, cfg, c)

    l_con, l_reg, total, grad = evaluate(z)
    if not np.isfinite(total):
        raise DivergenceError("non-finite loss at the initial point", iteration=0)
    initial = (l_con, l_reg, total)
    best = (total, z.copy(), l_con, l_reg)
    state = AdamState(lr=cfg.lr)
    trace = []
    prev = total
    stall = 0
    for i in range(1, cfg.max_iters + 1):
        z, state = adam_step(state, z, grad)
        l_con, l_reg, total, grad = evaluate(z)
        if not np.isfinite(total):
            raise DivergenceError("non-finite loss", iteration=i)
        trace.append((i, l_con, l_reg, total))
        if total < best[0]:
            best = (total, z.copy(), l_con, l_reg)
        rel = (prev - total) / max(abs(prev), 1e-12)
        stall = stall + 1 if rel < cfg.rel_tol else 0
        prev = total
        if stall >= _STALL_LIMIT:
            break
    report = IlbReport(
        iters_used=len(trace),
        initial_con=initial[0], initial_reg=initial[1], initial_total=initial[2],
        final_con=best[2], final_reg=best[3], final_total=best[0],
        trace=tuple(trace),
    )
    return best[1], report

"""Image latent boosting: refine z_0 so decoding and re-noising agree.

The image latent is the handoff point between pixel space and the diffusion
trajectory, so it gets optimized on two fronts at once: a consistency loss
(L1 − SSIM + perceptual, weighted) between the source image and D(z_0), and a
round-trip regularizer mean|z_0 − z0_rt| where z0_rt runs z_0 up to a small
timestep δt and straight back under the same guided prediction. Adam drives
the sum; the best iterate seen wins, not the last one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .autoencoder import AutoencoderInterface
from .denoiser import Condition, DenoiserInterface, cfg_linearize
from .dynamics import ddim_invert_step, generate_step
from .errors import BoundsError, DivergenceError, InvalidParameterError, require
from .metrics import PerceptualMetricInterface, ssim_with_grad
from .optim import AdamState, adam_step
from .schedule import NoiseSchedule, skip_coefficients

_STALL_LIMIT = 5


@dataclass(frozen=True)
class IlbConfig:
    lr: float = 0.1
    max_iters: int = 100
    rel_tol: float = 1e-5
    dt: Optional[int] = None
    use_reg: bool = True
    weights: tuple[float, ...] = (1.0, 1.0, 1.0)

    def __post_init__(self):
        require(self.lr > 0, "lr", self.lr, "> 0")  # NaN fails too
        # type(...) is int: bool passes isinstance(..., int)
        require(type(self.max_iters) is int and self.max_iters >= 1, "max_iters",
                self.max_iters, "an int >= 1")
        require(self.rel_tol > 0, "rel_tol", self.rel_tol, "> 0")
        # its range needs the schedule: RunConfig checks it, skip_coefficients at use
        require(self.dt is None or type(self.dt) is int, "dt", self.dt, "None or an int")
        require(len(self.weights) == 3 and all(w >= 0 for w in self.weights), "weights",
                self.weights, "three non-negative reals")


@dataclass(frozen=True)
class IlbReport:
    iters_used: int
    initial_con: float
    initial_reg: float
    initial_total: float
    final_con: float
    final_reg: float
    final_total: float
    trace: tuple

    def to_json_dict(self) -> dict:
        return {
            "iters_used": self.iters_used,
            "initial_con": self.initial_con,
            "initial_reg": self.initial_reg,
            "initial_total": self.initial_total,
            "final_con": self.final_con,
            "final_reg": self.final_reg,
            "final_total": self.final_total,
            "trace": [
                {"iter": it, "l_con": lc, "l_reg": lr_, "total": tot}
                for it, lc, lr_, tot in self.trace
            ],
        }


def consistency_loss(x0: np.ndarray, z0: np.ndarray, ae: AutoencoderInterface,
                     perc: PerceptualMetricInterface, weights: tuple = (1.0, 1.0, 1.0)) -> float:
    """w_l1·mean|x0 − D(z0)| − w_ssim·SSIM(x0, D(z0)) + w_perc·perc(x0, D(z0))."""
    x0 = np.asarray(x0, dtype=np.float64)
    return _con_value_and_grad(x0, z0, ae, perc.reference(x0), weights)[0]


def skip_roundtrip(model: DenoiserInterface, sched: NoiseSchedule, z0: np.ndarray,
                   dt: int, c: Condition) -> np.ndarray:
    """Jump z0 up to timestep δt and straight back, both legs through F̂(·, δt)."""
    co = skip_coefficients(sched, dt)
    return generate_step(model, co, ddim_invert_step(model, co, z0, c), c)


def regularization_loss(model: DenoiserInterface, sched: NoiseSchedule, z0: np.ndarray,
                        dt: int, c: Condition) -> float:
    """mean|z0 − skip_roundtrip(z0)|; zero when the round trip is exact."""
    return _reg_value_and_grad(model, sched, np.asarray(z0, dtype=np.float64), dt, c)[0]


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


def _reg_value_and_grad(model, sched, z, dt, c):
    co = skip_coefficients(sched, dt)
    eps, back = cfg_linearize(model, z, dt, c)
    z_dt = (1.0 / co.phi) * z - (co.psi / co.phi) * eps
    eps_dt, back_dt = cfg_linearize(model, z_dt, dt, c)
    z_rt = co.phi * z_dt + co.psi * eps_dt
    r = z - z_rt
    value = float(np.mean(np.abs(r)))
    s = np.sign(r) / r.size
    # chain through both guided predictions of the round trip
    u = co.phi * s + co.psi * back_dt(s)
    grad = s - ((1.0 / co.phi) * u - (co.psi / co.phi) * back(u))
    return value, grad


def ilb_loss_and_grad(x0: np.ndarray, z0: np.ndarray, ae: AutoencoderInterface,
                      model: DenoiserInterface, sched: NoiseSchedule,
                      perc: PerceptualMetricInterface, cfg: IlbConfig,
                      c: Condition) -> tuple[float, float, float, np.ndarray]:
    """(l_con, l_reg, total, ∇_{z0} total) at one point of the boosting objective.

    The regularizer is always evaluated; with use_reg=False it is excluded
    from the total and its gradient.
    """
    return _loss_and_grad(x0, z0, ae, model, sched, perc.reference(x0), cfg, c)


def _loss_and_grad(x0, z0, ae, model, sched, perc_ref, cfg, c):
    l_con, g_con = _con_value_and_grad(x0, z0, ae, perc_ref, cfg.weights)
    l_reg, g_reg = _reg_value_and_grad(model, sched, z0, cfg.dt, c)
    if cfg.use_reg:
        return l_con, l_reg, l_con + l_reg, g_con + g_reg
    return l_con, l_reg, l_con, g_con


def ilb_optimize(x0: np.ndarray, ae: AutoencoderInterface, model: DenoiserInterface,
                 sched: NoiseSchedule, perc: PerceptualMetricInterface,
                 cfg: IlbConfig, c: Condition) -> tuple[np.ndarray, IlbReport]:
    """Adam refinement of encode(x0); returns the lowest-loss iterate.

    The regularizer is always evaluated for reporting; with use_reg=False it
    stays out of the optimized total. Trace rows are (iter, l_con, l_reg,
    total) for iterations 1..iters_used, one per gradient step; the row's
    losses are measured at the post-step point. Early stop after 5 consecutive
    steps of relative improvement below rel_tol.
    """
    x0 = np.asarray(x0, dtype=np.float64)
    if not np.all((x0 >= 0.0) & (x0 <= 1.0)):  # NaN fails both
        raise BoundsError(f"x0 must lie in [0, 1], got range [{x0.min()}, {x0.max()}]")
    if cfg.dt is None:
        raise InvalidParameterError("cfg.dt must be set (one inference-grid stride)")

    z = ae.encode(x0)
    perc_ref = perc.reference(x0)  # x0's share of the perceptual metric, once per run

    def evaluate(z):
        return _loss_and_grad(x0, z, ae, model, sched, perc_ref, cfg, c)

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

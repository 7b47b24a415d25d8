"""Noise schedules and per-step coefficients of the deterministic sampler.

A schedule is the sequence β_1..β_T with cumulative products
ᾱ_t = ∏_{s≤t}(1−β_s) and the convention ᾱ_0 = 1 (empty product). Every
transition of the sampler/inverter is governed by

    φ_t   = sqrt(ᾱ_{t_prev}/ᾱ_t)
    ψ_t   = sqrt(1−ᾱ_{t_prev}) − sqrt((1−ᾱ_t)·ᾱ_{t_prev}/ᾱ_t)

where (t_prev, t) is a grid-adjacent pair of the strided inference grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BoundsError, InvalidParameterError, OrderingError, require


@dataclass(frozen=True)
class NoiseSchedule:
    """β_t sequence, from which ᾱ_t and t_train derive; immutable after build.

    betas[i] is β_{i+1}, alpha_bars[i] is ᾱ_{i+1} (timesteps are 1-based) and
    t_train is the number of betas; ᾱ_0 = 1 is available through :meth:`alpha_bar`.
    """

    betas: np.ndarray
    alpha_bars: np.ndarray = field(init=False)
    t_train: int = field(init=False)

    def __post_init__(self):
        # a schedule read from a model file has had none of make_linear_schedule's checks
        require(self.betas.ndim == 1 and self.betas.size >= 1, "betas", self.betas.shape,
                "one per timestep, at least one")
        require(bool(np.all((self.betas > 0.0) & (self.betas < 1.0))), "betas",
                (float(self.betas.min()), float(self.betas.max())), "in (0, 1)")
        self.betas.setflags(write=False)
        alpha_bars = np.cumprod(1.0 - self.betas)
        alpha_bars.setflags(write=False)
        object.__setattr__(self, "alpha_bars", alpha_bars)
        object.__setattr__(self, "t_train", self.betas.size)

    def _check_t(self, t: int) -> None:
        if not 1 <= t <= self.t_train:
            raise BoundsError(f"timestep {t} outside [1, {self.t_train}]", t=t, t_train=self.t_train)

    def beta(self, t: int) -> float:
        self._check_t(t)
        return float(self.betas[t - 1])

    def alpha_bar(self, t: int) -> float:
        if t == 0:
            return 1.0
        self._check_t(t)
        return float(self.alpha_bars[t - 1])


@dataclass(frozen=True)
class StepCoefficients:
    """(φ, ψ) for one grid transition t_prev -> t."""

    phi: float
    psi: float
    t: int
    t_prev: int


@dataclass(frozen=True)
class TimestepGrid:
    """Strictly increasing subsequence of {1..T}; last entry is T."""

    steps: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.steps)

    def transitions(self) -> list[tuple[int, int]]:
        """(t_prev, t) pairs walking the grid upward, starting from t=0."""
        prev = 0
        out = []
        for t in self.steps:
            out.append((prev, t))
            prev = t
        return out


def make_linear_schedule(t_train: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Schedule with β linearly interpolated from beta_start to beta_end."""
    if t_train < 1:
        raise InvalidParameterError(f"t_train must be >= 1, got {t_train}", field="t_train")
    if not (0.0 < beta_start <= beta_end < 1.0):
        raise InvalidParameterError(
            f"need 0 < beta_start <= beta_end < 1, got ({beta_start}, {beta_end})",
            beta_start=beta_start,
            beta_end=beta_end,
            field="beta_end" if 0.0 < beta_start < 1.0 else "beta_start",
        )
    return NoiseSchedule(np.linspace(beta_start, beta_end, t_train, dtype=np.float64))


def coefficients(sched: NoiseSchedule, t: int, t_prev: int) -> StepCoefficients:
    """(φ, ψ) for the transition t_prev -> t."""
    if t_prev >= t:
        raise OrderingError(f"t_prev must be < t, got t_prev={t_prev}, t={t}", t=t, t_prev=t_prev)
    if t_prev < 0:
        raise BoundsError(f"t_prev must be >= 0, got {t_prev}", t_prev=t_prev)
    ab_t = sched.alpha_bar(t)
    ab_p = sched.alpha_bar(t_prev)
    # math.sqrt on Python floats: IEEE sqrt is correctly rounded, as np.sqrt's is
    phi = math.sqrt(ab_p / ab_t)
    psi = math.sqrt(1.0 - ab_p) - math.sqrt((1.0 - ab_t) * ab_p / ab_t)
    return StepCoefficients(phi, psi, t, t_prev)


def skip_coefficients(sched: NoiseSchedule, dt: int) -> StepCoefficients:
    """The coefficients of the direct 0 -> δt jump.

    With ᾱ_0 = 1 these reduce to φ = ᾱ_{δt}^{-1/2}, ψ = −sqrt((1−ᾱ_{δt})/ᾱ_{δt}).
    """
    if not 1 <= dt <= sched.t_train:
        raise BoundsError(f"dt {dt} outside [1, {sched.t_train}]", dt=dt)
    return coefficients(sched, dt, 0)


def make_uniform_grid(sched: NoiseSchedule, s: int) -> TimestepGrid:
    """s evenly strided steps ending at t_train."""
    if not 1 <= s <= sched.t_train:
        raise InvalidParameterError(f"grid size {s} outside [1, {sched.t_train}]",
                                    s=s, t_train=sched.t_train, field="steps")
    steps = tuple(sched.t_train * (k + 1) // s for k in range(s))
    return TimestepGrid(steps=steps)

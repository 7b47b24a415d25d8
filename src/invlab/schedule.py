"""Noise schedules and per-step coefficients of the deterministic sampler.

A schedule is the sequence β_1..β_T with cumulative products
ᾱ_t = ∏_{s≤t}(1−β_s) and the convention ᾱ_0 = 1 (empty product). Every
transition of the sampler/inverter is governed by

    φ_t   = sqrt(ᾱ_{t_prev}/ᾱ_t)
    ψ_t   = sqrt(1−ᾱ_{t_prev}) − sqrt((1−ᾱ_t)·ᾱ_{t_prev}/ᾱ_t)

where (t_prev, t) is a grid-adjacent pair of the strided inference grid. Both
are finite because ᾱ_T is kept a normal float: below that, 1/ᾱ_T overflows.
The transition φ_t·z_t + ψ_t·F(z_t, t) and its inverse are written once, as
`StepCoefficients.generate` and `.invert`; no other module reads φ or ψ.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import is_int, require

ALPHA_BAR_MIN = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class NoiseSchedule:
    """β_t sequence, from which ᾱ_t and t_train derive; immutable after build.

    betas[i] is β_{i+1} (timesteps are 1-based), alpha_bars[t] is ᾱ_t for t = 0..t_train,
    entry 0 being ᾱ_0 = 1, and t_train is the number of betas.
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
        alpha_bars = np.concatenate(([1.0], np.cumprod(1.0 - self.betas)))
        require(alpha_bars[-1] >= ALPHA_BAR_MIN, "betas",
                f"alpha_bar_T = {float(alpha_bars[-1])!r}",
                f"small enough that alpha_bar_T >= {ALPHA_BAR_MIN!r}")
        self.betas.setflags(write=False)
        alpha_bars.setflags(write=False)
        object.__setattr__(self, "alpha_bars", alpha_bars)
        object.__setattr__(self, "t_train", self.betas.size)

    def _check_t(self, t: int) -> None:
        # runs on every denoiser call, so `need` is a constant, not an f-string
        require(is_int(t) and 1 <= t <= self.t_train, "t", t, "an integer in [1, t_train]")

    def alpha_bar(self, t: int) -> float:
        require(is_int(t) and 0 <= t <= self.t_train, "t", t, "an integer in [0, t_train]")
        return float(self.alpha_bars[t])


@dataclass(frozen=True)
class StepCoefficients:
    """(φ, ψ) for one grid transition t_prev -> t, and the transition both ways."""

    phi: float
    psi: float
    t: int
    t_prev: int

    def generate(self, z, eps):
        """φ·z + ψ·eps: the step t -> t_prev, given the prediction eps at z."""
        return self.phi * z + self.psi * eps

    def invert(self, z, eps):
        """(1/φ)·z − (ψ/φ)·eps: the step t_prev -> t, solving generate for z."""
        return (1.0 / self.phi) * z - (self.psi / self.phi) * eps


@dataclass(frozen=True)
class TimestepGrid:
    """Strictly increasing timesteps >= 1, kept as Python ints. `make_uniform_grid` ends one
    at its schedule's t_train; the grid alone does not know T. `timesteps` is the grid with
    the data end, 0, first: every walk along the grid starts or ends there."""

    steps: tuple[int, ...]
    timesteps: tuple[int, ...] = field(init=False, repr=False)

    def __post_init__(self):
        timesteps = (0, *self.steps)  # increasing from 0: every step >= 1
        require(len(timesteps) > 1 and all(map(is_int, self.steps))
                and all(a < b for a, b in zip(timesteps, timesteps[1:])), "steps", self.steps,
                "non-empty integers, strictly increasing and >= 1")
        object.__setattr__(self, "timesteps", tuple(map(int, timesteps)))
        object.__setattr__(self, "steps", self.timesteps[1:])

    def __len__(self) -> int:
        return len(self.steps)

    def transitions(self) -> list[tuple[int, int]]:
        """(t_prev, t) pairs walking the grid upward, starting from t=0."""
        return list(zip(self.timesteps, self.timesteps[1:]))


def make_linear_schedule(t_train: int, beta_start: float, beta_end: float) -> NoiseSchedule:
    """Schedule with β linearly interpolated from beta_start to beta_end."""
    require(is_int(t_train) and t_train >= 1, "t_train", t_train, "an integer >= 1")
    require(0.0 < beta_start < 1.0, "beta_start", beta_start, "in (0, 1)")
    require(beta_start <= beta_end < 1.0, "beta_end", beta_end, f"in [{beta_start!r}, 1)")
    betas = np.linspace(beta_start, beta_end, t_train, dtype=np.float64)
    # NoiseSchedule's ᾱ_T floor, checked here to name the bound that breaks it
    require(np.cumprod(1.0 - betas)[-1] >= ALPHA_BAR_MIN, "beta_end", beta_end,
            f"small enough that alpha_bar_T >= {ALPHA_BAR_MIN!r} over {t_train} steps")
    return NoiseSchedule(betas)


def coefficients(sched: NoiseSchedule, t: int, t_prev: int) -> StepCoefficients:
    """(φ, ψ) for the transition t_prev -> t."""
    sched._check_t(t)  # first, so that the comparison below is between integers
    require(is_int(t_prev) and 0 <= t_prev < t, "t_prev", t_prev, "an integer in [0, t)")
    ab_t = float(sched.alpha_bars[t])
    ab_p = float(sched.alpha_bars[t_prev])
    # math.sqrt on Python floats: IEEE sqrt is correctly rounded, as np.sqrt's is
    phi = math.sqrt(ab_p / ab_t)
    psi = math.sqrt(1.0 - ab_p) - math.sqrt((1.0 - ab_t) * ab_p / ab_t)
    return StepCoefficients(phi, psi, t, t_prev)


def skip_coefficients(sched: NoiseSchedule, dt: int) -> StepCoefficients:
    """The coefficients of the direct 0 -> δt jump.

    With ᾱ_0 = 1 these reduce to φ = ᾱ_{δt}^{-1/2}, ψ = −sqrt((1−ᾱ_{δt})/ᾱ_{δt}).
    """
    require(is_int(dt) and 1 <= dt <= sched.t_train, "dt", dt, "an integer in [1, t_train]")
    return coefficients(sched, dt, 0)


def make_uniform_grid(sched: NoiseSchedule, s: int) -> TimestepGrid:
    """s evenly strided steps ending at t_train."""
    require(is_int(s) and 1 <= s <= sched.t_train, "steps", s,
            f"an integer in [1, t_train = {sched.t_train}]")
    steps = tuple(sched.t_train * (k + 1) // s for k in range(s))
    return TimestepGrid(steps=steps)

"""The deterministic generation / inversion dynamics.

One backward transition on the grid pair (t_prev, t) is

    z_{t_prev} = φ_t·z_t + ψ_t·F(z_t, t)                (generation)
    z_t       = (1/φ_t)·z_{t_prev} − (ψ_t/φ_t)·F(z_{t_prev}, t)   (inversion)

with F the model's prediction. The inversion step evaluates the model at the
*target* timestep t; for a constant model the two maps are exact inverses.

Both steps apply their transition's `StepCoefficients.generate` or `.invert` to
F; only the steps that `generate_trajectory` and `ddim_invert_trajectory` hand to
`walk` look coefficients up, once per transition. `walk` is the one loop along a
grid: every `Trajectory` comes from it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import DenoiserInterface
from .errors import is_int, require
from .schedule import NoiseSchedule, StepCoefficients, TimestepGrid, coefficients

GENERATION = "generation"
INVERSION = "inversion"


@dataclass(frozen=True)
class Trajectory:
    """One sweep's latents, endpoints included, as one read-only array built by `walk`.

    Row k is the latent at timesteps()[k]: timesteps increase for inversion
    sweeps and decrease for generation sweeps, and row 0 is the starting point.
    """

    latents: np.ndarray
    direction: str
    grid: TimestepGrid

    def timesteps(self) -> tuple[int, ...]:
        steps = self.grid.timesteps
        return steps if self.direction == INVERSION else steps[::-1]

    def latent_at(self, t: int) -> np.ndarray:
        steps = self.timesteps()
        require(is_int(t) and t in steps, "t", t, "a timestep on the trajectory")
        return self.latents[steps.index(t)]

    @property
    def end(self) -> np.ndarray:
        return self.latents[-1]

    def to_json_dict(self) -> dict:
        return {
            "direction": self.direction,
            "grid": list(self.grid.steps),
            "entries": [{"t": t, "z": z.tolist()}
                        for t, z in zip(self.timesteps(), self.latents)],
        }


def walk(grid: TimestepGrid, z: np.ndarray, direction: str, step) -> Trajectory:
    """The sweep from z along the grid's transitions (t_prev, t): upward for an
    inversion, downward for a generation. Row 0 is z and row k+1 is
    step(row k, t_prev, t) on the k-th transition walked; step returns a new array.
    """
    require(direction in (GENERATION, INVERSION), "direction", direction,
            f"{GENERATION!r} or {INVERSION!r}")
    transitions = grid.transitions()
    latents = np.empty((len(grid) + 1, *np.shape(z)))
    latents[0] = z
    for k, (t_prev, t) in enumerate(transitions[::-1] if direction == GENERATION else transitions):
        latents[k + 1] = step(latents[k], t_prev, t)
    latents.setflags(write=False)
    return Trajectory(latents, direction, grid)


def generate_step(model: DenoiserInterface, co: StepCoefficients, z_t: np.ndarray) -> np.ndarray:
    """One backward transition co.t -> co.t_prev."""
    z_t = np.asarray(z_t, dtype=np.float64)
    return co.generate(z_t, model.eval(z_t, co.t))


def ddim_invert_step(model: DenoiserInterface, co: StepCoefficients,
                     z_prev: np.ndarray) -> np.ndarray:
    """One inversion transition co.t_prev -> co.t (exact algebraic reversal of
    the deterministic generation step under the adjacent-step approximation)."""
    z_prev = np.asarray(z_prev, dtype=np.float64)
    return co.invert(z_prev, model.eval(z_prev, co.t))


def generate_trajectory(model: DenoiserInterface, sched: NoiseSchedule, grid: TimestepGrid,
                        z_T: np.ndarray) -> Trajectory:
    """Full deterministic sweep from z_T down to z_0 along the grid."""
    return walk(grid, z_T, GENERATION, lambda z, t_prev, t: generate_step(
        model, coefficients(sched, t, t_prev), z))


def ddim_invert_trajectory(model: DenoiserInterface, sched: NoiseSchedule, grid: TimestepGrid,
                           z_0: np.ndarray) -> Trajectory:
    """Full inversion sweep from z_0 up to z_T along the grid."""
    return walk(grid, z_0, INVERSION, lambda z, t_prev, t: ddim_invert_step(
        model, coefficients(sched, t, t_prev), z))

"""The deterministic generation / inversion dynamics.

One backward transition on the grid pair (t_prev, t) is

    z_{t_prev} = φ_t·z_t + ψ_t·F(z_t, t, c)                (generation)
    z_t       = (1/φ_t)·z_{t_prev} − (ψ_t/φ_t)·F(z_{t_prev}, t, c)   (inversion)

with F the model's prediction. The inversion step evaluates the model at the
*target* timestep t; for a constant model the two maps are exact inverses.

Both steps apply their transition's `StepCoefficients.generate` or `.invert` to
F; only the grid walkers look coefficients up, once per transition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .denoiser import Condition, DenoiserInterface
from .errors import is_int, require
from .schedule import NoiseSchedule, StepCoefficients, TimestepGrid, coefficients

GENERATION = "generation"
INVERSION = "inversion"


@dataclass(frozen=True)
class Trajectory:
    """Ordered (timestep, latent) pairs from one sweep, endpoints included.

    Timesteps decrease for generation sweeps and increase for inversion
    sweeps; index 0 is always the sweep's starting point.
    """

    entries: tuple[tuple[int, np.ndarray], ...]
    direction: str
    grid: TimestepGrid

    def timesteps(self) -> tuple[int, ...]:
        return tuple(t for t, _ in self.entries)

    def latent_at(self, t: int) -> np.ndarray:
        steps = self.timesteps()
        require(is_int(t) and t in steps, "t", t, "a timestep on the trajectory")
        return self.entries[steps.index(t)][1]

    @property
    def start(self) -> np.ndarray:
        return self.entries[0][1]

    @property
    def end(self) -> np.ndarray:
        return self.entries[-1][1]

    def to_json_dict(self) -> dict:
        return {
            "direction": self.direction,
            "grid": list(self.grid.steps),
            "entries": [{"t": t, "z": list(map(float, z))} for t, z in self.entries],
        }


def generate_step(model: DenoiserInterface, co: StepCoefficients, z_t: np.ndarray,
                  c: Condition) -> np.ndarray:
    """One backward transition co.t -> co.t_prev."""
    z_t = np.asarray(z_t, dtype=np.float64)
    return co.generate(z_t, model.eval(z_t, co.t, c))


def ddim_invert_step(model: DenoiserInterface, co: StepCoefficients, z_prev: np.ndarray,
                     c: Condition) -> np.ndarray:
    """One inversion transition co.t_prev -> co.t (exact algebraic reversal of
    the deterministic generation step under the adjacent-step approximation)."""
    z_prev = np.asarray(z_prev, dtype=np.float64)
    return co.invert(z_prev, model.eval(z_prev, co.t, c))


def generate_trajectory(
    model: DenoiserInterface,
    sched: NoiseSchedule,
    grid: TimestepGrid,
    z_T: np.ndarray,
    c: Condition,
) -> Trajectory:
    """Full deterministic sweep from z_T down to z_0 along the grid."""
    z = np.asarray(z_T, dtype=np.float64)
    entries = [(grid.steps[-1], z.copy())]
    for t_prev, t in reversed(grid.transitions()):
        z = generate_step(model, coefficients(sched, t, t_prev), z, c)
        entries.append((t_prev, z.copy()))
    return Trajectory(entries=tuple(entries), direction=GENERATION, grid=grid)


def ddim_invert_trajectory(
    model: DenoiserInterface,
    sched: NoiseSchedule,
    grid: TimestepGrid,
    z_0: np.ndarray,
    c: Condition,
) -> Trajectory:
    """Full inversion sweep from z_0 up to z_T along the grid."""
    z = np.asarray(z_0, dtype=np.float64)
    entries = [(0, z.copy())]
    for t_prev, t in grid.transitions():
        z = ddim_invert_step(model, coefficients(sched, t, t_prev), z, c)
        entries.append((t, z.copy()))
    return Trajectory(entries=tuple(entries), direction=INVERSION, grid=grid)

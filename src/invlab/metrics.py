"""Reconstruction and alignment metrics.

Images take values in [0, 1]. SSIM uses a 7×7 Gaussian window (σ=1.5) over
valid positions with C1=0.01², C2=0.03²; images smaller than the window fall back
to global single-window statistics. The window is separable, so it is applied
as a product with one band matrix per image axis. `ssim_with_grad` returns the
analytic gradient with respect to the second image so losses can differentiate
through the metric.
A perceptual metric implements `distance` and `reference(x)`, y ↦ (distance,
gradient); `grad_y` reads that gradient.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import lru_cache
from typing import Callable

import numpy as np

from .dynamics import GENERATION, INVERSION, Trajectory
from .errors import DimensionError, GridMismatchError


class PerceptualMetricInterface(ABC):
    """Differentiable image distance: distance(x, x) = 0 and symmetric."""

    @abstractmethod
    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        ...

    @abstractmethod
    def reference(self, x: np.ndarray) -> Callable[[np.ndarray], tuple[float, np.ndarray]]:
        """y ↦ (distance(x, y), ∂distance/∂y) with x fixed, its share computed once."""

    def grad_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """∂distance/∂y, the gradient half of `reference`."""
        return self.reference(x)(y)[1]


def _as_images(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"image shapes differ: {x.shape} vs {y.shape}")
    return x, y


def psnr(x: np.ndarray, y: np.ndarray) -> float:
    """10·log10(1/MSE) for the range [0, 1]; +inf for identical inputs."""
    x, y = _as_images(x, y)
    mse = float(np.mean((x - y) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def _gaussian_taps(size: int = 7, sigma: float = 1.5) -> np.ndarray:
    r = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    return g / g.sum()


def _window_matrix(n: int, taps: np.ndarray) -> np.ndarray:
    """(n - k + 1, n) band matrix for k taps: row i holds them in columns i..i+k-1."""
    k = len(taps)
    m = np.zeros((n - k + 1, n))
    for i in range(n - k + 1):
        m[i, i:i + k] = taps
    return m


class _WindowOps:
    """Windowed-mean operator and its adjoint on a stack of (..., h, w) planes.

    Windowed mode is valid-position correlation with the separable Gaussian,
    R @ P @ C.T with one band matrix per axis; global mode is the plain mean
    over all pixels (a single 1×1 output), i.e. R and C are rows of 1/h, 1/w.
    """

    def __init__(self, height: int, width: int):
        taps = _gaussian_taps()
        if height < len(taps) or width < len(taps):
            self.rows = np.full((1, height), 1.0 / height)
            self.cols = np.full((1, width), 1.0 / width)
        else:
            self.rows = _window_matrix(height, taps)
            self.cols = _window_matrix(width, taps)
        # _window_ops shares one instance per size with every caller
        self.rows.setflags(write=False)
        self.cols.setflags(write=False)

    def apply(self, planes: np.ndarray) -> np.ndarray:
        return self.rows @ planes @ self.cols.T

    def adjoint(self, grad_maps: np.ndarray) -> np.ndarray:
        return self.rows.T @ grad_maps @ self.cols


@lru_cache(maxsize=16)
def _window_ops(height: int, width: int) -> _WindowOps:
    return _WindowOps(height, width)


def _ssim_impl(x: np.ndarray, y: np.ndarray, want_grad: bool):
    c1 = 0.01**2
    c2 = 0.03**2
    # (c, h, w) channel planes; a 2-D image is one plane
    xp = x.reshape(x.shape[:2] + (-1,)).transpose(2, 0, 1)
    yp = y.reshape(y.shape[:2] + (-1,)).transpose(2, 0, 1)
    ops = _window_ops(x.shape[0], x.shape[1])
    mu_x, mu_y, m2x, m2y, mxy = ops.apply(np.stack([xp, yp, xp * xp, yp * yp, xp * yp]))
    var_x = m2x - mu_x * mu_x
    var_y = m2y - mu_y * mu_y
    cov = mxy - mu_x * mu_y
    a1 = 2.0 * mu_x * mu_y + c1
    a2 = 2.0 * cov + c2
    b1 = mu_x * mu_x + mu_y * mu_y + c1
    b2 = var_x + var_y + c2
    smap = (a1 * a2) / (b1 * b2)
    value = float(smap.mean())
    if not want_grad:
        return value, None
    # d(smap)/d{mu_y, var_y, cov}, then back through the window means
    d_a1 = a2 / (b1 * b2)
    d_b1 = -smap / b1
    d_b2 = -smap / b2
    d_a2 = a1 / (b1 * b2)
    d_mu_y = 2.0 * mu_x * d_a1 + 2.0 * mu_y * d_b1
    d_var_y = d_b2
    d_cov = 2.0 * d_a2
    g1 = d_mu_y + d_var_y * (-2.0 * mu_y) + d_cov * (-mu_x)  # via mean(y)
    g2 = d_var_y  # via mean(y²)
    g3 = d_cov  # via mean(x·y)
    a_1, a_2, a_3 = ops.adjoint(np.stack([g1, g2, g3]))
    gplanes = (a_1 + a_2 * (2.0 * yp) + a_3 * xp) / smap.size
    return value, gplanes.transpose(1, 2, 0).reshape(y.shape)


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Mean local structural similarity over valid window positions."""
    x, y = _as_images(x, y)
    return _ssim_impl(x, y, want_grad=False)[0]


def ssim_with_grad(x: np.ndarray, y: np.ndarray):
    """(ssim value, ∂ssim/∂y) with the analytic window-adjoint gradient."""
    x, y = _as_images(x, y)
    return _ssim_impl(x, y, want_grad=True)


def trajectory_divergence(inv: Trajectory, gen: Trajectory) -> np.ndarray:
    """‖z_t^inv − z_t^gen‖₂ at each shared timestep, ordered by increasing t
    (aligned with inv.timesteps())."""
    if inv.direction != INVERSION or gen.direction != GENERATION:
        raise GridMismatchError(
            f"need (inversion, generation) pair, got ({inv.direction}, {gen.direction})"
        )
    if inv.grid.steps != gen.grid.steps:
        raise GridMismatchError("trajectories use different grids")
    gen_by_t = {t: z for t, z in gen.entries}
    out = np.empty(len(inv.entries))
    for i, (t, z) in enumerate(inv.entries):
        out[i] = float(np.linalg.norm(z - gen_by_t[t]))
    return out

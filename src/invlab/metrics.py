"""Reconstruction and alignment metrics.

Images take values in [0, 1]. SSIM uses a 7×7 Gaussian window (σ=1.5) over
valid positions with C1=0.01², C2=0.03²; images smaller than the window fall back
to global single-window statistics. The window is separable, so it is applied
as a product with one band matrix per image axis. `ssim_with_grad` returns the
analytic gradient with respect to the second image so losses can differentiate
through the metric. The perceptual distance is `RandomConvPerceptual` in
perceptual.py.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .dynamics import GENERATION, INVERSION, Trajectory
from .errors import require, require_shape


def psnr(x: np.ndarray, y: np.ndarray) -> float:
    """10·log10(1/MSE) for the range [0, 1]; +inf for identical inputs."""
    x = np.asarray(x, dtype=np.float64)
    require(x.size > 0, "x", x.shape, "a non-empty array")
    y = require_shape(y, x.shape, "y")
    mse = float(np.mean((x - y) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(1.0 / mse))


def _gaussian_taps() -> np.ndarray:
    """The window's 7 taps: the σ = 1.5 Gaussian at offsets −3..3, summing to 1."""
    r = np.arange(7) - 3.0
    g = np.exp(-(r * r) / (2.0 * 1.5 * 1.5))
    return g / g.sum()


def _window_matrix(n: int, taps: np.ndarray) -> np.ndarray:
    """(n - k + 1, n) band matrix for k taps: row i holds them in columns i..i+k-1."""
    k = len(taps)
    m = np.zeros((n - k + 1, n))
    for i in range(n - k + 1):
        m[i, i:i + k] = taps
    return m


@lru_cache(maxsize=16)
def _window_matrices(height: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (R, C), shared by every caller at one size: the windowed means of an
    (h, w) plane P are R @ P @ C.T, and R.T @ G @ C is the adjoint.

    Windowed mode is valid-position correlation with the separable Gaussian, one band
    matrix per axis; global mode is the plain mean over all pixels (a single 1×1
    output), i.e. R and C are rows of 1/h, 1/w.
    """
    taps = _gaussian_taps()
    if height < len(taps) or width < len(taps):
        mats = np.full((1, height), 1.0 / height), np.full((1, width), 1.0 / width)
    else:
        mats = _window_matrix(height, taps), _window_matrix(width, taps)
    for m in mats:
        m.setflags(write=False)
    return mats


def _ssim_impl(x, y, want_grad: bool):
    x = np.asarray(x, dtype=np.float64)
    require(x.ndim in (2, 3) and x.size > 0, "x", x.shape, "a non-empty 2-D or 3-D image")
    y = require_shape(y, x.shape, "y")
    c1 = 0.01**2
    c2 = 0.03**2
    # (c, h, w) channel planes; a 2-D image is one plane
    xp = x.reshape(x.shape[:2] + (-1,)).transpose(2, 0, 1)
    yp = y.reshape(y.shape[:2] + (-1,)).transpose(2, 0, 1)
    rows, cols = _window_matrices(x.shape[0], x.shape[1])
    mu_x, mu_y, m2x, m2y, mxy = rows @ np.stack([xp, yp, xp * xp, yp * yp, xp * yp]) @ cols.T
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
    a_1, a_2, a_3 = rows.T @ np.stack([g1, g2, g3]) @ cols
    gplanes = (a_1 + a_2 * (2.0 * yp) + a_3 * xp) / smap.size
    return value, gplanes.transpose(1, 2, 0).reshape(y.shape)


def ssim(x: np.ndarray, y: np.ndarray) -> float:
    """Mean local structural similarity over valid window positions."""
    return _ssim_impl(x, y, want_grad=False)[0]


def ssim_with_grad(x: np.ndarray, y: np.ndarray):
    """(ssim value, ∂ssim/∂y) with the analytic window-adjoint gradient."""
    return _ssim_impl(x, y, want_grad=True)


def trajectory_divergence(inv: Trajectory, gen: Trajectory) -> np.ndarray:
    """‖z_t^inv − z_t^gen‖₂ at each shared timestep, ordered by increasing t
    (aligned with inv.timesteps())."""
    require(inv.direction == INVERSION, "inv", inv.direction, f"an {INVERSION!r} trajectory")
    require(gen.direction == GENERATION, "gen", gen.direction, f"a {GENERATION!r} trajectory")
    require(gen.grid.steps == inv.grid.steps, "gen", gen.grid.steps,
            f"on inv's grid {inv.grid.steps}")
    # row k of an inversion and row -1-k of a generation share a timestep on one grid
    return np.array([np.linalg.norm(a - b) for a, b in zip(inv.latents, gen.latents[::-1])])

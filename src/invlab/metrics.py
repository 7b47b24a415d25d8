"""Reconstruction and alignment metrics.

SSIM uses a 7×7 Gaussian window (σ=1.5) over valid positions with
C1=(0.01·range)², C2=(0.03·range)²; images smaller than the window fall back
to global single-window statistics. `ssim_with_grad` returns the analytic
gradient with respect to the second image so losses can differentiate through
the metric.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np
from scipy.signal import convolve2d, correlate2d

from .dynamics import GENERATION, INVERSION, Trajectory
from .errors import DimensionError, GridMismatchError, InvalidParameterError
from .optim import central_difference


@dataclass(frozen=True)
class MetricReport:
    psnr_db: float
    ssim: float
    perceptual: float
    roundtrip_l2_rel: float

    def to_json_dict(self) -> dict:
        return {
            "psnr_db": self.psnr_db,
            "ssim": self.ssim,
            "perceptual": self.perceptual,
            "roundtrip_l2_rel": self.roundtrip_l2_rel,
        }


class PerceptualMetricInterface(ABC):
    """Differentiable image distance: distance(x, x) = 0 and symmetric."""

    @abstractmethod
    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        ...

    def grad_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """∂distance/∂y by `central_difference`."""
        return central_difference(lambda yy: self.distance(x, yy), y)


def _as_images(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape:
        raise DimensionError(f"image shapes differ: {x.shape} vs {y.shape}")
    return x, y


def psnr(x: np.ndarray, y: np.ndarray, data_range: float = 1.0) -> float:
    """10·log10(range²/MSE); +inf for identical inputs."""
    if data_range <= 0:
        raise InvalidParameterError(f"data_range must be > 0, got {data_range}")
    x, y = _as_images(x, y)
    mse = float(np.mean((x - y) ** 2))
    if mse == 0.0:
        return float("inf")
    return float(10.0 * np.log10(data_range * data_range / mse))


def _gaussian_window(size: int = 7, sigma: float = 1.5) -> np.ndarray:
    r = np.arange(size) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    k = np.outer(g, g)
    return k / k.sum()


class _WindowOps:
    """Windowed-mean operator and its adjoint for one 2-D image plane.

    Windowed mode is valid-position correlation with the Gaussian kernel;
    global mode is the plain mean over all pixels (single 1×1 output).
    """

    def __init__(self, height: int, width: int, win: np.ndarray):
        self.h, self.w = height, width
        self.win = win
        self.global_mode = height < win.shape[0] or width < win.shape[1]

    def apply(self, plane: np.ndarray) -> np.ndarray:
        if self.global_mode:
            return np.array([[plane.mean()]])
        return correlate2d(plane, self.win, mode="valid")

    def adjoint(self, grad_map: np.ndarray) -> np.ndarray:
        if self.global_mode:
            return np.full((self.h, self.w), float(grad_map[0, 0]) / (self.h * self.w))
        return convolve2d(grad_map, self.win, mode="full")


def _channel_planes(x: np.ndarray):
    if x.ndim == 2:
        yield x
    else:
        for ch in range(x.shape[2]):
            yield x[:, :, ch]


def _ssim_impl(x: np.ndarray, y: np.ndarray, data_range: float, want_grad: bool):
    c1 = (0.01 * data_range) ** 2
    c2 = (0.03 * data_range) ** 2
    win = _gaussian_window()
    h, w = x.shape[0], x.shape[1]
    ops = _WindowOps(h, w, win)
    planes = list(zip(_channel_planes(x), _channel_planes(y)))
    grad = np.zeros_like(y) if want_grad else None
    total = 0.0
    count = 0
    for ch, (xp, yp) in enumerate(planes):
        mu_x = ops.apply(xp)
        mu_y = ops.apply(yp)
        m2x = ops.apply(xp * xp)
        m2y = ops.apply(yp * yp)
        mxy = ops.apply(xp * yp)
        var_x = m2x - mu_x * mu_x
        var_y = m2y - mu_y * mu_y
        cov = mxy - mu_x * mu_y
        a1 = 2.0 * mu_x * mu_y + c1
        a2 = 2.0 * cov + c2
        b1 = mu_x * mu_x + mu_y * mu_y + c1
        b2 = var_x + var_y + c2
        smap = (a1 * a2) / (b1 * b2)
        total += smap.sum()
        count += smap.size
        if want_grad:
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
            gplane = ops.adjoint(g1) + ops.adjoint(g2) * (2.0 * yp) + ops.adjoint(g3) * xp
            if y.ndim == 2:
                grad += gplane
            else:
                grad[:, :, ch] += gplane
    value = float(total / count)
    if want_grad:
        return value, grad / count
    return value, None


def ssim(x: np.ndarray, y: np.ndarray, data_range: float = 1.0) -> float:
    """Mean local structural similarity over valid window positions."""
    x, y = _as_images(x, y)
    return _ssim_impl(x, y, data_range, want_grad=False)[0]


def ssim_with_grad(x: np.ndarray, y: np.ndarray, data_range: float = 1.0):
    """(ssim value, ∂ssim/∂y) with the analytic window-adjoint gradient."""
    x, y = _as_images(x, y)
    return _ssim_impl(x, y, data_range, want_grad=True)


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

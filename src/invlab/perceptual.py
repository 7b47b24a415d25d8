"""Feature-space image distance from a small fixed random conv stack.

This is a lightweight stand-in for a learned perceptual metric, not a
pretrained one: two valid-mode 3×3 conv layers with tanh activations and
frozen random weights. Per layer the features are l2-normalized across
channels at every spatial position and the distance is the sum over layers
of the mean squared feature difference. Random projections preserve enough
geometry for the distance to order reconstructions sensibly at this scale,
while staying exactly differentiable by hand.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .errors import DimensionError, require_shape
from .metrics import PerceptualMetricInterface
from .rng import derive_rng

_NORM_EPS = 1e-10
_WIDTHS = (8, 16)  # output channels of the two conv layers
_ZERO = np.zeros(1)


@lru_cache(maxsize=32)
def _patch_index(c: int, h: int, w: int, pad: int) -> np.ndarray:
    """(c·9, positions) flat indices of the 3×3 patches of a (c, h, w) map zero-padded by pad.

    Row ci·9 + ki·3 + kj, column i·w_out + j reads map[ci, i+ki−pad, j+kj−pad];
    a padded position reads index c·h·w, the single zero `_patches` appends
    after the flattened map. Rows and columns are laid out as np.tensordot
    lays out the windows it contracts, so the matmuls round as tensordot does.
    """
    h_out, w_out = h + 2 * pad - 2, w + 2 * pad - 2
    # broadcast over axes (ci, ki, kj, i, j)
    ci = np.arange(c)[:, None, None, None, None]
    rows = np.arange(3)[:, None, None, None] + np.arange(h_out)[:, None] - pad
    cols = np.arange(3)[:, None, None] + np.arange(w_out) - pad
    inside = (rows >= 0) & (rows < h) & (cols >= 0) & (cols < w)
    index = np.where(inside, ci * (h * w) + rows * w + cols, c * h * w)
    index = index.reshape(c * 9, h_out * w_out)
    # lru_cache hands the same table to every caller
    index.setflags(write=False)
    return index


def _patches(x: np.ndarray, pad: int) -> np.ndarray:
    """im2col of a (c, h, w) map zero-padded by pad: one gather through `_patch_index`."""
    c, h, w = x.shape
    flat = np.concatenate((x.reshape(-1), _ZERO))
    return flat[_patch_index(c, h, w, pad)]


def _conv_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x: (c_in, h, w), kernels: (c_out, c_in, 3, 3) -> (c_out, h-2, w-2).

    Valid cross-correlation as one matmul over the 3×3 patches (im2col).
    """
    c_out = kernels.shape[0]
    _, h, w = x.shape
    out = kernels.reshape(c_out, -1) @ _patches(x, 0) + bias[:, None]
    return out.reshape(c_out, h - 2, w - 2)


def _conv_input_vjp(u: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Adjoint of _conv_forward with respect to its input: (c_out, h, w) -> (c_in, h+2, w+2).

    Full convolution, i.e. valid correlation of the map zero-padded by 2 with
    the flipped kernels, their in and out channel axes swapped.
    """
    c_in = kernels.shape[1]
    _, h, w = u.shape
    flipped = kernels[:, :, ::-1, ::-1].transpose(1, 0, 2, 3).reshape(c_in, -1)
    return (flipped @ _patches(u, 2)).reshape(c_in, h + 2, w + 2)


def _feature_distance(gx1, gx2, gy1, gy2) -> float:
    return float(np.mean((gx1 - gy1) ** 2) + np.mean((gx2 - gy2) ** 2))


def _normalize(f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Unit-normalize across the channel axis; returns (g, norms)."""
    s = np.sqrt(np.sum(f * f, axis=0, keepdims=True))
    return f / (s + _NORM_EPS), s


def _normalize_vjp(f: np.ndarray, s: np.ndarray, u: np.ndarray) -> np.ndarray:
    den = s + _NORM_EPS
    dot = np.sum(u * f, axis=0, keepdims=True)
    scale = np.where(s > _NORM_EPS, dot / (den * den * np.maximum(s, _NORM_EPS)), 0.0)
    return u / den - f * scale


class RandomConvPerceptual(PerceptualMetricInterface):
    """Frozen-random two-layer conv feature distance on (h, w, c) images."""

    def __init__(self, image_shape: tuple, seed: int = 0):
        if len(image_shape) != 3:
            raise DimensionError(f"image_shape must be (h, w, c), got {image_shape}",
                                 field="image_shape")
        h, w, c = image_shape
        # two valid 3×3 layers eat 4 pixels per axis
        if h < 5 or w < 5:
            raise DimensionError(f"images must be at least 5x5, got {h}x{w}",
                                 field="image_shape")
        self.image_shape = (int(h), int(w), int(c))
        self.seed = int(seed)
        rng = derive_rng(self.seed, "perceptual-init")
        c1, c2 = _WIDTHS
        self.k1 = rng.normal(0.0, np.sqrt(2.0 / (c * 9)), size=(c1, c, 3, 3))
        self.b1 = rng.normal(0.0, 0.1, size=c1)
        self.k2 = rng.normal(0.0, np.sqrt(2.0 / (c1 * 9)), size=(c2, c1, 3, 3))
        self.b2 = rng.normal(0.0, 0.1, size=c2)
        for a in (self.k1, self.b1, self.k2, self.b2):
            a.setflags(write=False)

    def _features(self, img: np.ndarray):
        x = img.transpose(2, 0, 1)
        f1 = np.tanh(_conv_forward(x, self.k1, self.b1))
        f2 = np.tanh(_conv_forward(f1, self.k2, self.b2))
        g1, s1 = _normalize(f1)
        g2, s2 = _normalize(f2)
        return f1, g1, s1, f2, g2, s2

    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        return _feature_distance(*self._target(x, "x"), *self._target(y, "y"))

    def reference(self, x: np.ndarray):
        """y ↦ (distance(x, y), ∂/∂y): x's features once, one pass and its adjoint per y."""
        return partial(self._against, self._target(x, "x"))

    def _target(self, img: np.ndarray, name: str):
        _, gx1, _, _, gx2, _ = self._features(require_shape(img, self.image_shape, name))
        return gx1, gx2

    def _against(self, target, y: np.ndarray) -> tuple[float, np.ndarray]:
        gx1, gx2 = target
        f1, gy1, s1, f2, gy2, s2 = self._features(require_shape(y, self.image_shape, "y"))
        value = _feature_distance(gx1, gx2, gy1, gy2)
        u_g1 = 2.0 * (gy1 - gx1) / gy1.size
        u_g2 = 2.0 * (gy2 - gx2) / gy2.size
        u_pre2 = _normalize_vjp(f2, s2, u_g2) * (1.0 - f2 * f2)
        # f1 feeds both its own distance term and the second conv layer
        u_f1 = _normalize_vjp(f1, s1, u_g1) + _conv_input_vjp(u_pre2, self.k2)
        u_pre1 = u_f1 * (1.0 - f1 * f1)
        return value, _conv_input_vjp(u_pre1, self.k1).transpose(1, 2, 0)

"""Feature-space image distance from a small fixed random conv stack.

This is a lightweight stand-in for a learned perceptual metric, not a
pretrained one: two valid-mode 3×3 conv layers with tanh activations and
frozen random weights. Per layer the features are l2-normalized across
channels at every spatial position and the distance is the sum over layers
of the mean squared feature difference. Random projections preserve enough
geometry for the distance to order reconstructions sensibly at this scale,
while staying exactly differentiable by hand.

Each layer gathers its 3×3 patches through one cached index table per input
shape (im2col) and its adjoint scatters the patch gradients back through the
same table (col2im), so no map is ever padded.
"""

from __future__ import annotations

from functools import lru_cache, partial

import numpy as np

from .autoencoder import checked_image_shape
from .errors import require, require_shape
from .rng import derive_rng

_NORM_EPS = 1e-10
_WIDTHS = (8, 16)  # output channels of the two conv layers


@lru_cache(maxsize=32)
def _patch_index(c: int, h: int, w: int) -> np.ndarray:
    """(c·9, positions) flat indices of the valid 3×3 patches of a (c, h, w) map.

    Row ci·9 + ki·3 + kj, column i·(w−2) + j reads map[ci, i+ki, j+kj]. Rows
    and columns are laid out as np.tensordot lays out the windows it
    contracts, so the forward matmul rounds as tensordot does.
    """
    # broadcast over axes (ci, ki, kj, i, j)
    ci = np.arange(c)[:, None, None, None, None]
    rows = np.arange(3)[:, None, None, None] + np.arange(h - 2)[:, None]
    cols = np.arange(3)[:, None, None] + np.arange(w - 2)
    index = (ci * (h * w) + rows * w + cols).reshape(c * 9, (h - 2) * (w - 2))
    # lru_cache hands the same table to every caller
    index.setflags(write=False)
    return index


def _conv_forward(x: np.ndarray, kernels: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x: (c_in, h, w), kernels: (c_out, c_in, 3, 3) -> (c_out, h-2, w-2).

    Valid cross-correlation as one matmul over the 3×3 patches (im2col).
    """
    c_out = kernels.shape[0]
    c, h, w = x.shape
    out = kernels.reshape(c_out, -1) @ x.reshape(-1)[_patch_index(c, h, w)] + bias[:, None]
    return out.reshape(c_out, h - 2, w - 2)


def _conv_input_vjp(u: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Adjoint of _conv_forward with respect to its input: (c_out, h, w) -> (c_in, h+2, w+2).

    col2im: each patch element's share kernelsᵀ·u is summed back onto the
    pixel the forward pass gathered it from, through the same table.
    """
    c_out, c_in = kernels.shape[:2]
    _, h, w = u.shape
    cols = kernels.reshape(c_out, -1).T @ u.reshape(c_out, -1)
    # every pixel lies in some patch, so bincount's length is the map's size
    back = np.bincount(_patch_index(c_in, h + 2, w + 2).reshape(-1), weights=cols.reshape(-1))
    return back.reshape(c_in, h + 2, w + 2)


def _mean_square(e: np.ndarray) -> float:
    # np.mean's own arithmetic, without its dispatch
    return np.add.reduce(e * e, axis=None) / e.size


def _normalize(f: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unit-normalize across the channel axis; returns (g, norms, norms + ε)."""
    s = np.sqrt(np.sum(f * f, axis=0, keepdims=True))
    den = s + _NORM_EPS
    return f / den, s, den


def _normalize_vjp(f: np.ndarray, s: np.ndarray, den: np.ndarray, u: np.ndarray) -> np.ndarray:
    dot = np.sum(u * f, axis=0, keepdims=True)
    scale = np.where(s > _NORM_EPS, dot / (den * den * np.maximum(s, _NORM_EPS)), 0.0)
    return u / den - f * scale


class RandomConvPerceptual:
    """Frozen-random two-layer conv feature distance on (h, w, c) images:
    distance(x, x) = 0 and symmetric. The weights are one fixed draw, stream
    "perceptual-init" of seed 0, so the metric is one function per image shape."""

    def __init__(self, image_shape: tuple):
        h, w, c = self.image_shape = checked_image_shape(image_shape)
        # two valid 3×3 layers eat 4 pixels per axis
        require(h >= 5 and w >= 5, "image_shape", image_shape, "at least 5x5")
        rng = derive_rng(0, "perceptual-init")
        c1, c2 = _WIDTHS
        self.k1 = rng.normal(0.0, np.sqrt(2.0 / (c * 9)), size=(c1, c, 3, 3))
        self.b1 = rng.normal(0.0, 0.1, size=c1)
        self.k2 = rng.normal(0.0, np.sqrt(2.0 / (c1 * 9)), size=(c2, c1, 3, 3))
        self.b2 = rng.normal(0.0, 0.1, size=c2)
        for a in (self.k1, self.b1, self.k2, self.b2):
            a.setflags(write=False)

    def _features(self, img: np.ndarray):
        """One (f, g, norms, norms + ε) tuple per layer: tanh features and their unit form."""
        x = img.transpose(2, 0, 1)
        f1 = np.tanh(_conv_forward(x, self.k1, self.b1))
        f2 = np.tanh(_conv_forward(f1, self.k2, self.b2))
        return (f1, *_normalize(f1)), (f2, *_normalize(f2))

    def distance(self, x: np.ndarray, y: np.ndarray) -> float:
        (gx1, gx2), (gy1, gy2) = self._target(x, "x"), self._target(y, "y")
        return float(_mean_square(gy1 - gx1) + _mean_square(gy2 - gx2))

    def reference(self, x: np.ndarray):
        """y ↦ (distance(x, y), ∂/∂y): x's features once, one pass and its adjoint per y."""
        return partial(self._against, self._target(x, "x"))

    def grad_y(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """∂distance/∂y, the gradient half of `reference`."""
        return self.reference(x)(y)[1]

    def _target(self, img: np.ndarray, name: str):
        (_, g1, _, _), (_, g2, _, _) = self._features(require_shape(img, self.image_shape, name))
        return g1, g2

    def _against(self, target, y: np.ndarray) -> tuple[float, np.ndarray]:
        gx1, gx2 = target
        (f1, gy1, s1, den1), (f2, gy2, s2, den2) = self._features(
            require_shape(y, self.image_shape, "y"))
        e1, e2 = gy1 - gx1, gy2 - gx2
        value = float(_mean_square(e1) + _mean_square(e2))
        u_pre2 = _normalize_vjp(f2, s2, den2, 2.0 * e2 / e2.size) * (1.0 - f2 * f2)
        # f1 feeds both its own distance term and the second conv layer
        u_f1 = _normalize_vjp(f1, s1, den1, 2.0 * e1 / e1.size) + _conv_input_vjp(u_pre2, self.k2)
        u_pre1 = u_f1 * (1.0 - f1 * f1)
        return value, _conv_input_vjp(u_pre1, self.k1).transpose(1, 2, 0)

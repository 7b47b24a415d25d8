"""Image ↔ latent codecs whose round trip bounds reconstruction quality.

Images are float64 arrays of shape (height, width, channels) with values in
[0, 1]; latents are flat float64 vectors. Decoding never clamps; clamping to
[0, 1] happens only at metric/export time so optimization stays smooth.
Codecs implement `encode`, `decode` and the decoder's pullback `decoder_vjp`.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from .errors import DimensionError, FitError, InvalidParameterError
from .rng import derive_rng


class AutoencoderInterface(ABC):
    """Encoder/decoder pair with a decoder vector–Jacobian product."""

    image_shape: tuple[int, int, int]
    latent_dim: int

    def _check_image(self, x: np.ndarray, name: str = "x") -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != self.image_shape:
            raise DimensionError(f"{name} has shape {x.shape}, expected {self.image_shape}")
        return x

    def _check_latent(self, z: np.ndarray) -> np.ndarray:
        z = np.asarray(z, dtype=np.float64)
        if z.shape != (self.latent_dim,):
            raise DimensionError(f"latent has shape {z.shape}, expected ({self.latent_dim},)")
        return z

    @abstractmethod
    def encode(self, x: np.ndarray) -> np.ndarray:
        """Latent representation of the image."""

    @abstractmethod
    def decode(self, z: np.ndarray) -> np.ndarray:
        """Image reconstruction from the latent (no clamping)."""

    @abstractmethod
    def decoder_vjp(self, z: np.ndarray, v: np.ndarray) -> np.ndarray:
        """vᵀ·(∂decode/∂z) for an image-shaped v."""


class IdentityAutoencoder(AutoencoderInterface):
    """encode = flatten, decode = unflatten; round trip is bit-exact."""


    def __init__(self, image_shape: tuple[int, int, int]):
        h, w, c = image_shape
        self.image_shape = (int(h), int(w), int(c))
        self.latent_dim = int(h * w * c)

    def encode(self, x):
        return self._check_image(x).reshape(-1).copy()

    def decode(self, z):
        return self._check_latent(z).reshape(self.image_shape).copy()

    def decoder_vjp(self, z, v):
        self._check_latent(z)
        return self._check_image(v, "v").reshape(-1).copy()


class LinearAutoencoder(AutoencoderInterface):
    """Orthonormal-rows projection codec: encode(x) = W·(flatten(x) − mean),
    decode(z) = unflatten(W⁺·z + mean) with W⁺ = Wᵀ. Lossy whenever
    latent_dim < pixel_count; the decoder Jacobian is the constant W⁺.

    An optional leak matrix models a miscalibrated encoder: its rows live in
    the discarded subspace, so encoding also picks up components the decoder
    cannot represent, displacing the latent away from the decoder-optimal
    point. Latent optimization can recover that displacement. Because the
    leak is blind to anything in the retained subspace (leak·W⁺ = 0),
    encode∘decode stays the exact identity on latents and the round trip
    stays idempotent.
    """


    def __init__(
        self,
        w: np.ndarray,
        mean: np.ndarray,
        image_shape: tuple[int, int, int],
        leak: np.ndarray | None = None,
    ):
        h, wd, c = image_shape
        self.image_shape = (int(h), int(wd), int(c))
        pixel_count = int(h * wd * c)
        w = np.asarray(w, dtype=np.float64)
        mean = np.asarray(mean, dtype=np.float64)
        leak = None if leak is None else np.asarray(leak, dtype=np.float64)
        if not all(np.all(np.isfinite(a)) for a in (w, mean, leak) if a is not None):
            raise InvalidParameterError("W, mean and leak must be finite")
        if w.ndim != 2 or w.shape[1] != pixel_count:
            raise DimensionError(f"W shape {w.shape} incompatible with {pixel_count} pixels")
        if w.shape[0] > pixel_count:
            raise InvalidParameterError("latent_dim must be <= pixel_count")
        if mean.shape != (pixel_count,):
            raise DimensionError(f"mean shape {mean.shape} != ({pixel_count},)")
        gram = w @ w.T
        if not np.allclose(gram, np.eye(w.shape[0]), rtol=0.0, atol=1e-10):
            raise InvalidParameterError("rows of W must be orthonormal to 1e-10")
        if leak is not None:
            if leak.shape != w.shape:
                raise DimensionError(f"leak shape {leak.shape} != W shape {w.shape}")
            # rows must avoid the retained subspace or the round trip stops
            # being idempotent; rounding in leak @ W^T grows with the leak's size
            if np.abs(leak @ w.T).max() > 1e-10 * max(1.0, np.abs(leak).max()):
                raise InvalidParameterError("leak rows must be orthogonal to rows of W")
        self.latent_dim = w.shape[0]
        self.w = w
        self.mean = mean
        self.leak = leak
        for arr in (self.w, self.mean):
            arr.setflags(write=False)
        if leak is not None:
            leak.setflags(write=False)

    def encode(self, x):
        x = self._check_image(x)
        centered = x.reshape(-1) - self.mean
        z = self.w @ centered
        if self.leak is not None:
            z = z + self.leak @ centered
        return z

    def decode(self, z):
        z = self._check_latent(z)
        return (self.w.T @ z + self.mean).reshape(self.image_shape)

    def decoder_vjp(self, z, v):
        self._check_latent(z)
        v = self._check_image(v, "v")
        return self.w @ v.reshape(-1)


def fit_linear_autoencoder(
    data: np.ndarray,
    latent_dim: int,
    leak_scale: float = 0.0,
    seed: int = 0,
) -> LinearAutoencoder:
    """Principal-subspace fit: W spans the top latent_dim directions of the
    centered images (SVD of the data matrix).

    leak_scale > 0 adds the encoder miscalibration described on
    LinearAutoencoder: a fixed seeded mixing of the discarded directions into
    the retained latents, scaled so the expected squared latent displacement
    is about leak_scale² times the discarded energy of the input. 0 keeps the
    encoder exact (decode(encode(x)) is then the orthogonal projection of x).
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 3:  # (n, h, w) grayscale convenience
        data = data[..., None]
    if data.ndim != 4:
        raise InvalidParameterError(f"data must be (n, h, w, c), got shape {data.shape}")
    n = data.shape[0]
    image_shape = data.shape[1:]
    pixel_count = int(np.prod(image_shape))
    if n < 2:
        raise FitError(f"need at least 2 images to fit, got {n}")
    if not 1 <= latent_dim <= pixel_count:
        raise InvalidParameterError(
            f"latent_dim {latent_dim} outside [1, {pixel_count}]", latent_dim=latent_dim
        )
    if leak_scale < 0.0:
        raise InvalidParameterError(f"leak_scale must be >= 0, got {leak_scale}")
    flat = data.reshape(n, pixel_count)
    mean = flat.mean(axis=0)
    centered = flat - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=True)
    scale = max(1.0, float(np.abs(flat).max()))
    if svals.size == 0 or svals[0] <= 1e-12 * scale:
        raise FitError("data has zero variance; nothing to fit")
    leak = None
    discarded = pixel_count - latent_dim
    if leak_scale > 0.0 and discarded > 0:
        mixing = derive_rng(seed, "encoder-leak").standard_normal((latent_dim, discarded))
        leak = (leak_scale / np.sqrt(latent_dim)) * mixing @ vt[latent_dim:]
    return LinearAutoencoder(w=vt[:latent_dim], mean=mean, image_shape=image_shape, leak=leak)

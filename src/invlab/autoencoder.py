"""Image ↔ latent codecs whose round trip bounds reconstruction quality.

Images are float64 arrays of shape (height, width, channels) with values in
[0, 1]; latents are flat float64 vectors. Decoding never clamps; clamping to
[0, 1] happens only at metric/export time so optimization stays smooth.
`LinearAutoencoder` is the one codec: `encode`, `decode` and the decoder's
pullback `decoder_vjp`. It is fitted to images by `fit_linear_autoencoder`,
and `identity_autoencoder` builds the lossless one, W = I. Both build a
pixel-by-pixel matrix, so both refuse an image whose matrix would pass
`MAX_CODEC_BYTES` (4096 pixels) before they allocate.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import is_int, require, require_shape
from .rng import derive_rng

# bound on the bytes of a codec's pixel-by-pixel matrix (the identity's W, the fit's
# SVD basis): 2**27 bytes of float64 is n <= 4096 pixels, a 64x64 grayscale image.
# RunConfig holds every array a config's sizes set to the same bound
MAX_CODEC_BYTES = 2**27


def require_codec_size(pixel_count: int, field: str, value) -> None:
    """Refuses, naming `field`, an image size whose pixel-by-pixel matrix passes the cap."""
    require(8 * pixel_count**2 <= MAX_CODEC_BYTES, field, value,
            f"small enough for at most {math.isqrt(MAX_CODEC_BYTES // 8)} pixels, so that the "
            f"codec's pixel-by-pixel matrix fits in {MAX_CODEC_BYTES} bytes")


def checked_image_shape(image_shape) -> tuple[int, int, int]:
    """image_shape as three Python ints, checked to be three integers >= 1."""
    shape = tuple(image_shape)
    require(len(shape) == 3 and all(is_int(n) and n >= 1 for n in shape),
            "image_shape", image_shape, "three integers >= 1")
    return tuple(map(int, shape))


class LinearAutoencoder:
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
        self.image_shape = checked_image_shape(image_shape)
        pixel_count = math.prod(self.image_shape)
        # copies: freezing them below leaves the caller's arrays writeable
        w = np.array(w, dtype=np.float64)
        mean = np.array(mean, dtype=np.float64)
        leak = None if leak is None else np.array(leak, dtype=np.float64)
        for name, a in (("w", w), ("mean", mean), ("leak", leak)):
            require(a is None or np.all(np.isfinite(a)), name, "an array with non-finite entries",
                    "finite")
        require(w.ndim == 2 and w.shape[1] == pixel_count, "w", w.shape,
                f"a matrix with one column per pixel, {pixel_count}")
        require(1 <= w.shape[0] <= pixel_count, "w", w.shape,
                f"a matrix of 1 to {pixel_count} rows, one per latent")
        mean = require_shape(mean, (pixel_count,), "mean")
        # W·Wᵀ − I in place, so that the check holds one k×k array beside W
        gram = w @ w.T
        gram.flat[::w.shape[0] + 1] -= 1.0
        require(-1e-10 <= gram.min() and gram.max() <= 1e-10, "w",
                "rows that are not orthonormal", "orthonormal rows to 1e-10")
        del gram  # freed before the leak's check builds its own k×k product
        if leak is not None:
            leak = require_shape(leak, w.shape, "leak")
            # rows must avoid the retained subspace or the round trip stops
            # being idempotent; rounding in leak @ W^T grows with the leak's size,
            # max|leak|, taken without an |leak| copy
            require(np.abs(leak @ w.T).max() <= 1e-10 * max(1.0, leak.max(), -leak.min()),
                    "leak", "rows that overlap the rows of w", "rows orthogonal to the rows of w")
        self.latent_dim = w.shape[0]
        self.w = w
        self.mean = mean
        self.leak = leak
        for arr in (self.w, self.mean):
            arr.setflags(write=False)
        if leak is not None:
            leak.setflags(write=False)

    def encode(self, x):
        x = require_shape(x, self.image_shape, "x")
        centered = x.reshape(-1) - self.mean
        z = self.w @ centered
        if self.leak is not None:
            z = z + self.leak @ centered
        return z

    def decode(self, z):
        z = require_shape(z, (self.latent_dim,), "z")
        return (self.w.T @ z + self.mean).reshape(self.image_shape)

    def decoder_vjp(self, z, v):
        require_shape(z, (self.latent_dim,), "z")
        v = require_shape(v, self.image_shape, "v")
        return self.w @ v.reshape(-1)


def identity_autoencoder(image_shape) -> LinearAutoencoder:
    """The lossless codec on image_shape: W = I and mean 0, so encode flattens and
    decode unflattens."""
    n = math.prod(checked_image_shape(image_shape))
    require_codec_size(n, "image_shape", image_shape)
    return LinearAutoencoder(np.eye(n), np.zeros(n), image_shape)


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
    require(data.ndim == 4, "data", data.shape, "(n, h, w, c) or (n, h, w)")
    n = data.shape[0]
    image_shape = data.shape[1:]
    pixel_count = int(np.prod(image_shape))
    require(n >= 2, "data", data.shape, "at least 2 images")
    require(np.all(np.isfinite(data)), "data", "an array with non-finite entries", "finite")
    require(is_int(latent_dim) and 1 <= latent_dim <= pixel_count, "latent_dim", latent_dim,
            f"an integer in [1, {pixel_count}]")
    require(leak_scale >= 0.0, "leak_scale", leak_scale, ">= 0")
    require_codec_size(pixel_count, "data", data.shape)
    flat = data.reshape(n, pixel_count)
    mean = flat.mean(axis=0)
    centered = flat - mean
    _, svals, vt = np.linalg.svd(centered, full_matrices=True)
    scale = max(1.0, float(np.abs(flat).max()))
    require(svals[0] > 1e-12 * scale, "data", "images with zero variance", "images that vary")
    leak = None
    discarded = pixel_count - latent_dim
    if leak_scale > 0.0 and discarded > 0:
        mixing = derive_rng(seed, "encoder-leak").standard_normal((latent_dim, discarded))
        leak = (leak_scale / np.sqrt(latent_dim)) * mixing @ vt[latent_dim:]
    return LinearAutoencoder(w=vt[:latent_dim], mean=mean, image_shape=image_shape, leak=leak)

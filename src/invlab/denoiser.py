"""Noise predictors F(z, t), each written once as `linearize`.

Backends:
  - LinearGaussianDenoiser: exact oracle. For data ~ N(mu, Sigma) the noisy
    marginal at step t is N(sqrt(ᾱ_t)·mu, Σ_t) with Σ_t = ᾱ_t·Sigma + (1−ᾱ_t)I,
    and the ideal predictor is the affine map
        F*(z, t) = sqrt(1−ᾱ_t) · Σ_t^{-1} (z − sqrt(ᾱ_t)·mu).
  - MlpDenoiser: two tanh hidden layers (default width 64) with a learned
    per-timestep embedding and one shared embedding row added to the first
    hidden layer; forward and reverse passes are hand-rolled NumPy so the
    input vjp is exact and bit-reproducible.

Every model is unconditional. `linearize(z, t)` returns the prediction at z
together with its pullback v ↦ vᵀ·(∂F/∂z), so a solver that needs both at one
point pays for one forward pass. It is the one method a backend implements:
`eval` is its first half and `vjp` applies its second once.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, check_fields, require, require_shape
from .optim import AdamState, adam_step
from .rng import derive_rng
from .schedule import NoiseSchedule


class DenoiserInterface(ABC):
    """The ε-predictor contract: a backend implements `linearize` alone."""

    latent_dim: int

    @abstractmethod
    def linearize(self, z: np.ndarray, t: int):
        """(F(z, t), v ↦ vᵀ·(∂F/∂z)): the predicted noise for latent z at timestep t and
        its pullback at z, which checks v's shape."""

    # c=None: invbench/test_invbench.py passes `b.condition` as a third argument; c is ignored
    def eval(self, z: np.ndarray, t: int, c=None) -> np.ndarray:
        """F(z, t), the prediction of `linearize`."""
        return self.linearize(z, t)[0]

    # c: invbench/test_invbench.py calls vjp(z, t, b.condition, v); c is ignored
    def vjp(self, z: np.ndarray, t: int, c, v: np.ndarray) -> np.ndarray:
        """vᵀ·(∂F/∂z), the pullback of `linearize`."""
        return self.linearize(z, t)[1](v)


class LinearGaussianDenoiser(DenoiserInterface):
    """Exact ε-predictor for Gaussian data: at each timestep t an affine map
    F*(z, t) = J_t·z − o_t, so the Jacobian J_t = sqrt(1−ᾱ_t)·Σ_t^{-1} is
    constant and the vjp is exact.

    With Σ = Q·diag(λ)·Qᵀ (eigh of sigma), the map at t is built as

        s_t = sqrt(1−ᾱ_t) / (λ·ᾱ_t + (1−ᾱ_t))
        J_t = (Q·s_t) @ Qᵀ           (Q's columns scaled by s_t)
        o_t = J_t @ (sqrt(ᾱ_t)·mu)

    on the first call at t, after the bounds check, and kept read-only in a
    dict keyed by t. The prediction is then `J_t @ z − o_t` and the pullback
    `v @ J_t`, the exact transpose: rounding leaves J_t not quite symmetric.
    The maps cost one d×d array per timestep the model has been evaluated at.
    """


    def __init__(self, mu: np.ndarray, sigma: np.ndarray, sched: NoiseSchedule):
        # copies: freezing them below leaves the caller's arrays writeable
        mu = np.array(mu, dtype=np.float64)
        sigma = np.array(sigma, dtype=np.float64)
        require(mu.ndim == 1 and mu.size > 0, "mu", mu.shape, "a non-empty vector")
        d = mu.shape[0]
        sigma = require_shape(sigma, (d, d), "sigma")
        require(np.all(np.isfinite(mu)), "mu", "an array with non-finite entries", "finite")
        require(np.all(np.isfinite(sigma)), "sigma", "an array with non-finite entries", "finite")
        require(np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(sigma).max())),
                "sigma", "an asymmetric matrix", "symmetric")
        lam, q = np.linalg.eigh(sigma)
        require(lam.min() > 0.0, "sigma", f"min eigenvalue {float(lam.min())!r}",
                "positive definite")
        self.latent_dim = d
        self.mu = mu
        self.sigma = sigma
        self.sched = sched
        self._lam = lam
        self._q = q
        for arr in (self.mu, self.sigma, self._lam, self._q):
            arr.setflags(write=False)
        self._maps: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # t -> (J_t, o_t)

    def _affine_map(self, t):
        """(J_t, o_t), built on the first call at t by the class docstring's formula."""
        # only checked t are cached, but 2.0 or True would find the entry of 2 or 1
        if type(t) is not int:
            self.sched._check_t(t)
        try:
            return self._maps[t]
        except KeyError:
            pass
        self.sched._check_t(t)
        ab = self.sched.alpha_bars[t]
        s = np.sqrt(1.0 - ab) / (self._lam * ab + (1.0 - ab))
        jac = (self._q * s) @ self._q.T
        off = jac @ (np.sqrt(ab) * self.mu)
        jac.setflags(write=False)
        off.setflags(write=False)
        self._maps[t] = jac, off
        return jac, off

    def linearize(self, z, t):
        z = require_shape(z, (self.latent_dim,), "z")
        jac, off = self._affine_map(t)
        return jac @ z - off, functools.partial(self._pullback, jac)

    def _pullback(self, jac, v):
        return require_shape(v, (self.latent_dim,), "v") @ jac


@dataclass(frozen=True)
class MlpTrainConfig:
    """The MLP's training settings; also the run config's `denoiser.train` section."""

    width: int = 64
    max_epochs: int = 60
    batch_size: int = 32
    lr: float = 1e-3

    def __post_init__(self):
        check_fields(self)
        require(self.width >= 1, "width", self.width, "an integer >= 1")
        require(self.max_epochs >= 0, "max_epochs", self.max_epochs, "an integer >= 0")
        require(self.batch_size >= 1, "batch_size", self.batch_size, "an integer >= 1")
        require(0.0 < self.lr < math.inf, "lr", self.lr, "finite and > 0")


_N_EVAL = 256  # probe rows behind MlpDenoiser.final_loss


def mlp_shapes(latent_dim: int, width: int, t_train: int) -> dict[str, tuple[int, ...]]:
    """The MLP's array shapes by name, in file order: its one layout table."""
    return {"w1": (width, latent_dim), "b1": (width,), "temb": (t_train, width),
            "cemb": (1, width), "w2": (width, width), "b2": (width,),
            "w3": (latent_dim, width), "b3": (latent_dim,)}


_PARAM_ORDER = tuple(mlp_shapes(1, 1, 1))


class MlpDenoiser(DenoiserInterface):
    """Two-hidden-layer tanh MLP; the timestep embedding row and the one
    embedding row cemb, which every input shares, enter the first hidden
    pre-activation. The sizes come from the arrays: latent_dim from b3 and
    width from b1. final_loss is the trainer's probe loss, or None.
    """


    def __init__(
        self,
        params: dict[str, np.ndarray],
        sched: NoiseSchedule,
        final_loss: float | None = None,
    ):
        for k in _PARAM_ORDER:
            require(k in params, k, None, "an array")
        # copies: freezing them below leaves the caller's arrays writeable
        self.params = p = {k: np.array(params[k], dtype=np.float64) for k in _PARAM_ORDER}
        self.sched = sched
        self.latent_dim, self.width = p["b3"].size, p["b1"].size
        shapes = mlp_shapes(self.latent_dim, self.width, sched.t_train)
        for k, arr in p.items():
            require_shape(arr, shapes[k], k)
            require(np.all(np.isfinite(arr)), k, "an array with non-finite entries", "finite")
            arr.setflags(write=False)
        require(final_loss is None or (type(final_loss) in (int, float)
                                       and math.isfinite(final_loss) and final_loss >= 0),
                "final_loss", final_loss, "None or a finite number >= 0")
        self.final_loss = final_loss

    def linearize(self, z, t):
        z = require_shape(z, (self.latent_dim,), "z")
        self.sched._check_t(t)
        h1, h2, eps = _batch_forward(self.params, z, t - 1)
        return eps, functools.partial(self._pullback, h1, h2)

    def _pullback(self, h1, h2, v):
        d_h1 = _hidden_backward(self.params, h1, h2, require_shape(v, (self.latent_dim,), "v"))[1]
        return d_h1 @ self.params["w1"]


def _init_params(rng: np.random.Generator, latent_dim: int, width: int, t_train: int):
    """Zero biases, Xavier-normal weights and N(0, 1/width) embedding rows, drawn in file order."""
    params = {}
    for k, shape in mlp_shapes(latent_dim, width, t_train).items():
        if k[0] == "b":
            params[k] = np.zeros(shape)
        else:
            std = np.sqrt(2.0 / sum(shape)) if k[0] == "w" else 1.0 / np.sqrt(width)
            params[k] = rng.normal(0.0, std, size=shape)
    return params


def _batch_forward(p, z, t_idx):
    """Forward pass over rows of z, or one (d,) row; returns the hidden layers too."""
    h1p = z @ p["w1"].T + p["b1"] + p["temb"][t_idx] + p["cemb"][0]
    h1 = np.tanh(h1p)
    h2p = h1 @ p["w2"].T + p["b2"]
    h2 = np.tanh(h2p)
    out = h2 @ p["w3"].T + p["b3"]
    return h1, h2, out


def _hidden_backward(p, h1, h2, d_out):
    """Gradients at both hidden pre-activations, for output gradient d_out."""
    d_h2 = (d_out @ p["w3"]) * (1.0 - h2 * h2)
    return d_h2, (d_h2 @ p["w2"]) * (1.0 - h1 * h1)


def _batch_backward(p, z, t_idx, h1, h2, d_out):
    """Parameter gradients of a batch loss whose output gradient is d_out."""
    d_h2, d_h1 = _hidden_backward(p, h1, h2, d_out)
    # scatter d_h1's rows onto the timestep rows: bincount adds each bin's
    # weights in input order, so every sum has np.add.at's order and bits
    n_t, width = p["temb"].shape
    temb = np.bincount((t_idx[:, None] * width + np.arange(width)).ravel(),
                       weights=d_h1.ravel(), minlength=n_t * width).reshape(n_t, width)
    d_b1 = d_h1.sum(axis=0)  # every row adds b1 and the one cemb row alike
    return {"w3": d_out.T @ h2, "b3": d_out.sum(axis=0),
            "w2": d_h2.T @ h1, "b2": d_h2.sum(axis=0),
            "w1": d_h1.T @ z, "b1": d_b1,
            "temb": temb, "cemb": d_b1[None]}


def train_mlp_denoiser(
    data: np.ndarray,
    sched: NoiseSchedule,
    cfg: MlpTrainConfig,
    seed: int = 0,
) -> MlpDenoiser:
    """Fit the MLP by noise-prediction regression with Adam.

    Draws (t, ε) per example, forms z_t = sqrt(ᾱ_t)·x + sqrt(1−ᾱ_t)·ε and
    regresses the prediction onto ε (mean squared error per coordinate).
    final_loss is that loss on a fixed seeded probe set, after the last epoch.
    Fully seeded: the same data, config and seed give bit-identical weights.
    The seed may be negative; the first stream drawn from it checks that it is an
    integer, before any epoch runs.
    """
    data = np.asarray(data, dtype=np.float64)
    require(data.ndim == 2 and data.size > 0, "data", data.shape,
            "a non-empty (n, latent_dim) array")
    n, latent_dim = data.shape

    params = _init_params(derive_rng(seed, "mlp-init"), latent_dim, cfg.width, sched.t_train)
    states = dict.fromkeys(params, AdamState(lr=cfg.lr))
    rows_order = derive_rng(seed, "split").permutation(n)

    def noised(x, t, eps):
        ab = sched.alpha_bars[t]
        return np.sqrt(ab)[:, None] * x + np.sqrt(1.0 - ab)[:, None] * eps

    bs = min(cfg.batch_size, n)
    for epoch in range(cfg.max_epochs):
        order = derive_rng(seed, "order", epoch).permutation(n)
        for bstart in range(0, n, bs):
            rows = rows_order[order[bstart : bstart + bs]]
            brng = derive_rng(seed, "noise", epoch, bstart)
            t = brng.integers(1, sched.t_train + 1, size=rows.size)
            eps = brng.standard_normal((rows.size, latent_dim))
            zt = noised(data[rows], t, eps)
            h1, h2, pred = _batch_forward(params, zt, t - 1)
            resid = pred - eps
            loss = float(np.mean(resid**2))
            if not np.isfinite(loss):
                raise DivergenceError(f"training loss became non-finite at epoch {epoch}",
                                      epoch=epoch)
            d_out = 2.0 * resid / resid.size
            grads = _batch_backward(params, zt, t - 1, h1, h2, d_out)
            for k in params:
                params[k], states[k] = adam_step(states[k], params[k], grads[k])

    eval_rng = derive_rng(seed, "eval")
    probe_rows = rows_order[eval_rng.integers(0, n, size=_N_EVAL)]
    probe_t = eval_rng.integers(1, sched.t_train + 1, size=_N_EVAL)
    probe_eps = eval_rng.standard_normal((_N_EVAL, latent_dim))
    zt = noised(data[probe_rows], probe_t, probe_eps)
    probe_pred = _batch_forward(params, zt, probe_t - 1)[2]
    final_loss = float(np.mean((probe_pred - probe_eps) ** 2))

    return MlpDenoiser(params, sched, final_loss=final_loss)

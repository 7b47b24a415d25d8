"""Noise predictors F(z, t, C) that implement `eval` and `linearize`.

Backends:
  - ConstantDenoiser / ScalingDenoiser: trivial stubs for algebra tests.
  - LinearGaussianDenoiser: exact oracle. For data ~ N(mu, Sigma) the noisy
    marginal at step t is N(sqrt(ᾱ_t)·mu, Σ_t) with Σ_t = ᾱ_t·Sigma + (1−ᾱ_t)I,
    and the ideal predictor is the affine map
        F*(z, t) = sqrt(1−ᾱ_t) · Σ_t^{-1} (z − sqrt(ᾱ_t)·mu).
  - MlpDenoiser: two tanh hidden layers (default width 64) with learned
    per-timestep and per-class embeddings added to the first hidden layer;
    forward and reverse passes are hand-rolled NumPy so the input vjp is exact
    and bit-reproducible.

Classifier-free guidance blends conditional and unconditional predictions:
ε̂ = ε_u + w·(ε_c − ε_u). The weight w belongs to the `Condition`, so every
step made under one condition uses one guided prediction; w=1 (always so for
the unconditional condition) short-circuits to the conditional evaluation.

`linearize(z, t, c)` returns the prediction at z together with its pullback
v ↦ vᵀ·(∂eval/∂z), so a solver that needs both at one point pays for one
forward pass; `vjp` applies that pullback once.
"""

from __future__ import annotations

import functools
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionError,
    InvalidInputError,
    InvalidParameterError,
    TrainingFailureError,
    require,
)
from .optim import AdamState, adam_step
from .rng import derive_rng
from .schedule import NoiseSchedule

UNCONDITIONAL = "unconditional"
CLASS_LABEL = "class"


@dataclass(frozen=True)
class Condition:
    """Conditioning input: unconditional, or a class id with its guidance weight w."""

    variant: str
    k: int | None = None
    w: float = 1.0

    @staticmethod
    def unconditional() -> "Condition":
        return Condition(variant=UNCONDITIONAL)

    @staticmethod
    def class_label(k: int, w: float = 1.0) -> "Condition":
        if k < 0:
            raise InvalidParameterError(f"class label must be >= 0, got {k}", k=k)
        if not math.isfinite(w):
            raise InvalidParameterError(f"guidance weight must be finite, got {w}", field="w")
        return Condition(variant=CLASS_LABEL, k=int(k), w=float(w))

    def to_json_dict(self) -> dict:
        if self.variant == UNCONDITIONAL:
            return {"variant": UNCONDITIONAL}
        return {"variant": CLASS_LABEL, "k": self.k}


class DenoiserInterface(ABC):
    """The ε-predictor contract: pure eval plus its linearization."""

    latent_dim: int

    def _check_vec(self, x: np.ndarray, name: str) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.latent_dim,):
            raise DimensionError(
                f"{name} has shape {x.shape}, expected ({self.latent_dim},)"
            )
        return x

    @abstractmethod
    def eval(self, z: np.ndarray, t: int, c: Condition) -> np.ndarray:
        """Predicted noise for latent z at timestep t under condition c."""

    @abstractmethod
    def linearize(self, z: np.ndarray, t: int, c: Condition):
        """(eval(z, t, c), v ↦ vᵀ·(∂eval/∂z)): the prediction and its pullback at z.

        The prediction equals eval's bit for bit, and the pullback checks v's shape.
        """

    def vjp(self, z: np.ndarray, t: int, c: Condition, v: np.ndarray) -> np.ndarray:
        """vᵀ·(∂eval/∂z), the pullback of `linearize`."""
        return self.linearize(z, t, c)[1](v)


class ConstantDenoiser(DenoiserInterface):
    """F(z, t, c) == value for every input; Jacobian is zero."""


    def __init__(self, latent_dim: int, value: float | np.ndarray = 0.0):
        self.latent_dim = int(latent_dim)
        val = np.asarray(value, dtype=np.float64)
        if val.ndim == 0:
            val = np.full(self.latent_dim, float(val))
        if val.shape != (self.latent_dim,):
            raise DimensionError(f"value shape {val.shape} != ({self.latent_dim},)")
        val.setflags(write=False)
        self.value = val

    def eval(self, z, t, c):
        self._check_vec(z, "z")
        return self.value.copy()

    def linearize(self, z, t, c):
        return self.eval(z, t, c), lambda v: np.zeros_like(self._check_vec(v, "v"))


class ScalingDenoiser(DenoiserInterface):
    """F(z, t, c) = scale · z at every timestep; Jacobian is scale·I."""


    def __init__(self, latent_dim: int, scale: float):
        self.latent_dim = int(latent_dim)
        self.scale = float(scale)

    def eval(self, z, t, c):
        z = self._check_vec(z, "z")
        return self.scale * z

    def linearize(self, z, t, c):
        return self.eval(z, t, c), lambda v: self.scale * self._check_vec(v, "v")


class LinearGaussianDenoiser(DenoiserInterface):
    """Exact ε-predictor for Gaussian data: at each timestep t an affine map
    F*(z, t) = J_t·z − o_t, so the Jacobian J_t = sqrt(1−ᾱ_t)·Σ_t^{-1} is
    constant and the vjp is exact.

    With Σ = Q·diag(λ)·Qᵀ (eigh of sigma), the map at t is built as

        s_t = sqrt(1−ᾱ_t) / (λ·ᾱ_t + (1−ᾱ_t))
        J_t = (Q·s_t) @ Qᵀ           (Q's columns scaled by s_t)
        o_t = J_t @ (sqrt(ᾱ_t)·mu)

    on the first call at t, after the bounds check, and kept read-only in a
    dict keyed by t. eval is then `J_t @ z − o_t` and the pullback `v @ J_t`,
    the exact transpose: rounding leaves J_t not quite symmetric. The maps
    cost one d×d array per timestep the model has been evaluated at.

    Conditions are accepted and ignored: the oracle models a single
    unconditional distribution, so conditional and unconditional predictions
    coincide.
    """


    def __init__(self, mu: np.ndarray, sigma: np.ndarray, sched: NoiseSchedule):
        mu = np.asarray(mu, dtype=np.float64)
        sigma = np.asarray(sigma, dtype=np.float64)
        if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(sigma))):
            raise InvalidParameterError("mu and sigma must be finite")
        if mu.ndim != 1:
            raise InvalidParameterError("mu must be a 1-D vector")
        d = mu.shape[0]
        if sigma.shape != (d, d):
            raise DimensionError(f"sigma shape {sigma.shape} != ({d}, {d})")
        if not np.allclose(sigma, sigma.T, rtol=0.0, atol=1e-12 * max(1.0, np.abs(sigma).max())):
            raise InvalidParameterError("sigma must be symmetric")
        lam, q = np.linalg.eigh(sigma)
        if lam.min() <= 0.0:
            raise InvalidParameterError(
                f"sigma must be positive definite, min eigenvalue {lam.min()}"
            )
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
        try:
            return self._maps[t]
        except KeyError:
            pass
        self.sched._check_t(t)
        ab = self.sched.alpha_bars[t - 1]
        s = np.sqrt(1.0 - ab) / (self._lam * ab + (1.0 - ab))
        jac = (self._q * s) @ self._q.T
        off = jac @ (np.sqrt(ab) * self.mu)
        jac.setflags(write=False)
        off.setflags(write=False)
        self._maps[t] = jac, off
        return jac, off

    def eval(self, z, t, c):
        z = self._check_vec(z, "z")
        jac, off = self._affine_map(t)
        return jac @ z - off

    def linearize(self, z, t, c):
        z = self._check_vec(z, "z")
        jac, off = self._affine_map(t)
        return jac @ z - off, functools.partial(self._pullback, jac)

    def _pullback(self, jac, v):
        return self._check_vec(v, "v") @ jac


@dataclass(frozen=True)
class MlpTrainConfig:
    width: int = 64
    max_epochs: int = 200
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 0

    def __post_init__(self):
        # type(...) is int: bool passes isinstance(..., int)
        require(type(self.width) is int and self.width >= 1, "width", self.width, "an int >= 1")
        require(type(self.max_epochs) is int and self.max_epochs >= 0, "max_epochs",
                self.max_epochs, "an int >= 0")
        require(type(self.batch_size) is int and self.batch_size >= 1, "batch_size",
                self.batch_size, "an int >= 1")
        require(self.lr > 0, "lr", self.lr, "> 0")  # NaN fails too


_N_EVAL = 256  # probe rows behind MlpDenoiser.final_loss
_P_UNCOND = 0.1  # share of labeled training rows shown unconditionally

_PARAM_ORDER = ("w1", "b1", "temb", "cemb", "w2", "b2", "w3", "b3")


class MlpDenoiser(DenoiserInterface):
    """Two-hidden-layer tanh MLP; timestep/class embeddings enter the first
    hidden pre-activation. The sizes come from the arrays: latent_dim from b3,
    width from b1 and n_classes from cemb's rows, one of which is the
    unconditional row.
    """


    def __init__(
        self,
        params: dict[str, np.ndarray],
        sched: NoiseSchedule,
        seed: int = 0,
        final_loss: float | None = None,
        trained_epochs: int = 0,
    ):
        missing = [k for k in _PARAM_ORDER if k not in params]
        if missing:
            raise InvalidInputError(f"missing parameter arrays: {missing}")
        self.params = p = {k: np.asarray(params[k], dtype=np.float64) for k in _PARAM_ORDER}
        for arr in p.values():
            if not np.all(np.isfinite(arr)):
                raise InvalidInputError("model parameters must be finite")
            arr.setflags(write=False)
        self.sched = sched
        self.latent_dim, self.width = d, width = p["b3"].size, p["b1"].size
        rows = p["cemb"].shape[0] if p["cemb"].ndim else 0
        self.n_classes = max(rows, 1) - 1  # row 0, the unconditional one, must be there
        # type(...) is int: bool passes isinstance(..., int); a run's seed may be negative
        require(type(seed) is int, "seed", seed, "an int")
        require(type(trained_epochs) is int and trained_epochs >= 0, "trained_epochs",
                trained_epochs, "an int >= 0")
        self.seed = seed
        self.final_loss = final_loss
        self.trained_epochs = trained_epochs
        shapes = {"w1": (width, d), "b1": (width,), "temb": (sched.t_train, width),
                  "cemb": (self.n_classes + 1, width), "w2": (width, width), "b2": (width,),
                  "w3": (d, width), "b3": (d,)}
        wrong = [k for k in _PARAM_ORDER if p[k].shape != shapes[k]]
        if wrong:
            raise DimensionError(f"parameter arrays {wrong} do not fit latent_dim {d} (b3), "
                                 f"width {width} (b1), {self.n_classes} classes (cemb) and "
                                 f"{sched.t_train} timesteps")

    def condition_row(self, c: Condition) -> np.ndarray:
        if c.variant == UNCONDITIONAL:
            return self.params["cemb"][0]
        if not 0 <= c.k < self.n_classes:
            raise InvalidParameterError(
                f"class label {c.k} outside [0, {self.n_classes})", k=c.k
            )
        return self.params["cemb"][c.k + 1]

    def eval(self, z, t, c):
        return self._forward(z, t, c)[2]

    def linearize(self, z, t, c):
        h1, h2, eps = self._forward(z, t, c)
        return eps, functools.partial(self._pullback, h1, h2)

    def _forward(self, z, t, c):
        z = self._check_vec(z, "z")
        self.sched._check_t(t)
        return _batch_forward(self.params, z, t - 1, self.condition_row(c))

    def _pullback(self, h1, h2, v):
        d_h1 = _hidden_backward(self.params, h1, h2, self._check_vec(v, "v"))[1]
        return d_h1 @ self.params["w1"]


def _guided(u, c, w):
    """The guidance blend u + w·(c − u) of two predictions or two pullbacks."""
    return u + w * (c - u)


def cfg_eval(model: DenoiserInterface, z: np.ndarray, t: int, c: Condition) -> np.ndarray:
    """Guided prediction ε_u + c.w·(ε_c − ε_u); w=1 returns eval(z, t, c) bit-exactly."""
    if c.w == 1.0:
        return model.eval(z, t, c)
    eps_u = model.eval(z, t, Condition.unconditional())
    if c.w == 0.0:
        return eps_u
    return _guided(eps_u, model.eval(z, t, c), c.w)


def cfg_linearize(model: DenoiserInterface, z: np.ndarray, t: int, c: Condition):
    """(cfg_eval(z, t, c), its pullback) from one linearization per condition.

    w=1 returns model.linearize(z, t, c) itself, as cfg_eval returns eval's.
    """
    if c.w == 1.0:
        return model.linearize(z, t, c)
    eps_u, back_u = model.linearize(z, t, Condition.unconditional())
    if c.w == 0.0:
        return eps_u, back_u
    eps_c, back_c = model.linearize(z, t, c)

    def pullback(v):
        return _guided(back_u(v), back_c(v), c.w)

    return _guided(eps_u, eps_c, c.w), pullback


def _init_params(rng: np.random.Generator, latent_dim: int, width: int, t_train: int, n_classes: int):
    def xavier(nout, nin):
        return rng.normal(0.0, np.sqrt(2.0 / (nin + nout)), size=(nout, nin))

    return {
        "w1": xavier(width, latent_dim),
        "b1": np.zeros(width),
        "temb": rng.normal(0.0, 1.0 / np.sqrt(width), size=(t_train, width)),
        "cemb": rng.normal(0.0, 1.0 / np.sqrt(width), size=(n_classes + 1, width)),
        "w2": xavier(width, width),
        "b2": np.zeros(width),
        "w3": xavier(latent_dim, width),
        "b3": np.zeros(latent_dim),
    }


def _flatten(params: dict[str, np.ndarray]) -> np.ndarray:
    return np.concatenate([params[k].ravel() for k in _PARAM_ORDER])


def _unflatten(flat: np.ndarray, shapes: dict[str, tuple]) -> dict[str, np.ndarray]:
    out = {}
    pos = 0
    for k in _PARAM_ORDER:
        n = math.prod(shapes[k])
        out[k] = flat[pos : pos + n].reshape(shapes[k])
        pos += n
    return out


def _batch_forward(p, z, t_idx, cond_rows):
    """Forward pass over rows of z, or one (d,) row; returns the hidden layers too."""
    h1p = z @ p["w1"].T + p["b1"] + p["temb"][t_idx] + cond_rows
    h1 = np.tanh(h1p)
    h2p = h1 @ p["w2"].T + p["b2"]
    h2 = np.tanh(h2p)
    out = h2 @ p["w3"].T + p["b3"]
    return h1, h2, out


def _hidden_backward(p, h1, h2, d_out):
    """Gradients at both hidden pre-activations, for output gradient d_out."""
    d_h2 = (d_out @ p["w3"]) * (1.0 - h2 * h2)
    return d_h2, (d_h2 @ p["w2"]) * (1.0 - h1 * h1)


def _batch_backward(p, z, t_idx, cond_idx, h1, h2, d_out):
    """Parameter gradients of a batch loss whose output gradient is d_out."""
    d_h2, d_h1 = _hidden_backward(p, h1, h2, d_out)
    # scatter d_h1's rows onto the timestep rows, then the class rows, of the
    # stacked embedding tables: bincount adds each bin's weights in input order,
    # so every sum has np.add.at's order and bits
    n_t, width = p["temb"].shape
    rows = np.concatenate((t_idx, n_t + cond_idx))
    emb = np.bincount((rows[:, None] * width + np.arange(width)).ravel(),
                      weights=np.concatenate((d_h1, d_h1)).ravel(),
                      minlength=(n_t + p["cemb"].shape[0]) * width).reshape(-1, width)
    return {"w3": d_out.T @ h2, "b3": d_out.sum(axis=0),
            "w2": d_h2.T @ h1, "b2": d_h2.sum(axis=0),
            "w1": d_h1.T @ z, "b1": d_h1.sum(axis=0),
            "temb": emb[:n_t], "cemb": emb[n_t:]}


def train_mlp_denoiser(
    data: np.ndarray,
    sched: NoiseSchedule,
    cfg: MlpTrainConfig,
    labels: np.ndarray | None = None,
) -> MlpDenoiser:
    """Fit the MLP by noise-prediction regression with Adam.

    Draws (t, ε) per example, forms z_t = sqrt(ᾱ_t)·x + sqrt(1−ᾱ_t)·ε and
    regresses the prediction onto ε (mean squared error per coordinate).
    final_loss is that loss on a fixed seeded probe set, after the last epoch.
    Fully seeded: the same config and data give bit-identical weights.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.size == 0:
        raise InvalidInputError("training data is empty")
    if data.ndim != 2:
        raise InvalidInputError(f"data must be (n, latent_dim), got shape {data.shape}")
    n, latent_dim = data.shape
    if labels is not None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            raise InvalidInputError("labels must align with data rows")
        if labels.min() < 0:
            raise InvalidInputError("labels must be non-negative")
        n_classes = int(labels.max()) + 1
    else:
        n_classes = 0

    params = _init_params(derive_rng(cfg.seed, "mlp-init"), latent_dim, cfg.width, sched.t_train, n_classes)
    shapes = {k: params[k].shape for k in _PARAM_ORDER}
    flat = _flatten(params)
    state = AdamState(lr=cfg.lr)
    rows_order = derive_rng(cfg.seed, "split").permutation(n)
    ab = np.concatenate([[1.0], np.asarray(sched.alpha_bars)])  # ᾱ indexed by t

    def noised(x, t, eps):
        return np.sqrt(ab[t])[:, None] * x + np.sqrt(1.0 - ab[t])[:, None] * eps

    bs = min(cfg.batch_size, n)
    for epoch in range(cfg.max_epochs):
        order = derive_rng(cfg.seed, "order", epoch).permutation(n)
        for bstart in range(0, n, bs):
            rows = rows_order[order[bstart : bstart + bs]]
            brng = derive_rng(cfg.seed, "noise", epoch, bstart)
            t = brng.integers(1, sched.t_train + 1, size=rows.size)
            eps = brng.standard_normal((rows.size, latent_dim))
            if labels is not None:
                cond_idx = labels[rows] + 1
                cond_idx = np.where(brng.random(rows.size) < _P_UNCOND, 0, cond_idx)
            else:
                cond_idx = np.zeros(rows.size, dtype=np.int64)
            zt = noised(data[rows], t, eps)
            h1, h2, pred = _batch_forward(params, zt, t - 1, params["cemb"][cond_idx])
            resid = pred - eps
            loss = float(np.mean(resid**2))
            if not np.isfinite(loss):
                raise TrainingFailureError(
                    f"training loss became non-finite at epoch {epoch}", epoch=epoch
                )
            d_out = 2.0 * resid / resid.size
            grads = _batch_backward(params, zt, t - 1, cond_idx, h1, h2, d_out)
            flat, state = adam_step(state, flat, _flatten(grads))
            params = _unflatten(flat, shapes)

    eval_rng = derive_rng(cfg.seed, "eval")
    probe_rows = rows_order[eval_rng.integers(0, n, size=_N_EVAL)]
    probe_t = eval_rng.integers(1, sched.t_train + 1, size=_N_EVAL)
    probe_eps = eval_rng.standard_normal((_N_EVAL, latent_dim))
    probe_cond = labels[probe_rows] + 1 if labels is not None else np.zeros(_N_EVAL, dtype=np.int64)
    zt = noised(data[probe_rows], probe_t, probe_eps)
    probe_pred = _batch_forward(params, zt, probe_t - 1, params["cemb"][probe_cond])[2]
    final_loss = float(np.mean((probe_pred - probe_eps) ** 2))

    return MlpDenoiser(params, sched, seed=cfg.seed, final_loss=final_loss,
                       trained_epochs=cfg.max_epochs)

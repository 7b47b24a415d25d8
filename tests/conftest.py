"""Shared fixtures: small schedules, the two stub denoisers, 2-d mixture MLPs, exact inverses
under an affine model and Newton preimages under any model, ILB's exact optimum under an
affine model, model-file surgery, JSON mutation, strict JSON parsing, hypothesis profile, and
`rejects`, the one form of a test that an argument is refused."""

import contextlib
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from invlab import (
    Condition,
    DenoiserInterface,
    InvalidParameterError,
    LinearGaussianDenoiser,
    MlpTrainConfig,
    coefficients,
    ddim_invert_step,
    derive_rng,
    generate_step,
    make_linear_schedule,
    make_uniform_grid,
    skip_coefficients,
    train_mlp_denoiser,
)
from invlab.errors import require, require_shape

settings.register_profile(
    "invlab",
    deadline=None,
    derandomize=True,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("invlab")


@contextlib.contextmanager
def rejects(field: str):
    """Expects the block to raise an `invalid-parameter` error naming `field`."""
    with pytest.raises(InvalidParameterError) as err:
        yield err
    assert err.value.context["field"] == field


@pytest.fixture
def toy3():
    """Three-step schedule with constant beta 0.1; alpha_bars 0.9, 0.81, 0.729."""
    return make_linear_schedule(3, 0.1, 0.1)


@pytest.fixture
def default_sched():
    return make_linear_schedule(100, 1e-4, 0.05)


@pytest.fixture
def uncond():
    return Condition()


class ConstantDenoiser(DenoiserInterface):
    """F(z, t, c) == value for every input; Jacobian is zero."""


    def __init__(self, latent_dim: int, value: float | np.ndarray = 0.0):
        self.latent_dim = int(latent_dim)
        # a copy: freezing it below leaves the caller's array writeable
        val = np.array(value, dtype=np.float64)
        if val.ndim == 0:
            val = np.full(self.latent_dim, float(val))
        val = require_shape(val, (self.latent_dim,), "value")
        val.setflags(write=False)
        self.value = val

    def eval(self, z, t, c):
        require_shape(z, (self.latent_dim,), "z")
        return self.value.copy()

    def linearize(self, z, t, c):
        return self.eval(z, t, c), lambda v: np.zeros_like(
            require_shape(v, (self.latent_dim,), "v"))


class ScalingDenoiser(DenoiserInterface):
    """F(z, t, c) = scale · z at every timestep; Jacobian is scale·I."""


    def __init__(self, latent_dim: int, scale: float):
        self.latent_dim = int(latent_dim)
        self.scale = float(scale)

    def eval(self, z, t, c):
        return self.scale * require_shape(z, (self.latent_dim,), "z")

    def linearize(self, z, t, c):
        return self.eval(z, t, c), lambda v: self.scale * require_shape(v, (self.latent_dim,), "v")


@pytest.fixture
def stub0():
    return ConstantDenoiser(1, 0.0)


@pytest.fixture
def stub_half():
    return ScalingDenoiser(1, 0.5)


@pytest.fixture
def unit_gauss1(toy3):
    """Standard normal data prior in one dimension."""
    return LinearGaussianDenoiser(np.zeros(1), np.eye(1), toy3)


@pytest.fixture
def gauss_nd(default_sched):
    """Anisotropic 4-d Gaussian prior with a dense covariance."""
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    sigma = a @ a.T + 0.5 * np.eye(4)
    mu = rng.standard_normal(4)
    return LinearGaussianDenoiser(mu, sigma, default_sched)


@pytest.fixture
def grid50(default_sched):
    return make_uniform_grid(default_sched, 50)


def make_gauss_mixture(n: int, seed: int, dim: int = 2, n_classes: int = 3,
                       spread: float = 2.0, noise: float = 0.35):
    """Labeled mixture draws: (samples (n, dim), labels (n,), means (k, dim)).

    Class means sit on a circle in the first two coordinates; remaining
    coordinates are zero-mean. Component covariance is noise²·I.
    """
    require(n >= 1, "n", n, ">= 1")
    require(dim >= 1, "dim", dim, ">= 1")
    require(n_classes >= 1, "n_classes", n_classes, ">= 1")
    angles = 2.0 * np.pi * np.arange(n_classes) / n_classes
    means = np.zeros((n_classes, dim))
    means[:, 0] = spread * np.cos(angles)
    if dim > 1:
        means[:, 1] = spread * np.sin(angles)
    rng = derive_rng(seed, "gauss2d")
    labels = rng.integers(0, n_classes, size=n)
    samples = means[labels] + noise * rng.standard_normal((n, dim))
    return samples, labels.astype(np.int64), means


def train_tiny_mlp(seed: int = 0):
    """A width-16 MLP on 48 mixture draws, and its 20-step schedule."""
    sched = make_linear_schedule(20, 1e-3, 0.05)
    data = make_gauss_mixture(48, seed=9)[0]
    return train_mlp_denoiser(data, sched, MlpTrainConfig(width=16, max_epochs=4), seed), sched


@pytest.fixture(scope="session")
def tiny_mlp():
    return train_tiny_mlp()


def spectral_form(model, t):
    """(eval, pullback) of a LinearGaussianDenoiser at t, applied per call in
    Σ's eigenbasis: sqrt(1−ᾱ_t)·Q·diag(1/(λ·ᾱ_t + 1 − ᾱ_t))·Qᵀ."""
    lam, q = np.linalg.eigh(model.sigma)
    ab = model.sched.alpha_bar(t)
    d_t = lam * ab + (1.0 - ab)

    def eval_(z):
        return np.sqrt(1.0 - ab) * (q @ (q.T @ (z - np.sqrt(ab) * model.mu) / d_t))

    def pullback(v):
        return np.sqrt(1.0 - ab) * (q @ (q.T @ v / d_t))

    return eval_, pullback


def jacobian(model, z, t):
    """∂F/∂z at (z, t) through the public linearize: row i is the pullback of e_i."""
    _, pullback = model.linearize(z, t, Condition())
    return np.stack([pullback(e) for e in np.eye(model.latent_dim)])


def affine_map(model, t):
    """(J_t, o_t) of a model whose prediction is affine, eval(z, t) = J_t·z − o_t:
    o_t = −eval(0, t), and J_t is the Jacobian anywhere."""
    zero = np.zeros(model.latent_dim)
    return jacobian(model, zero, t), -model.eval(zero, t, Condition())


def exact_step(model, co, z_prev):
    """The z_t that generate_step maps exactly onto z_prev under an affine model: the
    solution of (φI + ψJ_t)·z_t = z_prev + ψ·o_t."""
    jac, off = affine_map(model, co.t)
    return np.linalg.solve(co.phi * np.eye(model.latent_dim) + co.psi * jac,
                           z_prev + co.psi * off)


def newton_preimage(model, co, z_prev):
    """The z_t that generate_step maps onto z_prev under any model, by Newton's method on
    r(z) = φz + ψF(z, t) − z_prev with the exact Jacobian φI + ψJ: from DDIM's one-shot
    step, keeping the iterate of least ‖r‖∞, until ‖r‖∞ < 1e-12 or 15 evaluations. (At
    1e-8 the kept iterate replays only to about 3e-9 on the trained MLP, as coarse as the
    sweeps it is the reference for; 1e-12 costs it 0.5 to 1 more evaluation per step.)"""
    c, eye = Condition(), np.eye(model.latent_dim)
    z = ddim_invert_step(model, co, z_prev, c)
    best = (math.inf, z)
    for _ in range(15):
        r = generate_step(model, co, z, c) - z_prev
        err = float(np.abs(r).max())
        if err < best[0]:
            best = (err, z)
        if err < 1e-12:
            break
        z = z - np.linalg.solve(co.phi * eye + co.psi * jacobian(model, z, co.t), r)
    return best[1]


def exact_preimage(model, sched, grid, z0):
    """The exact z_T of inverting z0 along grid under an affine model, one solve per step."""
    z = np.asarray(z0, dtype=np.float64)
    for t_prev, t in grid.transitions():
        z = exact_step(model, coefficients(sched, t, t_prev), z)
    return z


def ilb_exact_optimum(x0, ae, model, sched, cfg):
    """(z*, total*): the minimiser and minimum of ILB's total under weights (1, 0, 0), with the
    regularizer, for an affine model such as the analytic oracle. There both terms are L1 norms
    of affine maps of z: mean|Dz + m − x0| over the P pixels, and mean|Rz + r0| over the d
    latents for r(z) = z − rt(z), where the round trip rt is `ddim_invert_step` then
    `generate_step` over the 0 → δt skip, composed here from the public steps. So the minimum
    is a linear program in z and the split residuals s± ≥ 0 (pixels) and u± ≥ 0 (latents):
    minimise Σs±/P + Σu±/d subject to Dz − s⁺ + s⁻ = x0 − m and Rz − u⁺ + u⁻ = −r0, solved by
    HiGHS. D and m take d + 1 decodes, R and r0 d + 1 round trips."""
    from scipy.optimize import linprog  # scipy is a test dependency; invlab runs without it

    require(cfg.use_reg and tuple(cfg.weights) == (1.0, 0.0, 0.0), "cfg", cfg,
            "weights (1, 0, 0) with the regularizer")
    c, d = Condition(), ae.latent_dim
    eye, zero = np.eye(d), np.zeros(d)
    m = ae.decode(zero).ravel()
    dec = np.stack([ae.decode(e).ravel() - m for e in eye], axis=1)
    skip = skip_coefficients(sched, cfg.dt)

    def rt(z):
        return generate_step(model, skip, ddim_invert_step(model, skip, z, c), c)

    rt0 = rt(zero)  # r0 = −rt0
    reg = eye - np.stack([rt(e) - rt0 for e in eye], axis=1)
    p = len(m)
    a_eq = np.block([[dec, -np.eye(p), np.eye(p), np.zeros((p, 2 * d))],
                     [reg, np.zeros((d, 2 * p)), -eye, eye]])
    b_eq = np.concatenate([np.ravel(x0) - m, rt0])
    cost = np.concatenate([np.zeros(d), np.full(2 * p, 1.0 / p), np.full(2 * d, 1.0 / d)])
    res = linprog(cost, A_eq=a_eq, b_eq=b_eq, method="highs",
                  bounds=[(None, None)] * d + [(0.0, None)] * (2 * p + 2 * d))
    assert res.status == 0, res.message
    return res.x[:d], float(res.fun)


def read_model_file(path):
    """(header, the raw array bytes) of a saved model file."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def write_model_file(path, header, body: bytes) -> None:
    """A model file holding `header` and the raw array bytes `body`."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(b"LABMDL1\n" + struct.pack("<Q", len(blob)) + blob + body)


def widen_cemb(path, rows: int) -> None:
    """Rewrite the MLP model file at `path` with `rows` copies of its one cemb row,
    as a class-labelled model's file held one row more than its classes."""
    header, body = read_model_file(path)
    offset = 0
    for entry in header["arrays"]:
        size = 8 * math.prod(entry["shape"])
        if entry["name"] == "cemb":
            entry["shape"][0] = rows
            body = body[:offset] + body[offset:offset + size] * rows + body[offset + size:]
            break
        offset += size
    write_model_file(path, header, body)


# any JSON value, NaN and the infinities included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)


def _refuse_constant(constant):
    raise ValueError(f"{constant} is not strict JSON")


def strict_json(text: str):
    """The JSON document in text; ValueError if it holds NaN, Infinity or -Infinity."""
    return json.loads(text, parse_constant=_refuse_constant)


def json_leaves(doc, path=()):
    """The paths to every scalar and every empty container in a JSON document."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    paths = [leaf for key, value in children for leaf in json_leaves(value, path + (key,))]
    return paths or [path]


def key_path(leaf) -> str:
    """A path of keys and indices in the form a ConfigError names it: `a.b`, `a[0]`."""
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in leaf).lstrip(".")


def mutate_json_leaf(doc, data) -> None:
    """Set one leaf of the JSON document `doc`, drawn with hypothesis `data`, to any JSON value."""
    set_json_leaf(doc, data.draw(st.sampled_from(json_leaves(doc))), data.draw(JSON_VALUES))


def set_json_leaf(doc, leaf, value) -> None:
    """Set the leaf of the JSON document `doc` at path `leaf` (keys and indices) to value."""
    *parents, last = leaf
    node = doc
    for step in parents:
        node = node[step]
    node[last] = value

"""Shared fixtures: small schedules, the two stub denoisers, the Gaussian-mixture oracle, 2-d
mixture MLPs, exact inverses
under an affine model and Newton preimages under any model, ILB's exact optimum under an
affine model, the finite-difference gradient checker and the residuals whose kinks it steps
around, model-file surgery, JSON mutation, strict JSON parsing, hypothesis profile, and
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
    DenoiserInterface,
    DivergenceError,
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

_EPS = float(np.finfo(np.float64).eps)
_CENTRAL_STEP = _EPS ** (1.0 / 3.0)
ROUNDOFF = 1.0  # K: a coordinate's gap counts beyond K·eps·|f(x)|/h_j, the difference's round-off


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


class ConstantDenoiser(DenoiserInterface):
    """F(z, t) == value for every input; Jacobian is zero."""


    def __init__(self, latent_dim: int, value: float | np.ndarray = 0.0):
        self.latent_dim = int(latent_dim)
        # a copy: freezing it below leaves the caller's array writeable
        val = np.array(value, dtype=np.float64)
        if val.ndim == 0:
            val = np.full(self.latent_dim, float(val))
        val = require_shape(val, (self.latent_dim,), "value")
        val.setflags(write=False)
        self.value = val

    def linearize(self, z, t):
        require_shape(z, (self.latent_dim,), "z")
        return self.value.copy(), lambda v: np.zeros_like(
            require_shape(v, (self.latent_dim,), "v"))


class ScalingDenoiser(DenoiserInterface):
    """F(z, t) = scale · z at every timestep; Jacobian is scale·I."""


    def __init__(self, latent_dim: int, scale: float):
        self.latent_dim = int(latent_dim)
        self.scale = float(scale)

    def linearize(self, z, t):
        return (self.scale * require_shape(z, (self.latent_dim,), "z"),
                lambda v: self.scale * require_shape(v, (self.latent_dim,), "v"))


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


def make_gauss_mixture(n: int, seed: int) -> np.ndarray:
    """n draws (n, 2) from three equally likely N(m_k, 0.35²·I) whose means m_k sit on the
    circle of radius 2 at angles 0, 2π/3 and 4π/3."""
    angles = 2.0 * np.pi * np.arange(3) / 3
    means = 2.0 * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    rng = derive_rng(seed, "gauss2d")
    labels = rng.integers(0, 3, size=n)
    return means[labels] + 0.35 * rng.standard_normal((n, 2))


def train_tiny_mlp(seed: int = 0):
    """A width-16 MLP on 48 mixture draws, and its 20-step schedule."""
    sched = make_linear_schedule(20, 1e-3, 0.05)
    data = make_gauss_mixture(48, seed=9)
    return train_mlp_denoiser(data, sched, MlpTrainConfig(width=16, max_epochs=4), seed), sched


@pytest.fixture(scope="session")
def tiny_mlp():
    return train_tiny_mlp()


class GaussianMixtureDenoiser(DenoiserInterface):
    """The exact ε-predictor of data drawn from Σ_k (1/K)·N(μ_k, s²·I), μ_k the rows of mus.

    At t the noisy marginal's components are N(√ᾱ_t·μ_k, v_t·I), v_t = ᾱ_t·s² + 1 − ᾱ_t, so
    F(z, t) = √(1 − ᾱ_t)/v_t · Σ_k w_k·(z − √ᾱ_t·μ_k), w the components' posterior weights
    (a softmax). Its Jacobian √(1 − ᾱ_t)/v_t · (I − Cov_w(z − √ᾱ_t·μ)/v_t) is symmetric, so
    the pullback applies it to v: a nonlinear backend whose pullback is exact with no
    training."""

    def __init__(self, mus, s: float, sched):
        self.mus = np.array(mus, dtype=np.float64)
        self.latent_dim = self.mus.shape[1]
        self.s = float(s)
        self.sched = sched

    def linearize(self, z, t):
        z = require_shape(z, (self.latent_dim,), "z")
        ab = self.sched.alpha_bar(t)
        var = ab * self.s**2 + 1.0 - ab
        diff = z - math.sqrt(ab) * self.mus  # (K, d)
        logits = -np.sum(diff * diff, axis=1) / (2.0 * var)
        w = np.exp(logits - logits.max())
        w /= w.sum()
        mean = w @ diff
        centred = diff - mean
        scale = math.sqrt(1.0 - ab) / var

        def pullback(v):
            v = require_shape(v, (self.latent_dim,), "v")
            return scale * (v - (w * (centred @ v)) @ centred / var)
        return scale * mean, pullback


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
    _, pullback = model.linearize(z, t)
    return np.stack([pullback(e) for e in np.eye(model.latent_dim)])


def affine_map(model, t):
    """(J_t, o_t) of a model whose prediction is affine, eval(z, t) = J_t·z − o_t:
    o_t = −eval(0, t), and J_t is the Jacobian anywhere."""
    zero = np.zeros(model.latent_dim)
    return jacobian(model, zero, t), -model.eval(zero, t)


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
    eye = np.eye(model.latent_dim)
    z = ddim_invert_step(model, co, z_prev)
    best = (math.inf, z)
    for _ in range(15):
        r = generate_step(model, co, z) - z_prev
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
    d = ae.latent_dim
    eye, zero = np.eye(d), np.zeros(d)
    m = ae.decode(zero).ravel()
    dec = np.stack([ae.decode(e).ravel() - m for e in eye], axis=1)
    skip = skip_coefficients(sched, cfg.dt)

    def rt(z):
        return generate_step(model, skip, ddim_invert_step(model, skip, z))

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


def _stepped(x):
    """Per coordinate j of x: (h_j, x + h_j·e_j, x − h_j·e_j), h_j = h·(1 + |x_j|)."""
    flat = x.ravel()
    for j in range(flat.size):
        h = _CENTRAL_STEP * (1.0 + abs(flat[j]))
        xp = flat.copy()
        xm = flat.copy()
        xp[j] += h
        xm[j] -= h
        yield h, xp.reshape(x.shape), xm.reshape(x.shape)


def central_difference(f, x):
    """Central-difference gradient of the scalar function f at x, shaped like x.

    Coordinate j steps by h_j = h·(1+|x_j|). The relative step h = eps^(1/3)
    ≈ 6.06e-6 (float64) balances the two error terms of a central difference:
    truncation, which grows as h², and round-off, which grows as |f|·eps/h. A
    smaller step lets round-off dominate, and at any step round-off leaves
    a gap of up to about |f|·eps/h_j, which `gradient_check` does not count.
    """
    x = np.asarray(x, dtype=np.float64)
    return np.array([(f(xp) - f(xm)) / (2.0 * h) for h, xp, xm in _stepped(x)]).reshape(x.shape)


def gradient_check(f, grad_f, x, residual=None):
    """Max relative error of grad_f against `central_difference(f, x)`, or None for a probe
    that straddles a kink.

    `residual` is the r(x) whose signs the |·| terms of f take. When some r_i has different
    signs at x + h_j·e_j and at x − h_j·e_j, for some coordinate j, the difference averages
    two slopes, and the probe is None: the caller draws the next one (`checked_probes`).
    Coordinate j's gap |g_j − d_j| counts only beyond the difference's own round-off,
    ROUNDOFF·eps·|f(x)|/h_j, and is divided by |d_j| with an absolute floor of 1e-12. A
    non-finite entry of grad_f or of the differences raises DivergenceError naming its
    first coordinate, and so does a non-finite f(x), which would hide every gap.
    """
    x = np.asarray(x, dtype=np.float64)
    grad_f = np.asarray(grad_f, dtype=np.float64)
    assert grad_f.shape == x.shape, (grad_f.shape, x.shape)
    grad_f = grad_f.ravel()
    bad = np.flatnonzero(~np.isfinite(grad_f))
    if bad.size:
        raise DivergenceError(f"non-finite gradient under check at coordinate {bad[0]}")
    if residual is not None and any(np.any(np.sign(residual(xp)) != np.sign(residual(xm)))
                                    for _, xp, xm in _stepped(x)):
        return None
    fx, fd = f(x), central_difference(f, x).ravel()
    if not math.isfinite(fx):
        raise DivergenceError("non-finite evaluation during gradient check at the probe")
    bad = np.flatnonzero(~np.isfinite(fd))
    if bad.size:
        raise DivergenceError(
            f"non-finite evaluation during gradient check at coordinate {bad[0]}")
    roundoff = ROUNDOFF * _EPS * abs(fx) / (_CENTRAL_STEP * (1.0 + np.abs(x.ravel())))
    gap = np.maximum(np.abs(grad_f - fd) - roundoff, 0.0)
    return float(np.max(gap / np.maximum(np.abs(fd), 1e-12), initial=0.0))


def checked_probes(count, probe):
    """(worst, skipped): probe(k) for k = 0, 1, ... returns a dict of `gradient_check` errors,
    until `count` probes have none that is None. A probe with a None straddles a kink and is
    skipped; worst holds each error's largest over the counted probes. More skipped probes
    than counted ones fail the test: the check would then test too little."""
    worst, skipped, k = {}, 0, 0
    while count:
        errors = probe(k)
        k += 1
        if None in errors.values():
            skipped += 1
            assert skipped <= count, f"{skipped} probes straddle a kink"
            continue
        count -= 1
        worst = {name: max(err, worst.get(name, 0.0)) for name, err in errors.items()}
    return worst, skipped


def ilb_residual(x0, ae, model, sched, cfg):
    """z ↦ the residuals whose signs ILB's total takes, written as ilb.py writes them: x0 − D(z)
    for the L1 term, joined, with the regularizer on, with z − rt(z) for the skip's round
    trip rt."""
    skip = skip_coefficients(sched, cfg.dt)

    def residual(z):
        r = np.ravel(x0 - ae.decode(z))
        if not cfg.use_reg:
            return r
        z_dt = skip.invert(z, model.eval(z, skip.t))
        return np.concatenate([r, z - skip.generate(z_dt, model.eval(z_dt, skip.t))])
    return residual


def lbo_residual(model, co, z_prev):
    """b ↦ r(b) = generate(z_prev + b) − z_prev, whose signs LBO's objective mean|r| takes."""
    def residual(b):
        z = z_prev + b
        return co.generate(z, model.eval(z, co.t)) - z_prev
    return residual


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

"""Shared fixtures: small schedules, stub denoisers, 2-d mixture MLPs, model-file
surgery, JSON mutation, hypothesis profile."""

import json
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st

from invlab import (
    Condition,
    ConstantDenoiser,
    InvalidParameterError,
    LinearGaussianDenoiser,
    MlpTrainConfig,
    ScalingDenoiser,
    derive_rng,
    make_linear_schedule,
    make_uniform_grid,
    train_mlp_denoiser,
)

settings.register_profile(
    "invlab",
    deadline=None,
    derandomize=True,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("invlab")


@pytest.fixture
def toy3():
    """Three-step schedule with constant beta 0.1; alpha_bars 0.9, 0.81, 0.729."""
    return make_linear_schedule(3, 0.1, 0.1)


@pytest.fixture
def default_sched():
    return make_linear_schedule(100, 1e-4, 0.05)


@pytest.fixture
def uncond():
    return Condition.unconditional()


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
    if n < 1:
        raise InvalidParameterError(f"n must be >= 1, got {n}")
    if dim < 1 or n_classes < 1:
        raise InvalidParameterError(f"need dim >= 1 and n_classes >= 1, got {dim}, {n_classes}")
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
    """A labelled width-16 MLP on 48 mixture draws, and its 20-step schedule."""
    sched = make_linear_schedule(20, 1e-3, 0.05)
    data, labels, _ = make_gauss_mixture(48, seed=9)
    cfg = MlpTrainConfig(width=16, max_epochs=4, seed=seed)
    return train_mlp_denoiser(data, sched, cfg, labels), sched


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


def read_model_file(path):
    """(header, the raw array bytes) of a saved model file."""
    raw = path.read_bytes()
    (hlen,) = struct.unpack("<Q", raw[8:16])
    return json.loads(raw[16:16 + hlen]), raw[16 + hlen:]


def write_model_file(path, header, body: bytes) -> None:
    """A model file holding `header` and the raw array bytes `body`."""
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path.write_bytes(b"LABMDL1\n" + struct.pack("<Q", len(blob)) + blob + body)


# any JSON value, NaN and the infinities included
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner,
                                                                max_size=3),
    max_leaves=4)


def _leaves(doc, path=()):
    """The paths to every scalar and every empty container in a JSON document."""
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    paths = [leaf for key, value in children for leaf in _leaves(value, path + (key,))]
    return paths or [path]


def mutate_json_leaf(doc, data) -> None:
    """Set one leaf of the JSON document `doc`, drawn with hypothesis `data`, to any JSON value."""
    *parents, last = data.draw(st.sampled_from(_leaves(doc)))
    node = doc
    for step in parents:
        node = node[step]
    node[last] = data.draw(JSON_VALUES)

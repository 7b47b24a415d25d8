"""Noise-predictor backends: stubs, the Gaussian oracle, the trained MLP."""

import math

import numpy as np
import pytest
from conftest import (ConstantDenoiser, GaussianMixtureDenoiser, ScalingDenoiser, gradient_check,
                      rejects, spectral_form, train_tiny_mlp)
from hypothesis import given
from hypothesis import strategies as st

import invlab.denoiser
from invlab import (
    AdamState,
    DivergenceError,
    LinearAutoencoder,
    LinearGaussianDenoiser,
    MlpDenoiser,
    MlpTrainConfig,
    adam_step,
    derive_rng,
    make_linear_schedule,
    train_mlp_denoiser,
)

EIGHT_POINTS = np.array(
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
     [-1.0, 0.0], [0.0, -1.0], [0.5, 0.5], [-0.5, -0.5]]
)


def test_constant_denoiser():
    m = ConstantDenoiser(3, 0.7)
    z = np.array([1.0, -2.0, 0.0])
    np.testing.assert_array_equal(m.eval(z, 5), np.full(3, 0.7))
    np.testing.assert_array_equal(m.linearize(z, 5)[1](np.ones(3)), np.zeros(3))
    with rejects("z"):
        m.eval(np.zeros(2), 5)


def test_scaling_denoiser():
    m = ScalingDenoiser(2, -0.5)
    z = np.array([2.0, 4.0])
    np.testing.assert_array_equal(m.eval(z, 1), np.array([-1.0, -2.0]))
    v = np.array([1.0, 3.0])
    np.testing.assert_array_equal(m.linearize(z, 1)[1](v), -0.5 * v)


def test_unit_gaussian_hand_value(unit_gauss1):
    # for N(0, I): F*(z, t) = sqrt(1 - abar_t) * z; at t=2, sqrt(0.19), frozen
    got = unit_gauss1.eval(np.array([1.0]), 2)
    assert got[0] == pytest.approx(0.4358898943540673, abs=1e-15)


def test_unit_gaussian_closed_form_all_steps(toy3):
    m = LinearGaussianDenoiser(np.zeros(2), np.eye(2), toy3)
    z = np.array([0.3, -1.7])
    for t in (1, 2, 3):
        expect = np.sqrt(1.0 - toy3.alpha_bar(t)) * z
        np.testing.assert_allclose(m.eval(z, t), expect, atol=1e-14)


def test_gaussian_oracle_matches_direct_solve(gauss_nd, default_sched):
    # independent reconstruction of the affine map via an explicit solve
    rng = np.random.default_rng(11)
    for t in (1, 17, 100):
        z = rng.standard_normal(4)
        ab = default_sched.alpha_bar(t)
        sigma_t = ab * gauss_nd.sigma + (1.0 - ab) * np.eye(4)
        expect = np.sqrt(1.0 - ab) * np.linalg.solve(sigma_t, z - np.sqrt(ab) * gauss_nd.mu)
        np.testing.assert_allclose(gauss_nd.eval(z, t), expect, atol=1e-12)


def test_gaussian_eval_pure(gauss_nd):
    z = np.array([0.1, -0.2, 0.5, 2.0])
    a = gauss_nd.eval(z, 30)
    b = gauss_nd.eval(z, 30)
    np.testing.assert_array_equal(a, b)


def test_gaussian_vjp_exact_and_linear(gauss_nd):
    rng = np.random.default_rng(4)
    z = rng.standard_normal(4)
    v1, v2 = rng.standard_normal(4), rng.standard_normal(4)
    got = gauss_nd.linearize(z, 40)[1](2.0 * v1 - 3.0 * v2)
    lin = 2.0 * gauss_nd.linearize(z, 40)[1](v1) - 3.0 * gauss_nd.linearize(z, 40)[1](v2)
    np.testing.assert_allclose(got, lin, atol=1e-10)
    err = gradient_check(lambda x: float(v1 @ gauss_nd.eval(x, 40)),
                         gauss_nd.linearize(z, 40)[1](v1), z)
    assert err < 1e-6


def test_gaussian_rejects_bad_covariance(toy3):
    with rejects("sigma"):  # asymmetric
        LinearGaussianDenoiser(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), toy3)
    with rejects("sigma"):  # indefinite
        LinearGaussianDenoiser(np.zeros(2), np.array([[1.0, 0.0], [0.0, -2.0]]), toy3)
    with rejects("mu"):
        LinearGaussianDenoiser(np.array([0.0, np.inf]), np.eye(2), toy3)
    with rejects("mu"):  # no latents
        LinearGaussianDenoiser(np.zeros(0), np.zeros((0, 0)), toy3)
    with rejects("sigma"):
        LinearGaussianDenoiser(np.zeros(2), np.array([[1.0, np.nan], [np.nan, 1.0]]), toy3)
    with rejects("sigma"):
        LinearGaussianDenoiser(np.zeros(3), np.eye(2), toy3)


def test_gaussian_covariance_checks_sit_at_their_bounds(toy3):
    with rejects("sigma"):  # a zero eigenvalue is not positive definite
        LinearGaussianDenoiser(np.zeros(2), np.diag([0.0, 1.0]), toy3)

    # I plus an antisymmetric part a: sigma's entries are at most 1, so the symmetry
    # tolerance is 1e-12, absolute
    def skewed(a):
        return np.eye(2) + np.array([[0.0, a / 2.0], [-a / 2.0, 0.0]])
    with rejects("sigma"):
        LinearGaussianDenoiser(np.zeros(2), skewed(1.5e-12), toy3)
    assert LinearGaussianDenoiser(np.zeros(2), skewed(0.5e-12), toy3).latent_dim == 2


def _max_rel(a, ref):
    return float(np.abs(a - ref).max() / np.abs(ref).max())


def test_gaussian_eval_and_vjp_are_the_affine_map_bits(gauss_nd, default_sched):
    # J_t and o_t rebuilt from the docstring's formula; eval and vjp apply them
    # exactly, and agree with the per-call spectral form to rounding
    lam, q = np.linalg.eigh(gauss_nd.sigma)
    rng = np.random.default_rng(12)
    for t in range(1, default_sched.t_train + 1):
        z, v = rng.standard_normal(4), rng.standard_normal(4)
        ab = default_sched.alpha_bars[t]
        jac = (q * (np.sqrt(1.0 - ab) / (lam * ab + (1.0 - ab)))) @ q.T
        off = jac @ (np.sqrt(ab) * gauss_nd.mu)
        got_eval, got_vjp = gauss_nd.eval(z, t), gauss_nd.linearize(z, t)[1](v)
        assert got_eval.tobytes() == (jac @ z - off).tobytes()
        assert got_vjp.tobytes() == (v @ jac).tobytes()
        eval_ref, pullback_ref = spectral_form(gauss_nd, t)
        assert _max_rel(got_eval, eval_ref(z)) <= 1e-12
        assert _max_rel(got_vjp, pullback_ref(v)) <= 1e-12


def test_gaussian_maps_are_read_only(gauss_nd):
    gauss_nd.eval(np.zeros(4), 30)
    for arr in gauss_nd._maps[30]:
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("backend", ["gaussian", "mlp"])
def test_timestep_outside_schedule_rejected(backend, tiny_mlp):
    if backend == "gaussian":
        sched = make_linear_schedule(20, 1e-3, 0.05)
        model = LinearGaussianDenoiser(np.zeros(2), np.eye(2), sched)
    else:
        model, sched = tiny_mlp
    z, v = np.array([0.4, -0.2]), np.array([1.0, 0.5])
    for t in (0, sched.t_train + 1):
        with rejects("t"):
            model.eval(z, t)
        with rejects("t"):
            model.linearize(z, t)[1](v)
    for t in (1, sched.t_train):
        assert np.all(np.isfinite(model.eval(z, t)))
        assert np.all(np.isfinite(model.linearize(z, t)[1](v)))


def test_cached_map_does_not_admit_a_non_integer_t(gauss_nd):
    # each cached t is checked, so a float or bool equal to one must be checked before the lookup
    z = np.zeros(4)
    gauss_nd.eval(z, 2)
    gauss_nd.eval(z, 1)
    for t in (2.0, np.float64(2.0), True):
        with rejects("t"):
            gauss_nd.eval(z, t)
        with rejects("t"):
            gauss_nd.linearize(z, t)
    assert np.array_equal(gauss_nd.eval(z, np.int64(2)), gauss_nd.eval(z, 2))


def _constructor_cases():
    """id -> (a model built from the caller's arrays, those arrays, the model's output)."""
    sched = make_linear_schedule(20, 1e-3, 0.05)
    z, x = np.array([0.3, -0.8]), np.array([0.2, 0.9, -0.4, 0.6]).reshape(2, 2, 1)
    params = invlab.denoiser._init_params(np.random.default_rng(26), 2, 4, 20)
    return {
        "constant": (lambda v: ConstantDenoiser(2, v), [np.full(2, 0.7)],
                     lambda m: m.eval(z, 5)),
        "gaussian": (lambda mu, sigma: LinearGaussianDenoiser(mu, sigma, sched),
                     [np.array([0.5, -1.0]), np.array([[2.0, 0.3], [0.3, 1.0]])],
                     lambda m: m.eval(z, 5)),
        "mlp": (lambda *arrays: MlpDenoiser(dict(zip(params, arrays)), sched),
                list(params.values()), lambda m: m.eval(z, 5)),
        # W keeps pixels 0 and 1; the leak reads only the discarded pixels 2 and 3
        "linear-autoencoder": (lambda w, mean, leak: LinearAutoencoder(w, mean, (2, 2, 1), leak),
                               [np.eye(2, 4), np.full(4, 0.1), 0.5 * np.eye(4)[2:]],
                               lambda m: np.concatenate((m.encode(x), m.decode(z).ravel()))),
    }


@pytest.mark.parametrize("case", ["constant", "gaussian", "mlp", "linear-autoencoder"])
def test_constructor_leaves_the_callers_arrays_writeable_and_apart(case):
    build, arrays, output = _constructor_cases()[case]
    model = build(*arrays)
    twin = build(*[a.copy() for a in arrays])
    assert all(a.flags.writeable for a in arrays)
    for a in arrays:
        a += 1.0
    # the model has not run yet, so any cache it builds lazily reads its own arrays
    assert output(model).tobytes() == output(twin).tobytes()


def test_mlp_train_determinism():
    a, _ = train_tiny_mlp(seed=3)
    b, _ = train_tiny_mlp(seed=3)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k], b.params[k])
    c, _ = train_tiny_mlp(seed=4)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


# cemb holds exactly one row: a file from a class-labelled model has more; a shape of None
# leaves the array out
@pytest.mark.parametrize("name,shape", [("cemb", (0, 5)), ("cemb", ()), ("w1", (3, 5)),
                                        ("temb", (19, 5)), ("w2", (5, 4)), ("cemb", (3, 5)),
                                        ("b2", None)])
def test_mlp_reads_its_sizes_from_its_arrays(name, shape):
    sched = make_linear_schedule(20, 1e-3, 0.05)
    p = invlab.denoiser._init_params(np.random.default_rng(25), 3, 5, 20)
    model = MlpDenoiser(p, sched)
    assert (model.latent_dim, model.width) == (3, 5)
    if shape is None:
        del p[name]
    else:
        p[name] = np.zeros(shape)
    with rejects(name):
        MlpDenoiser(p, sched)


def test_mlp_rejects_empty_and_misshapen_data():
    sched = make_linear_schedule(10, 1e-3, 0.05)
    with rejects("data"):
        train_mlp_denoiser(np.empty((0, 2)), sched, MlpTrainConfig())
    with rejects("data"):
        train_mlp_denoiser(np.zeros((4, 2, 2)), sched, MlpTrainConfig())
    # one example of one coordinate is enough
    assert train_mlp_denoiser(np.ones((1, 1)), sched, MlpTrainConfig(max_epochs=0)).latent_dim == 1


def test_mlp_divergence_names_epoch():
    sched = make_linear_schedule(10, 1e-3, 0.05)
    cfg = MlpTrainConfig(width=8, max_epochs=10, batch_size=4, lr=1e200)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as exc:
        train_mlp_denoiser(EIGHT_POINTS[:4], sched, cfg, 0)
    assert "epoch" in str(exc.value) and exc.value.context["epoch"] >= 0


def test_mlp_final_loss_is_its_probe_recomputed_from_the_documented_streams():
    # 256 probe rows: the "eval" stream draws a data row (through the "split" order), a
    # timestep in [1, t_train] and an ε for each, and each prediction is one `eval` call
    sched = make_linear_schedule(20, 1e-3, 0.05)
    data = np.random.default_rng(5).standard_normal((24, 3))
    model = train_mlp_denoiser(data, sched, MlpTrainConfig(width=8, max_epochs=2), 3)
    probe = derive_rng(3, "eval")
    rows = derive_rng(3, "split").permutation(24)[probe.integers(0, 24, size=256)]
    ts = probe.integers(1, sched.t_train + 1, size=256)
    eps = probe.standard_normal((256, 3))
    pred = np.stack([model.eval(math.sqrt(sched.alpha_bar(t)) * data[row]
                                + math.sqrt(1.0 - sched.alpha_bar(t)) * e, t)
                     for row, t, e in zip(rows, ts, eps)])
    assert model.final_loss == float(np.mean((pred - eps) ** 2))


def test_a_one_batch_epoch_is_one_adam_step_on_each_named_array():
    # batch_size above the row count: the epoch is one batch of every row, in the "split"
    # order permuted by epoch 0's "order" stream, noised from batch 0's "noise" stream
    sched = make_linear_schedule(20, 1e-3, 0.05)
    data = np.random.default_rng(6).standard_normal((7, 3))
    cfg = MlpTrainConfig(width=5, max_epochs=1, batch_size=10, lr=0.01)
    model = train_mlp_denoiser(data, sched, cfg, 4)
    p = invlab.denoiser._init_params(derive_rng(4, "mlp-init"), 3, 5, 20)
    rows = derive_rng(4, "split").permutation(7)[derive_rng(4, "order", 0).permutation(7)]
    noise = derive_rng(4, "noise", 0, 0)
    t = noise.integers(1, 21, size=7)
    eps = noise.standard_normal((7, 3))
    ab = sched.alpha_bars[t]
    zt = np.sqrt(ab)[:, None] * data[rows] + np.sqrt(1.0 - ab)[:, None] * eps
    h1, h2, pred = invlab.denoiser._batch_forward(p, zt, t - 1)
    grads = invlab.denoiser._batch_backward(p, zt, t - 1, h1, h2, 2.0 * (pred - eps) / eps.size)
    assert sorted(grads) == sorted(model.params)
    for k, g in grads.items():
        want = adam_step(AdamState(lr=0.01), p[k], g)[0]
        assert model.params[k].tobytes() == want.tobytes(), k


def test_mlp_eval_pure(tiny_mlp):
    model, _ = tiny_mlp
    z = np.array([0.3, -0.8])
    np.testing.assert_array_equal(model.eval(z, 5), model.eval(z, 5))


def test_mlp_vjp_matches_finite_differences(tiny_mlp):
    model, _ = tiny_mlp
    rng = np.random.default_rng(2)
    for trial in range(5):
        z = rng.standard_normal(2)
        v = rng.standard_normal(2)
        err = gradient_check(lambda x: float(v @ model.eval(x, 7)), model.linearize(z, 7)[1](v), z)
        assert err < 1e-4, f"trial {trial}: {err}"


def test_mlp_vjp_linearity(tiny_mlp):
    model, _ = tiny_mlp
    z = np.array([0.4, 0.1])
    v1 = np.array([1.0, -1.0])
    v2 = np.array([0.5, 2.0])
    combo = model.linearize(z, 3)[1](1.5 * v1 + 2.0 * v2)
    parts = 1.5 * model.linearize(z, 3)[1](v1) + 2.0 * model.linearize(z, 3)[1](v2)
    np.testing.assert_allclose(combo, parts, atol=1e-10)


def test_gaussian_vjp_matches_finite_differences(gauss_nd):
    z = np.array([0.5, -0.2, 1.1, 0.0])
    v = np.array([1.0, 2.0, -1.0, 0.5])
    err = gradient_check(lambda x: float(v @ gauss_nd.eval(x, 60)),
                         gauss_nd.linearize(z, 60)[1](v), z)
    assert err < 1e-6


@pytest.mark.parametrize("s", [0.3, 0.05])
def test_gaussian_mixture_pullback_matches_finite_differences(default_sched, s):
    # K = 8 means in d = 16, probed where the noisy marginal puts its mass, so the weights
    # move with z
    rng = np.random.default_rng(41)
    model = GaussianMixtureDenoiser(rng.standard_normal((8, 16)), s, default_sched)
    for t in (1, 10, 50, 100):
        ab = default_sched.alpha_bar(t)
        z = (math.sqrt(ab) * model.mus[rng.integers(8)]
             + math.sqrt(ab * s**2 + 1.0 - ab) * rng.standard_normal(16))
        v = rng.standard_normal(16)
        err = gradient_check(lambda x: float(v @ model.eval(x, t)), model.linearize(z, t)[1](v), z)
        assert err < 1e-6, (t, err)


def test_gaussian_mixture_of_one_component_is_the_gaussian_oracle(default_sched):
    # K = 1: the posterior weight is 1, and the mixture is N(μ, s²·I)
    rng = np.random.default_rng(42)
    mu, s = rng.standard_normal(4), 0.3
    mixture = GaussianMixtureDenoiser(mu[None], s, default_sched)
    oracle = LinearGaussianDenoiser(mu, s**2 * np.eye(4), default_sched)
    for t in (1, 37, 100):
        z, v = rng.standard_normal(4), rng.standard_normal(4)
        (eps_m, back_m), (eps_o, back_o) = mixture.linearize(z, t), oracle.linearize(z, t)
        np.testing.assert_allclose(eps_m, eps_o, rtol=0, atol=1e-12)
        np.testing.assert_allclose(back_m(v), back_o(v), rtol=0, atol=1e-12)


@given(st.integers(1, 99), st.integers(0, 2**31 - 1))
def test_unit_gaussian_scales_input(t, seed):
    sched = make_linear_schedule(100, 1e-4, 0.05)
    m = LinearGaussianDenoiser(np.zeros(3), np.eye(3), sched)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(3)
    np.testing.assert_allclose(m.eval(z, t), np.sqrt(1.0 - sched.alpha_bar(t)) * z, atol=1e-12)


def _linearize_cases(gauss_nd, mlp):
    rng = np.random.default_rng(21)
    z2, z4 = rng.standard_normal(2), rng.standard_normal(4)
    return [(ConstantDenoiser(2, 0.7), z2), (ScalingDenoiser(2, -1.5), z2), (gauss_nd, z4),
            (mlp, z2)]


def test_one_linearization_serves_several_pullbacks(gauss_nd, tiny_mlp):
    rng = np.random.default_rng(22)
    for model, z in _linearize_cases(gauss_nd, tiny_mlp[0]):
        _, pullback = model.linearize(z, 7)
        # the two calls with a third argument that invbench's proxy test makes
        assert np.array_equal(model.eval(z, 7, None), model.eval(z, 7))
        for _ in range(3):
            v = rng.standard_normal(z.shape)
            assert np.array_equal(pullback(v), model.vjp(z, 7, None, v))
        with rejects("v"):
            pullback(np.zeros(z.size + 1))


def test_mlp_linearize_runs_one_forward_pass(monkeypatch, tiny_mlp):
    model, _ = tiny_mlp
    calls = []
    inner = invlab.denoiser._batch_forward
    monkeypatch.setattr(invlab.denoiser, "_batch_forward",
                        lambda *a: calls.append(1) or inner(*a))
    _, pullback = model.linearize(np.array([0.1, 0.2]), 4)
    pullback(np.ones(2))
    pullback(np.array([0.5, -1.0]))
    assert len(calls) == 1


@pytest.mark.parametrize("field,value", [("width", 0), ("max_epochs", -1),
                                         ("batch_size", 0), ("lr", 0.0), ("lr", -1e-3),
                                         ("lr", math.inf),
                                         ("width", True), ("max_epochs", True),
                                         ("batch_size", True)])
def test_mlp_train_config_rejects_out_of_range(field, value):
    with rejects(field):
        MlpTrainConfig(**{field: value})
    # the smallest accepted values
    MlpTrainConfig(width=1, max_epochs=0, batch_size=1, lr=1e-12)


def test_embedding_scatter_is_add_at_with_repeated_rows():
    rng = np.random.default_rng(24)
    p = invlab.denoiser._init_params(rng, 3, 5, 20)
    z = rng.standard_normal((9, 3))
    t_idx = np.array([4, 4, 0, 19, 4, 7, 0, 7, 4])  # repeated rows
    h1, h2, out = invlab.denoiser._batch_forward(p, z, t_idx)
    d_out = rng.standard_normal(out.shape)
    g = invlab.denoiser._batch_backward(p, z, t_idx, h1, h2, d_out)
    d_h1 = invlab.denoiser._hidden_backward(p, h1, h2, d_out)[1]
    # every row adds the one cemb row
    for name, idx in (("temb", t_idx), ("cemb", np.zeros(9, dtype=int))):
        ref = np.zeros_like(p[name])
        np.add.at(ref, idx, d_h1)
        assert g[name].shape == ref.shape
        assert np.array_equal(g[name], ref)

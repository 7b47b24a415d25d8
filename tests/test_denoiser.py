"""Noise-predictor backends: stubs, the Gaussian oracle, the trained MLP."""

import numpy as np
import pytest
from conftest import spectral_form, train_tiny_mlp
from hypothesis import given
from hypothesis import strategies as st

import invlab.denoiser
from invlab import (
    BoundsError,
    Condition,
    ConstantDenoiser,
    DenoiserInterface,
    DimensionError,
    InvalidParameterError,
    LinearGaussianDenoiser,
    MlpDenoiser,
    MlpTrainConfig,
    ScalingDenoiser,
    TrainingFailureError,
    cfg_eval,
    cfg_linearize,
    gradient_check,
    make_linear_schedule,
    train_mlp_denoiser,
)
from invlab.errors import require_shape

EIGHT_POINTS = np.array(
    [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0],
     [-1.0, 0.0], [0.0, -1.0], [0.5, 0.5], [-0.5, -0.5]]
)


def test_condition_variants_and_json():
    u = Condition.unconditional()
    k = Condition.class_label(2)
    assert u.variant == "unconditional" and k.k == 2
    # the guidance weight defaults to 1, and an unconditional condition has no other
    assert u.w == k.w == 1.0 and Condition.class_label(2, 3).w == 3.0
    assert u.to_json_dict() == {"variant": "unconditional"}
    assert k.to_json_dict() == {"variant": "class", "k": 2}
    assert Condition() == u and Condition(2) == k
    with pytest.raises(AttributeError):  # the variant is read off k
        k.variant = "unconditional"
    with pytest.raises(InvalidParameterError):
        Condition.class_label(-1)


@pytest.mark.parametrize("k, w, field", [
    ("class", 1.0, "k"),  # the variant name where k goes
    ("bogus", 1.0, "k"),
    (True, 1.0, "k"),
    (1.5, 1.0, "k"),
    (-1, 1.0, "k"),
    (None, 3.0, "w"),  # guidance needs a class
    (0, float("nan"), "w"),
])
def test_condition_holds_a_class_and_weight_or_nothing(k, w, field):
    with pytest.raises(InvalidParameterError) as err:
        Condition(k, w)
    assert err.value.context["field"] == field


@pytest.mark.parametrize("w", [float("nan"), float("inf"), -float("inf")])
def test_class_label_rejects_a_non_finite_guidance_weight(w):
    with pytest.raises(InvalidParameterError, match="guidance weight") as err:
        Condition.class_label(1, w)
    assert err.value.code == "invalid-parameter" and err.value.context["field"] == "w"


def test_constant_denoiser(uncond):
    m = ConstantDenoiser(3, 0.7)
    z = np.array([1.0, -2.0, 0.0])
    np.testing.assert_array_equal(m.eval(z, 5, uncond), np.full(3, 0.7))
    np.testing.assert_array_equal(m.vjp(z, 5, uncond, np.ones(3)), np.zeros(3))
    with pytest.raises(DimensionError):
        m.eval(np.zeros(2), 5, uncond)


def test_scaling_denoiser(uncond):
    m = ScalingDenoiser(2, -0.5)
    z = np.array([2.0, 4.0])
    np.testing.assert_array_equal(m.eval(z, 1, uncond), np.array([-1.0, -2.0]))
    v = np.array([1.0, 3.0])
    np.testing.assert_array_equal(m.vjp(z, 1, uncond, v), -0.5 * v)


def test_unit_gaussian_hand_value(unit_gauss1, uncond):
    # for N(0, I): F*(z, t) = sqrt(1 - abar_t) * z; at t=2, sqrt(0.19), frozen
    got = unit_gauss1.eval(np.array([1.0]), 2, uncond)
    assert got[0] == pytest.approx(0.4358898943540673, abs=1e-15)


def test_unit_gaussian_closed_form_all_steps(toy3, uncond):
    m = LinearGaussianDenoiser(np.zeros(2), np.eye(2), toy3)
    z = np.array([0.3, -1.7])
    for t in (1, 2, 3):
        expect = np.sqrt(1.0 - toy3.alpha_bar(t)) * z
        np.testing.assert_allclose(m.eval(z, t, uncond), expect, atol=1e-14)


def test_gaussian_oracle_matches_direct_solve(gauss_nd, default_sched, uncond):
    # independent reconstruction of the affine map via an explicit solve
    rng = np.random.default_rng(11)
    for t in (1, 17, 100):
        z = rng.standard_normal(4)
        ab = default_sched.alpha_bar(t)
        sigma_t = ab * gauss_nd.sigma + (1.0 - ab) * np.eye(4)
        expect = np.sqrt(1.0 - ab) * np.linalg.solve(sigma_t, z - np.sqrt(ab) * gauss_nd.mu)
        np.testing.assert_allclose(gauss_nd.eval(z, t, uncond), expect, atol=1e-12)


def test_gaussian_eval_pure(gauss_nd, uncond):
    z = np.array([0.1, -0.2, 0.5, 2.0])
    a = gauss_nd.eval(z, 30, uncond)
    b = gauss_nd.eval(z, 30, uncond)
    np.testing.assert_array_equal(a, b)


def test_gaussian_vjp_exact_and_linear(gauss_nd, uncond):
    rng = np.random.default_rng(4)
    z = rng.standard_normal(4)
    v1, v2 = rng.standard_normal(4), rng.standard_normal(4)
    got = gauss_nd.vjp(z, 40, uncond, 2.0 * v1 - 3.0 * v2)
    lin = 2.0 * gauss_nd.vjp(z, 40, uncond, v1) - 3.0 * gauss_nd.vjp(z, 40, uncond, v2)
    np.testing.assert_allclose(got, lin, atol=1e-10)
    err = gradient_check(
        lambda x: float(v1 @ gauss_nd.eval(x, 40, uncond)),
        gauss_nd.vjp(z, 40, uncond, v1),
        z,
    )
    assert err < 1e-6


def test_gaussian_rejects_bad_covariance(toy3):
    with pytest.raises(InvalidParameterError):
        LinearGaussianDenoiser(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), toy3)
    with pytest.raises(InvalidParameterError):
        LinearGaussianDenoiser(np.zeros(2), np.array([[1.0, 0.0], [0.0, -2.0]]), toy3)
    with pytest.raises(DimensionError):
        LinearGaussianDenoiser(np.zeros(3), np.eye(2), toy3)


def _max_rel(a, ref):
    return float(np.abs(a - ref).max() / np.abs(ref).max())


def test_gaussian_eval_and_vjp_are_the_affine_map_bits(gauss_nd, default_sched, uncond):
    # J_t and o_t rebuilt from the docstring's formula; eval and vjp apply them
    # exactly, and agree with the per-call spectral form to rounding
    lam, q = np.linalg.eigh(gauss_nd.sigma)
    rng = np.random.default_rng(12)
    for t in range(1, default_sched.t_train + 1):
        z, v = rng.standard_normal(4), rng.standard_normal(4)
        ab = default_sched.alpha_bars[t - 1]
        jac = (q * (np.sqrt(1.0 - ab) / (lam * ab + (1.0 - ab)))) @ q.T
        off = jac @ (np.sqrt(ab) * gauss_nd.mu)
        got_eval, got_vjp = gauss_nd.eval(z, t, uncond), gauss_nd.vjp(z, t, uncond, v)
        assert got_eval.tobytes() == (jac @ z - off).tobytes()
        assert got_vjp.tobytes() == (v @ jac).tobytes()
        eval_ref, pullback_ref = spectral_form(gauss_nd, t)
        assert _max_rel(got_eval, eval_ref(z)) <= 1e-12
        assert _max_rel(got_vjp, pullback_ref(v)) <= 1e-12


def test_gaussian_maps_are_read_only(gauss_nd, uncond):
    gauss_nd.eval(np.zeros(4), 30, uncond)
    for arr in gauss_nd._maps[30]:
        with pytest.raises(ValueError):
            arr[0] = 1.0


@pytest.mark.parametrize("backend", ["gaussian", "mlp"])
def test_timestep_outside_schedule_rejected(backend, uncond, tiny_mlp):
    if backend == "gaussian":
        sched = make_linear_schedule(20, 1e-3, 0.05)
        model = LinearGaussianDenoiser(np.zeros(2), np.eye(2), sched)
    else:
        model, sched = tiny_mlp
    z, v = np.array([0.4, -0.2]), np.array([1.0, 0.5])
    for t in (0, sched.t_train + 1):
        with pytest.raises(BoundsError):
            model.eval(z, t, uncond)
        with pytest.raises(BoundsError):
            model.vjp(z, t, uncond, v)
    for t in (1, sched.t_train):
        assert np.all(np.isfinite(model.eval(z, t, uncond)))
        assert np.all(np.isfinite(model.vjp(z, t, uncond, v)))


class _CondGate(DenoiserInterface):
    """Returns ones under any conditional input and zeros unconditionally."""


    def __init__(self, latent_dim):
        self.latent_dim = latent_dim

    def eval(self, z, t, c):
        require_shape(z, (self.latent_dim,), "z")
        on = 0.0 if c.variant == "unconditional" else 1.0
        return np.full(self.latent_dim, on)

    def linearize(self, z, t, c):
        return self.eval(z, t, c), lambda v: np.zeros(self.latent_dim)


def test_cfg_eval_blend(uncond):
    m = _CondGate(2)
    z = np.zeros(2)
    np.testing.assert_array_equal(cfg_eval(m, z, 3, Condition.class_label(0, 7.5)), np.full(2, 7.5))
    np.testing.assert_array_equal(cfg_eval(m, z, 3, Condition.class_label(0, 0.0)), np.zeros(2))


def test_cfg_eval_unit_guidance_short_circuits(gauss_nd, uncond):
    # w=1 must be bit-identical to a single conditional evaluation
    z = np.array([0.2, 0.4, -1.0, 0.9])
    np.testing.assert_array_equal(
        cfg_eval(gauss_nd, z, 25, uncond), gauss_nd.eval(z, 25, uncond)
    )


def test_mlp_train_determinism():
    a, _ = train_tiny_mlp(seed=3)
    b, _ = train_tiny_mlp(seed=3)
    for k in a.params:
        np.testing.assert_array_equal(a.params[k], b.params[k])
    c, _ = train_tiny_mlp(seed=4)
    assert any(not np.array_equal(a.params[k], c.params[k]) for k in a.params)


@pytest.mark.parametrize("name,shape", [("cemb", (0, 5)), ("cemb", ()), ("w1", (3, 5)),
                                        ("temb", (19, 5)), ("w2", (5, 4))])
def test_mlp_reads_its_sizes_from_its_arrays(name, shape):
    sched = make_linear_schedule(20, 1e-3, 0.05)
    p = invlab.denoiser._init_params(np.random.default_rng(25), 3, 5, 20, 2)
    model = MlpDenoiser(p, sched)
    assert (model.latent_dim, model.width, model.n_classes) == (3, 5, 2)
    with pytest.raises(DimensionError, match=name):
        MlpDenoiser({**p, name: np.zeros(shape)}, sched)


def test_mlp_rejects_empty_and_misshapen_data():
    sched = make_linear_schedule(10, 1e-3, 0.05)
    with pytest.raises(InvalidParameterError):
        train_mlp_denoiser(np.empty((0, 2)), sched, MlpTrainConfig())
    with pytest.raises(InvalidParameterError):
        train_mlp_denoiser(np.zeros((4, 2, 2)), sched, MlpTrainConfig())
    with pytest.raises(InvalidParameterError):
        train_mlp_denoiser(np.zeros((4, 2)), sched, MlpTrainConfig(), labels=np.zeros(3, dtype=int))


def test_mlp_divergence_names_epoch():
    sched = make_linear_schedule(10, 1e-3, 0.05)
    cfg = MlpTrainConfig(width=8, max_epochs=10, batch_size=4, lr=1e200, seed=0)
    with np.errstate(over="ignore"), pytest.raises(TrainingFailureError) as exc:
        train_mlp_denoiser(EIGHT_POINTS[:4], sched, cfg)
    assert "epoch" in str(exc.value)


def test_mlp_eval_pure_and_class_sensitivity(uncond, tiny_mlp):
    model, _ = tiny_mlp
    z = np.array([0.3, -0.8])
    np.testing.assert_array_equal(model.eval(z, 5, uncond), model.eval(z, 5, uncond))
    c0, c1 = Condition.class_label(0), Condition.class_label(1)
    assert not np.array_equal(model.eval(z, 5, c0), model.eval(z, 5, c1))
    with pytest.raises(InvalidParameterError):
        model.eval(z, 5, Condition.class_label(99))


def test_mlp_vjp_matches_finite_differences(uncond, tiny_mlp):
    model, _ = tiny_mlp
    rng = np.random.default_rng(2)
    for trial in range(5):
        z = rng.standard_normal(2)
        v = rng.standard_normal(2)
        err = gradient_check(
            lambda x: float(v @ model.eval(x, 7, uncond)),
            model.vjp(z, 7, uncond, v),
            z,
        )
        assert err < 1e-4, f"trial {trial}: {err}"


def test_mlp_vjp_linearity(uncond, tiny_mlp):
    model, _ = tiny_mlp
    z = np.array([0.4, 0.1])
    v1 = np.array([1.0, -1.0])
    v2 = np.array([0.5, 2.0])
    combo = model.vjp(z, 3, uncond, 1.5 * v1 + 2.0 * v2)
    parts = 1.5 * model.vjp(z, 3, uncond, v1) + 2.0 * model.vjp(z, 3, uncond, v2)
    np.testing.assert_allclose(combo, parts, atol=1e-10)


def test_cfg_blend_with_trained_mlp(uncond, tiny_mlp):
    model, _ = tiny_mlp
    z = np.array([0.2, -0.3])
    c = Condition.class_label(1, 2.5)
    expect = model.eval(z, 6, uncond) + c.w * (model.eval(z, 6, c) - model.eval(z, 6, uncond))
    np.testing.assert_allclose(cfg_eval(model, z, 6, c), expect, atol=1e-14)
    v = np.array([0.7, 1.1])
    err = gradient_check(
        lambda x: float(v @ cfg_eval(model, x, 6, c)),
        cfg_linearize(model, z, 6, c)[1](v),
        z,
    )
    assert err < 1e-4


def test_gaussian_vjp_matches_finite_differences(gauss_nd, uncond):
    z = np.array([0.5, -0.2, 1.1, 0.0])
    v = np.array([1.0, 2.0, -1.0, 0.5])
    err = gradient_check(lambda x: float(v @ gauss_nd.eval(x, 60, uncond)),
                         gauss_nd.vjp(z, 60, uncond, v), z)
    assert err < 1e-6


@given(st.integers(1, 99), st.integers(0, 2**31 - 1))
def test_unit_gaussian_scales_input(t, seed):
    sched = make_linear_schedule(100, 1e-4, 0.05)
    m = LinearGaussianDenoiser(np.zeros(3), np.eye(3), sched)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal(3)
    np.testing.assert_allclose(
        m.eval(z, t, Condition.unconditional()),
        np.sqrt(1.0 - sched.alpha_bar(t)) * z,
        atol=1e-12,
    )


def _linearize_cases(gauss_nd, mlp):
    rng = np.random.default_rng(21)
    z2, z4 = rng.standard_normal(2), rng.standard_normal(4)
    return [
        (ConstantDenoiser(2, 0.7), z2, Condition.unconditional()),
        (ScalingDenoiser(2, -1.5), z2, Condition.unconditional()),
        (gauss_nd, z4, Condition.unconditional()),
        (mlp, z2, Condition.unconditional()),
        (mlp, z2, Condition.class_label(1)),
    ]


def test_linearize_is_eval_and_vjp_bit_for_bit(gauss_nd, tiny_mlp):
    rng = np.random.default_rng(22)
    for model, z, c in _linearize_cases(gauss_nd, tiny_mlp[0]):
        eps, pullback = model.linearize(z, 7, c)
        assert np.array_equal(eps, model.eval(z, 7, c))
        # one linearization point serves several pullbacks
        for _ in range(3):
            v = rng.standard_normal(z.shape)
            assert np.array_equal(pullback(v), model.vjp(z, 7, c, v))
        with pytest.raises(DimensionError):
            pullback(np.zeros(z.size + 1))


@pytest.mark.parametrize("w", [0.0, 1.0, 3.0])
def test_cfg_linearize_is_cfg_eval_and_cfg_vjp_bit_for_bit(w, gauss_nd, tiny_mlp):
    rng = np.random.default_rng(23)
    for model, z, case_c in _linearize_cases(gauss_nd, tiny_mlp[0]):
        # and class 1 under weight w, which the stubs and the oracle ignore
        for c in (case_c, Condition.class_label(1, w)):
            eps, pullback = cfg_linearize(model, z, 7, c)
            assert np.array_equal(eps, cfg_eval(model, z, 7, c))
            v = rng.standard_normal(z.shape)
            # the blend of the two plain vjps, in cfg_eval's form
            vjp_u = model.vjp(z, 7, Condition.unconditional(), v)
            blend = vjp_u + c.w * (model.vjp(z, 7, c, v) - vjp_u)
            assert np.array_equal(pullback(v), model.vjp(z, 7, c, v) if c.w == 1.0 else blend)


def test_mlp_linearize_runs_one_forward_pass(monkeypatch, uncond, tiny_mlp):
    model, _ = tiny_mlp
    calls = []
    inner = invlab.denoiser._batch_forward
    monkeypatch.setattr(invlab.denoiser, "_batch_forward",
                        lambda *a: calls.append(1) or inner(*a))
    _, pullback = model.linearize(np.array([0.1, 0.2]), 4, uncond)
    pullback(np.ones(2))
    pullback(np.array([0.5, -1.0]))
    assert len(calls) == 1


@pytest.mark.parametrize("field,value", [("width", 0), ("max_epochs", -1),
                                         ("batch_size", 0), ("lr", 0.0), ("lr", -1e-3),
                                         ("width", True), ("max_epochs", True),
                                         ("batch_size", True)])
def test_mlp_train_config_rejects_out_of_range(field, value):
    with pytest.raises(InvalidParameterError, match=field) as err:
        MlpTrainConfig(**{field: value})
    assert err.value.context["field"] == field
    # the smallest accepted values
    MlpTrainConfig(width=1, max_epochs=0, batch_size=1, lr=1e-12)


def test_embedding_scatter_is_add_at_with_repeated_rows():
    rng = np.random.default_rng(24)
    p = invlab.denoiser._init_params(rng, 3, 5, 20, 2)
    z = rng.standard_normal((9, 3))
    t_idx = np.array([4, 4, 0, 19, 4, 7, 0, 7, 4])  # repeated rows
    cond_idx = np.array([1, 0, 1, 1, 2, 0, 2, 1, 1])
    h1, h2, out = invlab.denoiser._batch_forward(p, z, t_idx, p["cemb"][cond_idx])
    d_out = rng.standard_normal(out.shape)
    g = invlab.denoiser._batch_backward(p, z, t_idx, cond_idx, h1, h2, d_out)
    d_h1 = invlab.denoiser._hidden_backward(p, h1, h2, d_out)[1]
    for name, idx in (("temb", t_idx), ("cemb", cond_idx)):
        ref = np.zeros_like(p[name])
        np.add.at(ref, idx, d_h1)
        assert g[name].shape == ref.shape
        assert np.array_equal(g[name], ref)

"""Latent boosting: consistency/regularization losses and the Adam driver."""

import numpy as np
import pytest

import invlab.denoiser
import invlab.ilb
from invlab import (
    BoundsError,
    Condition,
    ConstantDenoiser,
    DenoiserInterface,
    DivergenceError,
    IdentityAutoencoder,
    IlbConfig,
    InvalidParameterError,
    LinearGaussianDenoiser,
    MlpTrainConfig,
    RandomConvPerceptual,
    consistency_loss,
    ddim_invert_step,
    fit_linear_autoencoder,
    generate_step,
    gradient_check,
    ilb_loss_and_grad,
    ilb_optimize,
    make_linear_schedule,
    make_shapes,
    regularization_loss,
    skip_coefficients,
    skip_roundtrip,
    train_mlp_denoiser,
)

SHAPE = (8, 8, 1)


@pytest.fixture
def x0():
    return np.random.default_rng(0).random(SHAPE)


@pytest.fixture
def ident():
    return IdentityAutoencoder(SHAPE)


@pytest.fixture
def perc():
    return RandomConvPerceptual(SHAPE, seed=0)


def test_consistency_perfect_reconstruction(x0, ident, perc):
    z = ident.encode(x0)
    # zero L1, SSIM of identical images is one
    got = consistency_loss(x0, z, ident, perc, weights=(1.0, 1.0, 0.0))
    assert got == pytest.approx(-1.0, abs=1e-12)


def test_consistency_offset_decode(x0, ident, perc):
    z = ident.encode(x0) + 0.1
    got = consistency_loss(x0, z, ident, perc, weights=(1.0, 0.0, 0.0))
    assert got == pytest.approx(0.1, abs=1e-12)


def test_consistency_perceptual_only_self_is_zero(x0, ident, perc):
    z = ident.encode(x0)
    assert consistency_loss(x0, z, ident, perc, weights=(0.0, 0.0, 1.0)) == 0.0


def test_skip_roundtrip_constant_model_exact(toy3, uncond):
    m = ConstantDenoiser(3, 0.4)
    z0 = np.array([0.2, -0.6, 1.1])
    np.testing.assert_allclose(skip_roundtrip(m, toy3, z0, 2, uncond), z0, atol=1e-12)


def test_skip_roundtrip_zero_model_pure_scaling(toy3, stub0, uncond):
    z0 = np.array([1.0])
    got = skip_roundtrip(stub0, toy3, z0, 2, uncond)
    assert got[0] == pytest.approx(1.0, abs=1e-14)


def test_skip_roundtrip_hand_composition(toy3, unit_gauss1, uncond):
    # dt=2 jump for the 1-d unit Gaussian, composed by hand:
    # up: 0.9*1 + 0.19 = 1.09; down: phi*1.09 + psi*F(1.09) = 0.981
    z0 = np.array([1.0])
    phi, psi = 1.1111111111111112, -0.48432210483785254
    z_dt = (1.0 / phi) * 1.0 - (psi / phi) * 0.4358898943540673
    assert z_dt == pytest.approx(1.09, abs=1e-12)
    got = skip_roundtrip(unit_gauss1, toy3, z0, 2, uncond)
    assert got[0] == pytest.approx(0.981, abs=1e-12)
    # the inversion step, then the generation step, over the 0 -> dt skip
    co = skip_coefficients(toy3, 2)
    up = ddim_invert_step(unit_gauss1, co, z0, uncond)
    assert np.array_equal(got, generate_step(unit_gauss1, co, up, uncond))
    reg = regularization_loss(unit_gauss1, toy3, z0, 2, uncond)
    assert reg == pytest.approx(0.019, abs=1e-12)


def test_regularization_scales_linearly_for_linear_model(toy3, unit_gauss1, uncond):
    # the round trip of a zero-mean Gaussian predictor is linear in z0
    z0 = np.array([0.7])
    one = regularization_loss(unit_gauss1, toy3, z0, 2, uncond)
    two = regularization_loss(unit_gauss1, toy3, 2.0 * z0, 2, uncond)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_regularization_zero_model_is_zero(toy3, stub0, uncond):
    assert regularization_loss(stub0, toy3, np.array([1.3]), 2, uncond) == pytest.approx(
        0.0, abs=1e-14
    )


def test_skip_roundtrip_dt_bounds(toy3, stub0, uncond):
    with pytest.raises(BoundsError):
        skip_roundtrip(stub0, toy3, np.array([1.0]), 4, uncond)


def _linear_setup(seed=1):
    sched = make_linear_schedule(100, 1e-4, 0.05)
    imgs = make_shapes(24, seed=seed, height=8, width=8)
    ae = fit_linear_autoencoder(imgs, latent_dim=16)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((16, 16))
    model = LinearGaussianDenoiser(np.zeros(16), a @ a.T + np.eye(16), sched)
    perc = RandomConvPerceptual(SHAPE, seed=0)
    return sched, imgs, ae, model, perc


def test_loss_and_grad_matches_finite_differences(uncond):
    sched, imgs, ae, model, perc = _linear_setup()
    cfg = IlbConfig(dt=2, use_reg=True)
    x0 = imgs[0]
    rng = np.random.default_rng(2)
    z0 = ae.encode(x0) + 0.05 * rng.standard_normal(16)

    def total(z):
        return ilb_loss_and_grad(x0, z, ae, model, sched, perc, cfg, uncond)[2]

    _, _, _, grad = ilb_loss_and_grad(x0, z0, ae, model, sched, perc, cfg, uncond)
    assert gradient_check(total, grad, z0) < 1e-4


def test_guided_regularizer_is_the_guided_skip_round_trip(tiny_mlp):
    # a labelled MLP under a guided class condition: the regularizer and its
    # gradient use the same guided prediction as skip_roundtrip
    model, sched = tiny_mlp
    imgs = make_shapes(8, seed=3, height=8, width=8)
    ae = fit_linear_autoencoder(imgs, latent_dim=2)
    perc = RandomConvPerceptual(SHAPE, seed=0)
    # no L1 term: with a 2-d latent some decoded pixel sits on its kink
    cfg = IlbConfig(dt=2, weights=(0.0, 1.0, 1.0))
    c = Condition.class_label(1, 3.0)
    rng = np.random.default_rng(11)
    for x0 in imgs[:3]:
        z0 = ae.encode(x0) + 0.05 * rng.standard_normal(2)
        reg = regularization_loss(model, sched, z0, 2, c)
        assert reg == float(np.mean(np.abs(z0 - skip_roundtrip(model, sched, z0, 2, c))))
        assert reg != regularization_loss(model, sched, z0, 2, Condition.class_label(1))

        def total(z):
            return ilb_loss_and_grad(x0, z, ae, model, sched, perc, cfg, c)[2]

        _, l_reg, _, grad = ilb_loss_and_grad(x0, z0, ae, model, sched, perc, cfg, c)
        assert l_reg == reg
        assert gradient_check(total, grad, z0) < 1e-4


def test_loss_and_grad_without_regularizer(uncond):
    sched, imgs, ae, model, perc = _linear_setup()
    x0 = imgs[1]
    z0 = ae.encode(x0)
    with_reg = ilb_loss_and_grad(x0, z0, ae, model, sched, perc, IlbConfig(dt=2), uncond)
    without = ilb_loss_and_grad(
        x0, z0, ae, model, sched, perc, IlbConfig(dt=2, use_reg=False), uncond
    )
    # reg is still measured, but dropped from the optimized total and gradient
    assert without[1] == with_reg[1]
    assert without[2] == without[0]
    assert with_reg[2] == pytest.approx(with_reg[0] + with_reg[1], abs=1e-15)

    def con_only(z):
        return ilb_loss_and_grad(
            x0, z, ae, model, sched, perc, IlbConfig(dt=2, use_reg=False), uncond
        )[2]

    assert gradient_check(con_only, without[3], z0) < 1e-4


def test_optimize_identity_backend_stays_at_optimum(x0, ident, perc, uncond):
    # encode(x0) is already the global minimum; best-iterate keeps it
    sched = make_linear_schedule(100, 1e-4, 0.05)
    model = ConstantDenoiser(64, 0.0)
    cfg = IlbConfig(lr=0.05, max_iters=30, dt=2, weights=(1.0, 1.0, 0.0))
    z_opt, rep = ilb_optimize(x0, ident, model, sched, perc, cfg, uncond)
    np.testing.assert_array_equal(z_opt, ident.encode(x0))
    assert rep.final_total == rep.initial_total
    assert rep.final_total == pytest.approx(-1.0, abs=1e-12)


def test_optimize_improves_lossy_reconstruction(uncond):
    sched, imgs, ae, model, perc = _linear_setup(seed=3)
    cfg = IlbConfig(lr=0.1, max_iters=60, dt=2)
    x0 = imgs[2]
    z_opt, rep = ilb_optimize(x0, ae, model, sched, perc, cfg, uncond)
    assert rep.final_con < rep.initial_con
    assert rep.final_total < rep.initial_total
    assert z_opt.shape == (16,)


def test_trace_rows_are_post_step_and_one_indexed(uncond):
    sched, imgs, ae, model, perc = _linear_setup(seed=4)
    cfg = IlbConfig(lr=0.05, max_iters=12, dt=2, rel_tol=1e-12)
    _, rep = ilb_optimize(imgs[0], ae, model, sched, perc, cfg, uncond)
    assert len(rep.trace) == rep.iters_used
    assert [row[0] for row in rep.trace] == list(range(1, rep.iters_used + 1))
    for _, l_con, l_reg, total in rep.trace:
        assert total == pytest.approx(l_con + l_reg, abs=1e-12)


def test_best_iterate_guarantee(uncond):
    sched, imgs, ae, model, perc = _linear_setup(seed=5)
    cfg = IlbConfig(lr=0.3, max_iters=40, dt=2)  # deliberately jumpy
    _, rep = ilb_optimize(imgs[3], ae, model, sched, perc, cfg, uncond)
    assert rep.final_total <= rep.initial_total
    assert rep.final_total <= min(row[3] for row in rep.trace) + 1e-15


def test_early_stop_patience(uncond):
    sched, imgs, ae, model, perc = _linear_setup(seed=6)
    cfg = IlbConfig(lr=0.05, max_iters=50, dt=2, rel_tol=1.0)
    _, rep = ilb_optimize(imgs[0], ae, model, sched, perc, cfg, uncond)
    assert rep.iters_used == 5


def test_optimize_input_validation(x0, ident, perc, uncond):
    sched = make_linear_schedule(10, 1e-3, 0.05)
    model = ConstantDenoiser(64, 0.0)
    with pytest.raises(BoundsError):
        ilb_optimize(x0 + 5.0, ident, model, sched, perc, IlbConfig(dt=2), uncond)
    nan_pixel = x0.copy()
    nan_pixel[3, 4, 0] = np.nan
    with pytest.raises(BoundsError):
        ilb_optimize(nan_pixel, ident, model, sched, perc, IlbConfig(dt=2), uncond)
    with pytest.raises(InvalidParameterError):
        ilb_optimize(x0, ident, model, sched, perc, IlbConfig(dt=None), uncond)
    with pytest.raises(BoundsError):
        ilb_optimize(x0, ident, model, sched, perc, IlbConfig(dt=99), uncond)


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        IlbConfig(lr=0.0)
    with pytest.raises(InvalidParameterError):
        IlbConfig(max_iters=0)
    for field in ("max_iters", "dt"):  # bool is not an int here
        with pytest.raises(InvalidParameterError, match=field) as err:
            IlbConfig(**{field: True})
        assert err.value.context["field"] == field
    with pytest.raises(InvalidParameterError):
        IlbConfig(rel_tol=0.0)
    with pytest.raises(InvalidParameterError):
        IlbConfig(weights=(1.0, -1.0, 0.0))
    with pytest.raises(InvalidParameterError):
        IlbConfig(weights=(1.0, 1.0))


class _SabotageDenoiser(DenoiserInterface):
    """Finite for the first few calls, then emits NaN to simulate blowup."""


    def __init__(self, latent_dim, good_calls):
        self.latent_dim = latent_dim
        self.calls = 0
        self.good_calls = good_calls

    def eval(self, z, t, c):
        self.calls += 1
        if self.calls > self.good_calls:
            return np.full(self.latent_dim, np.nan)
        return np.zeros(self.latent_dim)

    def linearize(self, z, t, c):
        return self.eval(z, t, c), lambda v: np.zeros(self.latent_dim)


def test_divergence_reports_iteration(x0, ident, perc, uncond):
    sched = make_linear_schedule(10, 1e-3, 0.05)
    model = _SabotageDenoiser(64, good_calls=6)
    cfg = IlbConfig(lr=0.05, max_iters=20, dt=2)
    with pytest.raises(DivergenceError) as exc:
        ilb_optimize(x0, ident, model, sched, perc, cfg, uncond)
    assert exc.value.context.get("iteration", -1) >= 1

    broken_now = _SabotageDenoiser(64, good_calls=0)
    with pytest.raises(DivergenceError) as exc0:
        ilb_optimize(x0, ident, broken_now, sched, perc, cfg, uncond)
    assert exc0.value.context.get("iteration", -1) == 0


def test_regularizer_choice_shifts_final_reg(uncond):
    # smoke-scale version of the benchmark-level comparison
    sched, imgs, ae, model, perc = _linear_setup(seed=7)
    on_vals, off_vals = [], []
    for i in range(3):
        x0 = imgs[i]
        _, rep_on = ilb_optimize(
            x0, ae, model, sched, perc, IlbConfig(lr=0.1, max_iters=40, dt=2), uncond
        )
        _, rep_off = ilb_optimize(
            x0, ae, model, sched, perc,
            IlbConfig(lr=0.1, max_iters=40, dt=2, use_reg=False), uncond
        )
        on_vals.append(rep_on.final_reg)
        off_vals.append(rep_off.final_reg)
    assert np.mean(on_vals) <= np.mean(off_vals) + 1e-12


def test_regularizer_runs_one_forward_pass_per_round_trip_leg(monkeypatch, uncond):
    sched = make_linear_schedule(20, 1e-3, 0.05)
    data = np.random.default_rng(5).standard_normal((24, 3))
    model = train_mlp_denoiser(data, sched, MlpTrainConfig(width=8, max_epochs=2, seed=0))
    z = np.array([0.3, -0.1, 0.8])
    value, grad = invlab.ilb._reg_value_and_grad(model, sched, z, 2, uncond)
    calls = []
    inner = invlab.denoiser._batch_forward
    monkeypatch.setattr(invlab.denoiser, "_batch_forward",
                        lambda *a: calls.append(1) or inner(*a))
    again = invlab.ilb._reg_value_and_grad(model, sched, z, 2, uncond)
    assert len(calls) == 2  # eval then vjp at both points took four
    assert again[0] == value and np.array_equal(again[1], grad)
    monkeypatch.undo()
    # the same bits as the round trip chained through separate evals and vjps
    co = skip_coefficients(sched, 2)
    phi, psi = co.phi, co.psi
    z_dt = (1.0 / phi) * z - (psi / phi) * model.eval(z, 2, uncond)
    r = z - (phi * z_dt + psi * model.eval(z_dt, 2, uncond))
    s = np.sign(r) / r.size
    u = phi * s + psi * model.vjp(z_dt, 2, uncond, s)
    assert value == float(np.mean(np.abs(r)))
    assert np.array_equal(grad, s - ((1.0 / phi) * u - (psi / phi) * model.vjp(z, 2, uncond, u)))


def test_optimize_computes_source_features_once_per_run(monkeypatch, uncond):
    sched, imgs, ae, model, perc = _linear_setup(seed=7)
    cfg = IlbConfig(lr=0.05, max_iters=12, dt=2, rel_tol=1e-12)
    x0 = imgs[1]
    expect = ilb_optimize(x0, ae, model, sched, perc, cfg, uncond)
    seen = []
    inner = RandomConvPerceptual._features
    monkeypatch.setattr(RandomConvPerceptual, "_features",
                        lambda self, img: seen.append(np.array_equal(img, x0)) or inner(self, img))
    z_opt, rep = ilb_optimize(x0, ae, model, sched, perc, cfg, uncond)
    assert seen.count(True) == 1
    # plus one pass per decoded iterate: the start and every step
    assert len(seen) == 1 + (rep.iters_used + 1)
    assert np.array_equal(z_opt, expect[0]) and rep == expect[1]


"""Latent boosting: consistency/regularization losses and the Adam driver."""

import math
from dataclasses import replace

import numpy as np
import pytest
from conftest import (ConstantDenoiser, checked_probes, gradient_check, ilb_exact_optimum,
                      ilb_residual, rejects)

import invlab.denoiser
import invlab.ilb
from invlab import (
    DenoiserInterface,
    DivergenceError,
    IlbConfig,
    LinearAutoencoder,
    LinearGaussianDenoiser,
    MlpTrainConfig,
    RandomConvPerceptual,
    RunConfig,
    ddim_invert_step,
    fit_linear_autoencoder,
    generate_step,
    identity_autoencoder,
    ilb_loss_and_grad,
    ilb_optimize,
    make_linear_schedule,
    make_shapes,
    skip_coefficients,
    train_mlp_denoiser,
)
from invlab.benchmark import BenchmarkBackends, config_from_json_dict

SHAPE = (8, 8, 1)


@pytest.fixture
def x0():
    return np.random.default_rng(0).random(SHAPE)


@pytest.fixture
def ident():
    return identity_autoencoder(SHAPE)


@pytest.fixture
def perc():
    return RandomConvPerceptual(SHAPE, seed=0)


def consistency(x0, z, ae, perc, weights, c):
    """l_con of ilb_loss_and_grad at z, under a model the consistency loss never calls."""
    sched = make_linear_schedule(10, 1e-3, 0.05)
    cfg = IlbConfig(dt=2, weights=weights)
    return ilb_loss_and_grad(x0, z, ae, ConstantDenoiser(ae.latent_dim), sched, perc, cfg, c)[0]


def regularization(model, sched, z0, dt, c):
    """l_reg of ilb_loss_and_grad at z0. The codec (each latent one pixel of a 5x5 image) and
    the image only feed the consistency loss."""
    ae = LinearAutoencoder(np.eye(z0.size, 25), np.zeros(25), (5, 5, 1))
    x0 = np.zeros(ae.image_shape)
    perc = RandomConvPerceptual(ae.image_shape, seed=0)
    return ilb_loss_and_grad(x0, z0, ae, model, sched, perc, IlbConfig(dt=dt), c)[1]


def test_consistency_perfect_reconstruction(x0, ident, perc, uncond):
    z = ident.encode(x0)
    # zero L1, SSIM of identical images is one
    got = consistency(x0, z, ident, perc, (1.0, 1.0, 0.0), uncond)
    assert got == pytest.approx(-1.0, abs=1e-12)


def test_consistency_offset_decode(x0, ident, perc, uncond):
    z = ident.encode(x0) + 0.1
    got = consistency(x0, z, ident, perc, (1.0, 0.0, 0.0), uncond)
    assert got == pytest.approx(0.1, abs=1e-12)


def test_consistency_perceptual_only_self_is_zero(x0, ident, perc, uncond):
    z = ident.encode(x0)
    assert consistency(x0, z, ident, perc, (0.0, 0.0, 1.0), uncond) == 0.0


def test_regularization_constant_model_is_zero(toy3, uncond):
    # a constant prediction cancels between the two legs
    m = ConstantDenoiser(3, 0.4)
    z0 = np.array([0.2, -0.6, 1.1])
    assert regularization(m, toy3, z0, 2, uncond) == pytest.approx(0.0, abs=1e-12)


def test_regularization_hand_composition(toy3, unit_gauss1, uncond):
    # dt=2 jump for the 1-d unit Gaussian, composed by hand:
    # up: 0.9*1 + 0.19 = 1.09; down: phi*1.09 + psi*F(1.09) = 0.981
    z0 = np.array([1.0])
    phi, psi = 1.1111111111111112, -0.48432210483785254
    z_dt = (1.0 / phi) * 1.0 - (psi / phi) * 0.4358898943540673
    assert z_dt == pytest.approx(1.09, abs=1e-12)
    reg = regularization(unit_gauss1, toy3, z0, 2, uncond)
    assert reg == pytest.approx(0.019, abs=1e-12)
    # the inversion step, then the generation step, over the 0 -> dt skip
    co = skip_coefficients(toy3, 2)
    back = generate_step(unit_gauss1, co, ddim_invert_step(unit_gauss1, co, z0, uncond), uncond)
    assert reg == float(np.mean(np.abs(z0 - back)))


def test_regularization_scales_linearly_for_linear_model(toy3, unit_gauss1, uncond):
    # the round trip of a zero-mean Gaussian predictor is linear in z0
    z0 = np.array([0.7])
    one = regularization(unit_gauss1, toy3, z0, 2, uncond)
    two = regularization(unit_gauss1, toy3, 2.0 * z0, 2, uncond)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_regularization_zero_model_is_zero(toy3, stub0, uncond):
    # a zero prediction leaves the two legs pure scalings by 1/phi and phi
    for z0 in (1.0, 1.3):
        assert regularization(stub0, toy3, np.array([z0]), 2, uncond) == pytest.approx(
            0.0, abs=1e-14
        )


def test_regularization_dt_bounds(toy3, stub0, uncond):
    with rejects("dt"):
        regularization(stub0, toy3, np.array([1.0]), 4, uncond)


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

    def total(z):
        return ilb_loss_and_grad(x0, z, ae, model, sched, perc, cfg, uncond)[2]

    def probe(k):
        z0 = ae.encode(x0) + 0.05 * rng.standard_normal(16)
        _, _, _, grad = ilb_loss_and_grad(x0, z0, ae, model, sched, perc, cfg, uncond)
        return {"total": gradient_check(total, grad, z0,
                                        ilb_residual(x0, ae, model, sched, cfg, uncond))}

    worst, skipped = checked_probes(1, probe)
    assert worst["total"] < 1e-4, skipped


def test_gradient_check_sees_the_largest_coordinate_off_by_one_part_in_a_thousand(uncond):
    # the round-off floor and the kink skip leave the check its power: the total's gradient
    # with its largest coordinate scaled by 1 + 1e-3 reads 1e-3, ten times the bar
    sched, imgs, ae, model, perc = _linear_setup()
    cfg = IlbConfig(dt=2, use_reg=True)
    x0 = imgs[0]
    z0 = ae.encode(x0) + 0.05 * np.random.default_rng(2).standard_normal(16)
    grad = ilb_loss_and_grad(x0, z0, ae, model, sched, perc, cfg, uncond)[3]
    grad[np.argmax(np.abs(grad))] *= 1.0 + 1e-3
    err = gradient_check(lambda z: ilb_loss_and_grad(x0, z, ae, model, sched, perc, cfg,
                                                     uncond)[2],
                         grad, z0, ilb_residual(x0, ae, model, sched, cfg, uncond))
    assert err == pytest.approx(1e-3, rel=0.01)


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

    cfg = IlbConfig(dt=2, use_reg=False)
    rng = np.random.default_rng(2)

    def con_only(z):
        return ilb_loss_and_grad(x0, z, ae, model, sched, perc, cfg, uncond)[2]

    def probe(k):  # the encoding, then seeded draws around it
        z = z0 if k == 0 else z0 + 0.05 * rng.standard_normal(16)
        grad = ilb_loss_and_grad(x0, z, ae, model, sched, perc, cfg, uncond)[3]
        return {"con": gradient_check(con_only, grad, z,
                                      ilb_residual(x0, ae, model, sched, cfg, uncond))}

    worst, skipped = checked_probes(1, probe)
    assert worst["con"] < 1e-4, skipped


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
    initial = (rep.initial_con, rep.initial_reg, rep.initial_total)
    for l_con, l_reg, total in [initial] + [row[1:] for row in rep.trace]:
        assert total == pytest.approx(l_con + l_reg, abs=1e-12)


def test_best_iterate_guarantee(uncond):
    sched, imgs, ae, model, perc = _linear_setup(seed=5)
    cfg = IlbConfig(lr=0.3, max_iters=40, dt=2)  # deliberately jumpy
    _, rep = ilb_optimize(imgs[3], ae, model, sched, perc, cfg, uncond)
    assert rep.final_total <= rep.initial_total
    assert rep.final_total <= min(row[3] for row in rep.trace) + 1e-15


def test_early_stop_patience(uncond, monkeypatch):
    # the run stops after the first five consecutive steps that gain less than rel_tol; at
    # 1e-3 a step that gains more comes between stalled ones and starts the count again
    sched, imgs, ae, model, perc = _linear_setup(seed=6)
    for rel_tol in (1.0, 1e-3):
        cfg = IlbConfig(lr=0.05, max_iters=50, dt=2, rel_tol=rel_tol)
        _, rep = ilb_optimize(imgs[0], ae, model, sched, perc, cfg, uncond)
        totals = [rep.initial_total] + [row[3] for row in rep.trace]
        stalled = "".join("s" if (a - b) / abs(a) < rel_tol else "."
                          for a, b in zip(totals, totals[1:]))
        assert stalled.find("sssss") + 5 == rep.iters_used, stalled
    # a gain is measured against a loss of at least 1e-12: 1.5e-12 -> 1e-12 gains a third
    # and starts no count, and the five steps at 1e-12 (or at 0) that follow end the run
    for last in (1e-12, 0.0):
        totals = iter([1.5e-12] + [last] * 50)
        monkeypatch.setattr(invlab.ilb, "_loss_and_grad",
                            lambda *args: (0.0, 0.0, next(totals), np.zeros(16)))
        cfg = IlbConfig(lr=0.05, max_iters=50, dt=2, rel_tol=0.3)
        assert ilb_optimize(imgs[0], ae, model, sched, perc, cfg, uncond)[1].iters_used == 6


def test_optimize_input_validation(x0, ident, perc, uncond):
    sched = make_linear_schedule(10, 1e-3, 0.05)
    model = ConstantDenoiser(64, 0.0)
    with rejects("x0"):
        ilb_optimize(x0 + 5.0, ident, model, sched, perc, IlbConfig(dt=2), uncond)
    nan_pixel = x0.copy()
    nan_pixel[3, 4, 0] = np.nan
    with rejects("x0"):
        ilb_optimize(nan_pixel, ident, model, sched, perc, IlbConfig(dt=2), uncond)
    with rejects("dt"):
        ilb_optimize(x0, ident, model, sched, perc, IlbConfig(dt=None), uncond)
    with rejects("dt"):
        ilb_optimize(x0, ident, model, sched, perc, IlbConfig(dt=99), uncond)


def test_config_validation():
    for field, value in [("lr", 0.0), ("lr", math.inf), ("max_iters", 0), ("rel_tol", 0.0),
                         ("rel_tol", math.inf), ("weights", (1.0, -1.0, 0.0)),
                         ("weights", (1.0, math.inf, 0.0)), ("weights", (1.0, 1.0)),
                         ("max_iters", True), ("dt", True)]:  # bool is not an int
        with rejects(field):
            IlbConfig(**{field: value})


class _SabotageDenoiser(DenoiserInterface):
    """Finite for the first few calls, then emits NaN to simulate blowup."""


    def __init__(self, latent_dim, good_calls):
        self.latent_dim = latent_dim
        self.calls = 0
        self.good_calls = good_calls

    def linearize(self, z, t, c):
        self.calls += 1
        fill = np.nan if self.calls > self.good_calls else 0.0
        return np.full(self.latent_dim, fill), lambda v: np.zeros(self.latent_dim)


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
    model = train_mlp_denoiser(data, sched, MlpTrainConfig(width=8, max_epochs=2), 0)
    z = np.array([0.3, -0.1, 0.8])
    co = skip_coefficients(sched, 2)
    value, grad = invlab.ilb._reg_value_and_grad(model, co, z, uncond)
    calls = []
    inner = invlab.denoiser._batch_forward
    monkeypatch.setattr(invlab.denoiser, "_batch_forward",
                        lambda *a: calls.append(1) or inner(*a))
    again = invlab.ilb._reg_value_and_grad(model, co, z, uncond)
    assert len(calls) == 2  # eval then vjp at both points took four
    assert again[0] == value and np.array_equal(again[1], grad)
    monkeypatch.undo()
    # the same bits as the round trip chained through separate evals and vjps
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


def test_skip_coefficients_are_looked_up_once_per_call(monkeypatch, uncond):
    sched, imgs, ae, model, perc = _linear_setup(seed=7)
    cfg = IlbConfig(lr=0.05, max_iters=12, dt=2, rel_tol=1e-12)
    calls = []
    inner = invlab.ilb.skip_coefficients
    monkeypatch.setattr(invlab.ilb, "skip_coefficients",
                        lambda *a: calls.append(a) or inner(*a))
    _, rep = ilb_optimize(imgs[1], ae, model, sched, perc, cfg, uncond)
    assert rep.iters_used == 12 and calls == [(sched, 2)]  # not one per evaluation
    ilb_loss_and_grad(imgs[1], ae.encode(imgs[1]), ae, model, sched, perc, cfg, uncond)
    assert len(calls) == 2


def test_default_config_runs_the_default_budget_of_100_iterations():
    # no early stop on the default config's first image: the cap, max_iters, ends the run
    b = BenchmarkBackends(RunConfig())
    rep = ilb_optimize(b.images[0], b.ae, b.model, b.sched, b.perc, b.ilb_cfg, b.condition)[1]
    assert rep.iters_used == 100


# ---------------------------------------------------------------- ILB against its exact optimum


@pytest.fixture(scope="module")
def exact_ilb():
    """The default config's analytic oracle, codec and first three images; ILB's default
    settings under weights (1, 0, 0); and, per image, the exact optimum and the ILB report."""
    b = BenchmarkBackends(config_from_json_dict({"dataset": {"count": 3}}))
    cfg = replace(b.ilb_cfg, weights=(1.0, 0.0, 0.0))
    cases = [(x0, *ilb_exact_optimum(x0, b.ae, b.model, b.sched, cfg),
              ilb_optimize(x0, b.ae, b.model, b.sched, b.perc, cfg, b.condition)[1])
             for x0 in b.images]
    return b, cfg, cases


def test_exact_optimum_is_the_ilb_total_at_its_minimiser(exact_ilb):
    b, cfg, cases = exact_ilb
    for x0, z, total, _ in cases:
        got = ilb_loss_and_grad(x0, z, b.ae, b.model, b.sched, b.perc, cfg, b.condition)[2]
        assert abs(got - total) <= 1e-9


def test_no_ilb_iterate_lies_below_the_exact_optimum(exact_ilb):
    _, _, cases = exact_ilb
    for _, _, total, rep in cases:
        assert min(row[3] for row in rep.trace) >= total - 1e-9


def test_ilb_ends_within_one_percent_of_the_gap_to_the_exact_optimum(exact_ilb):
    # measured: ILB leaves 0.53-0.67% of the gap (encode's total minus the optimum) on these
    # three images, and at most 2.0% (median 0.7%) over the default config's ten
    _, _, cases = exact_ilb
    for _, _, total, rep in cases:
        assert 0.0 < rep.final_total - total <= 0.01 * (rep.initial_total - total)

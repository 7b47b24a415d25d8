"""Step-wise bias refinement: fixed-point and gradient solvers."""

import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from conftest import (ConstantDenoiser, ScalingDenoiser, checked_probes, exact_preimage, exact_step,
                      gradient_check, jacobian, lbo_residual, newton_preimage, rejects,
                      spectral_form)

import invlab.denoiser
import invlab.dynamics
import invlab.lbo
from invlab import (
    AdamState,
    DivergenceError,
    LboConfig,
    LboStepReport,
    LinearGaussianDenoiser,
    StepCoefficients,
    coefficients,
    ddim_invert_step,
    ddim_invert_trajectory,
    generate_step,
    generate_trajectory,
    lbo_gradient_iterate,
    lbo_invert_step,
    lbo_invert_trajectory,
    lbo_numerical_iterate,
    make_linear_schedule,
    make_uniform_grid,
    objective_and_grad,
)
from invlab.benchmark import (BenchmarkBackends, RunConfig, analytic_denoiser,
                              config_from_json_dict)
from invlab.optim import BETA1, BETA2, EPSILON

ONE = np.array([1.0])

# fixed point of the toy3/scale-0.5 transition (1, 2), frozen by hand:
# b* = c/(1-c) with c = 1 - phi - 0.5*psi
BSTAR = 0.01784041101132872
CONTRACTION = 0.017527709470291558


def test_numerical_iterate_holds_fixed_point(toy3, stub_half):
    b = np.array([BSTAR])
    b_next, residual = lbo_numerical_iterate(stub_half, coefficients(toy3, 2, 1), ONE, b)
    assert abs(b_next[0] - BSTAR) <= 1e-15 and residual <= 1e-15


def test_numerical_iterates_contract_geometrically(toy3, stub_half):
    # affine map: successive residuals shrink by the contraction factor, and each
    # sweep moves b by exactly its residual
    b = ddim_invert_step(stub_half, coefficients(toy3, 2, 1), ONE) - ONE
    residuals = []
    for _ in range(4):
        b_next, residual = lbo_numerical_iterate(stub_half, coefficients(toy3, 2, 1), ONE, b)
        assert residual == pytest.approx(abs(float(b_next[0] - b[0])), rel=0.0, abs=1e-16)
        residuals.append(residual)
        b = b_next
    ratios = [r2 / r1 for r1, r2 in zip(residuals, residuals[1:]) if r1 > 1e-14]
    for r in ratios:
        assert r == pytest.approx(CONTRACTION, rel=1e-6)


@pytest.mark.parametrize("backend", ["oracle", "mlp"])
@pytest.mark.parametrize("mode", ["numerical", "gradient", "hybrid"])
def test_every_step_reports_the_residual_of_the_z_t_it_returns(oracle, tiny_mlp, backend, mode):
    # recomputed from the trajectory alone, bit for bit; the default budget, then one that
    # runs out one sweep past hybrid's warm-up
    if backend == "oracle":
        (model, sched, z0s), steps = oracle, 50
        z0s = z0s[:2]
    else:
        (model, sched), steps = tiny_mlp, 10
        z0s = [np.array([0.4, -0.2]), np.array([-1.1, 0.6])]
    grid = make_uniform_grid(sched, steps)
    for cfg in (LboConfig(mode=mode), LboConfig(mode=mode, max_iters=6, tol=1e-30)):
        for z0 in z0s:
            traj, reports = lbo_invert_trajectory(model, sched, grid, z0, cfg)
            for (t_prev, t), z_prev, z_t, rep in zip(grid.transitions(), traj.latents[:-1],
                                                     traj.latents[1:], reports, strict=True):
                co = coefficients(sched, t, t_prev)
                residual = float(np.abs(co.generate(z_t, model.eval(z_t, t))
                                        - z_prev).max())
                assert rep.residual == residual and rep.converged == (residual < cfg.tol)


def test_numerical_iterate_raises_on_blowup(toy3):
    wild = ScalingDenoiser(1, 1e22)
    cfg = LboConfig(mode="numerical", max_iters=20)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
        lbo_invert_step(wild, coefficients(toy3, 2, 1), ONE, cfg)
    assert exc.value.context["iteration"] == 14


@pytest.mark.parametrize("mode,max_iters", [("numerical", 13), ("hybrid", 18)])
def test_blowup_at_the_returned_z_t_names_the_iterations_run(toy3, mode, max_iters):
    # a budget one short of the iteration that overflows above: the loop ends, and the
    # evaluation at the returned z_t is the one that overflows
    wild = ScalingDenoiser(1, 1e22)
    cfg = LboConfig(mode=mode, max_iters=max_iters)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
        lbo_invert_step(wild, coefficients(toy3, 2, 1), ONE, cfg)
    assert str(exc.value) == "residual at the returned z_t is non-finite"
    assert exc.value.context == {"t": 2, "iters": max_iters}


@pytest.mark.parametrize("mode,scale", [("gradient", 1e200), ("hybrid", 1e22), ("hybrid", 1e200)])
def test_gradient_and_hybrid_blowup_name_step_and_iteration(toy3, mode, scale):
    # Adam moves b by about lr per step, so at scale 1e22 J stays finite (~1e42)
    # and gradient mode never diverges; at 1e200 J overflows on its first
    # evaluation. Hybrid at 1e22 blows up in its numerical tail after warm-up.
    wild = ScalingDenoiser(1, scale)
    cfg = LboConfig(mode=mode, max_iters=20)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
        lbo_invert_step(wild, coefficients(toy3, 2, 1), ONE, cfg)
    assert exc.value.context["t"] == 2
    # the first Adam step at 1e200; the 14th sweep after 5 warm-up steps at 1e22
    assert exc.value.context["iteration"] == (19 if scale == 1e22 else 1)


def test_hybrid_blowup_counts_iterations_from_the_start_of_the_step(toy3):
    # 5 Adam warm-up iterations, then the numerical tail overflows on its 14th
    wild = ScalingDenoiser(1, 1e22)
    cfg = LboConfig(mode="hybrid", max_iters=20)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
        lbo_invert_step(wild, coefficients(toy3, 2, 1), ONE, cfg)
    assert exc.value.context["iteration"] == 19


def test_gradient_iterate_stationary_at_solution(toy3, stub0):
    # F = 0: the one-shot bias is exact, J = 0, gradient = 0, b unchanged
    b = ddim_invert_step(stub0, coefficients(toy3, 2, 1), ONE) - ONE
    b_next, state, value = lbo_gradient_iterate(
        stub0, coefficients(toy3, 2, 1), ONE, b, AdamState(lr=1e-3)
    )
    assert value == 0.0
    np.testing.assert_array_equal(b_next, b)
    assert state.step_count == 1


def test_gradient_iterate_descends(toy3, stub_half):
    b = ddim_invert_step(stub_half, coefficients(toy3, 2, 1), ONE) - ONE
    b_next, _, value = lbo_gradient_iterate(
        stub_half, coefficients(toy3, 2, 1), ONE, b, AdamState(lr=1e-3)
    )
    assert value > 0.0
    assert abs(b_next[0] - BSTAR) < abs(b[0] - BSTAR)


def test_objective_gradient_matches_finite_differences(gauss_nd, default_sched):
    rng = np.random.default_rng(2)
    z_prev = rng.standard_normal(4)
    co = coefficients(default_sched, 40, 30)

    def j(bb):
        return objective_and_grad(gauss_nd, co, z_prev, bb)[0]

    def probe(k):
        b = 0.1 * rng.standard_normal(4)
        grad = objective_and_grad(gauss_nd, co, z_prev, b)[1]
        return {"objective": gradient_check(j, grad, b, lbo_residual(gauss_nd, co, z_prev))}

    worst, skipped = checked_probes(1, probe)
    assert worst["objective"] < 1e-4, skipped


@pytest.mark.parametrize("backend", ["gaussian", "mlp"])
def test_objective_is_the_straightforward_form_bit_for_bit(
        default_sched, tiny_mlp, backend):
    if backend == "gaussian":
        # d = 5: dividing by a power of two would hide a reordered mean
        a = np.random.default_rng(7).standard_normal((5, 5))
        model = LinearGaussianDenoiser(np.ones(5), a @ a.T + np.eye(5), default_sched)
        sched, t_prev, t = default_sched, 30, 40
    else:
        (model, sched), t_prev, t = tiny_mlp, 4, 10
    rng = np.random.default_rng(8)
    z_prev = rng.standard_normal(model.latent_dim)
    b = 0.1 * rng.standard_normal(model.latent_dim)
    co = coefficients(sched, t, t_prev)
    r = generate_step(model, co, z_prev + b) - z_prev
    s = np.sign(r)
    value, grad, residual = objective_and_grad(model, co, z_prev, b)
    assert value == float(np.mean(np.abs(r)))
    assert residual == float(np.abs(r).max())
    pullback = model.linearize(z_prev + b, t)[1]
    assert np.array_equal(grad, (co.phi * s + co.psi * pullback(s)) / r.size)


def test_invert_step_numerical_hand_fixed_point(toy3, stub_half):
    cfg = LboConfig(mode="numerical", max_iters=15, tol=1e-12)
    z_t, rep = lbo_invert_step(stub_half, coefficients(toy3, 2, 1), ONE, cfg)
    assert z_t[0] == pytest.approx(1.0 + BSTAR, abs=1e-9)
    assert rep.converged and rep.iters <= 15 and rep.residual < 1e-12
    assert rep.t == 2


@pytest.mark.parametrize("mode,iters_cap", [("numerical", 1), ("gradient", 1)])
def test_invert_step_stub_zero_converges_immediately(toy3, stub0, mode, iters_cap):
    cfg = LboConfig(mode=mode, max_iters=10)
    z_t, rep = lbo_invert_step(stub0, coefficients(toy3, 2, 1), ONE, cfg)
    assert rep.converged
    assert rep.iters <= iters_cap
    assert rep.residual <= 1e-14
    np.testing.assert_allclose(z_t, ddim_invert_step(stub0, coefficients(toy3, 2, 1), ONE),
                               atol=1e-14)


def test_invert_step_hybrid_stub_zero(toy3, stub0, stub_half):
    # the first warm-up step reads r = 0 at the exact solution and stops, as the other modes do
    cfg = LboConfig(mode="hybrid", max_iters=10)
    z_t, rep = lbo_invert_step(stub0, coefficients(toy3, 2, 1), ONE, cfg)
    assert rep.converged and rep.iters == 1 and rep.residual <= 1e-14
    # a budget inside the five-step warm-up is the gradient mode's, with its finite residual
    for max_iters in (1, 3, 5):
        z_h, rep_h = lbo_invert_step(stub_half, coefficients(toy3, 2, 1), ONE,
                                     LboConfig(mode="hybrid", max_iters=max_iters))
        z_g, rep_g = lbo_invert_step(stub_half, coefficients(toy3, 2, 1), ONE,
                                     LboConfig(mode="gradient", max_iters=max_iters))
        assert rep_h.iters == max_iters and 0.0 < rep_h.residual < np.inf and not rep_h.converged
        assert np.array_equal(z_h, z_g) and rep_h == rep_g


@pytest.mark.parametrize("mode", ["numerical", "gradient", "hybrid"])
def test_invert_step_under_a_constant_prediction_is_the_closed_form_preimage(mode):
    # generate(z) = φ·z + ψ·c is z_prev at z = (z_prev − ψ·c)/φ. The step reads its transition
    # from co alone: t = 7 is on no schedule. Dyadic values keep every operation exact.
    co = StepCoefficients(phi=2.0, psi=-0.5, t=7, t_prev=3)
    c, z_prev = np.array([0.25, -1.5, 3.0]), np.array([1.0, -0.5, 0.75])
    z_t, rep = lbo_invert_step(ConstantDenoiser(3, c), co, z_prev, LboConfig(mode=mode))
    assert np.array_equal(z_t, (z_prev - co.psi * c) / co.phi)
    assert rep == LboStepReport(t=7, iters=1, residual=0.0, converged=True)


@pytest.mark.parametrize("mode", ["numerical", "gradient", "hybrid"])
def test_zero_budget_is_one_shot_inversion(gauss_nd, default_sched, mode):
    rng = np.random.default_rng(3)
    z = rng.standard_normal(4)
    cfg = LboConfig(mode=mode, max_iters=0)
    z_t, rep = lbo_invert_step(gauss_nd, coefficients(default_sched, 40, 30), z, cfg)
    np.testing.assert_array_equal(
        z_t, ddim_invert_step(gauss_nd, coefficients(default_sched, 40, 30), z))
    assert rep.iters == 0 and rep.residual == np.inf and not rep.converged


def test_a_residual_equal_to_tol_is_not_converged_and_runs_another_sweep():
    # the default config's oracle and first image, transition 0 -> 2: one sweep leaves the
    # residual R (4.6e-10). At tol = R the report's `residual < tol` is false, and with
    # budget 6 the loop's `residual >= tol` runs a third sweep from the second's start at R
    b = BenchmarkBackends(RunConfig())
    z_prev = b.ae.encode(b.images[0])

    def report(max_iters, tol=1e-8):
        cfg = LboConfig("numerical", max_iters=max_iters, tol=tol)
        return lbo_invert_step(b.model, coefficients(b.sched, 2, 0), z_prev, cfg)[1]
    r = report(1).residual
    assert 0.0 < r < 1e-8
    assert report(1, r) == LboStepReport(t=2, iters=1, residual=r, converged=False)
    rep = report(6, r)
    assert rep.iters == 3 and rep.residual < r


@pytest.mark.parametrize("field,value", [
    ("mode", "annealed"), ("mode", 1), ("max_iters", -1), ("max_iters", True),  # bool: no int
    ("tol", 0.0), ("tol", math.inf), ("tol", math.nan),
    ("lr", 0.0), ("lr", -1e-3), ("lr", math.inf), ("lr", math.nan),
    ("tol", "x"), ("tol", True), ("lr", "x"), ("lr", True)])  # True is no number
def test_config_rejects_out_of_range_value(field, value):
    with rejects(field):
        LboConfig(**{field: value})


def test_config_validation():
    assert LboConfig(mode="gradient").max_iters == 20
    # the smallest accepted values
    assert LboConfig(max_iters=0, tol=1e-300, lr=1e-300).max_iters == 0


def test_trajectory_structure_and_replay(gauss_nd, default_sched):
    grid = make_uniform_grid(default_sched, 20)
    rng = np.random.default_rng(4)
    z0 = rng.standard_normal(4)
    cfg = LboConfig(mode="numerical", max_iters=15, tol=1e-10)
    traj, reports = lbo_invert_trajectory(gauss_nd, default_sched, grid, z0, cfg)
    assert traj.direction == "inversion"
    assert traj.timesteps() == (0,) + grid.steps
    assert len(reports) == len(grid)
    assert all(r.converged for r in reports)
    # replaying the refined z_T through plain generation recovers z0
    down = generate_trajectory(gauss_nd, default_sched, grid, traj.end)
    rel = np.linalg.norm(down.end - z0) / np.linalg.norm(z0)
    assert rel < 1e-8


def test_single_step_replay_within_tolerance(gauss_nd, default_sched):
    tol = 1e-10
    cfg = LboConfig(mode="numerical", max_iters=25, tol=tol)
    rng = np.random.default_rng(5)
    z_prev = rng.standard_normal(4)
    for t_prev, t in [(0, 2), (30, 40), (98, 100)]:
        co = coefficients(default_sched, t, t_prev)
        z_t, rep = lbo_invert_step(gauss_nd, co, z_prev, cfg)
        assert rep.converged
        back = generate_step(gauss_nd, co, z_t)
        assert np.max(np.abs(back - z_prev)) <= 10.0 * tol


def test_oracle_keeps_one_map_per_grid_timestep(gauss_nd, default_sched, grid50):
    z0 = np.array([0.3, -0.1, 0.8, 0.0])
    traj, _ = lbo_invert_trajectory(gauss_nd, default_sched, grid50, z0)
    assert sorted(gauss_nd._maps) == list(grid50.steps)
    maps = dict(gauss_nd._maps)
    # another inversion and the replay evaluate at the same timesteps: no new maps
    lbo_invert_trajectory(gauss_nd, default_sched, grid50, 2.0 * z0,
                          LboConfig(mode="gradient"))
    generate_trajectory(gauss_nd, default_sched, grid50, traj.end)
    assert gauss_nd._maps.keys() == maps.keys()
    assert all(gauss_nd._maps[t] is maps[t] for t in maps)
    # a timestep outside the schedule fails its bounds check before any map is built
    for t in (0, default_sched.t_train + 1):
        with rejects("t"):
            gauss_nd.eval(z0, t)
        with rejects("t"):
            gauss_nd.linearize(z0, t)
    assert len(gauss_nd._maps) == len(grid50)


def test_gradient_step_on_the_oracle_matches_the_spectral_formula(
        gauss_nd, default_sched):
    # the hot loop against the per-call spectral oracle and Adam as its docstring writes it
    cfg = LboConfig(mode="gradient")
    z_prev = np.random.default_rng(6).standard_normal(4)
    for t_prev, t in [(0, 2), (30, 40), (98, 100)]:
        co = coefficients(default_sched, t, t_prev)
        z_t, rep = lbo_invert_step(gauss_nd, co, z_prev, cfg)
        eval_, pullback = spectral_form(gauss_nd, t)
        b = (1.0 / co.phi) * z_prev - (co.psi / co.phi) * eval_(z_prev) - z_prev
        m, v = np.zeros(4), np.zeros(4)
        k, residual = 0, np.inf
        while k < cfg.max_iters and residual >= cfg.tol:
            k += 1
            z = z_prev + b
            r = co.phi * z + co.psi * eval_(z) - z_prev
            s = np.sign(r)
            g = (co.phi * s + co.psi * pullback(s)) / r.size
            residual = float(np.abs(r).max())
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * g * g
            m_hat, v_hat = m / (1.0 - BETA1**k), v / (1.0 - BETA2**k)
            b = b - cfg.lr * m_hat / (np.sqrt(v_hat) + EPSILON)
        ref = z_prev + b
        residual = float(np.abs(co.phi * ref + co.psi * eval_(ref) - z_prev).max())
        assert rep.iters == k
        # r is a difference of terms the size of z_prev, so its rounding scales with them
        assert abs(rep.residual - residual) <= 1e-12 * np.abs(z_prev).max()
        assert np.abs(z_t - ref).max() <= 1e-12 * np.abs(ref).max()
        z_prev = z_t


def test_trajectory_determinism(gauss_nd, default_sched):
    grid = make_uniform_grid(default_sched, 10)
    z0 = np.array([0.3, -0.1, 0.8, 0.0])
    a, ra = lbo_invert_trajectory(gauss_nd, default_sched, grid, z0)
    b, rb = lbo_invert_trajectory(gauss_nd, default_sched, grid, z0)
    assert a.timesteps() == b.timesteps()
    np.testing.assert_array_equal(a.latents, b.latents)
    assert ra == rb


def test_refined_beats_one_shot_round_trip(gauss_nd, default_sched):
    grid = make_uniform_grid(default_sched, 25)
    rng = np.random.default_rng(6)
    z0 = rng.standard_normal(4)

    def roundtrip_err(traj):
        down = generate_trajectory(gauss_nd, default_sched, grid, traj.end)
        return float(np.linalg.norm(down.end - z0))

    plain = ddim_invert_trajectory(gauss_nd, default_sched, grid, z0)
    refined, _ = lbo_invert_trajectory(gauss_nd, default_sched, grid, z0)
    assert roundtrip_err(refined) < 0.1 * roundtrip_err(plain)


def test_modes_agree_on_smooth_model(gauss_nd, default_sched):
    grid = make_uniform_grid(default_sched, 10)
    z0 = np.array([0.5, -0.4, 0.2, 1.0])
    num, _ = lbo_invert_trajectory(
        gauss_nd, default_sched, grid, z0, LboConfig(mode="numerical", max_iters=30)
    )
    hyb, _ = lbo_invert_trajectory(
        gauss_nd, default_sched, grid, z0, LboConfig(mode="hybrid", max_iters=35))
    grad, _ = lbo_invert_trajectory(
        gauss_nd, default_sched, grid, z0, LboConfig(mode="gradient", max_iters=600, lr=1e-4))
    rel_h = np.linalg.norm(hyb.end - num.end) / np.linalg.norm(num.end)
    rel_g = np.linalg.norm(grad.end - num.end) / np.linalg.norm(num.end)
    assert rel_h < 1e-6
    assert rel_g < 1e-3


def _reference_step(model, co, z_prev, cfg):
    """lbo_invert_step written out with the public per-iteration functions: Adam steps (every
    one in gradient mode, the first five in hybrid mode), then sweeps, until ‖r‖∞ < tol; the
    reported ‖r‖∞ is the one at the returned b, from one more sweep whose b is dropped."""
    b = ddim_invert_step(model, co, z_prev) - z_prev
    n_adam = {"numerical": 0, "gradient": cfg.max_iters, "hybrid": 5}[cfg.mode]
    state = AdamState(lr=cfg.lr)
    iters, residual = 0, np.inf
    while iters < cfg.max_iters and residual >= cfg.tol:
        if iters < n_adam:
            b, state, residual = lbo_gradient_iterate(model, co, z_prev, b, state)
        else:
            b, residual = lbo_numerical_iterate(model, co, z_prev, b)
        iters += 1
    return z_prev + b, iters, lbo_numerical_iterate(model, co, z_prev, b)[1]


@pytest.mark.parametrize("backend", ["gaussian", "mlp"])
@pytest.mark.parametrize("mode", ["numerical", "gradient", "hybrid"])
def test_invert_step_is_bit_identical_to_the_public_iterates(
        gauss_nd, default_sched, tiny_mlp, backend, mode):
    if backend == "gaussian":
        model, sched = gauss_nd, default_sched
        z = np.array([0.3, -1.2, 0.7, 0.1])
        pairs = [(0, 2), (30, 40), (60, 100)]
    else:
        model, sched = tiny_mlp
        z = np.array([0.4, -0.2])
        pairs = [(0, 4), (4, 10), (10, 20)]
    # the default budget and tolerance, then a budget that runs out first
    for cfg in (LboConfig(mode=mode), LboConfig(mode=mode, max_iters=7, tol=1e-30)):
        for t_prev, t in pairs:
            co = coefficients(sched, t, t_prev)
            z_t, rep = lbo_invert_step(model, co, z, cfg)
            ref_z, ref_iters, ref_residual = _reference_step(model, co, z, cfg)
            assert np.array_equal(z_t, ref_z)
            assert (rep.iters, rep.residual) == (ref_iters, ref_residual)
            z = z_t


@pytest.mark.parametrize("mode", ["numerical", "gradient", "hybrid"])
def test_coefficients_looked_up_per_step_not_per_iteration(
        gauss_nd, default_sched, monkeypatch, mode):
    # one lookup per transition serves the step's one-shot start and every iteration
    real = invlab.lbo.coefficients
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(invlab.lbo, "coefficients", counting)
    monkeypatch.setattr(invlab.dynamics, "coefficients", counting)
    z = np.array([0.3, -1.2, 0.7, 0.1])
    grid = make_uniform_grid(default_sched, 4)
    lookups = []
    for max_iters in (1, 15):
        calls.clear()
        _, reports = lbo_invert_trajectory(gauss_nd, default_sched, grid, z,
                                           LboConfig(mode=mode, max_iters=max_iters, tol=1e-30))
        assert all(rep.iters >= min(max_iters, 6) for rep in reports)
        lookups.append(len(calls))
    assert lookups == [len(grid)] * 2


def _count_forward_passes(monkeypatch):
    calls = []
    inner = invlab.denoiser._batch_forward
    monkeypatch.setattr(invlab.denoiser, "_batch_forward",
                        lambda *a: calls.append(1) or inner(*a))
    return calls


@pytest.mark.parametrize("mode", ["numerical", "gradient", "hybrid"])
def test_a_step_runs_one_forward_pass_per_iteration_and_one_for_its_report(
        tiny_mlp, monkeypatch, mode):
    # the one-shot start, then one per sweep or Adam step, then one at the returned z_t for
    # its residual; a zero budget reports inf and runs only the start
    model, sched = tiny_mlp
    calls = _count_forward_passes(monkeypatch)
    for max_iters in (0, 1, 7):
        calls.clear()
        _, rep = lbo_invert_step(model, coefficients(sched, 10, 4), np.array([0.4, -0.2]),
                                 LboConfig(mode=mode, max_iters=max_iters, tol=1e-30))
        assert rep.iters == max_iters
        assert len(calls) == 1 + max_iters + (max_iters > 0)


def test_objective_and_grad_runs_one_forward_pass(tiny_mlp, monkeypatch):
    model, sched = tiny_mlp
    z_prev, b = np.array([0.4, -0.2]), np.array([0.01, 0.02])
    co = coefficients(sched, 10, 5)
    value, grad, residual = objective_and_grad(model, co, z_prev, b)
    calls = _count_forward_passes(monkeypatch)
    again = objective_and_grad(model, co, z_prev, b)
    # one MLP forward pass, where eval then vjp took two
    assert len(calls) == 1
    assert (again[0], again[2]) == (value, residual) and np.array_equal(again[1], grad)
    # the same bits as the separate eval and vjp
    z = z_prev + b
    r = co.phi * z + co.psi * model.eval(z, 10) - z_prev
    s = np.sign(r)
    assert np.array_equal(grad, (co.phi * s + co.psi * model.linearize(z, 10)[1](s)) / r.size)


# ---------------------------------------------------------------- exact answers from the oracle


@pytest.fixture(scope="module")
def oracle():
    """The benchmark's analytic denoiser at d = 16 (Σ's eigenvalues spread over
    [0.7, 1.5], the default schedule) and three latents to invert."""
    sched = make_linear_schedule(100, 1e-4, 0.05)
    rng = np.random.default_rng(31)
    return analytic_denoiser(rng, 16, sched), sched, rng.standard_normal((3, 16))


def _sweep_radius(model, co, z=None):
    """ρ of the sweep z ↦ z − (generate_step(z) − z_prev) at z (anywhere, for an affine
    model), whose Jacobian is M = (1 − φ)I − ψJ_t."""
    jac = jacobian(model, np.zeros(model.latent_dim) if z is None else z, co.t)
    return float(np.abs(np.linalg.eigvals((1.0 - co.phi) * np.eye(len(jac)) - co.psi * jac)).max())


def test_exact_preimage_replays_onto_its_start(oracle):
    model, sched, z0s = oracle
    grid = make_uniform_grid(sched, 4)
    for z0 in z0s:
        z_T = exact_preimage(model, sched, grid, z0)
        replayed = generate_trajectory(model, sched, grid, z_T).end
        np.testing.assert_allclose(replayed, z0, rtol=0.0, atol=1e-12)


def _stopped_on_its_test(model, co, z_prev, cfg, rep):
    """Whether the step's loop stopped on ‖r‖∞ < tol rather than on its budget: given one
    more iteration, it runs no further. `converged` cannot tell, since it also holds when the
    budget ran out at a z_t whose residual is below tol."""
    if rep.iters < cfg.max_iters:
        return True
    more = replace(cfg, max_iters=cfg.max_iters + 1)
    return lbo_invert_step(model, co, z_prev, more)[1].iters == rep.iters


# steps -> how many steps of one trajectory converge, that is stop on their test, for lbo-n
# and lbo-h (measured)
@pytest.mark.parametrize("steps,converging", [(50, (50, 50)), (4, (4, 4)), (2, (1, 0)),
                                            (10, (10, 10))])
def test_converged_sweeps_land_within_their_bound_of_the_exact_preimage(oracle, steps,
                                                                        converging):
    # a sweep that stops on |Δ|∞ < tol leaves the error −M(I − M)⁻¹Δ: at most
    # ρ/(1 − ρ)·sqrt(d)·tol in 2-norm, since M is symmetric; each later exact
    # step (I − M)⁻¹ grows it by at most 1/(1 − ρ)
    model, sched, z0s = oracle
    grid = make_uniform_grid(sched, steps)
    cos = [coefficients(sched, t, t_prev) for t_prev, t in grid.transitions()]
    rhos = [_sweep_radius(model, co) for co in cos]
    checked = Counter()
    for mode in ("numerical", "hybrid"):
        cfg = LboConfig(mode=mode)
        # 1e-13 for rounding
        local = [rho / (1.0 - rho) * math.sqrt(model.latent_dim) * cfg.tol + 1e-13 for rho in rhos]
        for z0 in z0s:
            traj, reports = lbo_invert_trajectory(model, sched, grid, z0, cfg)
            latents = traj.latents
            stopped = [_stopped_on_its_test(model, co, z_prev, cfg, rep)
                       for co, z_prev, rep in zip(cos, latents[:-1], reports, strict=True)]
            for co, stop, bound, z_prev, z_t in zip(cos, stopped, local, latents[:-1],
                                                    latents[1:], strict=True):
                if stop:
                    assert np.linalg.norm(z_t - exact_step(model, co, z_prev)) <= bound
                    checked[mode] += 1
            if all(stopped):
                total = 0.0
                for rho, bound in zip(rhos, local):
                    total = total / (1.0 - rho) + bound
                assert np.linalg.norm(traj.end - exact_preimage(model, sched, grid, z0)) <= total
    assert (checked["numerical"], checked["hybrid"]) == tuple(len(z0s) * n for n in converging)


def _first_sweep(model, co, z_prev):
    """|Δ₁|∞: the first sweep's step, from the one-shot start."""
    return lbo_numerical_iterate(model, co, z_prev, ddim_invert_step(model, co, z_prev)
                                 - z_prev)[1]


@pytest.mark.parametrize("steps", [50, 4])
def test_plain_sweep_converges_within_the_count_rho_predicts(oracle, steps):
    # sweep k's step is Δ_k = M·Δ_{k−1}, so |Δ_k|∞ ≤ ρ^(k−1)·sqrt(d)·|Δ₁|∞ (M symmetric) and
    # the stop rule |Δ_k|∞ < tol holds by sweep ⌈log(tol / Δ₁) / log ρ⌉ plus a slack: one
    # sweep for the first, which only measures Δ₁, and log(1 / sqrt(d)) / log ρ for the
    # norms, under one sweep at these ρ. Measured, no step needs more than one of the two.
    model, sched, z0s = oracle
    grid = make_uniform_grid(sched, steps)
    cfg = LboConfig(mode="numerical")
    for z0 in z0s:
        traj, reports = lbo_invert_trajectory(model, sched, grid, z0, cfg)
        latents = traj.latents
        for (t_prev, t), z_prev, rep in zip(grid.transitions(), latents[:-1], reports,
                                            strict=True):
            co = coefficients(sched, t, t_prev)
            rho = _sweep_radius(model, co)
            first = _first_sweep(model, co, z_prev)
            sweeps = math.log(cfg.tol / (math.sqrt(model.latent_dim) * first)) / math.log(rho)
            assert rho < 1.0 and rep.converged and rep.iters <= 1 + max(0, math.ceil(sweeps))


def test_plain_sweep_runs_out_of_budget_at_one_step(oracle):
    # each sweep shrinks the error by about ρ ≈ 0.8, so reaching tol from the
    # first sweep's step takes log(tol / Δ₁) / log ρ sweeps, over 80, where the budget is 15
    model, sched, z0s = oracle
    co = coefficients(sched, sched.t_train, 0)
    rho = _sweep_radius(model, co)
    assert 0.75 < rho < 0.85
    cfg = LboConfig(mode="numerical")
    for z0 in z0s:
        first = _first_sweep(model, co, z0)
        assert math.log(cfg.tol / first) / math.log(rho) > cfg.max_iters
        _, rep = lbo_invert_step(model, co, z0, cfg)
        assert not rep.converged and rep.iters == cfg.max_iters and rep.residual >= cfg.tol


def test_newton_preimage_is_the_exact_preimage_on_the_oracle(oracle):
    model, sched, z0s = oracle
    for steps in (50, 4, 1):
        grid = make_uniform_grid(sched, steps)
        for z0 in z0s:
            z = z0
            for t_prev, t in grid.transitions():
                z = newton_preimage(model, coefficients(sched, t, t_prev), z)
            np.testing.assert_allclose(z, exact_preimage(model, sched, grid, z0), rtol=0.0,
                                       atol=1e-12)


@pytest.fixture(scope="module")
def default_mlp():
    """The default config's trained MLP denoiser (d = 64) and three encoded images. On it
    the plain sweep converges on every step at 10 steps, on few at 4 and on none at 2."""
    b = BenchmarkBackends(config_from_json_dict({"denoiser": {"kind": "mlp"},
                                                 "dataset": {"count": 3}}))
    return b.model, b.sched, [b.ae.encode(x) for x in b.images]


@pytest.mark.parametrize("steps", [10, 4, 2])
def test_newton_preimage_replays_onto_its_start_on_the_mlp(default_mlp, steps):
    model, sched, z0s = default_mlp
    grid = make_uniform_grid(sched, steps)
    for z0 in z0s:
        z_prev = z0
        for t_prev, t in grid.transitions():
            co = coefficients(sched, t, t_prev)
            z_t = newton_preimage(model, co, z_prev)
            assert np.abs(generate_step(model, co, z_t) - z_prev).max() <= 1e-10
            z_prev = z_t


# steps -> how many steps of the three trajectories converge, that is stop on their test, for
# lbo-n and lbo-h (measured)
@pytest.mark.parametrize("steps,converging", [(10, (30, 24)), (4, (3, 0)), (2, (0, 0))])
def test_converged_sweeps_land_within_their_bound_of_the_newton_preimage(default_mlp,
                                                                          steps, converging):
    # the oracle's bound on the steps that stopped on their test, with ρ the spectral radius
    # of the sweep map at the Newton preimage; J is not symmetric on the MLP, so here the
    # bound is measured, not proved
    model, sched, z0s = default_mlp
    grid = make_uniform_grid(sched, steps)
    checked = Counter()
    for mode in ("numerical", "hybrid"):
        cfg = LboConfig(mode=mode)
        for z0 in z0s:
            traj, reports = lbo_invert_trajectory(model, sched, grid, z0, cfg)
            latents = traj.latents
            for (t_prev, t), rep, z_prev, z_t in zip(grid.transitions(), reports, latents[:-1],
                                                     latents[1:], strict=True):
                co = coefficients(sched, t, t_prev)
                if not _stopped_on_its_test(model, co, z_prev, cfg, rep):
                    continue
                exact = newton_preimage(model, co, z_prev)
                rho = _sweep_radius(model, co, exact)
                if rho < 1.0:
                    bound = rho / (1.0 - rho) * math.sqrt(model.latent_dim) * cfg.tol + 1e-13
                    assert np.linalg.norm(z_t - exact) <= bound
                    checked[mode] += 1
    assert (checked["numerical"], checked["hybrid"]) == converging

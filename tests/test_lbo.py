"""Step-wise bias refinement: fixed-point and gradient solvers."""

import numpy as np
import pytest
from conftest import spectral_form

import invlab.denoiser
import invlab.dynamics
import invlab.lbo
from invlab import (
    AdamState,
    BoundsError,
    Condition,
    DivergenceError,
    InvalidParameterError,
    LboConfig,
    LinearGaussianDenoiser,
    ScalingDenoiser,
    bias_target,
    cfg_eval,
    cfg_linearize,
    coefficients,
    ddim_invert_step,
    ddim_invert_trajectory,
    generate_step,
    generate_trajectory,
    gradient_check,
    lbo_gradient_iterate,
    lbo_invert_step,
    lbo_invert_trajectory,
    lbo_numerical_iterate,
    make_uniform_grid,
    objective_and_grad,
)
from invlab.optim import BETA1, BETA2, EPSILON

ONE = np.array([1.0])

# fixed point of the toy3/scale-0.5 transition (1, 2), frozen by hand:
# b* = c/(1-c) with c = 1 - phi - 0.5*psi
BSTAR = 0.01784041101132872
CONTRACTION = 0.017527709470291558


def test_bias_target_hand_values(toy3, stub0, stub_half, uncond):
    got0 = bias_target(stub0, coefficients(toy3, 2, 1), ONE, uncond)
    assert got0[0] == pytest.approx(1.0 - 1.0540925533894598, abs=1e-15)
    got_half = bias_target(stub_half, coefficients(toy3, 2, 1), ONE, uncond)
    assert got_half[0] == pytest.approx(CONTRACTION, abs=1e-15)


def test_bias_target_complements_generation(gauss_nd, default_sched, uncond):
    rng = np.random.default_rng(1)
    z = rng.standard_normal(4)
    co = coefficients(default_sched, 50, 40)
    got = bias_target(gauss_nd, co, z, uncond)
    expect = z - generate_step(gauss_nd, co, z, uncond)
    np.testing.assert_array_equal(got, expect)


def test_numerical_iterate_holds_fixed_point(toy3, stub_half, uncond):
    b = np.array([BSTAR])
    b_next = lbo_numerical_iterate(stub_half, coefficients(toy3, 2, 1), ONE, uncond, b)
    assert abs(b_next[0] - BSTAR) <= 1e-15


def test_numerical_iterates_contract_geometrically(toy3, stub_half, uncond):
    # affine map: successive residuals shrink by the contraction factor
    b = ddim_invert_step(stub_half, coefficients(toy3, 2, 1), ONE, uncond) - ONE
    residuals = []
    for _ in range(4):
        b_next = lbo_numerical_iterate(stub_half, coefficients(toy3, 2, 1), ONE, uncond, b)
        residuals.append(abs(float(b_next[0] - b[0])))
        b = b_next
    ratios = [r2 / r1 for r1, r2 in zip(residuals, residuals[1:]) if r1 > 1e-14]
    for r in ratios:
        assert r == pytest.approx(CONTRACTION, rel=1e-6)


def test_numerical_iterate_raises_on_blowup(toy3, uncond):
    wild = ScalingDenoiser(1, 1e22)
    cfg = LboConfig(mode="numerical", max_iters=20)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
        lbo_invert_step(wild, toy3, ONE, 1, 2, uncond, cfg)
    assert exc.value.context["iteration"] == 14


@pytest.mark.parametrize("mode,scale", [("gradient", 1e200), ("hybrid", 1e22), ("hybrid", 1e200)])
def test_gradient_and_hybrid_blowup_name_step_and_iteration(toy3, uncond, mode, scale):
    # Adam moves b by about lr per step, so at scale 1e22 J stays finite (~1e42)
    # and gradient mode never diverges; at 1e200 J overflows on its first
    # evaluation. Hybrid at 1e22 blows up in its numerical tail after warm-up.
    wild = ScalingDenoiser(1, scale)
    cfg = LboConfig(mode=mode, max_iters=20)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
        lbo_invert_step(wild, toy3, ONE, 1, 2, uncond, cfg)
    assert exc.value.context["t"] == 2
    # the first Adam step at 1e200; the 14th sweep after 5 warm-up steps at 1e22
    assert exc.value.context["iteration"] == (19 if scale == 1e22 else 1)


def test_hybrid_blowup_counts_iterations_from_the_start_of_the_step(toy3, uncond):
    # 5 Adam warm-up iterations, then the numerical tail overflows on its 14th
    wild = ScalingDenoiser(1, 1e22)
    cfg = LboConfig(mode="hybrid", max_iters=20)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as exc:
        lbo_invert_step(wild, toy3, ONE, 1, 2, uncond, cfg)
    assert exc.value.context["iteration"] == 19


def test_gradient_iterate_stationary_at_solution(toy3, stub0, uncond):
    # F = 0: the one-shot bias is exact, J = 0, gradient = 0, b unchanged
    b = ddim_invert_step(stub0, coefficients(toy3, 2, 1), ONE, uncond) - ONE
    b_next, state, value = lbo_gradient_iterate(
        stub0, coefficients(toy3, 2, 1), ONE, uncond, b, AdamState(lr=1e-3)
    )
    assert value == 0.0
    np.testing.assert_array_equal(b_next, b)
    assert state.step_count == 1


def test_gradient_iterate_descends(toy3, stub_half, uncond):
    b = ddim_invert_step(stub_half, coefficients(toy3, 2, 1), ONE, uncond) - ONE
    b_next, _, value = lbo_gradient_iterate(
        stub_half, coefficients(toy3, 2, 1), ONE, uncond, b, AdamState(lr=1e-3)
    )
    assert value > 0.0
    assert abs(b_next[0] - BSTAR) < abs(b[0] - BSTAR)


def test_objective_gradient_matches_finite_differences(gauss_nd, default_sched, uncond):
    rng = np.random.default_rng(2)
    z_prev = rng.standard_normal(4)
    b = 0.1 * rng.standard_normal(4)

    co = coefficients(default_sched, 40, 30)

    def j(bb):
        val, _ = objective_and_grad(gauss_nd, co, z_prev, uncond, bb)
        return val

    _, grad = objective_and_grad(gauss_nd, co, z_prev, uncond, b)
    assert gradient_check(j, grad, b) < 1e-4


@pytest.mark.parametrize("backend", ["gaussian", "mlp"])
def test_objective_is_the_straightforward_form_bit_for_bit(
        default_sched, tiny_mlp, backend):
    if backend == "gaussian":
        # d = 5: dividing by a power of two would hide a reordered mean
        a = np.random.default_rng(7).standard_normal((5, 5))
        model = LinearGaussianDenoiser(np.ones(5), a @ a.T + np.eye(5), default_sched)
        sched, c, t_prev, t = default_sched, Condition.unconditional(), 30, 40
    else:
        (model, sched), c, t_prev, t = tiny_mlp, Condition.class_label(0, 3.0), 4, 10
    rng = np.random.default_rng(8)
    z_prev = rng.standard_normal(model.latent_dim)
    b = 0.1 * rng.standard_normal(model.latent_dim)
    co = coefficients(sched, t, t_prev)
    r = generate_step(model, co, z_prev + b, c) - z_prev
    s = np.sign(r)
    value, grad = objective_and_grad(model, co, z_prev, c, b)
    assert value == float(np.mean(np.abs(r)))
    pullback = cfg_linearize(model, z_prev + b, t, c)[1]
    assert np.array_equal(grad, (co.phi * s + co.psi * pullback(s)) / r.size)


def test_invert_step_numerical_hand_fixed_point(toy3, stub_half, uncond):
    cfg = LboConfig(mode="numerical", max_iters=15, tol=1e-12)
    z_t, rep = lbo_invert_step(stub_half, toy3, ONE, 1, 2, uncond, cfg)
    assert z_t[0] == pytest.approx(1.0 + BSTAR, abs=1e-9)
    assert rep.converged and rep.iters <= 15 and rep.residual < 1e-12
    assert rep.t == 2


@pytest.mark.parametrize("mode,iters_cap", [("numerical", 1), ("gradient", 1)])
def test_invert_step_stub_zero_converges_immediately(toy3, stub0, uncond, mode, iters_cap):
    cfg = LboConfig(mode=mode, max_iters=10)
    z_t, rep = lbo_invert_step(stub0, toy3, ONE, 1, 2, uncond, cfg)
    assert rep.converged
    assert rep.iters <= iters_cap
    assert rep.residual <= 1e-14
    np.testing.assert_allclose(z_t, ddim_invert_step(stub0, coefficients(toy3, 2, 1), ONE, uncond),
                               atol=1e-14)


def test_invert_step_hybrid_stub_zero(toy3, stub0, uncond):
    # warmup steps are no-ops at the exact solution; the numerical tail closes
    cfg = LboConfig(mode="hybrid", max_iters=10, n_grad_warmup=5)
    z_t, rep = lbo_invert_step(stub0, toy3, ONE, 1, 2, uncond, cfg)
    assert rep.converged and rep.iters == 6 and rep.residual <= 1e-14
    cfg0 = LboConfig(mode="hybrid", max_iters=10, n_grad_warmup=0)
    _, rep0 = lbo_invert_step(stub0, toy3, ONE, 1, 2, uncond, cfg0)
    assert rep0.converged and rep0.iters == 1
    # a budget inside the warm-up: no sweep runs, so there is no residual
    short = LboConfig(mode="hybrid", max_iters=3, n_grad_warmup=5)
    _, rep_short = lbo_invert_step(stub0, toy3, ONE, 1, 2, uncond, short)
    assert rep_short.iters == 3 and rep_short.residual == np.inf and not rep_short.converged


@pytest.mark.parametrize("mode", ["numerical", "gradient", "hybrid"])
def test_zero_budget_is_one_shot_inversion(gauss_nd, default_sched, uncond, mode):
    rng = np.random.default_rng(3)
    z = rng.standard_normal(4)
    cfg = LboConfig(mode=mode, max_iters=0)
    z_t, rep = lbo_invert_step(gauss_nd, default_sched, z, 30, 40, uncond, cfg)
    np.testing.assert_array_equal(
        z_t, ddim_invert_step(gauss_nd, coefficients(default_sched, 40, 30), z, uncond))
    assert rep.iters == 0 and rep.residual == np.inf and not rep.converged


def test_config_validation():
    with pytest.raises(InvalidParameterError):
        LboConfig(mode="annealed")
    with pytest.raises(InvalidParameterError):
        LboConfig(max_iters=-1)
    with pytest.raises(InvalidParameterError):
        LboConfig(tol=0.0)
    with pytest.raises(InvalidParameterError):
        LboConfig(lr=-1e-3)
    with pytest.raises(InvalidParameterError):
        LboConfig(n_grad_warmup=-2)
    for field in ("max_iters", "n_grad_warmup"):  # bool is not an int here
        with pytest.raises(InvalidParameterError, match=field) as err:
            LboConfig(**{field: True})
        assert err.value.context["field"] == field
    assert LboConfig(mode="gradient").max_iters == 20


def test_trajectory_structure_and_replay(gauss_nd, default_sched, uncond):
    grid = make_uniform_grid(default_sched, 20)
    rng = np.random.default_rng(4)
    z0 = rng.standard_normal(4)
    cfg = LboConfig(mode="numerical", max_iters=15, tol=1e-10)
    traj, reports = lbo_invert_trajectory(gauss_nd, default_sched, grid, z0, uncond, cfg)
    assert traj.direction == "inversion"
    assert traj.timesteps() == (0,) + grid.steps
    assert len(reports) == len(grid)
    assert all(r.converged for r in reports)
    # replaying the refined z_T through plain generation recovers z0
    down = generate_trajectory(gauss_nd, default_sched, grid, traj.end, uncond)
    rel = np.linalg.norm(down.end - z0) / np.linalg.norm(z0)
    assert rel < 1e-8


def test_single_step_replay_within_tolerance(gauss_nd, default_sched, uncond):
    tol = 1e-10
    cfg = LboConfig(mode="numerical", max_iters=25, tol=tol)
    rng = np.random.default_rng(5)
    z_prev = rng.standard_normal(4)
    for t_prev, t in [(0, 2), (30, 40), (98, 100)]:
        z_t, rep = lbo_invert_step(gauss_nd, default_sched, z_prev, t_prev, t, uncond, cfg)
        assert rep.converged
        back = generate_step(gauss_nd, coefficients(default_sched, t, t_prev), z_t, uncond)
        assert np.max(np.abs(back - z_prev)) <= 10.0 * tol


def test_oracle_keeps_one_map_per_grid_timestep(gauss_nd, default_sched, grid50, uncond):
    z0 = np.array([0.3, -0.1, 0.8, 0.0])
    traj, _ = lbo_invert_trajectory(gauss_nd, default_sched, grid50, z0, uncond)
    assert sorted(gauss_nd._maps) == list(grid50.steps)
    maps = dict(gauss_nd._maps)
    # another inversion and the replay evaluate at the same timesteps: no new maps
    lbo_invert_trajectory(gauss_nd, default_sched, grid50, 2.0 * z0, uncond,
                          LboConfig(mode="gradient"))
    generate_trajectory(gauss_nd, default_sched, grid50, traj.end, uncond)
    assert gauss_nd._maps.keys() == maps.keys()
    assert all(gauss_nd._maps[t] is maps[t] for t in maps)
    # a timestep outside the schedule fails its bounds check before any map is built
    for t in (0, default_sched.t_train + 1):
        with pytest.raises(BoundsError):
            gauss_nd.eval(z0, t, uncond)
        with pytest.raises(BoundsError):
            gauss_nd.linearize(z0, t, uncond)
    assert len(gauss_nd._maps) == len(grid50)


def test_gradient_step_on_the_oracle_matches_the_spectral_formula(
        gauss_nd, default_sched, uncond):
    # the hot loop against the per-call spectral oracle and Adam as its docstring writes it
    cfg = LboConfig(mode="gradient")
    z_prev = np.random.default_rng(6).standard_normal(4)
    for t_prev, t in [(0, 2), (30, 40), (98, 100)]:
        z_t, rep = lbo_invert_step(gauss_nd, default_sched, z_prev, t_prev, t, uncond, cfg)
        co = coefficients(default_sched, t, t_prev)
        eval_, pullback = spectral_form(gauss_nd, t)
        b = (1.0 / co.phi) * z_prev - (co.psi / co.phi) * eval_(z_prev) - z_prev
        m, v = np.zeros(4), np.zeros(4)
        k, value = 0, np.inf
        while k < cfg.max_iters and value >= cfg.tol:
            k += 1
            z = z_prev + b
            r = co.phi * z + co.psi * eval_(z) - z_prev
            s = np.sign(r)
            g = (co.phi * s + co.psi * pullback(s)) / r.size
            value = float(np.mean(np.abs(r)))
            m = BETA1 * m + (1.0 - BETA1) * g
            v = BETA2 * v + (1.0 - BETA2) * g * g
            m_hat, v_hat = m / (1.0 - BETA1**k), v / (1.0 - BETA2**k)
            b = b - cfg.lr * m_hat / (np.sqrt(v_hat) + EPSILON)
        ref = z_prev + b
        assert rep.iters == k
        assert abs(rep.residual - value) <= 1e-12 * value
        assert np.abs(z_t - ref).max() <= 1e-12 * np.abs(ref).max()
        z_prev = z_t


def test_trajectory_determinism(gauss_nd, default_sched, uncond):
    grid = make_uniform_grid(default_sched, 10)
    z0 = np.array([0.3, -0.1, 0.8, 0.0])
    a, ra = lbo_invert_trajectory(gauss_nd, default_sched, grid, z0, uncond)
    b, rb = lbo_invert_trajectory(gauss_nd, default_sched, grid, z0, uncond)
    for (ta, za), (tb, zb) in zip(a.entries, b.entries):
        assert ta == tb
        np.testing.assert_array_equal(za, zb)
    assert ra == rb


def test_refined_beats_one_shot_round_trip(gauss_nd, default_sched, uncond):
    grid = make_uniform_grid(default_sched, 25)
    rng = np.random.default_rng(6)
    z0 = rng.standard_normal(4)

    def roundtrip_err(traj):
        down = generate_trajectory(gauss_nd, default_sched, grid, traj.end, uncond)
        return float(np.linalg.norm(down.end - z0))

    plain = ddim_invert_trajectory(gauss_nd, default_sched, grid, z0, uncond)
    refined, _ = lbo_invert_trajectory(gauss_nd, default_sched, grid, z0, uncond)
    assert roundtrip_err(refined) < 0.1 * roundtrip_err(plain)


def test_modes_agree_on_smooth_model(gauss_nd, default_sched, uncond):
    grid = make_uniform_grid(default_sched, 10)
    z0 = np.array([0.5, -0.4, 0.2, 1.0])
    num, _ = lbo_invert_trajectory(
        gauss_nd, default_sched, grid, z0, uncond, LboConfig(mode="numerical", max_iters=30)
    )
    hyb, _ = lbo_invert_trajectory(
        gauss_nd, default_sched, grid, z0, uncond,
        LboConfig(mode="hybrid", max_iters=35, n_grad_warmup=5),
    )
    grad, _ = lbo_invert_trajectory(
        gauss_nd, default_sched, grid, z0, uncond,
        LboConfig(mode="gradient", max_iters=600, lr=1e-4),
    )
    rel_h = np.linalg.norm(hyb.end - num.end) / np.linalg.norm(num.end)
    rel_g = np.linalg.norm(grad.end - num.end) / np.linalg.norm(num.end)
    assert rel_h < 1e-6
    assert rel_g < 1e-3


def test_guidance_weight_changes_conditional_inversion(tiny_mlp):
    model, sched = tiny_mlp
    z = np.array([0.4, -0.2])
    a, _ = lbo_invert_step(model, sched, z, 5, 10, Condition.class_label(1))
    b, _ = lbo_invert_step(model, sched, z, 5, 10, Condition.class_label(1, 3.0))
    assert not np.array_equal(a, b)


def test_trajectory_json_guidance_is_the_condition_weight(tiny_mlp):
    model, sched = tiny_mlp
    grid = make_uniform_grid(sched, 4)
    z = np.array([0.4, -0.2])
    for c in (Condition.unconditional(), Condition.class_label(1), Condition.class_label(1, 3)):
        for traj in (generate_trajectory(model, sched, grid, z, c),
                     ddim_invert_trajectory(model, sched, grid, z, c),
                     lbo_invert_trajectory(model, sched, grid, z, c)[0]):
            guidance = traj.to_json_dict()["guidance"]
            assert guidance == c.w and type(guidance) is float


def _reference_step(model, sched, z_prev, t_prev, t, c, cfg):
    """lbo_invert_step written out with the public per-iteration functions."""
    co = coefficients(sched, t, t_prev)
    b = ddim_invert_step(model, co, z_prev, c) - z_prev
    iters, residual = 0, np.inf
    if cfg.mode != "numerical":
        budget = cfg.max_iters if cfg.mode == "gradient" else min(cfg.n_grad_warmup, cfg.max_iters)
        state = AdamState(lr=cfg.lr)
        while iters < budget and (cfg.mode == "hybrid" or residual >= cfg.tol):
            b, state, residual = lbo_gradient_iterate(model, co, z_prev, c, b, state)
            iters += 1
    if cfg.mode != "gradient":
        residual = np.inf
        while iters < cfg.max_iters and residual >= cfg.tol:
            b_next = lbo_numerical_iterate(model, co, z_prev, c, b)
            residual = float(np.max(np.abs(b_next - b)))
            b = b_next
            iters += 1
    return z_prev + b, iters, residual


@pytest.mark.parametrize("backend", ["gaussian", "mlp"])
@pytest.mark.parametrize("mode", ["numerical", "gradient", "hybrid"])
def test_invert_step_is_bit_identical_to_the_public_iterates(
        gauss_nd, default_sched, tiny_mlp, backend, mode):
    if backend == "gaussian":
        model, sched, c = gauss_nd, default_sched, Condition.unconditional()
        z = np.array([0.3, -1.2, 0.7, 0.1])
        pairs = [(0, 2), (30, 40), (60, 100)]
    else:
        (model, sched), c = tiny_mlp, Condition.class_label(1, 3.0)
        z = np.array([0.4, -0.2])
        pairs = [(0, 4), (4, 10), (10, 20)]
    # the default budget and tolerance, then a budget that runs out first
    for cfg in (LboConfig(mode=mode), LboConfig(mode=mode, max_iters=7, tol=1e-30)):
        for t_prev, t in pairs:
            z_t, rep = lbo_invert_step(model, sched, z, t_prev, t, c, cfg)
            ref_z, ref_iters, ref_residual = _reference_step(model, sched, z, t_prev, t, c, cfg)
            assert np.array_equal(z_t, ref_z)
            assert (rep.iters, rep.residual) == (ref_iters, ref_residual)
            z = z_t


@pytest.mark.parametrize("mode", ["numerical", "gradient", "hybrid"])
def test_coefficients_looked_up_per_step_not_per_iteration(
        gauss_nd, default_sched, uncond, monkeypatch, mode):
    # one lookup serves the one-shot start and every iteration of the loop
    real = invlab.lbo.coefficients
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(invlab.lbo, "coefficients", counting)
    monkeypatch.setattr(invlab.dynamics, "coefficients", counting)
    z = np.array([0.3, -1.2, 0.7, 0.1])
    per_step = []
    for max_iters in (1, 15):
        calls.clear()
        _, rep = lbo_invert_step(gauss_nd, default_sched, z, 30, 40, uncond,
                                 LboConfig(mode=mode, max_iters=max_iters, tol=1e-30))
        assert rep.iters >= min(max_iters, 6)
        per_step.append(len(calls))
    assert per_step == [1, 1]


def _count_forward_passes(monkeypatch):
    calls = []
    inner = invlab.denoiser._batch_forward
    monkeypatch.setattr(invlab.denoiser, "_batch_forward",
                        lambda *a: calls.append(1) or inner(*a))
    return calls


@pytest.mark.parametrize("w", [1.0, 3.0])
def test_objective_and_grad_runs_one_forward_pass_per_condition(tiny_mlp, monkeypatch, w):
    model, sched = tiny_mlp
    c = Condition.class_label(1, w)
    z_prev, b = np.array([0.4, -0.2]), np.array([0.01, 0.02])
    co = coefficients(sched, 10, 5)
    value, grad = objective_and_grad(model, co, z_prev, c, b)
    calls = _count_forward_passes(monkeypatch)
    again = objective_and_grad(model, co, z_prev, c, b)
    # one MLP forward pass per evaluated condition, where eval then vjp took two
    assert len(calls) == (1 if w == 1.0 else 2)
    assert again[0] == value and np.array_equal(again[1], grad)
    # the same bits as the separate eval and vjp
    z = z_prev + b
    r = co.phi * z + co.psi * cfg_eval(model, z, 10, c) - z_prev
    s = np.sign(r)
    vjp_u = model.vjp(z, 10, Condition.unconditional(), s)
    vjp_g = model.vjp(z, 10, c, s) if w == 1.0 else vjp_u + w * (model.vjp(z, 10, c, s) - vjp_u)
    assert np.array_equal(grad, (co.phi * s + co.psi * vjp_g) / r.size)

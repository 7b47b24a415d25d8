"""The deterministic backward/forward transition maps."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invlab import (
    Condition,
    ConstantDenoiser,
    InvalidParameterError,
    ScalingDenoiser,
    TimestepGrid,
    coefficients,
    ddim_invert_step,
    ddim_invert_trajectory,
    generate_step,
    generate_trajectory,
    make_linear_schedule,
    make_uniform_grid,
)

ONE = np.array([1.0])


def test_generate_step_stub_zero(toy3, stub0, uncond):
    got = generate_step(stub0, coefficients(toy3, 2, 1), ONE, uncond)
    assert got[0] == pytest.approx(1.0540925533894598, abs=1e-15)


def test_invert_step_stub_zero(toy3, stub0, uncond):
    co = coefficients(toy3, 2, 1)
    got = ddim_invert_step(stub0, co, ONE, uncond)
    assert got[0] == pytest.approx(0.9486832980505138, abs=1e-15)
    assert ddim_invert_step(stub0, co, np.zeros(1), uncond)[0] == 0.0


def test_constant_model_steps_are_exact_inverses(toy3, uncond):
    m = ConstantDenoiser(1, 0.35)
    z = np.array([0.8])
    co = coefficients(toy3, 3, 1)
    back = generate_step(m, co, z, uncond)
    again = ddim_invert_step(m, co, back, uncond)
    np.testing.assert_allclose(again, z, atol=1e-12)
    co = coefficients(toy3, 2, 0)
    fwd = ddim_invert_step(m, co, z, uncond)
    down = generate_step(m, co, fwd, uncond)
    np.testing.assert_allclose(down, z, atol=1e-12)


def test_state_dependent_model_breaks_the_identity(toy3, unit_gauss1, uncond):
    # inversion evaluates at the target step, so the round trip has a gap
    z = np.array([0.8])
    co = coefficients(toy3, 2, 0)
    up = ddim_invert_step(unit_gauss1, co, z, uncond)
    down = generate_step(unit_gauss1, co, up, uncond)
    assert abs(down[0] - z[0]) > 1e-6


def test_generation_trajectory_telescopes(toy3, stub0, uncond):
    grid = make_uniform_grid(toy3, 3)
    traj = generate_trajectory(stub0, toy3, grid, ONE, uncond)
    assert traj.direction == "generation"
    assert traj.timesteps() == (3, 2, 1, 0)
    # F == 0: z0 = z_T * prod(phi) = z_T / sqrt(abar_T)
    prod_phi = np.prod([coefficients(toy3, t, p).phi for p, t in grid.transitions()])
    assert traj.end[0] == pytest.approx(prod_phi, abs=1e-14)
    assert traj.end[0] == pytest.approx(1.0 / np.sqrt(toy3.alpha_bar(3)), abs=1e-12)


def test_inversion_trajectory_structure(toy3, stub0, uncond):
    grid = make_uniform_grid(toy3, 3)
    traj = ddim_invert_trajectory(stub0, toy3, grid, ONE, uncond)
    assert traj.direction == "inversion"
    assert traj.timesteps() == (0, 1, 2, 3)
    np.testing.assert_array_equal(traj.start, ONE)
    np.testing.assert_array_equal(traj.latent_at(0), ONE)
    with pytest.raises(InvalidParameterError):
        traj.latent_at(99)


def test_single_step_grid(toy3, stub0, uncond):
    grid = make_uniform_grid(toy3, 1)
    up = ddim_invert_trajectory(stub0, toy3, grid, ONE, uncond)
    assert up.timesteps() == (0, 3)
    down = generate_trajectory(stub0, toy3, grid, up.end, uncond)
    assert down.timesteps() == (3, 0)
    np.testing.assert_allclose(down.end, ONE, atol=1e-12)


def test_trajectory_determinism(default_sched, grid50, uncond):
    m = ScalingDenoiser(2, 0.3)
    z = np.array([0.4, -0.9])
    a = ddim_invert_trajectory(m, default_sched, grid50, z, uncond)
    b = ddim_invert_trajectory(m, default_sched, grid50, z, uncond)
    for (ta, za), (tb, zb) in zip(a.entries, b.entries):
        assert ta == tb
        np.testing.assert_array_equal(za, zb)


def test_empty_grid_rejected(toy3, stub0, uncond):
    with pytest.raises(InvalidParameterError):
        generate_trajectory(stub0, toy3, TimestepGrid(()), ONE, uncond)
    with pytest.raises(InvalidParameterError):
        ddim_invert_trajectory(stub0, toy3, TimestepGrid(()), ONE, uncond)


def test_trajectory_json_round_keys(toy3, stub0, uncond):
    traj = generate_trajectory(stub0, toy3, make_uniform_grid(toy3, 3), ONE, uncond)
    d = traj.to_json_dict()
    assert d["direction"] == "generation"
    assert d["grid"] == [1, 2, 3]
    assert [e["t"] for e in d["entries"]] == [3, 2, 1, 0]


def test_constant_model_full_sweep_round_trip(default_sched, grid50, uncond):
    m = ConstantDenoiser(3, -0.2)
    rng = np.random.default_rng(5)
    z0 = rng.standard_normal(3)
    up = ddim_invert_trajectory(m, default_sched, grid50, z0, uncond)
    down = generate_trajectory(m, default_sched, grid50, up.end, uncond)
    np.testing.assert_allclose(down.end, z0, atol=1e-10)


@given(st.integers(2, 99), st.floats(-2, 2), st.floats(-1, 1))
def test_single_constant_transition_invertible(t, z0, fval):
    sched = make_linear_schedule(100, 1e-4, 0.05)
    m = ConstantDenoiser(1, fval)
    c = Condition.unconditional()
    z = np.array([z0])
    co = coefficients(sched, t, t - 1)
    up = ddim_invert_step(m, co, z, c)
    back = generate_step(m, co, up, c)
    np.testing.assert_allclose(back, z, atol=1e-10)

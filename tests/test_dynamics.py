"""The deterministic backward/forward transition maps."""

import numpy as np
import pytest
from conftest import ConstantDenoiser, ScalingDenoiser, rejects
from hypothesis import given
from hypothesis import strategies as st

from invlab import (
    coefficients,
    ddim_invert_step,
    ddim_invert_trajectory,
    generate_step,
    generate_trajectory,
    make_linear_schedule,
    make_uniform_grid,
    walk,
)

ONE = np.array([1.0])


def test_generate_step_stub_zero(toy3, stub0):
    got = generate_step(stub0, coefficients(toy3, 2, 1), ONE)
    assert got[0] == pytest.approx(1.0540925533894598, abs=1e-15)


def test_invert_step_stub_zero(toy3, stub0):
    co = coefficients(toy3, 2, 1)
    got = ddim_invert_step(stub0, co, ONE)
    assert got[0] == pytest.approx(0.9486832980505138, abs=1e-15)
    assert ddim_invert_step(stub0, co, np.zeros(1))[0] == 0.0


def test_constant_model_steps_are_exact_inverses(toy3):
    m = ConstantDenoiser(1, 0.35)
    z = np.array([0.8])
    co = coefficients(toy3, 3, 1)
    back = generate_step(m, co, z)
    again = ddim_invert_step(m, co, back)
    np.testing.assert_allclose(again, z, atol=1e-12)
    co = coefficients(toy3, 2, 0)
    fwd = ddim_invert_step(m, co, z)
    down = generate_step(m, co, fwd)
    np.testing.assert_allclose(down, z, atol=1e-12)


def test_state_dependent_model_breaks_the_identity(toy3, unit_gauss1):
    # inversion evaluates at the target step, so the round trip has a gap
    z = np.array([0.8])
    co = coefficients(toy3, 2, 0)
    up = ddim_invert_step(unit_gauss1, co, z)
    down = generate_step(unit_gauss1, co, up)
    assert abs(down[0] - z[0]) > 1e-6


def test_generation_trajectory_telescopes(toy3, stub0):
    grid = make_uniform_grid(toy3, 3)
    traj = generate_trajectory(stub0, toy3, grid, ONE)
    assert traj.direction == "generation"
    assert traj.timesteps() == (3, 2, 1, 0)
    # F == 0: z0 = z_T * prod(phi) = z_T / sqrt(abar_T)
    prod_phi = np.prod([coefficients(toy3, t, p).phi for p, t in grid.transitions()])
    assert traj.end[0] == pytest.approx(prod_phi, abs=1e-14)
    assert traj.end[0] == pytest.approx(1.0 / np.sqrt(toy3.alpha_bar(3)), abs=1e-12)


def test_inversion_trajectory_structure(toy3, stub0):
    grid = make_uniform_grid(toy3, 3)
    traj = ddim_invert_trajectory(stub0, toy3, grid, ONE)
    assert traj.direction == "inversion"
    assert traj.timesteps() == (0, 1, 2, 3)
    np.testing.assert_array_equal(traj.latents[0], ONE)
    np.testing.assert_array_equal(traj.latent_at(0), ONE)
    with rejects("t"):
        traj.latent_at(99)


def test_single_step_grid(toy3, stub0):
    grid = make_uniform_grid(toy3, 1)
    up = ddim_invert_trajectory(stub0, toy3, grid, ONE)
    assert up.timesteps() == (0, 3)
    down = generate_trajectory(stub0, toy3, grid, up.end)
    assert down.timesteps() == (3, 0)
    np.testing.assert_allclose(down.end, ONE, atol=1e-12)


def test_trajectory_determinism(default_sched, grid50):
    m = ScalingDenoiser(2, 0.3)
    z = np.array([0.4, -0.9])
    a = ddim_invert_trajectory(m, default_sched, grid50, z)
    b = ddim_invert_trajectory(m, default_sched, grid50, z)
    assert a.timesteps() == b.timesteps()
    np.testing.assert_array_equal(a.latents, b.latents)


def test_trajectory_is_one_read_only_array_on_its_grid(default_sched):
    grid = make_uniform_grid(default_sched, 5)
    m = ScalingDenoiser(3, 0.3)
    up = ddim_invert_trajectory(m, default_sched, grid, np.array([0.4, -0.9, 0.1]))
    down = generate_trajectory(m, default_sched, grid, up.end)
    assert up.timesteps() == (0, 20, 40, 60, 80, 100) == down.timesteps()[::-1]
    for traj in (up, down):
        assert traj.latents.shape == (len(grid) + 1, 3)
        with pytest.raises(ValueError):
            traj.latents[1, 0] = 0.0
        with pytest.raises(ValueError):
            traj.latent_at(0)[0] = 0.0


def test_walk_steps_a_latent_of_any_shape_along_the_grid(toy3):
    z = np.arange(6.0).reshape(2, 3)
    seen = []

    def step(x, t_prev, t):
        seen.append((t_prev, t))
        return x + t
    traj = walk(make_uniform_grid(toy3, 3), z, "generation", step)
    assert seen == [(2, 3), (1, 2), (0, 1)]
    assert traj.latents.shape == (4, 2, 3) and traj.timesteps() == (3, 2, 1, 0)
    np.testing.assert_array_equal(traj.latents[0], z)
    np.testing.assert_array_equal(traj.latent_at(1), z + 5.0)
    with rejects("direction"):
        walk(make_uniform_grid(toy3, 3), z, "sideways", step)


def test_trajectory_json_round_keys(toy3, stub0):
    traj = generate_trajectory(stub0, toy3, make_uniform_grid(toy3, 3), ONE)
    d = traj.to_json_dict()
    assert set(d) == {"direction", "grid", "entries"}
    assert d["direction"] == "generation"
    assert d["grid"] == [1, 2, 3]
    assert [e["t"] for e in d["entries"]] == [3, 2, 1, 0]


def test_constant_model_full_sweep_round_trip(default_sched, grid50):
    m = ConstantDenoiser(3, -0.2)
    rng = np.random.default_rng(5)
    z0 = rng.standard_normal(3)
    up = ddim_invert_trajectory(m, default_sched, grid50, z0)
    down = generate_trajectory(m, default_sched, grid50, up.end)
    np.testing.assert_allclose(down.end, z0, atol=1e-10)


@given(st.integers(2, 99), st.floats(-2, 2), st.floats(-1, 1))
def test_single_constant_transition_invertible(t, z0, fval):
    sched = make_linear_schedule(100, 1e-4, 0.05)
    m = ConstantDenoiser(1, fval)
    z = np.array([z0])
    co = coefficients(sched, t, t - 1)
    up = ddim_invert_step(m, co, z)
    back = generate_step(m, co, up)
    np.testing.assert_allclose(back, z, atol=1e-10)

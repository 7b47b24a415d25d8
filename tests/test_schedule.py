"""Schedule construction, transition coefficients, and inference grids."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from invlab import (
    BoundsError,
    InvalidParameterError,
    NoiseSchedule,
    OrderingError,
    TimestepGrid,
    coefficients,
    make_linear_schedule,
    make_uniform_grid,
    skip_coefficients,
)


def test_constant_beta_alpha_bars(toy3):
    # cumulative products of 0.9: hand values
    assert toy3.t_train == 3
    np.testing.assert_allclose(toy3.betas, [0.1, 0.1, 0.1], rtol=0, atol=0)
    assert toy3.alpha_bar(1) == pytest.approx(0.9, abs=1e-15)
    assert toy3.alpha_bar(2) == pytest.approx(0.81, abs=1e-15)
    assert toy3.alpha_bar(3) == pytest.approx(0.729, abs=1e-15)


def test_alpha_bar_zero_is_one(toy3):
    # empty-product convention, exact
    assert toy3.alpha_bar(0) == 1.0


def test_single_step_schedule():
    s = make_linear_schedule(1, 0.5, 0.5)
    assert s.alpha_bar(1) == pytest.approx(0.5, abs=1e-15)
    assert s.beta(1) == 0.5


def test_linear_interpolation_endpoints():
    s = make_linear_schedule(10, 1e-4, 0.05)
    assert s.beta(1) == pytest.approx(1e-4, abs=0)
    assert s.beta(10) == pytest.approx(0.05, abs=0)
    diffs = np.diff(s.betas)
    np.testing.assert_allclose(diffs, diffs[0], rtol=1e-9)


@pytest.mark.parametrize(
    "t_train,b0,b1",
    [(0, 0.1, 0.1), (3, 0.0, 0.1), (3, 0.2, 0.1), (3, 0.1, 1.0), (3, -0.1, 0.5)],
)
def test_schedule_rejects_bad_parameters(t_train, b0, b1):
    with pytest.raises(InvalidParameterError):
        make_linear_schedule(t_train, b0, b1)


@pytest.mark.parametrize("betas", [[], [[0.1, 0.2]], [0.1, 1.0], [0.0], [float("nan")]])
def test_schedule_rejects_bad_betas(betas):
    with pytest.raises(InvalidParameterError, match="betas"):
        NoiseSchedule(np.asarray(betas, dtype=np.float64))


def test_schedule_derives_alpha_bars_and_t_train_from_betas():
    betas = np.array([0.1, 0.2, 0.3])
    sched = NoiseSchedule(betas)
    assert sched.t_train == 3 and type(sched.t_train) is int
    assert sched.alpha_bars.tobytes() == np.cumprod(1.0 - betas).tobytes()


def test_timestep_bounds(toy3):
    with pytest.raises(BoundsError):
        toy3.beta(0)
    with pytest.raises(BoundsError):
        toy3.beta(4)
    with pytest.raises(BoundsError):
        toy3.alpha_bar(4)
    with pytest.raises(BoundsError):
        toy3.alpha_bar(-1)


def test_schedule_arrays_immutable(toy3):
    with pytest.raises(ValueError):
        toy3.betas[0] = 0.5
    with pytest.raises(ValueError):
        toy3.alpha_bars[1] = 0.5


def test_coefficients_hand_values(toy3):
    # phi = sqrt(0.9/0.81), psi = sqrt(0.1) - sqrt(0.19*0.9/0.81), frozen
    co = coefficients(toy3, t=2, t_prev=1)
    assert co.phi == pytest.approx(1.0540925533894598, abs=1e-15)
    assert co.psi == pytest.approx(-0.1432405257195028, abs=1e-15)
    assert (co.t, co.t_prev) == (2, 1)


def test_coefficients_to_step_zero(toy3):
    # uses the alpha_bar(0) = 1 convention
    co = coefficients(toy3, t=1, t_prev=0)
    assert co.phi == pytest.approx(1.0540925533894598, abs=1e-15)
    assert co.psi == pytest.approx(-0.33333333333333326, abs=1e-15)


def test_coefficients_rejects_bad_order_and_bounds(toy3):
    with pytest.raises(OrderingError):
        coefficients(toy3, t=1, t_prev=2)
    with pytest.raises(OrderingError):
        coefficients(toy3, t=2, t_prev=2)
    with pytest.raises(BoundsError):
        coefficients(toy3, t=2, t_prev=-1)


def test_skip_coefficients_hand_values(toy3):
    # direct 0 -> 2 jump: phi = 1/sqrt(0.81), psi = -sqrt(0.19/0.81)
    co = skip_coefficients(toy3, 2)
    assert co.phi == pytest.approx(1.1111111111111112, abs=1e-15)
    assert co.psi == pytest.approx(-0.48432210483785254, abs=1e-15)
    assert (co.t, co.t_prev) == (2, 0)


def test_skip_coefficients_match_transition_form(default_sched):
    for dt in range(1, default_sched.t_train + 1):
        co = coefficients(default_sched, t=dt, t_prev=0)
        skip = skip_coefficients(default_sched, dt)
        assert (skip.phi, skip.psi) == (co.phi, co.psi)


def test_skip_coefficients_bounds(toy3):
    with pytest.raises(BoundsError):
        skip_coefficients(toy3, 4)
    with pytest.raises(BoundsError):
        skip_coefficients(toy3, 0)


def test_uniform_grid_values():
    s100 = make_linear_schedule(100, 1e-4, 0.05)
    grid = make_uniform_grid(s100, 50)
    assert grid.steps == tuple(range(2, 101, 2))
    s3 = make_linear_schedule(3, 0.1, 0.1)
    assert make_uniform_grid(s3, 3).steps == (1, 2, 3)
    assert make_uniform_grid(s3, 1).steps == (3,)


def test_uniform_grid_rejects_oversized():
    s = make_linear_schedule(10, 0.01, 0.05)
    with pytest.raises(InvalidParameterError):
        make_uniform_grid(s, 11)
    with pytest.raises(InvalidParameterError):
        make_uniform_grid(s, 0)


def test_grid_transitions_start_at_zero(toy3):
    grid = make_uniform_grid(toy3, 3)
    assert grid.transitions() == [(0, 1), (1, 2), (2, 3)]
    assert len(TimestepGrid((5, 9))) == 2


@given(st.integers(2, 40), st.integers(1, 40))
def test_uniform_grid_always_ends_at_t_train(t_train, s):
    sched = make_linear_schedule(t_train, 0.01, 0.05)
    s = min(s, t_train)
    grid = make_uniform_grid(sched, s)
    assert len(grid) == s
    assert grid.steps[-1] == t_train
    assert all(b > a for a, b in zip(grid.steps, grid.steps[1:]))
    assert grid.steps[0] >= 1


@given(st.lists(st.floats(1e-4, 0.5), min_size=2, max_size=30))
def test_alpha_bar_recurrence_and_monotonicity(beta_list):
    betas = np.asarray(beta_list)
    sched = NoiseSchedule(betas)
    prev = 1.0
    for step in range(1, sched.t_train + 1):
        ab = sched.alpha_bar(step)
        assert ab < prev
        assert ab == pytest.approx(prev * (1.0 - sched.beta(step)), rel=1e-12)
        prev = ab


@given(st.integers(2, 60), st.data())
def test_coefficient_identity(t_train, data):
    # -psi/phi == sqrt(abar_t) * (sqrt(1/abar_t - 1) - sqrt(1/abar_prev - 1))
    sched = make_linear_schedule(t_train, 1e-4, 0.05)
    t = data.draw(st.integers(2, t_train))
    t_prev = data.draw(st.integers(0, t - 1))
    co = coefficients(sched, t, t_prev)
    ab_t = sched.alpha_bar(t)
    ab_p = sched.alpha_bar(t_prev)
    rhs = math.sqrt(ab_t) * (math.sqrt(1.0 / ab_t - 1.0) - math.sqrt(1.0 / ab_p - 1.0))
    assert -co.psi / co.phi == pytest.approx(rhs, abs=1e-12)


def test_coefficients_are_the_numpy_sqrt_form_bit_for_bit(toy3, default_sched):
    for sched in (toy3, default_sched):
        for t in range(1, sched.t_train + 1):
            ab_t = sched.alpha_bar(t)
            for t_prev in range(t):
                ab_p = sched.alpha_bar(t_prev)
                co = coefficients(sched, t, t_prev)
                assert co.phi == float(np.sqrt(ab_p / ab_t))
                assert co.psi == float(np.sqrt(1.0 - ab_p) - np.sqrt((1.0 - ab_t) * ab_p / ab_t))
                assert (co.t, co.t_prev) == (t, t_prev)
                assert type(co.phi) is float and type(co.psi) is float

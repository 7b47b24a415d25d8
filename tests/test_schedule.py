"""Schedule construction, transition coefficients, inference grids, and the one integer
rule (`errors.is_int`) of every argument that must be an integer."""

import math

import numpy as np
import pytest
from conftest import rejects
from hypothesis import example, given
from hypothesis import strategies as st

from invlab import (
    Condition,
    IlbConfig,
    InvalidParameterError,
    LboConfig,
    LinearAutoencoder,
    LinearGaussianDenoiser,
    MlpTrainConfig,
    NoiseSchedule,
    RandomConvPerceptual,
    TimestepGrid,
    coefficients,
    ddim_invert_trajectory,
    derive_key,
    fit_linear_autoencoder,
    identity_autoencoder,
    make_linear_schedule,
    make_shapes,
    make_uniform_grid,
    skip_coefficients,
    train_mlp_denoiser,
)
from invlab.benchmark import AutoencoderSection, DatasetSection, RunConfig, json_text


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
    assert s.betas[0] == 0.5


def test_linear_interpolation_endpoints():
    s = make_linear_schedule(10, 1e-4, 0.05)
    assert s.betas[0] == pytest.approx(1e-4, abs=0)
    assert s.betas[9] == pytest.approx(0.05, abs=0)
    diffs = np.diff(s.betas)
    np.testing.assert_allclose(diffs, diffs[0], rtol=1e-9)


# (t_train, beta_start, beta_end) -> the argument named in the error; one step uses only
# beta_start, but beta_end must still be below 1
BAD_SCHEDULES = {(0, 0.1, 0.1): "t_train", (3, 0.0, 0.1): "beta_start", (3, 0.2, 0.1): "beta_end",
                 (3, 0.1, 1.0): "beta_end", (3, -0.1, 0.5): "beta_start",
                 (3, 1.0, 1.0): "beta_start", (1, 0.5, 1.5): "beta_end"}


@pytest.mark.parametrize("t_train,b0,b1", list(BAD_SCHEDULES))
def test_schedule_rejects_bad_parameters(t_train, b0, b1):
    with rejects(BAD_SCHEDULES[t_train, b0, b1]):
        make_linear_schedule(t_train, b0, b1)


# the last two drive alpha_bar_T to 0.0, and to the subnormal 2**-1050
@pytest.mark.parametrize("betas", [[], [[0.1, 0.2]], [0.1, 1.0], [0.0], [float("nan")],
                                   [0.5] * 1100, [0.5] * 1050])
def test_schedule_rejects_bad_betas(betas):
    with rejects("betas") as err:
        NoiseSchedule(np.asarray(betas, dtype=np.float64))
    if betas == [0.1, 1.0]:  # the (0, 1) bound's edge, which the alpha_bar_T floor also refuses
        assert "in (0, 1)" in str(err.value)


@given(st.integers(1, 2000), st.floats(1e-6, 0.999), st.floats(1e-6, 0.999),
       st.integers(1, 50))
@example(1000, 0.5, 0.9, 50)  # alpha_bar underflows to 0.0 from t = 708
@example(1050, 0.5, 0.5, 1)  # alpha_bar_T = 2**-1050 > 0, yet 1/alpha_bar_T overflows
def test_schedule_is_rejected_by_name_or_has_finite_coefficients(t_train, b0, b1, steps):
    try:  # sorted: most draws are valid bounds, and the large ones underflow
        sched = make_linear_schedule(t_train, *sorted((b0, b1)))
    except InvalidParameterError as e:
        assert e.context["field"] == "beta_end"
        return
    for s in (1, min(steps, t_train)):
        for t_prev, t in make_uniform_grid(sched, s).transitions():
            co = coefficients(sched, t, t_prev)
            assert math.isfinite(co.phi) and math.isfinite(co.psi)


def test_schedule_derives_alpha_bars_and_t_train_from_betas():
    betas = np.array([0.1, 0.2, 0.3])
    sched = NoiseSchedule(betas)
    assert sched.t_train == 3 and type(sched.t_train) is int
    assert sched.alpha_bars.tobytes() == np.cumprod(1.0 - betas).tobytes()


def test_timestep_bounds(toy3):
    for t in (4, -1):
        with rejects("t"):
            toy3.alpha_bar(t)


@pytest.mark.parametrize("t", [2.5, 2.0, 0.0, True, False, np.float64(2.0), "2", None])
def test_timesteps_must_be_integers(toy3, t):
    with rejects("t"):
        toy3.alpha_bar(t)


def test_numpy_integer_timesteps_are_accepted(toy3):
    assert toy3.alpha_bar(np.int64(2)) == toy3.alpha_bar(2)
    assert toy3.alpha_bar(np.int32(0)) == 1.0
    assert coefficients(toy3, np.int64(3), np.int64(1)) == coefficients(toy3, 3, 1)
    assert skip_coefficients(toy3, np.int16(2)) == skip_coefficients(toy3, 2)


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
    for t, t_prev in ((1, 2), (2, 2), (2, -1), (3, 1.5), (3, 1.0), (3, True), (3, None)):
        with rejects("t_prev"):
            coefficients(toy3, t=t, t_prev=t_prev)
    for t in (4, 2.5, 3.0):
        with rejects("t"):
            coefficients(toy3, t=t, t_prev=1)


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
    for dt in (4, 0, 1.5, 2.0, True):
        with rejects("dt"):
            skip_coefficients(toy3, dt)


def test_uniform_grid_values():
    s100 = make_linear_schedule(100, 1e-4, 0.05)
    grid = make_uniform_grid(s100, 50)
    assert grid.steps == tuple(range(2, 101, 2))
    s3 = make_linear_schedule(3, 0.1, 0.1)
    assert make_uniform_grid(s3, 3).steps == (1, 2, 3)
    assert make_uniform_grid(s3, 1).steps == (3,)
    # NumPy integers are integers
    assert make_uniform_grid(s3, np.int64(3)).steps == (1, 2, 3)
    assert make_linear_schedule(np.int64(3), 0.1, 0.1).t_train == 3


def test_uniform_grid_rejects_oversized():
    s = make_linear_schedule(10, 0.01, 0.05)
    with rejects("steps"):
        make_uniform_grid(s, 11)
    with rejects("steps"):
        make_uniform_grid(s, 0)


def test_grid_rejects_empty_unordered_or_zero_steps():
    for steps in [(), (3, 2), (2, 2), (0, 3), (-1, 3)]:
        with rejects("steps"):
            TimestepGrid(steps)


def _ddim_trajectory(sched, steps=3):
    model = LinearGaussianDenoiser(np.zeros(1), np.eye(1), sched)
    return ddim_invert_trajectory(model, sched, make_uniform_grid(sched, steps), np.ones(1),
                                  Condition())


# id -> (the argument named, an integer it accepts, a call on the schedule s and a value v
# in that argument's place); each site accepts v as a NumPy integer and refuses it as a
# float, 2.5, True and "x"
INTEGER_SITES = {
    "schedule-t_train": ("t_train", 3, lambda s, v: make_linear_schedule(v, 0.1, 0.1)),
    "coefficients-t": ("t", 3, lambda s, v: coefficients(s, v, 1)),
    "coefficients-t_prev": ("t_prev", 2, lambda s, v: coefficients(s, 3, v)),
    "skip_coefficients-dt": ("dt", 3, lambda s, v: skip_coefficients(s, v)),
    "uniform-grid-steps": ("steps", 3, lambda s, v: make_uniform_grid(s, v)),
    "grid-step": ("steps", 3, lambda s, v: TimestepGrid((1, v))),
    "mlp-eval-t": ("t", 2, lambda s, v: train_mlp_denoiser(
        np.zeros((2, 2)), s, MlpTrainConfig(width=2, max_epochs=0), 0).eval(
        np.zeros(2), v, Condition())),
    "lbo-max_iters": ("max_iters", 3, lambda s, v: LboConfig(max_iters=v)),
    "ilb-max_iters": ("max_iters", 3, lambda s, v: IlbConfig(max_iters=v)),
    "ilb-dt": ("dt", 3, lambda s, v: IlbConfig(dt=v)),
    "mlp-train-width": ("width", 3, lambda s, v: MlpTrainConfig(width=v)),
    "mlp-train-max_epochs": ("max_epochs", 3, lambda s, v: MlpTrainConfig(max_epochs=v)),
    "mlp-train-batch_size": ("batch_size", 3, lambda s, v: MlpTrainConfig(batch_size=v)),
    "mlp-train-seed": ("seed", 3, lambda s, v: train_mlp_denoiser(
        np.zeros((2, 2)), s, MlpTrainConfig(width=2, max_epochs=0), v)),
    "shapes-n": ("n", 2, lambda s, v: make_shapes(v, 0, 6, 6)),
    "shapes-height": ("height", 6, lambda s, v: make_shapes(1, 0, v, 6)),
    "shapes-width": ("width", 6, lambda s, v: make_shapes(1, 0, 6, v)),
    "shapes-seed": ("seed", 3, lambda s, v: make_shapes(1, v, 6, 6)),
    "codec-image_shape": ("image_shape", 1, lambda s, v: LinearAutoencoder(
        np.eye(1, 25), np.zeros(25), (5, 5, v))),
    "identity-image_shape": ("image_shape", 1, lambda s, v: identity_autoencoder((5, 5, v))),
    "perceptual-image_shape": ("image_shape", 1, lambda s, v: RandomConvPerceptual((6, 6, v))),
    "perceptual-seed": ("seed", 3, lambda s, v: RandomConvPerceptual((6, 6, 1), seed=v)),
    "fit-latent_dim": ("latent_dim", 2, lambda s, v: fit_linear_autoencoder(
        make_shapes(3, 0, 5, 5), v)),
    "fit-seed": ("seed", 3, lambda s, v: fit_linear_autoencoder(
        make_shapes(3, 0, 5, 5), 2, leak_scale=1.0, seed=v)),
    "derive_key-seed": ("seed", 3, lambda s, v: derive_key(v, "tag")),
    "latent_at-t": ("t", 3, lambda s, v: _ddim_trajectory(s).latent_at(v)),
    "run-seed": ("seed", 3, lambda s, v: RunConfig(seed=v)),
    "run-t_train": ("t_train", 60, lambda s, v: RunConfig(t_train=v)),
    "run-steps": ("steps", 3, lambda s, v: RunConfig(steps=v)),
    "dataset-count": ("count", 2, lambda s, v: DatasetSection(count=v)),
    "dataset-height": ("height", 6, lambda s, v: DatasetSection(height=v)),
    "dataset-width": ("width", 6, lambda s, v: DatasetSection(width=v)),
    "autoencoder-fit_count": ("fit_count", 2, lambda s, v: AutoencoderSection(fit_count=v)),
}


@pytest.mark.parametrize("case", sorted(INTEGER_SITES))
def test_an_integer_argument_takes_numpy_integers_and_refuses_floats_and_bools(case, toy3):
    field, k, call = INTEGER_SITES[case]
    call(toy3, np.int64(k))
    for value in (float(k), 2.5, True, "x"):
        with rejects(field):
            call(toy3, value)


def test_a_uniform_grid_keeps_python_ints_and_its_trajectory_writes_json(toy3):
    assert [type(t) for t in make_uniform_grid(toy3, np.int64(3)).steps] == [int] * 3
    assert [type(t) for t in TimestepGrid((np.int64(1), np.int32(3))).steps] == [int] * 2
    assert (json_text(_ddim_trajectory(toy3, np.int64(3)).to_json_dict())
            == json_text(_ddim_trajectory(toy3, 3).to_json_dict()))


def test_latent_at_refuses_a_float_equal_to_a_timestep(toy3):
    with rejects("t"):
        _ddim_trajectory(toy3).latent_at(3.0)


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
        assert ab == pytest.approx(prev * (1.0 - sched.betas[step - 1]), rel=1e-12)
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

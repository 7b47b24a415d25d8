"""Adam stepping, and the tests' finite-difference gradient checker."""

import math

import numpy as np
import pytest
from conftest import ROUNDOFF, central_difference, checked_probes, gradient_check, rejects
from hypothesis import given
from hypothesis import strategies as st

from invlab import AdamState, DivergenceError, adam_step
from invlab.optim import BETA1, BETA2, EPSILON


def test_first_step_magnitude():
    # bias-corrected first step is lr * g/(|g| + eps*sqrt(1-beta2)) ~ lr, frozen
    state = AdamState(lr=1e-3)
    x = np.array([1.0])
    x1, s1 = adam_step(state, x, np.array([1.0]))
    assert x[0] - x1[0] == pytest.approx(0.0009999999900000003, abs=1e-18)
    assert s1.step_count == 1
    assert state.step_count == 0  # input state untouched


def test_next_state_keeps_hyperparameters():
    state = AdamState(lr=0.02)
    x1, s1 = adam_step(state, np.array([1.0, 2.0]), np.array([0.5, -1.0]))
    s2 = adam_step(s1, x1, np.array([0.25, 0.5]))[1]
    assert s2.lr == 0.02
    assert s2.step_count == 2
    g = np.array([0.25, 0.5])
    np.testing.assert_array_equal(s2.m, BETA1 * s1.m + (1.0 - BETA1) * g)


def test_step_direction_follows_sign():
    state = AdamState(lr=0.01)
    x = np.array([0.0, 0.0, 0.0])
    x1, _ = adam_step(state, x, np.array([3.0, -2.0, 0.0]))
    assert x1[0] < 0 and x1[1] > 0 and x1[2] == 0.0


def test_zero_gradient_leaves_x_unchanged():
    state = AdamState(lr=0.5)
    x = np.array([1.0, -2.0])
    x1, s1 = adam_step(state, x, np.zeros(2))
    np.testing.assert_array_equal(x1, x)
    assert s1.step_count == 1
    np.testing.assert_array_equal(s1.m, np.zeros(2))
    np.testing.assert_array_equal(s1.v, np.zeros(2))


def test_deterministic_replay():
    rng = np.random.default_rng(0)
    x = rng.standard_normal(5)
    grads = rng.standard_normal((4, 5))

    def run():
        state = AdamState(lr=0.02)
        xi = x.copy()
        for g in grads:
            xi, state = adam_step(state, xi, g)
        return xi

    np.testing.assert_array_equal(run(), run())


def test_lr_scales_first_step_exactly():
    x = np.array([0.3, -1.2])
    g = np.array([0.7, 2.5])
    x_a, _ = adam_step(AdamState(lr=1e-3), x, g)
    x_b, _ = adam_step(AdamState(lr=2e-3), x, g)
    # update is linear in lr; measured through x so allow subtraction rounding
    np.testing.assert_allclose(x_b - x, 2.0 * (x_a - x), rtol=1e-12)


def test_nonfinite_gradient_raises():
    state = AdamState(lr=1e-3)
    with pytest.raises(DivergenceError):
        adam_step(state, np.zeros(2), np.array([1.0, np.nan]))
    with pytest.raises(DivergenceError):
        adam_step(state, np.zeros(2), np.array([np.inf, 0.0]))


def test_shape_mismatch_raises():
    state = AdamState(lr=1e-3)
    with rejects("grad"):
        adam_step(state, np.zeros(3), np.zeros(2))


def test_moment_state_threads_through():
    # second step with the same gradient keeps moving in the same direction
    state = AdamState(lr=1e-3)
    x = np.array([1.0])
    g = np.array([2.0])
    x1, s1 = adam_step(state, x, g)
    x2, s2 = adam_step(s1, x1, g)
    assert x2[0] < x1[0] < x[0]
    assert s2.step_count == 2
    assert s2.m[0] > s1.m[0]


@given(st.floats(-5, 5), st.integers(0, 2**31 - 1))
def test_step_size_bounded_by_lr_scale(g0, seed):
    # |update| stays within a small multiple of lr for any single gradient
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(3)
    g = np.array([g0, -g0, 0.5 * g0])
    x1, _ = adam_step(AdamState(lr=1e-2), x, g)
    assert np.all(np.abs(x1 - x) <= 1e-2 + 1e-12)


def test_central_difference_steps_by_eps_cube_root_times_one_plus_abs_x():
    # for f = Σx³ the central difference is 3x² + h² exactly, so its error reads back h:
    # the ratio is 1 at x = 0 and 0.98 at |x| = 1, where round-off enters
    x = np.array([0.0, 1.0, -1.0])
    h = np.finfo(np.float64).eps ** (1.0 / 3.0) * (1.0 + np.abs(x))
    g = central_difference(lambda z: float(np.sum(z**3)), x)
    np.testing.assert_allclose((g - 3.0 * x * x) / h**2, [1.0, 0.98, 0.98], rtol=0.0, atol=0.01)


def test_gradient_check_accepts_true_gradient():
    x = np.array([3.0, -1.5])
    err = gradient_check(lambda z: float(np.sum(z**2)), 2.0 * x, x)
    assert err < 1e-8


def test_gradient_check_flags_wrong_gradient():
    # claimed gradient 3x against f = x^2 has relative error 0.5
    x = np.array([2.0])
    err = gradient_check(lambda z: float(np.sum(z**2)), 3.0 * x, x)
    assert err == pytest.approx(0.5, abs=1e-4)


def test_gradient_check_constant_function():
    x = np.array([1.0, 2.0])
    err = gradient_check(lambda z: 7.0, np.zeros(2), x)
    assert err <= 1e-12


def test_gradient_check_at_origin_uses_absolute_probe():
    # x = 0 must not degenerate to a zero step size
    err = gradient_check(lambda z: float(np.sum(z**2)), np.zeros(3), np.zeros(3))
    assert err <= 1e-8


@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_gradient_check_is_the_worst_coordinate_error(dim, seed):
    # the per-coordinate loop as reference, on a gradient off by up to 10% per coordinate;
    # each gap counts beyond K·eps·|f(x)|/h_j
    rng = np.random.default_rng(seed)
    a, x = rng.standard_normal(dim), rng.standard_normal(dim)
    grad = a * (1.0 + 0.1 * rng.standard_normal(dim))
    fd = central_difference(lambda z: float(a @ z), x)
    eps = np.finfo(np.float64).eps
    floor = [ROUNDOFF * eps * abs(float(a @ x)) / (eps ** (1.0 / 3.0) * (1.0 + abs(xj)))
             for xj in x]
    expected = max(max(abs(g - d) - f, 0.0) / max(abs(d), 1e-12)
                   for g, d, f in zip(grad, fd, floor))
    assert gradient_check(lambda z: float(a @ z), grad, x) == expected


def test_gradient_check_does_not_count_the_differences_round_off():
    # f = 1 + 1e-9·Σz: each difference is off by up to about eps·|f|/h_j ≈ 3.7e-11, which
    # reads as a relative error far above 1e-4 against g = 1e-9, yet it is no fault of g
    x = np.array([0.3, -1.2, 2.0, 0.0])
    grad = np.full(4, 1e-9)

    def f(z):
        return 1.0 + 1e-9 * float(np.sum(z))

    assert np.max(np.abs(central_difference(f, x) - grad) / grad) > 1e-4
    assert gradient_check(f, grad, x) == 0.0


def test_gradient_check_still_sees_an_error_above_the_round_off():
    # f = 1 + 1e-6·Σz with g off by 1e-3 on one coordinate: a gap of 1e-9, where the
    # round-off floor is eps·|f|/h_j ≈ 1.2e-11
    x = np.array([0.3, -1.2, 2.0, 0.0])
    grad = np.array([1e-6, 1e-6, 1e-6 * (1.0 + 1e-3), 1e-6])
    err = gradient_check(lambda z: 1.0 + 1e-6 * float(np.sum(z)), grad, x)
    assert err == pytest.approx(1e-3, rel=0.05)


@pytest.mark.parametrize("offset,straddles", [(1e-7, True), (-1e-7, True), (0.0, True),
                                              (1e-3, False)])
def test_gradient_check_skips_a_probe_that_straddles_a_kink(offset, straddles):
    # f = |z_1 − 0.5|: the step h_1 ≈ 9.1e-6 crosses the kink at 0.5 from within 1e-7
    x = np.array([2.0, 0.5 + offset])

    def residual(z):
        return np.array([z[1] - 0.5])

    err = gradient_check(lambda z: float(abs(z[1] - 0.5)), np.array([0.0, np.sign(offset)]), x,
                         residual)
    assert (err is None) == straddles
    if not straddles:
        assert err < 1e-8


def test_checked_probes_redraws_past_a_skipped_probe():
    errors = [{"a": 1e-6, "b": 0.0}, {"a": None, "b": 5.0}, {"a": 3e-6, "b": 1e-7}]
    worst, skipped = checked_probes(2, lambda k: errors[k])
    assert worst == {"a": 3e-6, "b": 1e-7} and skipped == 1


def test_checked_probes_fails_when_most_probes_straddle():
    with pytest.raises(AssertionError, match="2 probes straddle a kink"):
        checked_probes(1, lambda k: {"a": None})


@pytest.mark.parametrize("grad", [[2.0, np.nan, 6.0], [np.nan] * 3, [2.0, 4.0, np.inf]],
                         ids=["one-nan", "all-nan", "one-inf"])
def test_gradient_check_rejects_non_finite_gradient(grad):
    # a NaN pullback must fail the check, not read as an error of 0.0
    x = np.array([1.0, 2.0, 3.0])
    first = int(np.flatnonzero(~np.isfinite(grad))[0])
    with pytest.raises(DivergenceError, match=f"coordinate {first}"):
        gradient_check(lambda z: float(np.sum(z**2)), np.array(grad), x)


def test_gradient_check_rejects_a_non_finite_value_at_the_probe():
    # f(x) = inf would make every coordinate's round-off floor infinite and pass any gradient
    x = np.array([0.0, 1.0])
    with pytest.raises(DivergenceError, match="at the probe"):
        gradient_check(lambda z: math.inf if z[0] == 0.0 else 1.0, np.zeros(2), x)


def test_gradient_check_rejects_non_finite_difference():
    # finite at x and along coordinate 0, inf one step along coordinate 1
    x = np.zeros(3)
    with pytest.raises(DivergenceError, match="evaluation during gradient check at coordinate 1"):
        gradient_check(lambda z: float(np.sum(z**2)) if z[1] <= 0.0 else math.inf, 2.0 * x, x)


@given(st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_gradient_check_linear_functions_exact(dim, seed):
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(dim)
    x = rng.standard_normal(dim)
    err = gradient_check(lambda z: float(a @ z), a, x)
    assert err < 1e-6


def _adam_formula(state, x, grad):
    """The update as the module docstring writes it, one expression per line."""
    m = state.m if state.m is not None else np.zeros_like(x)
    v = state.v if state.v is not None else np.zeros_like(x)
    k = state.step_count + 1
    m = BETA1 * m + (1.0 - BETA1) * grad
    v = BETA2 * v + (1.0 - BETA2) * grad * grad
    m_hat = m / (1.0 - BETA1**k)
    v_hat = v / (1.0 - BETA2**k)
    x_next = x - state.lr * m_hat / (np.sqrt(v_hat) + EPSILON)
    return x_next, AdamState(state.lr, m, v, k)


@pytest.mark.parametrize("n", [64, 20_000, pytest.param((3, 64), id="3x64")])
def test_adam_step_is_the_formula_bit_for_bit(n):
    rng = np.random.default_rng(n)
    x = ref_x = rng.standard_normal(n)
    state = ref_state = AdamState(lr=3e-3)
    for _ in range(5):
        grad = rng.standard_normal(n) * rng.choice([1e-9, 1.0, 1e6], size=n)
        grad.reshape(-1)[:3] = (0.0, -0.0, 1e-300)
        inputs = [a for a in (x, state.m, state.v) if a is not None]
        saved = [a.copy() for a in inputs]
        x, state = adam_step(state, x, grad)
        ref_x, ref_state = _adam_formula(ref_state, ref_x, grad)
        # tobytes tells -0.0 from 0.0
        assert x.tobytes() == ref_x.tobytes()
        assert state.m.tobytes() == ref_state.m.tobytes()
        assert state.v.tobytes() == ref_state.v.tobytes()
        assert state.step_count == ref_state.step_count
        # the input point and moments are left as they were
        for a, copy in zip(inputs, saved):
            assert a.tobytes() == copy.tobytes()
            assert a is not x and a is not state.m and a is not state.v

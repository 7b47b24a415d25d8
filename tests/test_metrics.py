"""Image-quality metrics and the trajectory divergence profile."""

import numpy as np
import pytest
from conftest import ConstantDenoiser, gradient_check, rejects
from numpy.lib.stride_tricks import sliding_window_view
from hypothesis import given
from hypothesis import strategies as st

from invlab import (
    LinearGaussianDenoiser,
    RandomConvPerceptual,
    ddim_invert_trajectory,
    generate_trajectory,
    make_uniform_grid,
    psnr,
    ssim,
    ssim_with_grad,
    trajectory_divergence,
)
import invlab.perceptual
from invlab.metrics import _window_matrices
from invlab.perceptual import _conv_forward, _conv_input_vjp, _patch_index


def test_psnr_identical_images_is_infinite():
    x = np.random.default_rng(0).random((8, 8, 1))
    assert psnr(x, x) == np.inf


def test_psnr_hand_values():
    x = np.zeros((10, 10, 1))
    # constant offset 0.1: mse 0.01 -> 20 dB
    assert psnr(x, x + 0.1) == pytest.approx(20.0, abs=1e-9)
    # offset 1.0: mse 1 -> 0 dB, exact
    assert psnr(x, x + 1.0) == 0.0


def test_psnr_strictly_decreasing_in_mse():
    x = np.zeros((6, 6, 1))
    vals = [psnr(x, x + d) for d in (0.05, 0.1, 0.2, 0.4)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_metric_shape_mismatch():
    with rejects("y"):
        psnr(np.zeros((4, 4, 1)), np.zeros((5, 5, 1)))
    with rejects("y"):
        ssim(np.zeros((8, 8, 1)), np.zeros((9, 9, 1)))


def test_ssim_self_is_one_for_any_finite_image():
    rng = np.random.default_rng(1)
    for scale in (1.0, 10.0, -3.0):
        x = scale * rng.standard_normal((12, 12, 1))
        assert ssim(x, x) == 1.0


def test_ssim_symmetry():
    rng = np.random.default_rng(2)
    x = rng.random((10, 10, 1))
    y = rng.random((10, 10, 1))
    assert ssim(x, y) == pytest.approx(ssim(y, x), abs=1e-12)


def test_ssim_constant_images_hand_value():
    # constants 0 and 0.5: luminance term only, (2*0*0.5+C1)/(0+0.25+C1) scaled
    # by the contrast term C2/C2 = 1; frozen from a by-hand evaluation
    x3 = np.zeros((3, 3, 1))
    y3 = np.full((3, 3, 1), 0.5)
    assert ssim(x3, y3) == pytest.approx(0.0003998400639744103, abs=1e-15)
    # the windowed path gives the same value: every window sees the same stats
    x16 = np.zeros((16, 16, 1))
    y16 = np.full((16, 16, 1), 0.5)
    assert ssim(x16, y16) == pytest.approx(0.0003998400639744103, abs=1e-12)


def test_ssim_bounded_and_ranks_noise():
    rng = np.random.default_rng(3)
    x = rng.random((16, 16, 1))
    small = np.clip(x + 0.02 * rng.standard_normal(x.shape), 0, 1)
    large = np.clip(x + 0.3 * rng.standard_normal(x.shape), 0, 1)
    s_small, s_large = ssim(x, small), ssim(x, large)
    assert -1.0 <= s_large < s_small <= 1.0


def test_ssim_with_grad_value_matches_ssim():
    rng = np.random.default_rng(4)
    x = rng.random((16, 16, 1))
    y = rng.random((16, 16, 1))
    val, grad = ssim_with_grad(x, y)
    assert val == pytest.approx(ssim(x, y), abs=1e-14)
    assert grad.shape == y.shape


def _reference_ssim(x, y, c1=1e-4, c2=9e-4):
    """Mean SSIM over valid 7×7 positions, one window and channel at a time."""
    r = np.arange(7) - 3.0
    win = np.exp(-(r[:, None] ** 2 + r[None, :] ** 2) / (2.0 * 1.5 ** 2))
    win /= win.sum()
    vals = []
    for ch in range(x.shape[2]):
        for i in range(x.shape[0] - 6):
            for j in range(x.shape[1] - 6):
                px, py = x[i:i + 7, j:j + 7, ch], y[i:i + 7, j:j + 7, ch]
                mx, my = np.sum(win * px), np.sum(win * py)
                vx = np.sum(win * px * px) - mx * mx
                vy = np.sum(win * py * py) - my * my
                cov = np.sum(win * px * py) - mx * my
                vals.append((2 * mx * my + c1) * (2 * cov + c2)
                            / ((mx * mx + my * my + c1) * (vx + vy + c2)))
    return float(np.mean(vals))


@pytest.mark.parametrize("shape", [(7, 7, 1), (12, 9, 2), (8, 15, 3)])
def test_ssim_matches_direct_loop(shape):
    rng = np.random.default_rng(18)
    x = rng.random(shape)
    y = rng.random(shape)
    assert ssim(x, y) == pytest.approx(_reference_ssim(x, y), rel=0, abs=1e-12)


@pytest.mark.parametrize("shape", [(16, 16, 1), (5, 5, 1)])
def test_ssim_gradient_against_finite_differences(shape):
    # covers both the windowed path and the small-image global fallback
    rng = np.random.default_rng(5)
    x = rng.random(shape)
    y = rng.random(shape)
    _, grad = ssim_with_grad(x, y)
    err = gradient_check(lambda q: ssim(x, q.reshape(shape)), grad.reshape(-1), y.reshape(-1))
    assert err < 1e-6


def test_ssim_permutation_invariance_global_path():
    # images below the window size use global statistics, which are
    # insensitive to a simultaneous reordering of both images
    rng = np.random.default_rng(6)
    x = rng.random((5, 5, 1))
    y = rng.random((5, 5, 1))
    perm = rng.permutation(25)
    xp = x.reshape(-1)[perm].reshape(5, 5, 1)
    yp = y.reshape(-1)[perm].reshape(5, 5, 1)
    assert ssim(xp, yp) == pytest.approx(ssim(x, y), abs=1e-12)


def test_psnr_permutation_invariance():
    rng = np.random.default_rng(7)
    x = rng.random((8, 8, 1))
    y = rng.random((8, 8, 1))
    perm = rng.permutation(64)
    xp = x.reshape(-1)[perm].reshape(8, 8, 1)
    yp = y.reshape(-1)[perm].reshape(8, 8, 1)
    assert psnr(xp, yp) == pytest.approx(psnr(x, y), abs=1e-12)


def test_perceptual_self_distance_zero_and_symmetry():
    perc = RandomConvPerceptual((12, 12, 1), seed=0)
    rng = np.random.default_rng(8)
    x = rng.random((12, 12, 1))
    y = rng.random((12, 12, 1))
    assert perc.distance(x, x) == 0.0
    assert perc.distance(x, y) >= 0.0
    assert perc.distance(x, y) == pytest.approx(perc.distance(y, x), abs=1e-10)


def test_perceptual_seed_determinism():
    x = np.random.default_rng(9).random((8, 8, 1))
    y = np.random.default_rng(10).random((8, 8, 1))
    a = RandomConvPerceptual((8, 8, 1), seed=3)
    b = RandomConvPerceptual((8, 8, 1), seed=3)
    c = RandomConvPerceptual((8, 8, 1), seed=4)
    assert a.distance(x, y) == b.distance(x, y)
    assert a.distance(x, y) != c.distance(x, y)
    # a seed's weights are fixed: read-only
    assert not any(w.flags.writeable for w in (a.k1, a.b1, a.k2, a.b2))


def test_perceptual_rejects_tiny_images():
    with rejects("image_shape"):
        RandomConvPerceptual((4, 4, 1), seed=0)


def test_perceptual_grad_matches_finite_differences():
    perc = RandomConvPerceptual((8, 8, 1), seed=1)
    rng = np.random.default_rng(11)
    x = rng.random((8, 8, 1))
    y = rng.random((8, 8, 1))
    grad = perc.grad_y(x, y)
    err = gradient_check(
        lambda q: perc.distance(x, q.reshape(8, 8, 1)), grad.reshape(-1), y.reshape(-1)
    )
    assert err < 1e-6


def _reference_conv(x, kernels, bias):
    """Valid cross-correlation written as the defining sum, one output at a time."""
    c_out, c_in = kernels.shape[:2]
    h, w = x.shape[1] - 2, x.shape[2] - 2
    out = np.empty((c_out, h, w))
    for o in range(c_out):
        for r in range(h):
            for q in range(w):
                out[o, r, q] = bias[o] + sum(
                    x[i, r + a, q + b] * kernels[o, i, a, b]
                    for i in range(c_in) for a in range(3) for b in range(3))
    return out


@pytest.mark.parametrize("c_in,c_out,h,w", [(1, 8, 8, 8), (3, 4, 7, 5), (2, 3, 3, 6)])
def test_conv_forward_matches_direct_loop(c_in, c_out, h, w):
    rng = np.random.default_rng(14)
    x = rng.standard_normal((c_in, h, w))
    kernels = rng.standard_normal((c_out, c_in, 3, 3))
    bias = rng.standard_normal(c_out)
    out = _conv_forward(x, kernels, bias)
    assert out.shape == (c_out, h - 2, w - 2)
    np.testing.assert_allclose(out, _reference_conv(x, kernels, bias), rtol=0, atol=1e-12)


@pytest.mark.parametrize("c_in,c_out,h,w", [(1, 8, 8, 8), (3, 4, 7, 5), (2, 3, 3, 6)])
def test_conv_input_vjp_is_the_adjoint(c_in, c_out, h, w):
    # <conv(x), u> = <x, vjp(u)> for the bias-free (linear) convolution
    rng = np.random.default_rng(15)
    x = rng.standard_normal((c_in, h, w))
    u = rng.standard_normal((c_out, h - 2, w - 2))
    kernels = rng.standard_normal((c_out, c_in, 3, 3))
    back = _conv_input_vjp(u, kernels)
    assert back.shape == x.shape
    lhs = np.sum(_conv_forward(x, kernels, np.zeros(c_out)) * u)
    assert lhs == pytest.approx(np.sum(x * back), rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("shape", [(16, 12, 3), (9, 7, 2)])
def test_perceptual_value_and_grad_off_square(shape):
    perc = RandomConvPerceptual(shape, seed=2)
    rng = np.random.default_rng(16)
    x = rng.random(shape)
    y = rng.random(shape)
    value, grad = perc.reference(x)(y)
    assert value == perc.distance(x, y)
    assert np.array_equal(grad, perc.grad_y(x, y))
    err = gradient_check(lambda q: perc.distance(x, q.reshape(shape)), grad.reshape(-1),
                         y.reshape(-1))
    assert err < 1e-6


def _windowed_conv_forward(x, kernels, bias):
    # sliding_window_view + tensordot: the bit-level reference for the gather tables
    patches = sliding_window_view(x, (3, 3), axis=(1, 2))
    return np.tensordot(kernels, patches, axes=([1, 2, 3], [0, 3, 4])) + bias[:, None, None]


def _windowed_conv_input_vjp(u, kernels):
    padded = np.pad(u, ((0, 0), (2, 2), (2, 2)))
    patches = sliding_window_view(padded, (3, 3), axis=(1, 2))
    return np.tensordot(kernels[:, :, ::-1, ::-1], patches, axes=([0, 2, 3], [0, 3, 4]))


def _add_at_conv_input_vjp(u, kernels):
    # col2im with np.add.at, which sums each pixel's shares in table order, as bincount does
    c_out, c_in = kernels.shape[:2]
    _, h, w = u.shape
    back = np.zeros((c_in, h + 2, w + 2))
    cols = kernels.reshape(c_out, -1).T @ u.reshape(c_out, -1)
    np.add.at(back.reshape(-1), _patch_index(c_in, h + 2, w + 2), cols)
    return back


@pytest.mark.parametrize("shape", [(16, 16, 1), (16, 12, 3), (9, 7, 2), (5, 5, 1)])
def test_gather_convolutions_are_bit_identical_to_windowed_contractions(shape, monkeypatch):
    perc = RandomConvPerceptual(shape, seed=4)
    rng = np.random.default_rng(18)
    x = rng.random(shape)
    y = rng.random(shape)
    h, w, _ = shape
    img = x.transpose(2, 0, 1)
    f1 = np.tanh(_conv_forward(img, perc.k1, perc.b1))
    u1 = rng.standard_normal((perc.k1.shape[0], h - 2, w - 2))
    u2 = rng.standard_normal((perc.k2.shape[0], h - 4, w - 4))
    assert np.array_equal(_conv_forward(img, perc.k1, perc.b1),
                          _windowed_conv_forward(img, perc.k1, perc.b1))
    assert np.array_equal(_conv_forward(f1, perc.k2, perc.b2),
                          _windowed_conv_forward(f1, perc.k2, perc.b2))
    # the adjoint scatters through the forward's table: its summation order is
    # np.add.at's, not the windowed contraction's, so it agrees with the latter to rounding
    for u, kernels in ((u1, perc.k1), (u2, perc.k2)):
        back = _conv_input_vjp(u, kernels)
        assert np.array_equal(back, _add_at_conv_input_vjp(u, kernels))
        np.testing.assert_allclose(back, _windowed_conv_input_vjp(u, kernels), rtol=0, atol=1e-12)
    distance = perc.distance(x, y)
    value, grad = perc.reference(x)(y)
    monkeypatch.setattr(invlab.perceptual, "_conv_forward", _windowed_conv_forward)
    monkeypatch.setattr(invlab.perceptual, "_conv_input_vjp", _windowed_conv_input_vjp)
    assert distance == perc.distance(x, y)
    ref_value, ref_grad = perc.reference(x)(y)
    assert value == ref_value
    np.testing.assert_allclose(grad, ref_grad, rtol=0, atol=1e-12 * np.abs(ref_grad).max())


def test_patch_index_tables_are_cached_and_read_only():
    table = _patch_index(2, 6, 5)
    assert table.shape == (2 * 9, 4 * 3) and not table.flags.writeable
    assert _patch_index(2, 6, 5) is table
    with pytest.raises(ValueError):
        table[0, 0] = 0
    # so are SSIM's window matrices, windowed (16x16) and global (5x5)
    for size in [(16, 16), (5, 5)]:
        mats = _window_matrices(*size)
        assert _window_matrices(*size) is mats and not any(m.flags.writeable for m in mats)


@pytest.mark.parametrize("shape", [(16, 12, 3), (9, 7, 2), (6, 9, 2), (11, 8)])
def test_ssim_gradient_off_square(shape):
    # non-square multichannel windowed images, the global path (6 < 7 rows)
    # and a 2-D image without a channel axis
    rng = np.random.default_rng(17)
    x = rng.random(shape)
    y = rng.random(shape)
    value, grad = ssim_with_grad(x, y)
    assert value == ssim(x, y) and grad.shape == shape
    err = gradient_check(lambda q: ssim(x, q.reshape(shape)), grad.reshape(-1), y.reshape(-1))
    assert err < 1e-6


def _paired_trajectories(model, sched, s, z0, c):
    grid = make_uniform_grid(sched, s)
    inv = ddim_invert_trajectory(model, sched, grid, z0, c)
    gen = generate_trajectory(model, sched, grid, inv.end, c)
    return inv, gen


def test_divergence_zero_for_replayed_constant_model(toy3, uncond):
    m = ConstantDenoiser(2, 0.1)
    inv, gen = _paired_trajectories(m, toy3, 3, np.array([0.4, -0.2]), uncond)
    div = trajectory_divergence(inv, gen)
    assert div.shape == (4,)
    np.testing.assert_allclose(div, np.zeros(4), atol=1e-12)


def test_divergence_positive_for_plain_inversion(default_sched, uncond):
    m = LinearGaussianDenoiser(np.zeros(2), np.diag([2.0, 0.5]), default_sched)
    rng = np.random.default_rng(13)
    inv, gen = _paired_trajectories(m, default_sched, 50, rng.standard_normal(2), uncond)
    div = trajectory_divergence(inv, gen)
    assert div.min() >= 0.0
    assert div[0] > 1e-6  # endpoint misalignment of the uncorrected inverse
    assert div[-1] == 0.0  # shared z_T by construction


def test_divergence_is_the_distance_between_the_latents_at_each_timestep(default_sched, uncond):
    m = LinearGaussianDenoiser(np.zeros(2), np.diag([2.0, 0.5]), default_sched)
    grid = make_uniform_grid(default_sched, 10)
    inv = ddim_invert_trajectory(m, default_sched, grid, np.array([0.3, -1.1]), uncond)
    gen = generate_trajectory(m, default_sched, grid, inv.end + 0.01, uncond)  # perturbed z_T
    div = trajectory_divergence(inv, gen)
    assert list(div) == [np.linalg.norm(inv.latent_at(t) - gen.latent_at(t))
                         for t in inv.timesteps()]
    assert div.min() > 0.0


def test_divergence_requires_matching_grids(toy3, default_sched, uncond):
    m = ConstantDenoiser(1, 0.0)
    inv, gen = _paired_trajectories(m, toy3, 3, np.array([1.0]), uncond)
    inv2, _ = _paired_trajectories(m, toy3, 2, np.array([1.0]), uncond)
    with rejects("gen"):
        trajectory_divergence(inv2, gen)
    with rejects("inv"):
        trajectory_divergence(gen, gen)
    with rejects("gen"):
        trajectory_divergence(inv, inv)


@given(st.integers(0, 2**31 - 1))
def test_ssim_upper_bound(seed):
    rng = np.random.default_rng(seed)
    x = rng.random((7, 7, 1))
    y = rng.random((7, 7, 1))
    assert ssim(x, y) <= 1.0 + 1e-12


def test_perceptual_reference_is_value_and_grad_bit_for_bit():
    rng = np.random.default_rng(31)
    for shape in ((16, 16, 1), (9, 7, 2)):
        perc = RandomConvPerceptual(shape, seed=4)
        x = rng.random(shape)
        ref = perc.reference(x)
        # one binding serves many second images and holds no state between them
        for _ in range(3):
            y = rng.random(shape)
            value, grad = ref(y)
            assert value == perc.distance(x, y)
            assert np.array_equal(grad, perc.grad_y(x, y))  # a fresh binding
        with rejects("y"):
            ref(np.zeros((5, 5, 1)))
        with rejects("x"):
            perc.reference(np.zeros((5, 5, 1)))

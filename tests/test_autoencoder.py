"""Image/latent interfaces: identity, exact projection, and the leaky encoder."""

import numpy as np
import pytest
from conftest import gradient_check, rejects
from hypothesis import given
from hypothesis import strategies as st

from invlab import (
    LinearAutoencoder,
    fit_linear_autoencoder,
    identity_autoencoder,
    make_shapes,
)

SHAPE = (4, 4, 1)


def _subspace_images(n=12, k=3, seed=0, shape=SHAPE):
    """Images lying exactly in a k-dim affine subspace of pixel space."""
    rng = np.random.default_rng(seed)
    n_pix = int(np.prod(shape))
    basis = np.linalg.qr(rng.standard_normal((n_pix, k)))[0]
    coeffs = rng.standard_normal((n, k))
    base = 0.5 * np.ones(n_pix)
    return (base + 0.1 * coeffs @ basis.T).reshape((n,) + shape)


def test_fit_refuses_variance_below_1e_12_of_the_pixel_scale():
    # two 2x2 images, ±s/√2 at one pixel and 0 elsewhere: the top singular value of the
    # centered data is s, and the pixel scale is 1
    def pair(s):
        imgs = np.zeros((2, 2, 2))
        imgs[:, 0, 0] = [s / np.sqrt(2.0), -s / np.sqrt(2.0)]
        return imgs
    assert fit_linear_autoencoder(pair(1.5e-12), latent_dim=1).latent_dim == 1
    with rejects("data"):
        fit_linear_autoencoder(pair(0.5e-12), latent_dim=1)


def test_identity_round_trip_bit_exact():
    ae = identity_autoencoder((3, 5, 1))
    rng = np.random.default_rng(1)
    x = rng.random((3, 5, 1))
    z = ae.encode(x)
    assert z.shape == (15,)
    np.testing.assert_array_equal(ae.decode(z), x)
    np.testing.assert_array_equal(z, x.reshape(-1))


def test_identity_vjp_is_flatten():
    ae = identity_autoencoder((2, 2, 1))
    v = np.array([[[1.0], [2.0]], [[3.0], [4.0]]])
    np.testing.assert_array_equal(ae.decoder_vjp(np.zeros(4), v), v.reshape(-1))
    np.testing.assert_array_equal(ae.decoder_vjp(np.zeros(4), np.zeros((2, 2, 1))), np.zeros(4))


def test_identity_shape_errors():
    ae = identity_autoencoder((2, 2, 1))
    with rejects("x"):
        ae.encode(np.zeros((3, 3, 1)))
    with rejects("z"):
        ae.decode(np.zeros(5))


def test_codec_above_the_size_cap_refused_before_it_allocates():
    # 200x200 pixels would need an 11.9 GiB pixel-by-pixel matrix; 65x64 just over the cap
    with rejects("image_shape"):
        identity_autoencoder((200, 200, 1))
    with rejects("image_shape"):
        identity_autoencoder((65, 64, 1))
    with rejects("data"):
        fit_linear_autoencoder(np.broadcast_to(0.5, (2, 200, 200, 1)), latent_dim=4)


def test_linear_round_trip_is_projection():
    # compare decode(encode(x)) against mean + W+ W (x - mean) assembled by hand
    imgs = _subspace_images(n=10, k=5, seed=2)
    ae = fit_linear_autoencoder(imgs, latent_dim=3)
    rng = np.random.default_rng(3)
    x = rng.random(SHAPE)
    flat = x.reshape(-1)
    by_hand = ae.mean + ae.w.T @ (ae.w @ (flat - ae.mean))
    np.testing.assert_allclose(ae.decode(ae.encode(x)).reshape(-1), by_hand, atol=1e-12)


def test_linear_encode_mean_is_zero():
    imgs = _subspace_images()
    ae = fit_linear_autoencoder(imgs, latent_dim=3)
    z = ae.encode(ae.mean.reshape(SHAPE))
    np.testing.assert_allclose(z, np.zeros(3), atol=1e-12)


def test_linear_zero_latent_decodes_to_mean():
    imgs = _subspace_images()
    ae = fit_linear_autoencoder(imgs, latent_dim=3)
    np.testing.assert_allclose(ae.decode(np.zeros(3)).reshape(-1), ae.mean, atol=1e-14)


def test_linear_rows_orthonormal():
    imgs = make_shapes(24, seed=5)
    ae = fit_linear_autoencoder(imgs, latent_dim=16)
    gram = ae.w @ ae.w.T
    np.testing.assert_allclose(gram, np.eye(16), atol=1e-10)


def test_linear_round_trip_idempotent():
    imgs = make_shapes(24, seed=5)
    ae = fit_linear_autoencoder(imgs, latent_dim=16)
    rng = np.random.default_rng(0)
    x = rng.random((16, 16, 1))
    once = ae.decode(ae.encode(x))
    twice = ae.decode(ae.encode(once))
    np.testing.assert_allclose(twice, once, atol=1e-10)


def test_linear_decoder_vjp_hand_rule():
    imgs = _subspace_images()
    ae = fit_linear_autoencoder(imgs, latent_dim=3)
    rng = np.random.default_rng(4)
    v = rng.standard_normal(SHAPE)
    got = ae.decoder_vjp(np.zeros(3), v)
    np.testing.assert_allclose(got, ae.w @ v.reshape(-1), atol=1e-12)
    np.testing.assert_array_equal(ae.decoder_vjp(np.zeros(3), np.zeros(SHAPE)), np.zeros(3))
    z = rng.standard_normal(3)
    err = gradient_check(lambda q: float(v.reshape(-1) @ ae.decode(q).reshape(-1)), got, z)
    assert err < 1e-6


def test_fit_recovers_exact_subspace():
    imgs = _subspace_images(n=14, k=3, seed=7)
    ae = fit_linear_autoencoder(imgs, latent_dim=3)
    worst = 0.0
    for x in imgs:
        err = np.abs(ae.decode(ae.encode(x)) - x).max()
        worst = max(worst, err)
    assert worst <= 1e-10


def test_fit_full_rank_is_exact():
    rng = np.random.default_rng(9)
    imgs = rng.random((20,) + SHAPE)
    ae = fit_linear_autoencoder(imgs, latent_dim=16)
    x = rng.random(SHAPE)
    np.testing.assert_allclose(ae.decode(ae.encode(x)), x, atol=1e-10)


def test_fit_error_cases():
    with rejects("data"):
        fit_linear_autoencoder(_subspace_images(n=1), latent_dim=2)
    with rejects("data"):
        fit_linear_autoencoder(np.full((6,) + SHAPE, 0.25), latent_dim=2)
    for bad in (np.nan, np.inf):
        images = _subspace_images()
        images[3, 1, 2, 0] = bad
        with rejects("data"):
            fit_linear_autoencoder(images, latent_dim=2)
    with rejects("latent_dim"):
        fit_linear_autoencoder(_subspace_images(), latent_dim=17)
    with rejects("latent_dim"):
        fit_linear_autoencoder(_subspace_images(), latent_dim=0)


def test_fit_error_non_increasing_in_latent_dim():
    imgs = make_shapes(30, seed=11)

    def mean_err(k):
        ae = fit_linear_autoencoder(imgs, latent_dim=k)
        return float(np.mean([(np.abs(ae.decode(ae.encode(x)) - x) ** 2).mean() for x in imgs]))

    errs = [mean_err(k) for k in (8, 32, 64, 128)]
    assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))


def test_constructor_rejects_non_orthonormal_rows():
    w = np.array([[1.0, 1.0, 0.0, 0.0]])  # norm sqrt(2)
    with rejects("w"):
        LinearAutoencoder(w, np.zeros(4), (2, 2, 1))


@pytest.mark.parametrize("index, gain", [((0, 0), 2.0), ((0, 1), 1.0), ((1, 0), 1.0)])
def test_orthonormality_tolerance_is_1e_10_on_each_entry_of_w_wt(index, gain):
    # a small offset δ at w[index] moves one entry of W·Wᵀ − I by gain·δ: a row's
    # squared norm on the diagonal, the overlap of the two rows off it
    w = np.eye(2, 4)
    w[index] += 0.5e-10 / gain
    LinearAutoencoder(w, np.zeros(4), (2, 2, 1))
    w[index] += 1e-10 / gain
    with rejects("w"):
        LinearAutoencoder(w, np.zeros(4), (2, 2, 1))


def test_constructor_rejects_a_codec_with_no_latents():
    # an oracle on 0 latents cannot be built, so neither is a codec that gives them
    with rejects("w"):
        LinearAutoencoder(np.zeros((0, 4)), np.zeros(4), (2, 2, 1))
    assert LinearAutoencoder(np.eye(1, 4), np.zeros(4), (2, 2, 1)).latent_dim == 1


def test_constructor_rejects_more_latents_than_pixels():
    with rejects("w"):
        LinearAutoencoder(np.ones((5, 4)), np.zeros(4), (2, 2, 1))


@pytest.mark.parametrize("field", ["w", "mean", "leak"])
def test_constructor_rejects_non_finite_arrays(field):
    args = {"w": np.eye(2, 4), "mean": np.zeros(4), "leak": np.zeros((2, 4))}
    args[field][0, ...] = np.nan
    with rejects(field):
        LinearAutoencoder(image_shape=(2, 2, 1), **args)


def test_encode_purity():
    imgs = make_shapes(8, seed=1)
    ae = fit_linear_autoencoder(imgs, latent_dim=4)
    x = imgs[0]
    np.testing.assert_array_equal(ae.encode(x), ae.encode(x))


# --- miscalibrated (leaky) encoder -----------------------------------------


def test_leak_rows_must_target_discarded_subspace():
    imgs = _subspace_images(n=10, k=5)
    ae = fit_linear_autoencoder(imgs, latent_dim=3)
    with rejects("leak"):
        # leak along a retained direction is rejected
        LinearAutoencoder(ae.w, ae.mean, SHAPE, leak=0.5 * ae.w)


def test_leak_zero_scale_matches_exact_fit():
    imgs = make_shapes(20, seed=3)
    plain = fit_linear_autoencoder(imgs, latent_dim=10)
    zeroed = fit_linear_autoencoder(imgs, latent_dim=10, leak_scale=0.0)
    np.testing.assert_array_equal(plain.w, zeroed.w)
    assert zeroed.leak is None


def test_leak_negative_scale_rejected():
    imgs = make_shapes(20, seed=3)
    for leak_scale in (-0.5, float("nan")):
        with rejects("leak_scale"):
            fit_linear_autoencoder(imgs, latent_dim=10, leak_scale=leak_scale)


def test_leaky_round_trip_still_idempotent():
    imgs = make_shapes(20, seed=3)
    ae = fit_linear_autoencoder(imgs, latent_dim=10, leak_scale=1.8, seed=0)
    assert ae.leak is not None
    rng = np.random.default_rng(5)
    x = rng.random((16, 16, 1))
    once = ae.decode(ae.encode(x))
    twice = ae.decode(ae.encode(once))
    # round-trip output has no component in the leak's source subspace
    np.testing.assert_allclose(twice, once, atol=1e-12)


def test_leaky_encode_of_mean_is_zero():
    imgs = make_shapes(20, seed=3)
    ae = fit_linear_autoencoder(imgs, latent_dim=10, leak_scale=1.8)
    z = ae.encode(ae.mean.reshape((16, 16, 1)))
    np.testing.assert_allclose(z, np.zeros(10), atol=1e-12)


def test_leaky_encoder_is_identity_on_decoded_latents():
    # encode(decode(z)) = z: decoded images carry no discarded component
    imgs = make_shapes(20, seed=3)
    ae = fit_linear_autoencoder(imgs, latent_dim=10, leak_scale=1.8)
    rng = np.random.default_rng(6)
    z = rng.standard_normal(10)
    np.testing.assert_allclose(ae.encode(ae.decode(z)), z, atol=1e-10)


def test_leak_displaces_round_trip_from_projection():
    imgs = make_shapes(20, seed=3)
    exact = fit_linear_autoencoder(imgs, latent_dim=10)
    leaky = fit_linear_autoencoder(imgs, latent_dim=10, leak_scale=1.8, seed=0)
    rng = np.random.default_rng(7)
    gaps = []
    for _ in range(6):
        x = rng.random((16, 16, 1))
        gap = float(np.abs(leaky.decode(leaky.encode(x)) - exact.decode(exact.encode(x))).max())
        gaps.append(gap)
    assert min(gaps) > 1e-3


def test_leak_fit_deterministic():
    imgs = make_shapes(20, seed=3)
    a = fit_linear_autoencoder(imgs, latent_dim=10, leak_scale=1.8, seed=4)
    b = fit_linear_autoencoder(imgs, latent_dim=10, leak_scale=1.8, seed=4)
    np.testing.assert_array_equal(a.leak, b.leak)
    c = fit_linear_autoencoder(imgs, latent_dim=10, leak_scale=1.8, seed=5)
    assert not np.array_equal(a.leak, c.leak)


def test_leak_full_rank_has_no_leak():
    rng = np.random.default_rng(8)
    imgs = rng.random((20,) + SHAPE)
    ae = fit_linear_autoencoder(imgs, latent_dim=16, leak_scale=1.8)
    assert ae.leak is None


@given(st.integers(1, 8), st.integers(0, 2**31 - 1))
def test_projection_never_increases_energy(k, seed):
    # centered round trip is an orthogonal projection: non-expansive
    imgs = _subspace_images(n=12, k=8, seed=3)
    ae = fit_linear_autoencoder(imgs, latent_dim=k)
    rng = np.random.default_rng(seed)
    x = rng.random(SHAPE)
    centered = x.reshape(-1) - ae.mean
    out = ae.decode(ae.encode(x)).reshape(-1) - ae.mean
    assert np.linalg.norm(out) <= np.linalg.norm(centered) + 1e-12

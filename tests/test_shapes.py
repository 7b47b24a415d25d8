"""Every public entry point that takes an array: a wrong shape ends as an
`invalid-parameter` error whose context names the argument, the same code and
field as a bad value of that argument."""

from types import SimpleNamespace

import numpy as np
import pytest
from conftest import rejects

from invlab import (
    AdamState,
    IlbConfig,
    LinearAutoencoder,
    LinearGaussianDenoiser,
    RandomConvPerceptual,
    adam_step,
    fit_linear_autoencoder,
    identity_autoencoder,
    ilb_optimize,
    make_shapes,
    psnr,
    ssim,
    ssim_with_grad,
)

WRONG = np.zeros(3)  # no argument below takes a (3,) array


def _pullback(model, z, v):
    return model.linearize(z, 5)[1](v)


def _ilb(b, x0):
    return ilb_optimize(x0, b.linear, b.gauss, b.gauss.sched, b.perc, IlbConfig(dt=10))


# id -> (the argument named in the error, a call on the backends b with a wrong shape, WRONG
# unless the id names another: an empty array, or an image of the wrong rank)
CASES = {
    "analytic-eval": ("z", lambda b: b.gauss.eval(WRONG, 5)),
    "analytic-linearize": ("z", lambda b: b.gauss.linearize(WRONG, 5)),
    "analytic-pullback": ("v", lambda b: _pullback(b.gauss, np.zeros(4), WRONG)),
    "mlp-eval": ("z", lambda b: b.mlp.eval(WRONG, 5)),
    "mlp-linearize": ("z", lambda b: b.mlp.linearize(WRONG, 5)),
    "mlp-pullback": ("v", lambda b: _pullback(b.mlp, np.zeros(2), WRONG)),
    "identity-encode": ("x", lambda b: b.identity.encode(WRONG)),
    "identity-decode": ("z", lambda b: b.identity.decode(WRONG)),
    "identity-decoder_vjp-z": ("z", lambda b: b.identity.decoder_vjp(WRONG, b.img)),
    "identity-decoder_vjp-v": ("v", lambda b: b.identity.decoder_vjp(np.zeros(36), WRONG)),
    "linear-encode": ("x", lambda b: b.linear.encode(WRONG)),
    "linear-decode": ("z", lambda b: b.linear.decode(WRONG)),
    "linear-decoder_vjp-z": ("z", lambda b: b.linear.decoder_vjp(WRONG, b.img)),
    "linear-decoder_vjp-v": ("v", lambda b: b.linear.decoder_vjp(np.zeros(5), WRONG)),
    "perceptual-distance-x": ("x", lambda b: b.perc.distance(WRONG, b.img)),
    "perceptual-distance-y": ("y", lambda b: b.perc.distance(b.img, WRONG)),
    "perceptual-reference": ("x", lambda b: b.perc.reference(WRONG)),
    "perceptual-reference-y": ("y", lambda b: b.perc.reference(b.img)(WRONG)),
    "ilb_optimize": ("x0", lambda b: _ilb(b, WRONG)),
    "ilb_optimize-empty": ("x0", lambda b: _ilb(b, np.zeros((0,)))),
    "ilb_optimize-no-channels": ("x0", lambda b: _ilb(b, np.zeros((6, 6, 0)))),
    "psnr": ("y", lambda b: psnr(b.img, WRONG)),
    "psnr-empty": ("x", lambda b: psnr(np.zeros(0), np.zeros(0))),
    "ssim": ("y", lambda b: ssim(b.img, WRONG)),
    "ssim-empty": ("x", lambda b: ssim(np.zeros((0, 5, 1)), np.zeros((0, 5, 1)))),
    "ssim-empty-2d": ("x", lambda b: ssim(np.zeros((0, 0)), np.zeros((0, 0)))),
    "ssim-1d": ("x", lambda b: ssim(np.zeros(5), np.zeros(5))),
    "ssim_with_grad": ("y", lambda b: ssim_with_grad(b.img, WRONG)),
    "ssim_with_grad-empty": ("x", lambda b: ssim_with_grad(np.zeros((0, 5, 1)),
                                                           np.zeros((0, 5, 1)))),
    "ssim_with_grad-empty-2d": ("x", lambda b: ssim_with_grad(np.zeros((0, 0)), np.zeros((0, 0)))),
    "ssim_with_grad-1d": ("x", lambda b: ssim_with_grad(np.zeros(5), np.zeros(5))),
    "adam_step": ("grad", lambda b: adam_step(AdamState(lr=1e-3), np.zeros(4), WRONG)),
}


@pytest.fixture(scope="module")
def images():
    return make_shapes(4, seed=0, height=6, width=6)


@pytest.mark.parametrize("case", sorted(CASES))
def test_wrong_shape_is_an_invalid_parameter_naming_the_argument(case, gauss_nd, tiny_mlp, images):
    b = SimpleNamespace(gauss=gauss_nd, mlp=tiny_mlp[0], img=images[0],
                        identity=identity_autoencoder((6, 6, 1)),
                        linear=fit_linear_autoencoder(images, latent_dim=5),
                        perc=RandomConvPerceptual((6, 6, 1)))
    field, call = CASES[case]
    with rejects(field) as err:
        call(b)
    assert err.value.to_json_dict()["code"] == "invalid-parameter"


# The constructors' shape checks that `require_shape` cannot express (a rank, a size
# floor), each beside a refused value of the same argument: one code, one field.
# test_mlp_reads_its_sizes_from_its_arrays covers MlpDenoiser's.
# id -> (the argument, the shape fault, a value fault), each a call on the schedule s
SHAPE_AND_VALUE = {
    "analytic-mu": ("mu", lambda s: LinearGaussianDenoiser(np.zeros((1, 3)), np.eye(3), s),
                    lambda s: LinearGaussianDenoiser(np.full(3, np.nan), np.eye(3), s)),
    "linear-w": ("w", lambda s: LinearAutoencoder(np.eye(3, 4), np.zeros(5), (5, 1, 1)),
                 lambda s: LinearAutoencoder(2 * np.eye(3, 5), np.zeros(5), (5, 1, 1))),
    "fit-data": ("data", lambda s: fit_linear_autoencoder(WRONG, latent_dim=1),
                 lambda s: fit_linear_autoencoder(np.zeros((1, 5, 5)), latent_dim=1)),
    "perceptual-image_shape-rank": ("image_shape", lambda s: RandomConvPerceptual((6, 6)),
                                    lambda s: identity_autoencoder((6, 6))),
    "perceptual-image_shape-size": ("image_shape", lambda s: RandomConvPerceptual((4, 6, 1)),
                                    lambda s: identity_autoencoder((4, 0, 1))),
}


@pytest.mark.parametrize("case", sorted(SHAPE_AND_VALUE))
def test_shape_and_value_faults_of_one_argument_share_its_code(case, toy3):
    field, shape_fault, value_fault = SHAPE_AND_VALUE[case]
    for call in (shape_fault, value_fault):
        with rejects(field) as err:
            call(toy3)
        assert str(err.value).startswith(f"{field} must be ")  # a `require` call

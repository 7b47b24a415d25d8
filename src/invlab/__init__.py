"""Desk-scale laboratory for inverting deterministic diffusion sampling.

Exact small backends (analytic Gaussian denoiser, tiny trained MLP, linear
autoencoder) stand in for large latent-diffusion stacks so that per-step
bias-optimized inversion and image-latent boosting can be tested against
closed-form oracles, finite differences and seeded benchmarks.
"""

from .autoencoder import LinearAutoencoder, fit_linear_autoencoder, identity_autoencoder
from .benchmark import (BenchmarkRow, RunConfig, config_from_json_dict, load_config,
                        parse_method, run_benchmark)
from .data import gen_dataset, load_dataset, make_shapes, save_dataset
from .denoiser import (Condition, DenoiserInterface, LinearGaussianDenoiser, MlpDenoiser,
                       MlpTrainConfig, train_mlp_denoiser)
from .dynamics import (Trajectory, ddim_invert_step, ddim_invert_trajectory, generate_step,
                       generate_trajectory, walk)
from .errors import (ConfigError, DivergenceError, FormatError, InvalidParameterError,
                     InvlabError)
from .ilb import IlbConfig, IlbReport, ilb_loss_and_grad, ilb_optimize
from .lbo import (LboConfig, LboStepReport, lbo_gradient_iterate, lbo_invert_step,
                  lbo_invert_trajectory, lbo_numerical_iterate, objective_and_grad)
from .metrics import psnr, ssim, ssim_with_grad, trajectory_divergence
from .modelio import load_model, save_model
from .optim import AdamState, adam_step, gradient_check
from .perceptual import RandomConvPerceptual
from .rng import derive_key, derive_rng
from .schedule import (NoiseSchedule, StepCoefficients, TimestepGrid, coefficients,
                       make_linear_schedule, make_uniform_grid, skip_coefficients)

__version__ = "0.1.0"

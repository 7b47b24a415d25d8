"""Seeded inversion benchmark: methods × instances -> CSV rows + JSON summary.

Per instance and method the pipeline is: encode (optionally refined by latent
boosting) -> inversion to z_T -> deterministic generation replay -> decode ->
metrics against the source image. Every random choice derives from the master
seed and the instance id, so no row depends on the rows run before it. Rows
run one after another in (instance_id, method) order, the order they are
written in. Wall-clock timing is recorded only on request because timings are
the one quantity that cannot be byte-reproducible; the default writes 0.0.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import asdict, astuple, dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, get_type_hints

import numpy as np

from .autoencoder import (MAX_CODEC_BYTES, LinearAutoencoder, fit_linear_autoencoder,
                          identity_autoencoder, require_codec_size)
from .data import load_dataset, make_shapes
from .denoiser import (Condition, DenoiserInterface, LinearGaussianDenoiser, MlpTrainConfig,
                       mlp_shapes, train_mlp_denoiser)
from .dynamics import ddim_invert_trajectory, generate_trajectory
from .errors import (ConfigError, DivergenceError, FormatError, InvalidParameterError, InvlabError,
                     SHOWN_CHARS, check_fields, require, shown)
from .ilb import IlbConfig, ilb_optimize
from .lbo import LboConfig, lbo_invert_trajectory
from .metrics import psnr, ssim
from .modelio import load_model
from .perceptual import RandomConvPerceptual
from .rng import derive_rng
from .schedule import make_linear_schedule, make_uniform_grid

# each LBO method runs its mode's library defaults
LBO_CONFIGS = {"lbo-g": LboConfig("gradient"), "lbo-n": LboConfig("numerical"),
               "lbo-h": LboConfig("hybrid")}
BASE_METHODS = ("ddim", *LBO_CONFIGS)


@dataclass(frozen=True)
class DatasetSection:
    count: int = 20
    height: int = 16
    width: int = 16
    path: Optional[str] = None

    def __post_init__(self):
        check_fields(self)
        require(self.count >= 1, "count", self.count, "an integer >= 1")
        # make_shapes' smallest disc and the perceptual metric's layers need 5x5
        require(self.height >= 5, "height", self.height, "an integer >= 5")
        require(self.width >= 5, "width", self.width, "an integer >= 5")
        require(self.path != "", "path", self.path, "null or a nonempty file name")


@dataclass(frozen=True)
class DenoiserSection:
    kind: str = "analytic"
    path: Optional[str] = None
    train: MlpTrainConfig = MlpTrainConfig()

    def __post_init__(self):
        check_fields(self)
        require(self.kind in ("analytic", "mlp"), "kind", self.kind, "'analytic' or 'mlp'")
        # "" would be unset to the builders but set to RunConfig's size budget, which
        # skips the arrays a loaded file replaces
        require(self.path != "", "path", self.path, "null or a nonempty file name")


_MAX_SCALE = 1e6  # bound on autoencoder.leak_scale; larger overflows the round-trip norms


@dataclass(frozen=True)
class AutoencoderSection:
    kind: str = "linear"
    path: Optional[str] = None
    latent_frac: float = 0.25
    fit_count: int = 64
    leak_scale: float = 1.8

    def __post_init__(self):
        check_fields(self)
        require(self.kind in ("linear", "identity"), "kind", self.kind, "'linear' or 'identity'")
        require(self.path != "", "path", self.path, "null or a nonempty file name")
        require(0.0 < self.latent_frac <= 1.0, "latent_frac", self.latent_frac, "in (0, 1]")
        require(self.fit_count >= 2, "fit_count", self.fit_count, "an integer >= 2")
        require(0.0 <= self.leak_scale <= _MAX_SCALE, "leak_scale", self.leak_scale,
                f"in [0, {_MAX_SCALE:g}]")


@dataclass(frozen=True)
class RunConfig:
    seed: int = 0
    t_train: int = 100
    beta_start: float = 1e-4
    beta_end: float = 0.05
    steps: int = 50
    record_timing: bool = False
    n_workers: int = 1  # rows run serially; only 1 is accepted
    methods: tuple[str, ...] = ("ddim", "lbo-n", "lbo-n+ilb")
    dataset: DatasetSection = DatasetSection()
    denoiser: DenoiserSection = DenoiserSection()
    autoencoder: AutoencoderSection = AutoencoderSection()
    ilb: IlbConfig = IlbConfig()

    def __post_init__(self):
        check_fields(self)  # first: the sizes below multiply its Python ints
        for name in self.methods:
            parse_method(name)
        require(len(self.methods) > 0, "methods", self.methods, "nonempty")
        require(len(set(self.methods)) == len(self.methods), "methods", self.methods, "distinct")
        require(self.n_workers == 1, "n_workers", self.n_workers,
                "the integer 1 (rows run serially)")
        # one budget, the codec's cap, for each array a size sets, checked before anything
        # is built: the images, the betas, one trajectory's steps + 1 latents and, where
        # the run builds them, the codec's pixel-by-pixel matrix, the fit's left SVD basis
        # (fit_count squared) and the MLP's flat parameter vector, with a latent as wide as
        # the image
        ds, ae, den = self.dataset, self.autoencoder, self.denoiser
        pixels = ds.height * ds.width
        side = "height" if ds.height >= ds.width else "width"
        if ae.path is None:
            require_codec_size(pixels, "dataset." + side, getattr(ds, side))
        sizes = [("dataset.count", ds.count, ds.count * pixels),
                 ("autoencoder.fit_count", ae.fit_count, ae.fit_count * pixels),
                 ("t_train", self.t_train, self.t_train),
                 ("steps", self.steps, (self.steps + 1) * pixels)]
        if ae.path is None and ae.kind == "linear":
            sizes.append(("autoencoder.fit_count", ae.fit_count, ae.fit_count**2))
        if den.path is None and den.kind == "mlp":
            shapes = mlp_shapes(pixels, den.train.width, self.t_train).values()
            sizes.append(("denoiser.train.width", den.train.width, sum(map(math.prod, shapes))))
        for key, value, floats in sizes:
            require(8 * floats <= MAX_CODEC_BYTES, key, value,
                    f"small enough for each of its arrays to fit in {MAX_CODEC_BYTES} bytes")
        # the range checks of the schedule and grid the run builds
        make_uniform_grid(make_linear_schedule(self.t_train, self.beta_start, self.beta_end),
                          self.steps)
        require(self.ilb.dt is None or 1 <= self.ilb.dt <= self.t_train, "ilb.dt", self.ilb.dt,
                f"in [1, t_train = {self.t_train}]")

    def to_json_dict(self) -> dict:
        return json.loads(json.dumps(asdict(self)))  # tuples become lists


def _parse_section(cls, doc, prefix: str):
    """A `cls` from a JSON object, each section in it parsed in turn; check_fields types it."""
    section = prefix.rstrip(".")
    if not isinstance(doc, dict):
        raise ConfigError(f"config {section or 'document'} must be a JSON object, "
                          f"got {shown(doc)}", key=section)
    hints = get_type_hints(cls)
    for key in doc:
        if key not in hints:  # a path past SHOWN_CHARS ends in its last key's type and size
            path = prefix + key if len(prefix + key) <= SHOWN_CHARS else prefix + shown(key)
            raise ConfigError(f"unknown config key {shown(prefix + key)}", key=path)
    values = {key: _parse_section(hints[key], value, prefix + key + ".")
              if is_dataclass(hints[key]) else value for key, value in doc.items()}
    try:
        return cls(**values)
    except InvalidParameterError as e:  # `require` and `require_shape` name the field
        key = prefix + e.context["field"]
        raise ConfigError(f"config key {key}: {e}", key=key) from None


def config_from_json_dict(doc: dict) -> RunConfig:
    """Defaults overridden by the document; a bad key is a ConfigError naming its path."""
    return _parse_section(RunConfig, doc, "")


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (ValueError, RecursionError) as e:  # invalid JSON or UTF-8, or nested too deep
            raise ConfigError(f"config {path} is not valid JSON: {e}") from None
    return config_from_json_dict(doc)


def parse_method(name: str) -> tuple[str, bool]:
    """'lbo-n+ilb' -> ('lbo-n', True); validates against the method grid."""
    base, *suffix = name.split("+")
    require(base in BASE_METHODS and suffix in ([], ["ilb"]), "methods", name,
            f"one of {BASE_METHODS} with optional '+ilb'")
    return base, suffix == ["ilb"]


def base_methods(methods) -> tuple:
    """Method names with '+ilb' stripped, first occurrences kept in order."""
    return tuple(dict.fromkeys(parse_method(m)[0] for m in methods))


@dataclass(frozen=True)
class BenchmarkRow:
    """One (instance, method) result. Its fields are the CSV columns, in order.

    Between the two keys and the timing come the metric columns, which all hold
    'error' on a failed row; the first three are the image scores that
    `score_latent` returns. A failed row names its error's code and message in
    the last two columns, which are empty on every other row.
    """

    method: str
    instance_id: int
    psnr_db: float | str
    ssim: float | str
    perceptual: float | str
    roundtrip_l2_rel: float | str
    mean_lbo_iters: float | str
    wall_ms: float
    error_code: str = ""
    error_message: str = ""


CSV_FIELDS = tuple(f.name for f in fields(BenchmarkRow))
METRIC_FIELDS = CSV_FIELDS[2:CSV_FIELDS.index("wall_ms")]
IMAGE_SCORES = METRIC_FIELDS[:3]


class BenchmarkBackends:
    """Immutable bundle built once per run and shared by its rows."""

    def __init__(self, cfg: RunConfig):
        ds = cfg.dataset
        self.cfg = cfg
        self.sched = make_linear_schedule(cfg.t_train, cfg.beta_start, cfg.beta_end)
        self.grid = make_uniform_grid(self.sched, cfg.steps)
        dt = cfg.ilb.dt if cfg.ilb.dt is not None else self.grid.steps[0]  # one grid stride
        self.ilb_cfg = replace(cfg.ilb, dt=dt)
        self.images = _load_instance_images(cfg)
        fit_images = make_fit_images(cfg)
        self.ae = build_autoencoder(cfg, fit_images)
        self.model = build_denoiser(cfg, self.sched, self.ae, fit_images)
        self.perc = RandomConvPerceptual((ds.height, ds.width, 1))
        self.condition = Condition()


def _load_instance_images(cfg: RunConfig) -> np.ndarray:
    ds = cfg.dataset
    if ds.path is None:
        return make_shapes(ds.count, cfg.seed, ds.height, ds.width)
    if not Path(ds.path).exists():
        raise ConfigError(f"dataset.path {ds.path} does not exist", key="dataset.path")
    images = load_dataset(ds.path)["images"]
    if len(images) < ds.count:
        raise ConfigError(f"dataset.path {ds.path} has {len(images)} images, config wants "
                          f"{ds.count}", key="dataset.path")
    images = images[: ds.count]
    if images.shape[1:3] != (ds.height, ds.width):
        raise ConfigError(f"dataset.path {ds.path} holds {images.shape[1]}x{images.shape[2]} "
                          f"images, config wants {ds.height}x{ds.width}", key="dataset.path")
    if not np.all((images >= 0.0) & (images <= 1.0)):  # NaN fails both
        raise ConfigError(f"dataset.path {ds.path} has pixels that are non-finite or outside "
                          "[0, 1]", key="dataset.path")
    return images


def make_fit_images(cfg: RunConfig) -> np.ndarray:
    """The seeded images the autoencoder and the MLP denoiser are fitted on."""
    ds = cfg.dataset
    return make_shapes(cfg.autoencoder.fit_count, cfg.seed, ds.height, ds.width, tag="fit")


def _load_model_file(path, iface, key: str):
    """The model stored at `path`; an error naming `key` unless it is a well-formed `iface`."""
    if not Path(path).exists():
        raise ConfigError(f"{key} {path} does not exist", key=key)
    try:
        model = load_model(path)
    except FormatError as e:
        raise FormatError(f"{key}: {e}", key=key) from None
    if not isinstance(model, iface):
        raise ConfigError(f"{key} {path} holds a {type(model).__name__}, "
                          f"not a {iface.__name__}", key=key)
    return model


def build_autoencoder(cfg: RunConfig, fit_images: np.ndarray):
    section = cfg.autoencoder
    shape = fit_images.shape[1:]
    if section.path is not None:  # a set path wins over kind
        ae = _load_model_file(section.path, LinearAutoencoder, "autoencoder.path")
        if ae.image_shape != shape:
            raise ConfigError(f"autoencoder.path {section.path} takes {ae.image_shape} images, "
                              f"the dataset has {shape}", key="autoencoder.path")
        return ae
    if section.kind == "identity":
        return identity_autoencoder(shape)
    n_pix = int(np.prod(shape))
    latent_dim = max(1, int(round(section.latent_frac * n_pix)))
    return fit_linear_autoencoder(fit_images, latent_dim,
                                  leak_scale=section.leak_scale, seed=cfg.seed)


def analytic_denoiser(rng: np.random.Generator, d: int, sched) -> LinearGaussianDenoiser:
    """The analytic oracle: Σ = Q·diag(λ)·Qᵀ with λ spread evenly over [0.7, 1.5] and Q the
    orthogonal factor of a standard normal d × d draw, and μ = 0.5·N(0, I), drawn from rng
    in that order."""
    q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    sigma = q @ np.diag(np.linspace(0.7, 1.5, d)) @ q.T
    return LinearGaussianDenoiser(0.5 * rng.standard_normal(d), 0.5 * (sigma + sigma.T), sched)


def build_denoiser(cfg: RunConfig, sched, ae, fit_images: np.ndarray):
    section = cfg.denoiser
    if section.path is not None:  # a set path wins over kind
        model = _load_model_file(section.path, DenoiserInterface, "denoiser.path")
        if model.latent_dim != ae.latent_dim:
            raise ConfigError(f"denoiser.path {section.path} has latent_dim {model.latent_dim}, "
                              f"the autoencoder {ae.latent_dim}", key="denoiser.path")
        if not np.array_equal(model.sched.betas, sched.betas):
            raise ConfigError(f"denoiser.path {section.path} was trained on another noise "
                              "schedule (t_train, beta_start, beta_end)", key="denoiser.path")
        return model
    if section.kind == "analytic":
        return analytic_denoiser(derive_rng(cfg.seed, "analytic-model"), ae.latent_dim, sched)
    latents = np.stack([ae.encode(img) for img in fit_images])
    return train_mlp_denoiser(latents, sched, section.train, cfg.seed)


def start_latent(b: BenchmarkBackends, x0: np.ndarray, use_ilb: bool) -> np.ndarray:
    """The image's latent: boosted by ILB when asked, else the plain encoding."""
    if use_ilb:
        return ilb_optimize(x0, b.ae, b.model, b.sched, b.perc, b.ilb_cfg, b.condition)[0]
    return b.ae.encode(x0)


def invert_latent(b: BenchmarkBackends, z0: np.ndarray, base: str):
    """Invert z0 over the grid with a base method; returns (trajectory, step reports)."""
    if base == "ddim":
        return ddim_invert_trajectory(b.model, b.sched, b.grid, z0, b.condition), []
    return lbo_invert_trajectory(b.model, b.sched, b.grid, z0, b.condition, LBO_CONFIGS[base])


def replay(b: BenchmarkBackends, z_t: np.ndarray):
    """The generation trajectory from z_t at t_train down to 0."""
    return generate_trajectory(b.model, b.sched, b.grid, z_t, b.condition)


def score_latent(backends: BenchmarkBackends, x0: np.ndarray, z0: np.ndarray) -> tuple:
    """The IMAGE_SCORES (PSNR, SSIM, perceptual distance) of the decoded z0 against x0."""
    xh = np.clip(backends.ae.decode(z0), 0.0, 1.0)
    return psnr(x0, xh), ssim(x0, xh), backends.perc.distance(x0, xh)


def evaluate_instance(backends: BenchmarkBackends, instance_id: int, method: str) -> BenchmarkRow:
    """One pipeline pass: (optional boosting) -> invert -> replay -> decode -> score."""
    started = time.perf_counter()
    base, use_ilb = parse_method(method)
    x0 = backends.images[instance_id]
    z0 = start_latent(backends, x0, use_ilb)
    traj, reports = invert_latent(backends, z0, base)
    mean_iters = float(np.mean([r.iters for r in reports])) if reports else 0.0
    z0_back = replay(backends, traj.end).end
    denom = float(np.linalg.norm(z0))
    with np.errstate(over="ignore"):  # an overflowing norm is the divergence raised below
        rel = float(np.linalg.norm(z0_back - z0)) / (denom if denom > 0 else 1.0)
    if not math.isfinite(rel):
        raise DivergenceError(f"round trip is not finite: roundtrip_l2_rel = {rel}")
    scores = score_latent(backends, x0, z0_back)
    elapsed_ms = (time.perf_counter() - started) * 1e3 if backends.cfg.record_timing else 0.0
    return BenchmarkRow(method, instance_id, *scores, rel, mean_iters, elapsed_ms)


def _run_instance(backends: BenchmarkBackends, instance_id: int, method: str) -> BenchmarkRow:
    try:
        return evaluate_instance(backends, instance_id, method)
    except InvlabError as e:
        return BenchmarkRow(method, instance_id, *["error"] * len(METRIC_FIELDS), 0.0,
                            e.code, str(e))


def _method_means(rows: list) -> dict:
    out = {}
    for method in sorted({r.method for r in rows}):
        mine = [r for r in rows if r.method == method]
        ok = [r for r in mine if "error" not in astuple(r)]
        stats = {"n_ok": len(ok), "n_error": len(mine) - len(ok)}
        for name in METRIC_FIELDS:
            stats["mean_" + name] = float(np.mean([getattr(r, name) for r in ok])) if ok else None
        out[method] = stats
    return out


def _upper_bound(backends: BenchmarkBackends) -> dict:
    """Image scores of the plain autoencoder round trip, the best any inversion can do."""
    scores = [score_latent(backends, x0, backends.ae.encode(x0)) for x0 in backends.images]
    return {"mean_" + name: float(np.mean(col)) for name, col in zip(IMAGE_SCORES, zip(*scores))}


def _finite_or_null(obj):
    """obj with every non-finite float replaced by None, which strict JSON can hold."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(value) for value in obj]
    return obj


def json_text(payload, indent=None, default=None) -> str:
    """payload as strict JSON with sorted keys, a non-finite float written as null: the
    encoding of every artifact and of the CLI's stdout line."""
    return json.dumps(_finite_or_null(payload), sort_keys=True, indent=indent, default=default,
                      allow_nan=False)


def write_json(path, payload) -> None:
    """payload as `json_text` with indent 2 and a trailing newline: every artifact's form."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json_text(payload, indent=2))
        f.write("\n")


def run_benchmark(cfg: RunConfig, out_dir):
    """Execute the full grid and write benchmark.csv + summary.json.

    Returns (rows, summary). Rows run and are written in (instance_id, method)
    order; with record_timing off the written bytes depend only on the config.
    """
    backends = BenchmarkBackends(cfg)
    rows = [_run_instance(backends, i, m)
            for i in range(cfg.dataset.count) for m in sorted(cfg.methods)]

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "benchmark.csv"
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(CSV_FIELDS)
        writer.writerows(astuple(row) for row in rows)
    summary = {
        "config": cfg.to_json_dict(),
        "per_method": _method_means(rows),
        "upper_bound": _upper_bound(backends),
    }
    write_json(out_dir / "summary.json", summary)
    return rows, summary

"""Experiment harness around the library: data, training, runs, benchmark.

Every subcommand reads one JSON run config (all defaults embedded, unknown
keys rejected), applies flag overrides, writes its artifacts under --out and
prints a one-line JSON result to stdout. Failures exit nonzero and print
``{code, message, context}``.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .benchmark import (METRIC_FIELDS, BenchmarkBackends, RunConfig, base_methods,
                        build_autoencoder, build_denoiser, config_from_json_dict,
                        evaluate_instance, invert_latent, load_config, make_fit_images,
                        parse_method, replay, run_benchmark, start_latent)
from .data import gen_dataset, save_dataset
from .errors import ConfigError, InvlabError
from .ilb import ilb_loss_and_grad, ilb_optimize
from .lbo import objective_and_grad
from .metrics import trajectory_divergence
from .modelio import save_model
from .optim import gradient_check
from .rng import derive_rng
from .schedule import coefficients, make_linear_schedule

GRADCHECK_TOL = 1e-4


class GradcheckFailure(InvlabError):
    code = "gradcheck-failed"


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as a ConfigError instead of exiting."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}", usage=self.format_usage().strip())


def _build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="run config JSON")
    common.add_argument("--seed", type=int, metavar="N", help="override config seed")
    common.add_argument("--out", metavar="DIR", default="out", help="artifact directory")
    common.add_argument("--method", metavar="NAME", help="inversion method, e.g. lbo-n+ilb")
    common.add_argument("--steps", type=int, metavar="S", help="override inference grid size")
    common.add_argument("--dt", type=int, metavar="K", help="override boosting skip timestep")
    common.add_argument("--no-ilb", action="store_true", help="drop '+ilb' from methods")

    parser = _Parser(prog="invlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=fn.__doc__)
        p.set_defaults(fn=fn)
    return parser


def _resolve_config(args) -> RunConfig:
    """The config file with the flags written over it, parsed and checked as one document."""
    cfg = load_config(args.config) if args.config else RunConfig()
    doc = cfg.to_json_dict()
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.steps is not None:
        doc["steps"] = args.steps
    if args.dt is not None:
        doc["ilb"]["dt"] = args.dt
    if args.no_ilb:
        doc["methods"] = list(base_methods(cfg.methods))
    return config_from_json_dict(doc)


def _method_arg(args, default: str = "ddim") -> str:
    method = args.method if args.method else default
    base, use_ilb = parse_method(method)
    return base if args.no_ilb and use_ilb else method


def _write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps(payload, sort_keys=True, indent=2))
        f.write("\n")


def cmd_gen_data(cfg: RunConfig, args, out: Path) -> dict:
    """Write the config's dataset as a canonical JSON file."""
    ds = cfg.dataset
    payload = gen_dataset(ds.count, cfg.seed, ds.height, ds.width)
    path = out / "shapes.json"
    save_dataset(payload, path)
    return {"written": str(path), "kind": payload["kind"], "n": ds.count}


def cmd_train_denoiser(cfg: RunConfig, args, out: Path) -> dict:
    """Fit the MLP noise predictor on the encoded fit images and persist it."""
    if cfg.denoiser.kind != "mlp":
        raise ConfigError(f"train-denoiser needs denoiser.kind 'mlp', got {cfg.denoiser.kind!r}",
                          key="denoiser.kind")
    sched = make_linear_schedule(cfg.t_train, cfg.beta_start, cfg.beta_end)
    fit_images = make_fit_images(cfg)
    model = build_denoiser(replace(cfg, denoiser=replace(cfg.denoiser, path=None)), sched,
                           build_autoencoder(cfg, fit_images), fit_images)
    path = out / "denoiser.labmdl"
    save_model(model, path)
    return {"written": str(path), "final_loss": model.final_loss,
            "trained_epochs": model.trained_epochs, "latent_dim": model.latent_dim,
            "n_classes": model.n_classes}


def cmd_train_autoencoder(cfg: RunConfig, args, out: Path) -> dict:
    """Fit the linear autoencoder on the config's images and persist it."""
    if cfg.autoencoder.kind != "linear":
        raise ConfigError(
            f"train-autoencoder needs autoencoder.kind 'linear', got {cfg.autoencoder.kind!r}",
            key="autoencoder.kind")
    ae = build_autoencoder(replace(cfg, autoencoder=replace(cfg.autoencoder, path=None)),
                           make_fit_images(cfg))
    path = out / "autoencoder.labmdl"
    save_model(ae, path)
    return {"written": str(path), "latent_dim": ae.latent_dim,
            "image_shape": list(ae.image_shape)}


def cmd_sample(cfg: RunConfig, args, out: Path) -> dict:
    """Generate from seeded Gaussian noise and decode the result."""
    b = BenchmarkBackends(cfg)
    z_t = derive_rng(cfg.seed, "sample").standard_normal(b.ae.latent_dim)
    traj = replay(b, z_t)
    image = np.clip(b.ae.decode(traj.latent_at(0)), 0.0, 1.0)
    traj_path = out / "trajectory.json"
    _write_json(traj_path, traj.to_json_dict())
    img_path = out / "sample.json"
    _write_json(img_path, {"image": image.tolist()})
    return {"trajectory": str(traj_path), "image": str(img_path)}


def cmd_invert(cfg: RunConfig, args, out: Path) -> dict:
    """Invert one encoded instance; write trajectory + per-step reports."""
    b = BenchmarkBackends(cfg)
    method = _method_arg(args)
    base, use_ilb = parse_method(method)
    traj, reports = invert_latent(b, start_latent(b, b.images[0], use_ilb), base)
    traj_path = out / "trajectory.json"
    _write_json(traj_path, traj.to_json_dict())
    rep_path = out / "step_reports.json"
    _write_json(rep_path, [r.to_json_dict() for r in reports])
    return {"method": method, "trajectory": str(traj_path), "step_reports": str(rep_path)}


def cmd_ilb(cfg: RunConfig, args, out: Path) -> dict:
    """Boost one instance's image latent; write report, trace CSV and latent."""
    b = BenchmarkBackends(cfg)
    x0 = b.images[0]
    z0_opt, report = ilb_optimize(x0, b.ae, b.model, b.sched, b.perc, b.ilb_cfg, b.condition)
    rep_path = out / "ilb_report.json"
    _write_json(rep_path, report.to_json_dict())
    trace_path = out / "ilb_trace.csv"
    with open(trace_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("iter", "l_con", "l_reg", "total"))
        writer.writerow((0, report.initial_con, report.initial_reg, report.initial_total))
        for row in report.trace:
            writer.writerow(row)
    z_path = out / "z0_opt.json"
    _write_json(z_path, {"z0": z0_opt.tolist()})
    return {"report": str(rep_path), "trace": str(trace_path), "z0": str(z_path),
            "iters_used": report.iters_used, "final_total": report.final_total}


def cmd_roundtrip(cfg: RunConfig, args, out: Path) -> dict:
    """Full encode -> invert -> replay -> decode pass on one instance."""
    b = BenchmarkBackends(cfg)
    method = _method_arg(args)
    row = evaluate_instance(b, 0, method)
    result = {"method": method, **{name: getattr(row, name) for name in METRIC_FIELDS}}
    _write_json(out / "roundtrip.json", result)
    return result


def cmd_gradcheck(cfg: RunConfig, args, out: Path) -> dict:
    """Compare every assembled gradient against central finite differences."""
    b = BenchmarkBackends(cfg)
    d = b.ae.latent_dim
    c = b.condition
    t_prev, t = b.grid.transitions()[-1]
    co = coefficients(b.sched, t, t_prev)
    errors = {"model_vjp": 0.0, "lbo_objective": 0.0, "ilb_total": 0.0}
    for probe in range(5):
        rng = derive_rng(cfg.seed, "gradcheck", probe)
        z = rng.standard_normal(d)
        v = rng.standard_normal(d)
        errors["model_vjp"] = max(errors["model_vjp"], gradient_check(
            lambda x: float(v @ b.model.eval(x, t, c)),
            b.model.vjp(z, t, c, v), z))
        z_prev = rng.standard_normal(d)
        bias = 0.1 * rng.standard_normal(d)
        errors["lbo_objective"] = max(errors["lbo_objective"], gradient_check(
            lambda x: objective_and_grad(b.model, co, z_prev, c, x)[0],
            objective_and_grad(b.model, co, z_prev, c, bias)[1], bias))
        x0 = b.images[probe % len(b.images)]
        z0 = b.ae.encode(x0) + 0.05 * rng.standard_normal(d)
        errors["ilb_total"] = max(errors["ilb_total"], gradient_check(
            lambda x: ilb_loss_and_grad(x0, x, b.ae, b.model, b.sched, b.perc,
                                        b.ilb_cfg, c)[2],
            ilb_loss_and_grad(x0, z0, b.ae, b.model, b.sched, b.perc,
                              b.ilb_cfg, c)[3], z0))
    worst = max(errors.values())
    result = {**errors, "max_rel_error": worst, "threshold": GRADCHECK_TOL,
              "pass": worst <= GRADCHECK_TOL}
    _write_json(out / "gradcheck.json", result)
    if not result["pass"]:
        raise GradcheckFailure(f"max relative error {worst:.3e} above {GRADCHECK_TOL}", **errors)
    return result


def cmd_report_plot_data(cfg: RunConfig, args, out: Path) -> dict:
    """Per-timestep inversion/generation divergence for each configured method."""
    if args.method:
        cfg = replace(cfg, methods=(_method_arg(args),))
    b = BenchmarkBackends(cfg)
    z0 = b.ae.encode(b.images[0])
    path = out / "divergence.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("method", "t", "l2_divergence"))
        for base in base_methods(cfg.methods):
            inv, _ = invert_latent(b, z0, base)
            div = trajectory_divergence(inv, replay(b, inv.latent_at(b.sched.t_train)))
            for t, value in zip(inv.timesteps(), div):
                writer.writerow((base, t, value))
    return {"written": str(path)}


def cmd_benchmark(cfg: RunConfig, args, out: Path) -> dict:
    """Run the full methods × instances grid; write CSV rows and JSON summary."""
    if args.method:
        cfg = replace(cfg, methods=(_method_arg(args),))
    rows, _ = run_benchmark(cfg, out)
    return {"rows": len(rows), "csv": str(out / "benchmark.csv"),
            "summary": str(out / "summary.json")}


_COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-denoiser": cmd_train_denoiser,
    "train-autoencoder": cmd_train_autoencoder,
    "sample": cmd_sample,
    "invert": cmd_invert,
    "ilb": cmd_ilb,
    "roundtrip": cmd_roundtrip,
    "gradcheck": cmd_gradcheck,
    "report-plot-data": cmd_report_plot_data,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        result = args.fn(cfg, args, out)
    except InvlabError as e:
        print(json.dumps(e.to_json_dict(), sort_keys=True, default=str))
        return 2
    except OSError as e:
        print(json.dumps({"code": "io-error", "message": str(e), "context": {}}, sort_keys=True))
        return 3
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

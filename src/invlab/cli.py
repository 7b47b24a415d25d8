"""Experiment harness around the library: data, training, runs, benchmark.

Every subcommand reads one JSON run config (all defaults embedded, unknown
keys rejected), writes each flag over its config key, runs on that config
alone, writes its artifacts under --out and prints a one-line JSON result to
stdout. Failures exit nonzero and print ``{code, message, context}``. Every
JSON it writes is strict: a non-finite float is written as null.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .benchmark import (METRIC_FIELDS, BenchmarkBackends, RunConfig, base_methods,
                        build_autoencoder, build_denoiser, config_from_json_dict,
                        evaluate_instance, invert_latent, json_text, load_config,
                        make_fit_images, parse_method, replay, run_benchmark, start_latent,
                        write_json)
from .data import gen_dataset, save_dataset
from .errors import ConfigError, InvlabError
from .ilb import TRACE_COLUMNS, ilb_optimize
from .metrics import trajectory_divergence
from .modelio import save_model
from .rng import derive_rng
from .schedule import make_linear_schedule


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


# the section each train command builds, rather than loads from its path
_TRAINED_SECTION = {"train-denoiser": "denoiser", "train-autoencoder": "autoencoder"}


def _resolve_config(args) -> RunConfig:
    """The config file, checked alone, with each flag written over its key and the
    result checked again: --seed, --steps, --dt and --method write seed, steps,
    ilb.dt and methods, and --no-ilb then strips '+ilb' from methods once checked.
    A train command nulls its section's path, so the check sizes what it trains."""
    cfg = load_config(args.config) if args.config else RunConfig()
    doc = cfg.to_json_dict()
    if args.command in _TRAINED_SECTION:
        doc[_TRAINED_SECTION[args.command]]["path"] = None
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.steps is not None:
        doc["steps"] = args.steps
    if args.dt is not None:
        doc["ilb"]["dt"] = args.dt
    if args.method is not None:
        doc["methods"] = [args.method]
    if args.no_ilb:
        doc["methods"] = list(base_methods(config_from_json_dict(doc).methods))
    return config_from_json_dict(doc)


def cmd_gen_data(cfg: RunConfig, out: Path) -> dict:
    """Write the config's dataset as a canonical JSON file."""
    ds = cfg.dataset
    payload = gen_dataset(ds.count, cfg.seed, ds.height, ds.width)
    path = out / "shapes.json"
    save_dataset(payload, path)
    return {"written": str(path), "kind": payload["kind"], "n": ds.count}


def cmd_train_denoiser(cfg: RunConfig, out: Path) -> dict:
    """Fit the MLP noise predictor on the encoded fit images and persist it."""
    if cfg.denoiser.kind != "mlp":
        raise ConfigError(f"train-denoiser needs denoiser.kind 'mlp', got {cfg.denoiser.kind!r}",
                          key="denoiser.kind")
    sched = make_linear_schedule(cfg.t_train, cfg.beta_start, cfg.beta_end)
    fit_images = make_fit_images(cfg)
    model = build_denoiser(cfg, sched, build_autoencoder(cfg, fit_images), fit_images)
    path = out / "denoiser.labmdl"
    save_model(model, path)
    return {"written": str(path), "final_loss": model.final_loss,
            "trained_epochs": cfg.denoiser.train.max_epochs, "latent_dim": model.latent_dim}


def cmd_train_autoencoder(cfg: RunConfig, out: Path) -> dict:
    """Fit the linear autoencoder on the config's images and persist it."""
    if cfg.autoencoder.kind != "linear":
        raise ConfigError(
            f"train-autoencoder needs autoencoder.kind 'linear', got {cfg.autoencoder.kind!r}",
            key="autoencoder.kind")
    ae = build_autoencoder(cfg, make_fit_images(cfg))
    path = out / "autoencoder.labmdl"
    save_model(ae, path)
    return {"written": str(path), "latent_dim": ae.latent_dim,
            "image_shape": list(ae.image_shape)}


def cmd_sample(cfg: RunConfig, out: Path) -> dict:
    """Generate from seeded Gaussian noise and decode the result."""
    b = BenchmarkBackends(cfg)
    z_t = derive_rng(cfg.seed, "sample").standard_normal(b.ae.latent_dim)
    traj = replay(b, z_t)
    image = np.clip(b.ae.decode(traj.end), 0.0, 1.0)
    traj_path = out / "trajectory.json"
    write_json(traj_path, traj.to_json_dict())
    img_path = out / "sample.json"
    write_json(img_path, {"image": image.tolist()})
    return {"trajectory": str(traj_path), "image": str(img_path)}


def cmd_invert(cfg: RunConfig, out: Path) -> dict:
    """Invert one encoded instance with the first method; write trajectory + per-step reports."""
    b = BenchmarkBackends(cfg)
    method = cfg.methods[0]
    base, use_ilb = parse_method(method)
    traj, reports = invert_latent(b, start_latent(b, b.images[0], use_ilb), base)
    traj_path = out / "trajectory.json"
    write_json(traj_path, traj.to_json_dict())
    rep_path = out / "step_reports.json"
    write_json(rep_path, [asdict(r) for r in reports])
    return {"method": method, "trajectory": str(traj_path), "step_reports": str(rep_path)}


def cmd_ilb(cfg: RunConfig, out: Path) -> dict:
    """Boost one instance's image latent; write report, trace CSV and latent."""
    b = BenchmarkBackends(cfg)
    x0 = b.images[0]
    z0_opt, report = ilb_optimize(x0, b.ae, b.model, b.sched, b.perc, b.ilb_cfg)
    rep_path = out / "ilb_report.json"
    write_json(rep_path, {**asdict(report),
                          "trace": [dict(zip(TRACE_COLUMNS, row)) for row in report.trace]})
    trace_path = out / "ilb_trace.csv"
    with open(trace_path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(TRACE_COLUMNS)
        writer.writerow((0, report.initial_con, report.initial_reg, report.initial_total))
        for row in report.trace:
            writer.writerow(row)
    z_path = out / "z0_opt.json"
    write_json(z_path, {"z0": z0_opt.tolist()})
    return {"report": str(rep_path), "trace": str(trace_path), "z0": str(z_path),
            "iters_used": report.iters_used, "final_total": report.final_total}


def cmd_roundtrip(cfg: RunConfig, out: Path) -> dict:
    """Full encode -> invert -> replay -> decode pass on one instance with the first method."""
    b = BenchmarkBackends(cfg)
    method = cfg.methods[0]
    row = evaluate_instance(b, 0, method)
    result = {"method": method, **{name: getattr(row, name) for name in METRIC_FIELDS}}
    write_json(out / "roundtrip.json", result)
    return result


def cmd_report_plot_data(cfg: RunConfig, out: Path) -> dict:
    """Per-timestep inversion/generation divergence for each configured method."""
    b = BenchmarkBackends(cfg)
    z0 = b.ae.encode(b.images[0])
    path = out / "divergence.csv"
    with open(path, "w", newline="", encoding="utf-8") as f:
        writer = csv.writer(f)
        writer.writerow(("method", "t", "l2_divergence"))
        for base in base_methods(cfg.methods):
            inv, _ = invert_latent(b, z0, base)
            div = trajectory_divergence(inv, replay(b, inv.end))
            for t, value in zip(inv.timesteps(), div):
                writer.writerow((base, t, value))
    return {"written": str(path)}


def cmd_benchmark(cfg: RunConfig, out: Path) -> dict:
    """Run the full methods × instances grid; write CSV rows and JSON summary."""
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
    "report-plot-data": cmd_report_plot_data,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = _resolve_config(args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        result = args.fn(cfg, out)
    except InvlabError as e:
        print(json_text(e.to_json_dict(), default=str))
        return 2
    except OSError as e:
        print(json_text({"code": "io-error", "message": str(e), "context": {}}))
        return 3
    print(json_text(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

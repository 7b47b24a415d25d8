"""Command-line interface, exercised through main(argv)."""

import csv
import functools
import json
import math
import operator
import struct
from pathlib import Path

import numpy as np
import pytest
from conftest import (json_leaves, key_path, read_model_file, set_json_leaf, strict_json,
                      write_model_file)
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import invlab.benchmark
from invlab.benchmark import METRIC_FIELDS, BenchmarkBackends, RunConfig, config_from_json_dict
from invlab.cli import _COMMANDS, main
from invlab.data import gen_dataset, save_dataset
from invlab.lbo import LboConfig
from invlab.modelio import load_model, save_model

SMALL = {
    "seed": 3,
    "steps": 6,
    "t_train": 60,
    "dataset": {"count": 2, "height": 8, "width": 8},
    "autoencoder": {"fit_count": 16},
    "methods": ["ddim", "lbo-n"],
}


@pytest.fixture
def small_cfg(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, json.loads(out)


# ---------------------------------------------------------------- plumbing


def test_success_prints_sorted_json(capsys, small_cfg, tmp_path):
    code, doc = run_cli(capsys, "gen-data", "--config", small_cfg,
                        "--out", str(tmp_path / "o"))
    assert code == 0
    assert doc["kind"] == "shapes" and doc["n"] == 2
    # and a second run writes the same file
    run_cli(capsys, "gen-data", "--config", small_cfg, "--out", str(tmp_path / "b"))
    assert (tmp_path / "o" / "shapes.json").read_bytes() == \
        (tmp_path / "b" / "shapes.json").read_bytes()


def test_library_error_prints_json_and_exits_2(capsys, small_cfg, tmp_path):
    # default denoiser kind is analytic, which train-denoiser refuses
    code, doc = run_cli(capsys, "train-denoiser", "--config", small_cfg,
                        "--out", str(tmp_path / "o"))
    assert code == 2
    assert doc["code"] == "config-error"
    assert "mlp" in doc["message"]
    assert isinstance(doc["context"], dict)


@pytest.mark.parametrize("text,says", [(b"{not json", "not valid JSON"),
                                       (b'{"seed": 1, "x": "\xff"}', "not valid JSON"),
                                       (b"[" * 100_000 + b"]" * 100_000, "not valid JSON"),
                                       (b"[1, 2]", "document must be a JSON object")],
                         ids=["not-json", "not-utf8", "nested-too-deep", "not-an-object"])
def test_unreadable_config_file_exits_2(capsys, tmp_path, text, says):
    path = tmp_path / "bad.json"
    path.write_bytes(text)
    code, out = run_cli(capsys, "roundtrip", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 2 and out["code"] == "config-error" and says in out["message"]


def test_unwritable_out_exits_3(capsys, small_cfg, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code, doc = run_cli(capsys, "gen-data", "--config", small_cfg,
                        "--out", str(blocker / "sub"))
    assert code == 3 and doc["code"] == "io-error"


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_method_flag_writes_methods_for_every_command(capsys, small_cfg, tmp_path, command):
    code, doc = run_cli(capsys, command, "--config", small_cfg, "--method", "bogus",
                        "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == "config-error" and doc["context"]["key"] == "methods"


@pytest.mark.parametrize("command", ["invert", "roundtrip"])
def test_one_instance_commands_run_the_first_configured_method(capsys, tmp_path, command):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**SMALL, "methods": ["lbo-h", "ddim"]}))
    code, doc = run_cli(capsys, command, "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 0 and doc["method"] == "lbo-h"


@pytest.mark.parametrize("argv", [
    ["roundtrip", "--guidance", "2"],  # unknown flag
    ["roundtrip", "--seed", "x"],  # ill-typed flag value
    ["bogus"],  # unknown subcommand
    ["gradcheck"],  # a former subcommand: the gradient checks are tests
    [],  # no subcommand
])
def test_rejected_command_line_prints_json_and_exits_2(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    doc = json.loads(captured.out)
    assert code == 2 and doc["code"] == "config-error"
    assert doc["message"].startswith("invlab") and "usage" in doc["context"]
    assert captured.err == ""


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_:
        main(["roundtrip", "--help"])
    assert exit_.value.code == 0
    assert "--config" in capsys.readouterr().out


# ---------------------------------------------------------------- commands


def test_train_autoencoder_writes_loadable_model(capsys, small_cfg, tmp_path):
    code, doc = run_cli(capsys, "train-autoencoder", "--config", small_cfg,
                        "--out", str(tmp_path / "o"))
    assert code == 0 and doc["latent_dim"] == 16  # quarter of 8*8 pixels
    ae = load_model(tmp_path / "o" / "autoencoder.labmdl")
    assert ae.latent_dim == 16 and ae.image_shape == (8, 8, 1)
    # on the default config the saved model is the one the benchmark builds
    code, _ = run_cli(capsys, "train-autoencoder", "--seed", "7", "--out", str(tmp_path / "d"))
    assert code == 0
    saved = load_model(tmp_path / "d" / "autoencoder.labmdl")
    built = BenchmarkBackends(RunConfig(seed=7)).ae
    assert built.leak is not None
    for name in ("w", "mean", "leak"):
        np.testing.assert_array_equal(getattr(saved, name), getattr(built, name))


def test_train_autoencoder_refuses_the_identity_kind(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**SMALL, "autoencoder": {"kind": "identity"}}))
    code, doc = run_cli(capsys, "train-autoencoder", "--config", str(path),
                        "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == "config-error"
    assert doc["context"]["key"] == "autoencoder.kind" and "'identity'" in doc["message"]
    assert not (tmp_path / "o" / "autoencoder.labmdl").exists()


def test_train_denoiser_writes_loadable_model(capsys, tmp_path):
    doc = dict(SMALL)
    doc["autoencoder"] = {"fit_count": 32}
    doc["denoiser"] = {
        "kind": "mlp",
        "train": {"width": 8, "max_epochs": 2, "batch_size": 4},
    }
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    code, res = run_cli(capsys, "train-denoiser", "--config", str(path),
                        "--out", str(tmp_path / "o"))
    assert code == 0
    assert res["trained_epochs"] == 2 and np.isfinite(res["final_loss"])
    model = load_model(tmp_path / "o" / "denoiser.labmdl")
    assert model.latent_dim == res["latent_dim"]
    # the autoencoder under the training latents is fitted on all fit_count images
    built = BenchmarkBackends(config_from_json_dict(doc)).model
    assert model.params.keys() == built.params.keys()
    for name, value in built.params.items():
        np.testing.assert_array_equal(model.params[name], value)


# a shapes file without images, and a file of a kind that is not shapes
@pytest.mark.parametrize("command,kind", [("roundtrip", "shapes"), ("benchmark", "gauss2d")])
def test_malformed_dataset_file_exits_2(capsys, tmp_path, command, kind):
    (tmp_path / "d.json").write_text(json.dumps({"kind": kind, "n": 3}))
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**SMALL, "dataset": {"count": 2, "height": 8, "width": 8,
                                                     "path": str(tmp_path / "d.json")},
                                "denoiser": {"kind": "mlp"}}))
    code, doc = run_cli(capsys, command, "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == "format-error"
    assert str(tmp_path / "d.json") in doc["message"]


def test_sample_writes_trajectory_and_image(capsys, small_cfg, tmp_path):
    code, doc = run_cli(capsys, "sample", "--config", small_cfg,
                        "--out", str(tmp_path / "o"))
    assert code == 0
    traj = json.loads((tmp_path / "o" / "trajectory.json").read_text())
    assert traj["direction"] == "generation"
    assert traj["entries"][0]["t"] == 60 and traj["entries"][-1]["t"] == 0
    img = np.asarray(json.loads((tmp_path / "o" / "sample.json").read_text())["image"])
    assert img.shape == (8, 8, 1)
    assert 0.0 <= img.min() < img.max() <= 1.0


def test_invert_lbo_writes_step_reports(capsys, small_cfg, tmp_path):
    code, doc = run_cli(capsys, "invert", "--config", small_cfg,
                        "--method", "lbo-n", "--out", str(tmp_path / "o"))
    assert code == 0 and doc["method"] == "lbo-n"
    reports = json.loads((tmp_path / "o" / "step_reports.json").read_text())
    assert len(reports) == SMALL["steps"]
    assert all(r["converged"] for r in reports)
    traj = json.loads((tmp_path / "o" / "trajectory.json").read_text())
    assert traj["direction"] == "inversion"
    assert len(traj["entries"]) == SMALL["steps"] + 1


def test_invert_default_is_one_shot(capsys, small_cfg, tmp_path):
    code, doc = run_cli(capsys, "invert", "--config", small_cfg,
                        "--out", str(tmp_path / "o"))
    assert code == 0 and doc["method"] == "ddim"
    assert json.loads((tmp_path / "o" / "step_reports.json").read_text()) == []


def test_ilb_writes_report_trace_and_latent(capsys, small_cfg, tmp_path):
    code, doc = run_cli(capsys, "ilb", "--config", small_cfg,
                        "--out", str(tmp_path / "o"))
    assert code == 0
    report = json.loads((tmp_path / "o" / "ilb_report.json").read_text())
    assert report["iters_used"] == doc["iters_used"]
    with open(tmp_path / "o" / "ilb_trace.csv", newline="") as f:
        recs = list(csv.reader(f))
    assert recs[0] == ["iter", "l_con", "l_reg", "total"]
    assert recs[1][0] == "0"  # starting point before any update
    assert len(recs) == 2 + report["iters_used"]
    z0 = np.asarray(json.loads((tmp_path / "o" / "z0_opt.json").read_text())["z0"])
    assert z0.shape == (16,)
    assert doc["final_total"] <= report["initial_total"]


def test_report_plot_data_dedups_methods(capsys, tmp_path):
    doc = dict(SMALL)
    doc["methods"] = ["ddim", "lbo-n", "lbo-n+ilb"]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    code, res = run_cli(capsys, "report-plot-data", "--config", str(path),
                        "--out", str(tmp_path / "o"))
    assert code == 0
    with open(tmp_path / "o" / "divergence.csv", newline="") as f:
        recs = list(csv.DictReader(f))
    assert {r["method"] for r in recs} == {"ddim", "lbo-n"}
    per = {m: [r for r in recs if r["method"] == m] for m in ("ddim", "lbo-n")}
    for rows in per.values():
        assert len(rows) == SMALL["steps"] + 1
        assert float(rows[-1]["l2_divergence"]) == 0.0  # shared endpoint
    assert max(float(r["l2_divergence"]) for r in per["lbo-n"]) < 1e-8
    assert max(float(r["l2_divergence"]) for r in per["ddim"]) > 1e-3


def test_benchmark_command_and_flag_overrides(capsys, small_cfg, tmp_path):
    code, doc = run_cli(capsys, "benchmark", "--config", small_cfg,
                        "--out", str(tmp_path / "o"),
                        "--steps", "4", "--method", "lbo-h",
                        "--dt", "5", "--seed", "123")
    assert code == 0 and doc["rows"] == 2  # 2 instances x 1 method
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    echoed = summary["config"]
    assert echoed["steps"] == 4 and echoed["methods"] == ["lbo-h"]
    assert echoed["ilb"]["dt"] == 5 and echoed["seed"] == 123


def test_no_ilb_strips_and_dedups(capsys, tmp_path):
    doc = dict(SMALL)
    doc["methods"] = ["ddim", "ddim+ilb", "lbo-n+ilb"]
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    code, res = run_cli(capsys, "benchmark", "--config", str(path),
                        "--no-ilb", "--out", str(tmp_path / "o"))
    assert code == 0
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["methods"] == ["ddim", "lbo-n"]
    # the flag also strips an explicit --method suffix
    code, res = run_cli(capsys, "roundtrip", "--config", str(path), "--no-ilb",
                        "--method", "lbo-n+ilb", "--out", str(tmp_path / "r"))
    assert code == 0 and res["method"] == "lbo-n"


def test_steps_flag_beyond_t_train_exits_2(capsys, small_cfg, tmp_path):
    code, doc = run_cli(capsys, "benchmark", "--config", small_cfg, "--steps", "500",
                        "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == "config-error"
    assert doc["context"]["key"] == "steps" and "steps" in doc["message"]


# (what the 8x8 file holds, the run's image size, the error it exits with)
UNFIT_DATASETS = [
    ({"images": [[[[0.5]] * 8] * 8]}, (8, 8), "config-error"),  # one image, two wanted
    ({}, (12, 12), "config-error"),
    ({"images": [[[[float("nan")]] * 8] * 8] * 3}, (8, 8), "config-error"),
]


@pytest.mark.parametrize("change,size,error", UNFIT_DATASETS)
def test_dataset_file_that_does_not_fit_exits_2(capsys, tmp_path, change, size, error):
    payload = gen_dataset(3, seed=1, height=8, width=8)
    save_dataset({**payload, **change}, tmp_path / "d.json")
    path = tmp_path / "run.json"
    dataset = {"count": 2, "height": size[0], "width": size[1], "path": str(tmp_path / "d.json")}
    path.write_text(json.dumps({**SMALL, "dataset": dataset}))
    code, doc = run_cli(capsys, "benchmark", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == error
    if error == "config-error":
        assert doc["context"]["key"] == "dataset.path"
    assert not (tmp_path / "o" / "benchmark.csv").exists()


# ---------------------------------------------------------------- model files


def _model_files(capsys, small_cfg, tmp_path):
    """The SMALL run's leaky autoencoder and analytic denoiser, saved; (ae path, denoiser path)."""
    code, _ = run_cli(capsys, "train-autoencoder", "--config", small_cfg,
                      "--out", str(tmp_path / "m"))
    assert code == 0
    den = tmp_path / "m" / "denoiser.labmdl"
    save_model(BenchmarkBackends(config_from_json_dict(SMALL)).model, den)
    return tmp_path / "m" / "autoencoder.labmdl", den


def _config_using(tmp_path, ae, den=None) -> str:
    doc = {**SMALL, "autoencoder": {"fit_count": 16, "path": str(ae)}}
    if den:
        doc["denoiser"] = {"kind": "mlp", "path": str(den)}
    (tmp_path / "uses.json").write_text(json.dumps(doc))
    return str(tmp_path / "uses.json")


def test_model_file_whose_kind_is_not_a_string_exits_2(capsys, small_cfg, tmp_path):
    ae, _ = _model_files(capsys, small_cfg, tmp_path)
    header, body = read_model_file(ae)
    write_model_file(ae, {**header, "kind": ["x"]}, body)
    code, doc = run_cli(capsys, "roundtrip", "--config", _config_using(tmp_path, ae),
                        "--out", str(tmp_path / "r"))
    assert code == 2 and doc["code"] == "format-error"
    assert doc["context"]["key"] == "autoencoder.path" and str(ae) in doc["message"]


@pytest.mark.parametrize("key,array", [("autoencoder.path", "w"), ("autoencoder.path", "mean"),
                                       ("autoencoder.path", "leak"), ("denoiser.path", "mu"),
                                       ("denoiser.path", "sigma"), ("denoiser.path", "betas")])
def test_non_finite_model_array_exits_2(capsys, small_cfg, tmp_path, key, array):
    files = dict(zip(("autoencoder.path", "denoiser.path"),
                     _model_files(capsys, small_cfg, tmp_path)))
    cfg = _config_using(tmp_path, files["autoencoder.path"], files["denoiser.path"])
    # the files as saved run
    code, _ = run_cli(capsys, "roundtrip", "--config", cfg, "--out", str(tmp_path / "r"))
    assert code == 0
    header, body = read_model_file(files[key])
    offset = 0
    for entry in header["arrays"]:
        if entry["name"] == array:
            break
        offset += 8 * math.prod(entry["shape"])
    body = body[:offset] + struct.pack("<d", math.nan) + body[offset + 8:]
    write_model_file(files[key], header, body)
    code, doc = run_cli(capsys, "roundtrip", "--config", cfg, "--out", str(tmp_path / "r"))
    assert code == 2 and doc["code"] == "format-error"
    assert doc["context"]["key"] == key and str(files[key]) in doc["message"]


def test_large_leak_scale_runs_with_finite_metrics(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**SMALL, "autoencoder": {"fit_count": 16, "leak_scale": 1e6}}))
    code, doc = run_cli(capsys, "roundtrip", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 0
    assert all(math.isfinite(doc[name]) for name in METRIC_FIELDS)


@pytest.mark.parametrize("method", ["ddim", "lbo-g", "lbo-n", "lbo-h", "ddim+ilb", "lbo-g+ilb",
                                    "lbo-n+ilb", "lbo-h+ilb"])
def test_every_method_round_trips_the_analytic_oracle_with_finite_metrics(capsys, tmp_path,
                                                                           method):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SMALL))
    code, doc = run_cli(capsys, "roundtrip", "--config", str(path), "--method", method,
                        "--out", str(tmp_path / "o"))
    assert code == 0 and doc["method"] == method
    assert all(math.isfinite(doc[name]) for name in METRIC_FIELDS)
    assert json.loads((tmp_path / "o" / "roundtrip.json").read_text()) == doc


@pytest.mark.parametrize("command", ["roundtrip", "sample"])
def test_schedule_whose_alpha_bar_underflows_exits_2_naming_beta_end(capsys, tmp_path, command):
    # alpha_bar reaches 0.0 at t = 708, where the step coefficients divide by it
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"t_train": 1000, "beta_start": 0.5, "beta_end": 0.9,
                                "dataset": {"count": 1}, "methods": ["ddim"]}))
    code, doc = run_cli(capsys, command, "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == "config-error" and doc["context"]["key"] == "beta_end"


def test_non_finite_round_trip_exits_2(capsys, tmp_path, monkeypatch):
    # Adam steps of 1e300 leave a z_T whose round-trip norm overflows to inf
    monkeypatch.setitem(invlab.benchmark.LBO_CONFIGS, "lbo-g", LboConfig("gradient", lr=1e300))
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SMALL))
    code, doc = run_cli(capsys, "roundtrip", "--config", str(path), "--method", "lbo-g",
                        "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == "divergence"


# ---------------------------------------------------------------- generated command lines

FLAGS = ("--config", "--seed", "--out", "--method", "--steps", "--dt", "--no-ilb")
FLAG_VALUES = ("0", "-1", "1", str(2**63), "x", "lbo-n+ilb")
# every subcommand runs on it in milliseconds, train-denoiser included
TINY = {"t_train": 8, "steps": 2, "dataset": {"count": 1, "height": 5, "width": 5},
        "autoencoder": {"fit_count": 2}, "ilb": {"max_iters": 2}, "methods": ["ddim"],
        "denoiser": {"kind": "mlp", "train": {"width": 2, "max_epochs": 1}}}


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_generated_command_line_exits_0_2_or_3_with_one_strict_json_line(capsys, tmp_path,
                                                                         monkeypatch, data):
    # relative --out and --config values land in tmp_path
    monkeypatch.chdir(tmp_path)
    (tmp_path / "tiny.json").write_text(json.dumps(TINY))
    argv = [data.draw(st.sampled_from(sorted(_COMMANDS))), "--config", "tiny.json"]
    for flag in data.draw(st.lists(st.sampled_from(FLAGS), max_size=3, unique=True)):
        argv += [flag] if flag == "--no-ilb" else [flag, data.draw(st.sampled_from(FLAG_VALUES))]
    code = main(argv)
    lines = capsys.readouterr().out.splitlines()
    assert code in (0, 2, 3) and len(lines) == 1, (argv, code, lines)
    doc = strict_json(lines[0])
    if code != 0:
        assert sorted(doc) == ["code", "context", "message"], (argv, doc)


# ---------------------------------------------------------------- combined config keys

# a config with every section written out, at the tiny sizes: 5x5 images, one instance,
# and a method of each kind: the one-shot inversion, an LBO solver and ILB
TINY_RUN = config_from_json_dict({**TINY, "denoiser": {"train": TINY["denoiser"]["train"]},
                                  "methods": ["ddim", "lbo-g", "lbo-n+ilb"]}).to_json_dict()
# each key's values, in and out of its range; sizes stay tiny: at most 3 steps, 2 instances
# and an MLP 4 wide
KEY_VALUES = {
    "seed": st.sampled_from([0, 1, -7, 2**63]),
    "t_train": st.integers(1, 12),
    "steps": st.integers(1, 3),
    "beta_start": st.sampled_from([1e-4, 0.1, 0.5]),
    "beta_end": st.sampled_from([0.05, 0.3, 0.9, 0.999]),
    "record_timing": st.booleans(),
    "methods": st.lists(st.sampled_from(["ddim", "lbo-g", "lbo-n", "lbo-h", "ddim+ilb",
                                         "lbo-g+ilb", "lbo-n+ilb", "lbo-h+ilb"]),
                        min_size=1, max_size=3, unique=True),
    "dataset.count": st.integers(1, 2),
    "denoiser.kind": st.sampled_from(["analytic", "mlp"]),
    "denoiser.train.width": st.integers(1, 4),
    "denoiser.train.max_epochs": st.integers(0, 2),
    "denoiser.train.batch_size": st.integers(1, 3),
    "denoiser.train.lr": st.sampled_from([1e-3, 1.0, 1e3]),
    "autoencoder.kind": st.sampled_from(["linear", "identity"]),
    "autoencoder.latent_frac": st.sampled_from([0.04, 0.5, 1.0]),
    "autoencoder.fit_count": st.integers(2, 3),
    "autoencoder.leak_scale": st.sampled_from([0.0, 1.8, 1e6]),
    "ilb.lr": st.sampled_from([1e-3, 0.1, 1e3]),
    "ilb.max_iters": st.integers(1, 2),
    "ilb.rel_tol": st.sampled_from([1e-5, 1.0]),
    "ilb.dt": st.sampled_from([None, 1, 3, 12]),
    "ilb.use_reg": st.booleans(),
    "ilb.weights": st.sampled_from([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 5.0, 0.0]]),
}
CODES = {"invalid-parameter", "divergence", "config-error", "format-error"}

# every float leaf of the tiny run
FLOAT_LEAVES = [leaf for leaf in json_leaves(TINY_RUN)
                if isinstance(functools.reduce(operator.getitem, leaf, TINY_RUN), float)]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("leaf", FLOAT_LEAVES, ids=key_path)
def test_non_finite_float_leaf_exits_2_naming_its_key(capsys, tmp_path, leaf, value):
    # json.load reads Infinity, -Infinity and NaN from a config file
    doc = json.loads(json.dumps(TINY_RUN))
    set_json_leaf(doc, leaf, value)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(doc))
    code, out = run_cli(capsys, "benchmark", "--config", str(path), "--out", str(tmp_path / "o"))
    # a list is named by its key: ilb.weights for each of its entries
    key = ".".join(k for k in leaf if isinstance(k, str))
    assert code == 2 and out["code"] == "config-error" and out["context"]["key"] == key, out


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("path,key", [("denoiser.mu_scale", "denoiser.mu_scale"),
                                      ("denoiser.eig_min", "denoiser.eig_min"),
                                      ("denoiser.eig_max", "denoiser.eig_max"),
                                      ("lbo.tol", "lbo"), ("lbo.lr", "lbo")],
                         ids=["mu_scale", "eig_min", "eig_max", "lbo.tol", "lbo.lr"])
def test_non_finite_value_at_a_former_key_exits_2_as_unknown(capsys, tmp_path, path, key,
                                                             value):
    doc = json.loads(json.dumps(TINY_RUN))
    section, field = path.split(".")
    doc.setdefault(section, {})[field] = value
    (tmp_path / "run.json").write_text(json.dumps(doc))
    code, out = run_cli(capsys, "benchmark", "--config", str(tmp_path / "run.json"),
                        "--out", str(tmp_path / "o"))
    assert code == 2 and out["code"] == "config-error", out
    assert out["context"]["key"] == key and "unknown" in out["message"], out


@settings(max_examples=80, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_combined_config_keys_run_with_finite_metrics_or_exit_2(capsys, tmp_path, monkeypatch,
                                                                data):
    monkeypatch.chdir(tmp_path)
    doc = json.loads(json.dumps(TINY_RUN))
    for key in data.draw(st.lists(st.sampled_from(sorted(KEY_VALUES)), min_size=2, max_size=4,
                                  unique=True)):
        set_json_leaf(doc, key.split("."), data.draw(KEY_VALUES[key]))
    (tmp_path / "run.json").write_text(json.dumps(doc))
    code = main(["benchmark", "--config", "run.json", "--out", "o"])
    lines = capsys.readouterr().out.splitlines()
    assert code in (0, 2) and len(lines) == 1, (doc, code, lines)
    result = strict_json(lines[0])
    if code == 2:
        assert sorted(result) == ["code", "context", "message"] and result["code"] in CODES
        return
    with open("o/benchmark.csv", newline="") as f:
        rows = list(csv.DictReader(f))
    for row in rows:
        if row["error_code"]:
            assert row["error_code"] in CODES and row["error_message"], (doc, row)
        else:
            assert all(math.isfinite(float(row[name])) for name in METRIC_FIELDS), (doc, row)
    strict_json(Path("o/summary.json").read_text())

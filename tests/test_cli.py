"""Command-line interface, exercised through main(argv)."""

import csv
import json
import math
import struct

import numpy as np
import pytest
from conftest import read_model_file, write_model_file

from invlab.benchmark import METRIC_FIELDS, BenchmarkBackends, RunConfig, config_from_json_dict
from invlab.cli import main
from invlab.data import gen_dataset, save_dataset
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
    assert (tmp_path / "o" / "shapes.json").exists()


def test_library_error_prints_json_and_exits_2(capsys, small_cfg, tmp_path):
    # default denoiser kind is analytic, which train-denoiser refuses
    code, doc = run_cli(capsys, "train-denoiser", "--config", small_cfg,
                        "--out", str(tmp_path / "o"))
    assert code == 2
    assert doc["code"] == "config-error"
    assert "mlp" in doc["message"]
    assert isinstance(doc["context"], dict)


def test_unknown_config_key_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"stepz": 6}))
    code, doc = run_cli(capsys, "sample", "--config", str(path),
                        "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == "config-error"


def test_unknown_dataset_kind_exits_2(capsys, tmp_path):
    path = tmp_path / "bad.json"
    doc = dict(SMALL)
    doc["dataset"] = {"kind": "fractal", "count": 2}
    path.write_text(json.dumps(doc))
    code, err = run_cli(capsys, "gen-data", "--config", str(path),
                        "--out", str(tmp_path / "o"))
    assert code == 2 and err["code"] == "config-error"
    assert err["context"]["key"] == "dataset.kind"


def test_unwritable_out_exits_3(capsys, small_cfg, tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    code, doc = run_cli(capsys, "gen-data", "--config", small_cfg,
                        "--out", str(blocker / "sub"))
    assert code == 3 and doc["code"] == "io-error"


def test_bad_method_flag_exits_2(capsys, small_cfg, tmp_path):
    code, doc = run_cli(capsys, "invert", "--config", small_cfg,
                        "--method", "bogus", "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == "config-error"


@pytest.mark.parametrize("argv", [
    ["roundtrip", "--guidance", "2"],  # unknown flag
    ["roundtrip", "--seed", "x"],  # ill-typed flag value
    ["bogus"],  # unknown subcommand
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


def test_gen_data_is_deterministic(capsys, small_cfg, tmp_path):
    run_cli(capsys, "gen-data", "--config", small_cfg, "--out", str(tmp_path / "a"))
    run_cli(capsys, "gen-data", "--config", small_cfg, "--out", str(tmp_path / "b"))
    assert (tmp_path / "a" / "shapes.json").read_bytes() == \
        (tmp_path / "b" / "shapes.json").read_bytes()


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


def test_train_denoiser_writes_loadable_model(capsys, tmp_path):
    doc = dict(SMALL)
    doc["autoencoder"] = {"fit_count": 32}
    doc["denoiser"] = {
        "kind": "mlp",
        "train": {"count": 16, "width": 8, "max_epochs": 2, "batch_size": 4},
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
    assert img.min() >= 0.0 and img.max() <= 1.0


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


def test_roundtrip_reports_metrics(capsys, small_cfg, tmp_path):
    code, doc = run_cli(capsys, "roundtrip", "--config", small_cfg,
                        "--method", "lbo-n", "--out", str(tmp_path / "o"))
    assert code == 0
    assert doc["roundtrip_l2_rel"] < 1e-8
    on_disk = json.loads((tmp_path / "o" / "roundtrip.json").read_text())
    assert on_disk == doc


def test_gradcheck_passes_on_default_setup(capsys, small_cfg, tmp_path):
    code, doc = run_cli(capsys, "gradcheck", "--config", small_cfg,
                        "--out", str(tmp_path / "o"))
    assert code == 0
    assert doc["pass"] is True
    assert doc["max_rel_error"] <= doc["threshold"]
    assert json.loads((tmp_path / "o" / "gradcheck.json").read_text())["pass"] is True


def test_gradcheck_failure_exits_nonzero(capsys, small_cfg, tmp_path, monkeypatch):
    monkeypatch.setattr("invlab.cli.GRADCHECK_TOL", 0.0)  # unreachable bar
    code, doc = run_cli(capsys, "gradcheck", "--config", small_cfg,
                        "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == "gradcheck-failed"
    assert set(doc["context"]) == {"model_vjp", "lbo_objective", "ilb_total"}
    assert json.loads((tmp_path / "o" / "gradcheck.json").read_text())["pass"] is False


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
                        "--steps", "4",
                        "--dt", "5", "--seed", "123")
    assert code == 0 and doc["rows"] == 4  # 2 instances x 2 methods
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    echoed = summary["config"]
    assert echoed["steps"] == 4
    assert echoed["ilb"]["dt"] == 5 and echoed["seed"] == 123


def test_benchmark_method_flag_narrows_grid(capsys, small_cfg, tmp_path):
    code, doc = run_cli(capsys, "benchmark", "--config", small_cfg,
                        "--method", "lbo-h", "--out", str(tmp_path / "o"))
    assert code == 0 and doc["rows"] == 2  # 2 instances x 1 method
    summary = json.loads((tmp_path / "o" / "summary.json").read_text())
    assert summary["config"]["methods"] == ["lbo-h"]
    code, err = run_cli(capsys, "benchmark", "--config", small_cfg,
                        "--method", "nope", "--out", str(tmp_path / "p"))
    assert code == 2 and err["code"] == "config-error"


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


@pytest.mark.parametrize("field,value", [("batch_size", 0), ("width", 0), ("lr", -1.0)])
def test_train_denoiser_out_of_range_value_exits_2(capsys, tmp_path, field, value):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**SMALL, "denoiser": {"kind": "mlp", "train": {field: value}}}))
    code, doc = run_cli(capsys, "train-denoiser", "--config", str(path),
                        "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == "config-error"
    assert doc["context"]["key"] == f"denoiser.train.{field}"
    assert f"denoiser.train.{field}" in doc["message"]


def test_model_file_of_the_wrong_kind_exits_2(capsys, small_cfg, tmp_path):
    code, _ = run_cli(capsys, "train-autoencoder", "--config", small_cfg,
                      "--out", str(tmp_path / "o"))
    assert code == 0
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**SMALL, "denoiser": {
        "kind": "mlp", "path": str(tmp_path / "o" / "autoencoder.labmdl")}}))
    code, doc = run_cli(capsys, "roundtrip", "--config", str(path), "--out", str(tmp_path / "r"))
    assert code == 2 and doc["code"] == "config-error"
    assert doc["context"]["key"] == "denoiser.path" and "LinearAutoencoder" in doc["message"]


def test_lbo_value_out_of_range_exits_2(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**SMALL, "lbo": {"max_iters": -1}, "methods": ["lbo-n"]}))
    code, doc = run_cli(capsys, "benchmark", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == "config-error"
    assert doc["context"]["key"] == "lbo.max_iters" and "lbo.max_iters" in doc["message"]
    assert not (tmp_path / "o" / "benchmark.csv").exists()


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


@pytest.mark.parametrize("section,key,value", [("denoiser", "mu_scale", 1e308),
                                               ("denoiser", "mu_scale", 1e200),
                                               ("autoencoder", "leak_scale", 1e300)])
def test_scale_past_its_bound_exits_2_naming_its_key(capsys, tmp_path, section, key, value):
    # past 1e6 the built mean overflows, or the round trip scores as inf or NaN
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**SMALL, section: {**SMALL.get(section, {}), key: value}}))
    code, doc = run_cli(capsys, "roundtrip", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == "config-error"
    assert doc["context"]["key"] == f"{section}.{key}" and f"{section}.{key}" in doc["message"]


@pytest.mark.parametrize("method", ["lbo-n", "lbo-n+ilb", "lbo-g"])
@pytest.mark.parametrize("mu_scale", [-1e6, 1e6])
def test_mu_scale_at_its_bound_runs_with_finite_metrics(capsys, tmp_path, mu_scale, method):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**SMALL, "denoiser": {"mu_scale": mu_scale}}))
    code, doc = run_cli(capsys, "roundtrip", "--config", str(path), "--method", method,
                        "--out", str(tmp_path / "o"))
    assert code == 0
    assert all(math.isfinite(doc[name]) for name in METRIC_FIELDS)


def test_eig_min_too_small_for_eig_max_exits_2(capsys, tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**SMALL, "denoiser": {"eig_min": 1e-16, "eig_max": 1.0}}))
    code, doc = run_cli(capsys, "roundtrip", "--config", str(path), "--out", str(tmp_path / "o"))
    assert code == 2 and doc["code"] == "config-error"
    assert doc["context"]["key"] == "denoiser.eig_min" and "denoiser.eig_min" in doc["message"]

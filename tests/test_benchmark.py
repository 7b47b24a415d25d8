"""Benchmark harness: config handling, reproducibility, row semantics."""

import csv
import importlib
import json
import re

import numpy as np
import pytest

from invlab.benchmark import (
    CSV_FIELDS,
    BenchmarkBackends,
    BenchmarkRow,
    RunConfig,
    _method_means,
    _run_instance,
    config_from_json_dict,
    evaluate_instance,
    load_config,
    parse_method,
    run_benchmark,
)
from invlab.autoencoder import IdentityAutoencoder
from invlab.cli import main
from invlab.data import gen_dataset, save_dataset
from invlab.denoiser import LinearGaussianDenoiser, MlpDenoiser
from invlab.errors import ConfigError, DivergenceError, FormatError
from invlab.modelio import save_model
from invlab.perceptual import RandomConvPerceptual

SMALL_DOC = {
    "seed": 3,
    "steps": 6,
    "t_train": 60,
    "dataset": {"count": 3, "height": 8, "width": 8},
    "autoencoder": {"fit_count": 16},
    "methods": ["ddim", "lbo-n"],
}


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    cfg = config_from_json_dict(SMALL_DOC)
    out = tmp_path_factory.mktemp("bench")
    rows, summary = run_benchmark(cfg, out)
    return cfg, out, rows, summary


# ---------------------------------------------------------------- config


def test_parse_method():
    assert parse_method("ddim") == ("ddim", False)
    assert parse_method("lbo-h") == ("lbo-h", False)
    assert parse_method("lbo-n+ilb") == ("lbo-n", True)
    for bad in ("lbo-x", "ddim+foo", "lbo-n+ilb+ilb", "", "+ilb"):
        with pytest.raises(ConfigError) as err:
            parse_method(bad)
        assert err.value.context["key"] == "methods"


def test_runconfig_defaults_and_validation():
    cfg = RunConfig()
    assert cfg.methods == ("ddim", "lbo-n", "lbo-n+ilb")
    assert cfg.steps == 50 and cfg.t_train == 100
    assert cfg.autoencoder.leak_scale == 1.8
    with pytest.raises(ConfigError):
        RunConfig(methods=("ddim", "nope"))
    # lists are normalized to tuples so the config hashes/compares cleanly
    assert RunConfig(methods=["ddim"]).methods == ("ddim",)


def test_config_merge_is_deep_and_strict():
    cfg = config_from_json_dict({"denoiser": {"train": {"lr": 0.5}}})
    assert cfg.denoiser.train.lr == 0.5
    assert cfg.denoiser.train.width == 64  # sibling default survives
    assert cfg.denoiser.kind == "analytic"
    with pytest.raises(ConfigError, match="bogus"):
        config_from_json_dict({"bogus": 1})
    with pytest.raises(ConfigError, match=r"denoiser\.train\.momentum"):
        config_from_json_dict({"denoiser": {"train": {"momentum": 0.9}}})


def test_load_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"seed": 9, "methods": ["lbo-g"]}))
    cfg = load_config(path)
    assert cfg.seed == 9 and cfg.methods == ("lbo-g",)

    (tmp_path / "broken.json").write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(tmp_path / "broken.json")
    (tmp_path / "list.json").write_text("[1, 2]")
    with pytest.raises(ConfigError, match="JSON object"):
        load_config(tmp_path / "list.json")


def test_config_json_round_trip():
    cfg = config_from_json_dict(SMALL_DOC)
    assert config_from_json_dict(cfg.to_json_dict()) == cfg


# (key path, a value of the wrong type for it)
ILL_TYPED = [
    ("seed", "0"), ("t_train", 100.0), ("beta_start", "1e-4"), ("beta_end", None),
    ("steps", "10"), ("record_timing", 1), ("n_workers", True), ("methods", "ddim"),
    ("methods", [1]),
    ("dataset", 5), ("dataset.width", True), ("dataset.count", 2.0), ("dataset.height", "16"),
    ("dataset.width", None), ("dataset.path", 3),
    ("denoiser.kind", None), ("denoiser.path", 1), ("denoiser.mu_scale", "0.5"),
    ("denoiser.eig_min", True), ("denoiser.eig_max", [1.5]), ("denoiser.train", [64]),
    ("denoiser.train.count", 8.5), ("denoiser.train.width", "64"),
    ("denoiser.train.max_epochs", False), ("denoiser.train.batch_size", None),
    ("denoiser.train.lr", "fast"),
    ("autoencoder.kind", 1), ("autoencoder.path", ["a"]), ("autoencoder.latent_frac", "1/4"),
    ("autoencoder.fit_count", 64.0), ("autoencoder.leak_scale", False),
    ("lbo.max_iters", 1.5), ("lbo.tol", "1e-8"), ("lbo.lr", None), ("lbo.n_grad_warmup", True),
    ("ilb.lr", "0.1"), ("ilb.max_iters", 10.0), ("ilb.rel_tol", None), ("ilb.dt", "5"),
    ("ilb.use_reg", "yes"), ("ilb.weights", 1.0), ("ilb.weights", [1.0, "1", 1.0]),
]


def _nest(path, value):
    head, _, rest = path.partition(".")
    return {head: _nest(rest, value) if rest else value}


def _lookup(doc, path):
    for key in path.split("."):
        doc = doc[key]
    return doc


@pytest.mark.parametrize("path,value", ILL_TYPED)
def test_ill_typed_config_value_is_config_error(path, value, tmp_path, capsys):
    with pytest.raises(ConfigError, match=re.escape(path)) as err:
        config_from_json_dict(_nest(path, value))
    assert err.value.context["key"].startswith(path)
    # the CLI reports it as a config-error, not a traceback
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(_nest(path, value)))
    assert main(["roundtrip", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["code"] == "config-error" and path in doc["message"]
    # the key's own default, as written to JSON, loads back to the same config
    default = _lookup(RunConfig().to_json_dict(), path)
    cfg = config_from_json_dict(_nest(path, default))
    assert cfg == RunConfig() and config_from_json_dict(cfg.to_json_dict()) == cfg


def test_config_accepts_int_for_float_and_checks_ilb_at_load():
    cfg = config_from_json_dict({"ilb": {"lr": 1, "weights": [1, 0, 2]}})
    assert cfg.ilb.lr == 1.0 and isinstance(cfg.ilb.lr, float)
    assert cfg.ilb.weights == (1.0, 0.0, 2.0)
    with pytest.raises(ConfigError, match=r"ilb\.lr: lr must be > 0"):
        config_from_json_dict({"ilb": {"lr": 0}})


@pytest.mark.parametrize("n_workers", [0, -3, 2])
def test_n_workers_other_than_one_rejected(n_workers):
    with pytest.raises(ConfigError, match="n_workers") as err:
        config_from_json_dict({"n_workers": n_workers})
    assert err.value.context["key"] == "n_workers"


# ---------------------------------------------------------------- backends


def test_empty_method_list_rejected(tmp_path):
    with pytest.raises(ConfigError, match="nonempty"):
        run_benchmark(RunConfig(methods=()), tmp_path)


def test_dataset_from_file(tmp_path):
    payload = gen_dataset(n=4, seed=5, height=8, width=8)
    path = tmp_path / "imgs.json"
    save_dataset(payload, path)

    doc = dict(SMALL_DOC)
    doc["dataset"] = {"count": 2, "height": 8, "width": 8, "path": str(path)}
    backends = BenchmarkBackends(config_from_json_dict(doc))
    np.testing.assert_array_equal(backends.images, payload["images"][:2])

    doc["dataset"]["count"] = 9  # file only holds 4
    with pytest.raises(ConfigError, match="config wants 9"):
        BenchmarkBackends(config_from_json_dict(doc))

    doc["dataset"] = {"count": 2, "path": str(tmp_path / "gone.json")}
    with pytest.raises(ConfigError, match="does not exist"):
        BenchmarkBackends(config_from_json_dict(doc))

    save_dataset({**payload, "kind": "gauss2d"}, tmp_path / "gauss.json")
    doc["dataset"] = {"count": 2, "path": str(tmp_path / "gauss.json")}
    with pytest.raises(FormatError, match="gauss.json"):
        BenchmarkBackends(config_from_json_dict(doc))


# (a pixel value written into the file's first 8x8 image, the run's image size)
UNFIT_IMAGES = [
    (None, (12, 8)),
    (None, (8, 12)),
    (float("nan"), (8, 8)),
    (float("inf"), (8, 8)),
    (1.5, (8, 8)),
    (-0.1, (8, 8)),
]


@pytest.mark.parametrize("pixel,size", UNFIT_IMAGES,
                         ids=["height", "width", "nan", "inf", "above-1", "below-0"])
def test_dataset_file_that_does_not_fit_the_run_is_config_error(pixel, size, tmp_path):
    payload = gen_dataset(n=2, seed=5, height=8, width=8)
    if pixel is not None:
        payload["images"][0][3][4][0] = pixel
    save_dataset(payload, tmp_path / "imgs.json")
    height, width = size
    doc = {**SMALL_DOC, "dataset": {"count": 2, "height": height, "width": width,
                                    "path": str(tmp_path / "imgs.json")}}
    with pytest.raises(ConfigError, match="dataset.path") as err:
        BenchmarkBackends(config_from_json_dict(doc))
    assert err.value.context["key"] == "dataset.path"


def test_unknown_backend_kinds_rejected():
    for key in ("dataset.kind", "denoiser.kind", "autoencoder.kind"):
        with pytest.raises(ConfigError, match=re.escape(key)) as err:
            config_from_json_dict({**SMALL_DOC, **_nest(key, "bogus")})
        assert err.value.context["key"] == key


def test_identity_autoencoder_and_mlp_denoiser_kinds():
    doc = dict(SMALL_DOC)
    doc["autoencoder"] = {"kind": "identity", "fit_count": 16}
    doc["denoiser"] = {
        "kind": "mlp",
        "train": {"count": 8, "width": 8, "max_epochs": 2, "batch_size": 4},
    }
    backends = BenchmarkBackends(config_from_json_dict(doc))
    assert isinstance(backends.ae, IdentityAutoencoder)
    assert isinstance(backends.model, MlpDenoiser)
    assert backends.model.latent_dim == 64  # identity latent is the flat image


def test_mlp_train_count_above_fit_count_rejected():
    doc = dict(SMALL_DOC)
    doc["autoencoder"] = {"fit_count": 16}
    doc["denoiser"] = {"kind": "mlp", "train": {"count": 17}}
    with pytest.raises(ConfigError, match="exceeds autoencoder.fit_count") as err:
        BenchmarkBackends(config_from_json_dict(doc))
    assert err.value.context["key"] == "denoiser.train.count"


def test_ilb_dt_defaults_to_grid_stride():
    backends = BenchmarkBackends(config_from_json_dict(SMALL_DOC))
    assert backends.ilb_cfg.dt == 10  # t_train=60 over 6 steps
    doc = dict(SMALL_DOC)
    doc["ilb"] = {"dt": 3}
    assert BenchmarkBackends(config_from_json_dict(doc)).ilb_cfg.dt == 3


@pytest.mark.parametrize("dt", [0, 61])  # SMALL_DOC's t_train is 60
def test_ilb_dt_outside_schedule_is_config_error(dt, tmp_path, capsys):
    with pytest.raises(ConfigError, match=r"ilb\.dt must be in \[1, t_train = 60\]") as err:
        config_from_json_dict({**SMALL_DOC, "ilb": {"dt": dt}})
    assert err.value.context["key"] == "ilb.dt"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_DOC))
    assert main(["benchmark", "--config", str(path), "--dt", str(dt),
                 "--out", str(tmp_path / "cli")]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["code"] == "config-error" and out["context"]["key"] == "ilb.dt"
    assert not (tmp_path / "cli" / "benchmark.csv").exists()


# ---------------------------------------------------------------- runs


def test_rows_cover_grid_sorted(small_run):
    cfg, _, rows, _ = small_run
    assert len(rows) == cfg.dataset.count * len(cfg.methods)
    keys = [(r.instance_id, r.method) for r in rows]
    assert keys == sorted(keys)
    for r in rows:
        if r.method == "ddim":
            assert r.mean_lbo_iters == 0.0
        else:
            assert r.mean_lbo_iters > 0
        assert r.wall_ms == 0.0  # timing off by default


def test_csv_matches_rows(small_run):
    cfg, out, rows, _ = small_run
    with open(out / "benchmark.csv", newline="") as f:
        recs = list(csv.DictReader(f))
    assert list(recs[0].keys()) == list(CSV_FIELDS)
    assert len(recs) == len(rows)
    for rec, row in zip(recs, rows):
        assert rec["method"] == row.method
        assert int(rec["instance_id"]) == row.instance_id
        assert float(rec["psnr_db"]) == pytest.approx(row.psnr_db)


def test_summary_structure(small_run):
    cfg, out, _, summary = small_run
    assert summary["config"] == cfg.to_json_dict()
    assert set(summary["per_method"]) == set(cfg.methods)
    for stats in summary["per_method"].values():
        assert stats["n_ok"] == cfg.dataset.count and stats["n_error"] == 0
    assert set(summary["upper_bound"]) == {"mean_psnr_db", "mean_ssim", "mean_perceptual"}
    on_disk = json.loads((out / "summary.json").read_text())
    assert on_disk == summary


def test_exact_inversion_beats_one_shot(small_run):
    _, _, _, summary = small_run
    pm = summary["per_method"]
    assert pm["lbo-n"]["mean_roundtrip_l2_rel"] < 1e-8
    assert pm["ddim"]["mean_roundtrip_l2_rel"] > 1e-3
    # an exact inverse replays to the plain autoencoder round trip
    assert pm["lbo-n"]["mean_psnr_db"] == pytest.approx(
        summary["upper_bound"]["mean_psnr_db"], rel=1e-9)


def test_bytes_identical_across_reruns(small_run, tmp_path):
    cfg, out, _, _ = small_run
    run_benchmark(cfg, tmp_path / "again")
    for name in ("benchmark.csv", "summary.json"):
        assert (tmp_path / "again" / name).read_bytes() == (out / name).read_bytes()


def test_rows_run_in_the_order_they_are_written(tmp_path, monkeypatch):
    ran = []

    def record(backends, instance_id, method):
        ran.append((instance_id, method))
        return evaluate_instance(backends, instance_id, method)

    monkeypatch.setattr("invlab.benchmark.evaluate_instance", record)
    cfg = config_from_json_dict({**SMALL_DOC, "methods": ["lbo-n", "ddim"]})
    rows, _ = run_benchmark(cfg, tmp_path)
    assert ran == [(r.instance_id, r.method) for r in rows]
    assert ran == [(i, m) for i in range(3) for m in ("ddim", "lbo-n")]


# The module globals that invbench's tracer rebinds to time and count each layer
TRACED_NAMES = [f"invlab.benchmark.{name}" for name in (
    "evaluate_instance", "make_shapes", "build_autoencoder", "build_denoiser",
    "RandomConvPerceptual", "ilb_optimize", "lbo_invert_trajectory", "ddim_invert_trajectory",
    "generate_trajectory", "psnr", "ssim")] + [
    "invlab.ilb.ssim_with_grad", "invlab.ilb.adam_step", "invlab.ilb.skip_coefficients",
    "invlab.lbo.adam_step", "invlab.lbo.coefficients", "invlab.dynamics.coefficients"]


def test_pipeline_calls_every_traced_name_through_its_module(tmp_path, monkeypatch):
    # a name bound locally (imported elsewhere, or cached in a closure) would be missed
    calls = dict.fromkeys(TRACED_NAMES, 0)

    def counting(path, inner):
        def wrapper(*args, **kwargs):
            calls[path] += 1
            return inner(*args, **kwargs)
        return wrapper

    for path in TRACED_NAMES:
        module, name = path.rsplit(".", 1)
        monkeypatch.setattr(path, counting(path, getattr(importlib.import_module(module), name)))
    doc = {**SMALL_DOC, "dataset": {"count": 1, "height": 8, "width": 8},
           "ilb": {"max_iters": 2},
           "methods": ["ddim", "lbo-n", "lbo-g", "lbo-h", "lbo-n+ilb"]}
    rows, _ = run_benchmark(config_from_json_dict(doc), tmp_path)
    assert all(r.error_code == "" for r in rows)
    assert [path for path, n in calls.items() if n == 0] == []


# The backend methods that invbench's tracer wraps on the objects the run builds
PROXIED_METHODS = {"model": ("eval", "vjp"), "ae": ("encode", "decode", "decoder_vjp"),
                   "perc": ("distance", "grad_y")}


@pytest.mark.parametrize("kind", ["analytic", "mlp"])
def test_backends_keep_every_proxied_method(kind):
    doc = {**TINY_MLP_DOC, "denoiser": {**TINY_MLP_DOC["denoiser"], "kind": kind}}
    b = BenchmarkBackends(config_from_json_dict(doc))
    missing = [f"{attr}.{name}" for attr, names in PROXIED_METHODS.items() for name in names
               if not callable(getattr(getattr(b, attr), name, None))]
    assert missing == []


def test_latent_boosting_raises_psnr(tmp_path):
    cfg = config_from_json_dict({
        "seed": 11, "steps": 8, "t_train": 80,
        "dataset": {"count": 4},
        "methods": ["lbo-n", "lbo-n+ilb"],
    })
    rows, summary = run_benchmark(cfg, tmp_path)
    pm = summary["per_method"]
    assert pm["lbo-n+ilb"]["mean_psnr_db"] > pm["lbo-n"]["mean_psnr_db"] + 1.0
    per = {}
    for r in rows:
        per.setdefault(r.instance_id, {})[r.method] = r.psnr_db
    for d in per.values():
        assert d["lbo-n+ilb"] > d["lbo-n"]


def test_record_timing_populates_wall_ms(tmp_path):
    doc = dict(SMALL_DOC)
    doc.update(record_timing=True, methods=["ddim"])
    doc["dataset"] = {"count": 1, "height": 8, "width": 8}
    rows, _ = run_benchmark(config_from_json_dict(doc), tmp_path)
    assert rows[0].wall_ms > 0.0


def test_failed_instance_becomes_error_row(monkeypatch):
    backends = BenchmarkBackends(config_from_json_dict(SMALL_DOC))

    def diverge(backends, instance_id, method):
        raise DivergenceError("non-finite loss", iteration=3)

    monkeypatch.setattr("invlab.benchmark.evaluate_instance", diverge)
    row = _run_instance(backends, 1, "ddim")
    assert row.psnr_db == "error" and row.roundtrip_l2_rel == "error"
    assert row.instance_id == 1 and row.method == "ddim"
    assert (row.error_code, row.error_message) == ("divergence", "non-finite loss")


def test_programming_error_in_instance_propagates():
    backends = BenchmarkBackends(config_from_json_dict(SMALL_DOC))
    with pytest.raises(IndexError):
        _run_instance(backends, 99, "ddim")  # out of range index


def test_method_means_with_errors():
    ok = BenchmarkRow("ddim", 0, 10.0, 0.5, 0.1, 0.01, 0.0, 0.0)
    bad = BenchmarkRow("ddim", 1, "error", "error", "error", "error", "error", 0.0)
    stats = _method_means([ok, bad])["ddim"]
    assert stats["n_ok"] == 1 and stats["n_error"] == 1
    assert stats["mean_psnr_db"] == 10.0
    all_bad = _method_means([bad])["ddim"]
    assert all_bad["mean_psnr_db"] is None


@pytest.mark.parametrize("field,value", [("count", 0), ("width", 0), ("max_epochs", -1),
                                         ("batch_size", 0), ("lr", 0.0), ("lr", -0.5)])
def test_train_value_out_of_range_is_config_error(field, value):
    key = f"denoiser.train.{field}"
    with pytest.raises(ConfigError, match=re.escape(key)) as err:
        config_from_json_dict({"denoiser": {"kind": "mlp", "train": {field: value}}})
    assert err.value.context["key"] == key
    # the smallest accepted values load
    edge = {"count": 1, "width": 1, "max_epochs": 0, "batch_size": 1, "lr": 1e-12}
    assert config_from_json_dict({"denoiser": {"train": edge}}).denoiser.train.max_epochs == 0


@pytest.mark.parametrize("field,value", [("max_iters", -1), ("tol", 0.0), ("tol", float("nan")),
                                         ("lr", 0.0), ("lr", float("nan")), ("n_grad_warmup", -1)])
def test_lbo_value_out_of_range_is_config_error(field, value):
    key = f"lbo.{field}"
    with pytest.raises(ConfigError, match=re.escape(key)) as err:
        config_from_json_dict({"lbo": {field: value}, "methods": ["lbo-n"]})
    assert err.value.context["key"] == key
    # the smallest accepted values load
    edge = {"max_iters": 0, "tol": 1e-300, "lr": 1e-300, "n_grad_warmup": 0}
    assert config_from_json_dict({"lbo": edge}).lbo.max_iters == 0


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("doc,key", [({"steps": 0}, "steps"), ({"steps": 101}, "steps"),
                                     ({"t_train": 0}, "t_train"),
                                     ({"beta_start": 0.0}, "beta_start"),
                                     ({"beta_start": 0.1, "beta_end": 0.05}, "beta_end"),
                                     ({"beta_end": 1.0}, "beta_end"),
                                     ({"dataset": {"count": 0}}, "dataset.count"),
                                     ({"dataset": {"height": 4}}, "dataset.height"),
                                     ({"dataset": {"height": 3}}, "dataset.height"),
                                     ({"dataset": {"width": 4}}, "dataset.width"),
                                     ({"denoiser": {"mu_scale": NAN}}, "denoiser.mu_scale"),
                                     ({"denoiser": {"mu_scale": -INF}}, "denoiser.mu_scale"),
                                     ({"denoiser": {"eig_min": 0.0}}, "denoiser.eig_min"),
                                     ({"denoiser": {"eig_min": NAN}}, "denoiser.eig_min"),
                                     ({"denoiser": {"eig_max": INF}}, "denoiser.eig_max"),
                                     ({"denoiser": {"eig_max": -1.0}}, "denoiser.eig_max"),
                                     ({"autoencoder": {"fit_count": 1}}, "autoencoder.fit_count"),
                                     ({"autoencoder": {"leak_scale": NAN}},
                                      "autoencoder.leak_scale"),
                                     ({"autoencoder": {"leak_scale": -0.5}},
                                      "autoencoder.leak_scale"),
                                     ({"autoencoder": {"leak_scale": INF}},
                                      "autoencoder.leak_scale"),
                                     ({"denoiser": {"mu_scale": -1.000001e6}},
                                      "denoiser.mu_scale"),
                                     ({"autoencoder": {"leak_scale": 1.000001e6}},
                                      "autoencoder.leak_scale")])
def test_schedule_or_dataset_value_out_of_range_is_config_error(doc, key):
    with pytest.raises(ConfigError, match=re.escape(key)) as err:
        config_from_json_dict(doc)
    assert err.value.context["key"] == key
    # the smallest accepted values load
    edge = {"t_train": 1, "steps": 1, "beta_start": 0.5, "beta_end": 0.5,
            "dataset": {"count": 1, "height": 5, "width": 5},
            "denoiser": {"mu_scale": -1e6, "eig_min": 1e-300, "eig_max": 1e-300},
            "autoencoder": {"fit_count": 2, "leak_scale": 0.0}}
    assert config_from_json_dict(edge).steps == 1




@pytest.mark.parametrize("field,value", [("lr", NAN), ("lr", 0.0), ("rel_tol", NAN),
                                         ("rel_tol", -1.0), ("max_iters", 0),
                                         ("weights", [1.0, NAN, 1.0]),
                                         ("weights", [1.0, 1.0, -0.5])])
def test_ilb_value_out_of_range_is_config_error(field, value):
    key = f"ilb.{field}"
    with pytest.raises(ConfigError, match=re.escape(key)) as err:
        config_from_json_dict({"ilb": {field: value}, "methods": ["lbo-n+ilb"]})
    assert err.value.context["key"] == key
    # the smallest accepted values load
    edge = {"lr": 1e-300, "rel_tol": 1e-300, "max_iters": 1, "weights": [0.0, 0.0, 0.0]}
    assert config_from_json_dict({"ilb": edge}).ilb.max_iters == 1


@pytest.mark.parametrize("value", [-1.0, 0.0, 1.5])
def test_latent_frac_outside_unit_interval_is_config_error(value):
    with pytest.raises(ConfigError, match="autoencoder.latent_frac") as err:
        config_from_json_dict({"autoencoder": {"latent_frac": value}})
    assert err.value.context["key"] == "autoencoder.latent_frac"
    # a latent as large as the image still builds
    cfg = config_from_json_dict({**SMALL_DOC, "autoencoder": {"fit_count": 16, "latent_frac": 1}})
    assert BenchmarkBackends(cfg).ae.latent_dim == 64


TINY_MLP_DOC = {
    "seed": 2,
    "steps": 4,
    "t_train": 40,
    "dataset": {"count": 2, "height": 8, "width": 8},
    "autoencoder": {"fit_count": 16},
    "denoiser": {"kind": "mlp", "train": {"count": 16, "width": 8, "max_epochs": 3}},
    "ilb": {"max_iters": 6},
    "methods": ["lbo-g", "lbo-h", "lbo-n+ilb"],
}


@pytest.mark.parametrize("kind", ["mlp", "analytic"])
def test_shared_forward_passes_write_the_same_bytes(kind, tmp_path, monkeypatch):
    doc = {**TINY_MLP_DOC, "denoiser": {**TINY_MLP_DOC["denoiser"], "kind": kind}}
    cfg = config_from_json_dict(doc)
    run_benchmark(cfg, tmp_path / "shared")
    # separate paths: eval, then a fresh linearization per pullback; distance, then x's
    # features recomputed for each gradient
    for cls in (MlpDenoiser, LinearGaussianDenoiser):
        def linearize(self, z, t, c, shared=cls.linearize):
            return self.eval(z, t, c), lambda v: shared(self, z, t, c)[1](v)
        monkeypatch.setattr(cls, "linearize", linearize)
    shared_reference = RandomConvPerceptual.reference

    def reference(self, x):
        return lambda y: (self.distance(x, y), shared_reference(self, x)(y)[1])

    monkeypatch.setattr(RandomConvPerceptual, "reference", reference)
    run_benchmark(cfg, tmp_path / "separate")
    for name in ("benchmark.csv", "summary.json"):
        assert (tmp_path / "shared" / name).read_bytes() == (tmp_path / "separate" / name).read_bytes()


@pytest.fixture(scope="module")
def model_files(tmp_path_factory):
    """The denoiser and autoencoder files of a run of TINY_MLP_DOC."""
    backends = BenchmarkBackends(config_from_json_dict(TINY_MLP_DOC))
    out = tmp_path_factory.mktemp("models")
    save_model(backends.model, out / "denoiser.labmdl")
    save_model(backends.ae, out / "autoencoder.labmdl")
    return backends, str(out / "denoiser.labmdl"), str(out / "autoencoder.labmdl")


def test_model_files_of_the_run_load(model_files):
    trained, den, ae = model_files
    doc = {**TINY_MLP_DOC, "denoiser": {"kind": "mlp", "path": den},
           "autoencoder": {"fit_count": 16, "path": ae}}
    loaded = BenchmarkBackends(config_from_json_dict(doc))
    np.testing.assert_array_equal(loaded.ae.w, trained.ae.w)
    for name, value in trained.model.params.items():
        np.testing.assert_array_equal(loaded.model.params[name], value)


def test_set_denoiser_path_loads_whatever_the_kind(model_files, tmp_path):
    # kind picks what is built only when no path is set; the default kind is analytic
    trained, den, _ = model_files
    loaded = BenchmarkBackends(config_from_json_dict({**TINY_MLP_DOC, "denoiser": {"path": den}}))
    assert isinstance(loaded.model, MlpDenoiser)
    for name, value in trained.model.params.items():
        np.testing.assert_array_equal(loaded.model.params[name], value)
    gone = str(tmp_path / "gone.labmdl")
    with pytest.raises(ConfigError, match="does not exist") as err:
        BenchmarkBackends(config_from_json_dict({**TINY_MLP_DOC, "denoiser": {"path": gone}}))
    assert err.value.context["key"] == "denoiser.path"


def test_set_autoencoder_path_loads_whatever_the_kind(model_files, tmp_path):
    trained, _, ae = model_files
    doc = {**TINY_MLP_DOC, "autoencoder": {"fit_count": 16, "kind": "identity", "path": ae}}
    np.testing.assert_array_equal(BenchmarkBackends(config_from_json_dict(doc)).ae.w,
                                  trained.ae.w)
    doc["autoencoder"]["path"] = str(tmp_path / "gone.labmdl")
    with pytest.raises(ConfigError, match="does not exist") as err:
        BenchmarkBackends(config_from_json_dict(doc))
    assert err.value.context["key"] == "autoencoder.path"


# (what the run changes, which file goes where, the key the error names)
MISMATCHED_FILES = [
    ({}, {"denoiser": "ae"}, "denoiser.path"),  # an autoencoder file as the denoiser
    ({}, {"autoencoder": "den"}, "autoencoder.path"),  # and the other way round
    ({"autoencoder": {"fit_count": 16, "latent_frac": 0.5}}, {"denoiser": "den"},
     "denoiser.path"),  # 32-dimensional latents for a 16-dimensional model
    ({"t_train": 50}, {"denoiser": "den"}, "denoiser.path"),  # another noise schedule
    ({"beta_end": 0.04}, {"denoiser": "den"}, "denoiser.path"),  # same t_train, other betas
    ({"dataset": {"count": 2, "height": 12, "width": 8}}, {"autoencoder": "ae"},
     "autoencoder.path"),  # fitted on 8x8 images, run on 12x8
]


@pytest.mark.parametrize("change,files,key", MISMATCHED_FILES)
def test_model_file_that_does_not_fit_the_run_is_config_error(model_files, change, files, key):
    _, den, ae = model_files
    doc = {**TINY_MLP_DOC, **change}
    for section, which in files.items():
        kind = {"denoiser": "mlp", "autoencoder": "linear"}[section]
        doc[section] = {**doc.get(section, {}), "kind": kind,
                        "path": {"den": den, "ae": ae}[which]}
    with pytest.raises(ConfigError, match=re.escape(key)) as err:
        BenchmarkBackends(config_from_json_dict(doc))
    assert err.value.context["key"] == key

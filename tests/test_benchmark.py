"""Benchmark harness: config handling, reproducibility, row semantics."""

import csv
import hashlib
import importlib
import importlib.util
import json
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import fields, is_dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import get_type_hints

import numpy as np
import pytest
from conftest import json_leaves, key_path, rejects, set_json_leaf, strict_json
from hypothesis import given, settings
from hypothesis import strategies as st

import invlab.benchmark
from invlab import make_linear_schedule
from invlab.benchmark import (
    CSV_FIELDS,
    AutoencoderSection,
    BenchmarkBackends,
    BenchmarkRow,
    DatasetSection,
    DenoiserSection,
    RunConfig,
    _method_means,
    _run_instance,
    analytic_denoiser,
    config_from_json_dict,
    evaluate_instance,
    json_text,
    load_config,
    parse_method,
    run_benchmark,
)
from invlab.cli import main
from invlab.data import gen_dataset, save_dataset
from invlab.denoiser import LinearGaussianDenoiser, MlpDenoiser, MlpTrainConfig
from invlab.errors import (ConfigError, DivergenceError, FormatError, InvalidParameterError,
                           shown)
from invlab.lbo import LboConfig
from invlab.modelio import save_model
from invlab.perceptual import RandomConvPerceptual
from invlab.rng import derive_rng

NAN, INF = float("nan"), float("inf")
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
        with rejects("methods"):
            parse_method(bad)
    with rejects("methods"):  # checked before the backends are read
        evaluate_instance(None, 0, "bogus")


def test_runconfig_defaults_and_validation():
    cfg = RunConfig()
    assert cfg.methods == ("ddim", "lbo-n", "lbo-n+ilb")
    assert cfg.steps == 50 and cfg.t_train == 100
    assert cfg.autoencoder.leak_scale == 1.8
    with rejects("methods"):
        RunConfig(methods=("ddim", "nope"))
    # lists are normalized to tuples so the config hashes/compares cleanly
    assert RunConfig(methods=["ddim"]).methods == ("ddim",)


def test_config_merge_is_deep_and_strict():
    cfg = config_from_json_dict({"denoiser": {"train": {"lr": 0.5}}})
    assert cfg.denoiser.train.lr == 0.5
    assert cfg.denoiser.train.width == 64  # sibling default survives
    assert cfg.denoiser.kind == "analytic"


def test_config_json_round_trip():
    cfg = config_from_json_dict(SMALL_DOC)
    assert config_from_json_dict(cfg.to_json_dict()) == cfg


# (key path, a value of the wrong type for it), refused from JSON and built in Python
ILL_TYPED = [
    ("seed", "0"), ("t_train", 100.0), ("beta_start", "1e-4"), ("beta_end", None),
    ("steps", "10"), ("record_timing", 1), ("n_workers", True), ("methods", "ddim"),
    ("methods", [1]),
    ("dataset", 5), ("dataset.width", True), ("dataset.count", 2.0), ("dataset.height", "16"),
    ("dataset.width", None), ("dataset.path", 3),
    ("denoiser.kind", None), ("denoiser.path", 1), ("denoiser.train", [64]),
    ("denoiser.train.width", "64"),
    ("denoiser.train.max_epochs", False), ("denoiser.train.batch_size", None),
    ("denoiser.train.lr", "fast"),
    ("autoencoder.kind", 1), ("autoencoder.path", ["a"]), ("autoencoder.latent_frac", "1/4"),
    ("autoencoder.fit_count", 64.0), ("autoencoder.leak_scale", False),
    ("ilb.lr", "0.1"), ("ilb.max_iters", 10.0), ("ilb.rel_tol", None), ("ilb.dt", "5"),
    ("ilb.use_reg", "yes"), ("ilb.weights", 1.0), ("ilb.weights", [1.0, "1", 1.0]),
    ("beta_start", 10**400), ("ilb.weights", [1.0, 10**400, 1.0]),
    ("n_workers", 1.0), ("record_timing", "no"), ("ilb.use_reg", 0),
    ("ilb.lr", "x"), ("ilb.weights", "abc"), ("beta_start", "x"), ("denoiser.train", None),
    # True is no number, in every float key
    ("beta_start", True), ("beta_end", True), ("denoiser.train.lr", True),
    ("autoencoder.latent_frac", True), ("autoencoder.leak_scale", True), ("ilb.lr", True),
    ("ilb.rel_tol", True), ("ilb.weights", [True, True, True]),
    # a section of each kind, as a value that is no JSON object
    ("denoiser", "mlp"), ("autoencoder", []), ("ilb", 0.1),
]


def _nest(path, value):
    head, _, rest = path.partition(".")
    return {head: _nest(rest, value) if rest else value}


def _lookup(doc, keys):
    for key in keys:
        doc = doc[key]
    return doc


def _built(cls, doc):
    """The JSON document `doc` built in Python: an object under a section's key that names
    only that section's keys is built as the section, from its defaults; any other value is
    passed as it is."""
    hints = get_type_hints(cls)
    return cls(**{key: _built(hints[key], value) if is_dataclass(hints[key])
                  and isinstance(value, dict) and value.keys() <= get_type_hints(hints[key]).keys()
                  else value for key, value in doc.items()})


def _refusals(doc, tmp_path, capsys) -> tuple:
    """The key that refuses `doc` and the two errors that name it: from JSON a config-error
    naming the key, and built in Python an invalid-parameter error naming the field at its
    end. `invlab roundtrip --config` on doc exits 2 with the JSON route's error."""
    with pytest.raises(ConfigError) as from_json:
        config_from_json_dict(doc)
    key = from_json.value.context["key"]
    assert key in str(from_json.value)
    with pytest.raises(InvalidParameterError) as built:
        _built(RunConfig, doc)
    field = built.value.context["field"]
    assert key == field or key.endswith("." + field)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["roundtrip", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert json.loads(capsys.readouterr().out) == from_json.value.to_json_dict()
    return key, from_json.value, built.value


@pytest.mark.parametrize("path,value", ILL_TYPED)
def test_ill_typed_config_value_is_config_error(path, value, tmp_path, capsys):
    assert _refusals(_nest(path, value), tmp_path, capsys)[0].startswith(path)
    # the key's own default, as written to JSON, loads back to the same config
    default = _lookup(RunConfig().to_json_dict(), path.split("."))
    cfg = config_from_json_dict(_nest(path, default))
    assert cfg == RunConfig() and config_from_json_dict(cfg.to_json_dict()) == cfg


@pytest.mark.parametrize("path,value", [("seed", 10**5000), ("t_train", 10**5000),
                                        ("dataset.count", 10**5000), ("seed", -10**4300),
                                        ("seed", 10**4300)],
                         ids=["seed", "t_train", "dataset.count", "seed--10**4300", "seed-10**4300"])
def test_an_integer_too_long_to_print_is_refused_by_its_size(path, value):
    # str() writes at most 4300 digits: 10**4300 has 4301, and 10**4300 - 1 is the last that fits
    with rejects(path.rpartition(".")[2]) as err:
        _built(RunConfig, _nest(path, value))
    assert str(err.value).endswith(f"must be an integer, got an integer of {value.bit_length()} bits")
    assert RunConfig(seed=1 - 10**4300).seed == 1 - 10**4300


def _nested(value, depth: int):
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("value,written", [
    ("lbo-x", "'lbo-x'"), ([1] * 30, repr([1] * 30)), ("x" * 10_000, "a str of length 10000"),
    ([1] * 5000, "a list of length 5000"), ({str(i): i for i in range(50)}, "a dict of length 50"),
    (np.zeros(200), "an array of shape (200,)"), (_nested(1, 900), "a list of length 1"),
    (10**5000, "an integer of 16610 bits"), ([10**5000], "a list of length 1"),
    (RunConfig(), "a value of type RunConfig")],
    ids=["str", "list", "long-str", "long-list", "long-dict", "array", "nested", "long-int",
         "held-long-int", "object"])
def test_shown_writes_a_value_past_100_characters_by_its_type_and_size(value, written):
    assert shown(value) == written


@pytest.mark.parametrize("doc,key,end", [
    ({"seed": _nested(1, 900)}, "seed", "seed must be an integer, got a list of length 1"),
    ({"methods": ["x" * 10_000]}, "methods", "with optional '+ilb', got a str of length 10000"),
    ({"dataset": [1] * 5000}, "dataset", "got a list of length 5000"),
    ({"x" * 10_000: 1}, "a str of length 10000", "key a str of length 10000"),
    ({"dataset": {"x" * 10_000: 1}}, "dataset.a str of length 10000", "a str of length 10008"),
    ({"dataset": {"x" * 92: 1}}, "dataset." + "x" * 92, "a str of length 100")],
    ids=["require-nested-seed", "require-long-method", "section-not-an-object", "long-key",
         "long-nested-key", "key-of-100"])
def test_a_large_refused_value_leaves_a_short_message_naming_its_key(doc, key, end, tmp_path,
                                                                     capsys):
    # each route writes the value by its type and size: require, and _parse_section's
    # "must be a JSON object" and unknown key; from JSON, from Python and on the command line
    # alike; a key path of up to 100 characters is named in full
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["roundtrip", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["context"]["key"] == key
    errors = [out["message"]]
    if key in doc:  # a known key: built in Python, its own check refuses the value too
        with pytest.raises(InvalidParameterError) as built:
            _built(RunConfig, doc)
        errors.append(str(built.value))
    for err in errors:
        assert len(err) < 300 and err.endswith(end)


def test_a_seed_nested_as_deep_as_json_reads_is_a_config_error(tmp_path, capsys):
    # from 900 deep up to the first depth the JSON parser refuses; in between, repr of the
    # value runs out of stack before the parser does
    path = tmp_path / "deep.json"
    for depth in range(900, 2000):
        path.write_text('{"seed": ' + "[" * depth + "1" + "]" * depth + "}")
        assert main(["roundtrip", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        out = json.loads(capsys.readouterr().out)
        assert out["code"] == "config-error" and len(out["message"]) < 300 + len(str(path))
        if "not valid JSON" in out["message"]:
            break
        assert out["context"]["key"] == "seed"
    assert depth > 900


def test_config_accepts_int_for_float_and_checks_ilb_at_load():
    cfg = config_from_json_dict({"ilb": {"lr": 1, "weights": [1, 0, 2]}})
    assert cfg.ilb.lr == 1.0 and isinstance(cfg.ilb.lr, float)
    assert cfg.ilb.weights == (1.0, 0.0, 2.0)
    with pytest.raises(ConfigError, match=r"ilb\.lr: lr must be finite and > 0"):
        config_from_json_dict({"ilb": {"lr": 0}})


def test_python_built_config_refuses_a_dict_for_a_section():
    # JSON writes a section as an object, which Python builds as the section's dataclass
    with rejects("dataset"):
        RunConfig(dataset={"count": 2})


def _paths(cls=RunConfig, prefix=""):
    """The dotted path of every key of `cls` and of the sections under it."""
    return [path for name, tp in get_type_hints(cls).items() for path in
            [prefix + name, *(_paths(tp, prefix + name + ".") if is_dataclass(tp) else ())]]


CONFIG_PATHS = _paths()


# every field of RunConfig, of each of its sections and of LboConfig, which LBO_CONFIGS holds
@pytest.mark.parametrize("cls,path", [(RunConfig, path) for path in CONFIG_PATHS]
                         + [(LboConfig, f.name) for f in fields(LboConfig)],
                         ids=lambda x: x.__name__ if isinstance(x, type) else x)
def test_every_config_field_refuses_a_value_of_no_type(cls, path):
    with rejects(path.rpartition(".")[2]):
        _built(cls, _nest(path, object()))


# 10**5000 is drawn through a map, since hypothesis writes out each value it samples from
SCALARS = (st.none() | st.booleans() | st.integers() | st.sampled_from([2**63, 10**400, -10**400])
           | st.just(5000).map(lambda n: 10**n)
           | st.floats() | st.integers(-2**63, 2**63 - 1).map(np.int64)
           | st.floats().map(np.float64) | st.text(max_size=4))
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=4)


@settings(derandomize=True, max_examples=300)
@given(st.sampled_from(CONFIG_PATHS), VALUES)
def test_a_config_that_builds_loads_back_from_its_json_form(path, value):
    try:
        cfg = _built(RunConfig, _nest(path, value))
    except InvalidParameterError:
        return
    assert config_from_json_dict(cfg.to_json_dict()) == cfg


# ---------------------------------------------------------------- backends


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


# (a pixel value written into the file's first 8x6 image, the run's image size, the end of
# the refusal)
UNFIT_IMAGES = [
    (None, (12, 6), "holds 8x6 images, config wants 12x6"),
    (None, (8, 12), "holds 8x6 images, config wants 8x12"),
    *[(pixel, (8, 6), "non-finite or outside [0, 1]") for pixel in (NAN, INF, 1.5, -0.1)],
]


@pytest.mark.parametrize("pixel,size,end", UNFIT_IMAGES,
                         ids=["height", "width", "nan", "inf", "above-1", "below-0"])
def test_dataset_file_that_does_not_fit_the_run_is_config_error(pixel, size, end, tmp_path):
    payload = gen_dataset(n=2, seed=5, height=8, width=6)
    if pixel is not None:
        payload["images"][0][3][4][0] = pixel
    save_dataset(payload, tmp_path / "imgs.json")
    height, width = size
    doc = {**SMALL_DOC, "dataset": {"count": 2, "height": height, "width": width,
                                    "path": str(tmp_path / "imgs.json")}}
    with pytest.raises(ConfigError, match="dataset.path") as err:
        BenchmarkBackends(config_from_json_dict(doc))
    assert err.value.context["key"] == "dataset.path" and str(err.value).endswith(end)


@pytest.mark.parametrize("seed", [0, 5])
def test_analytic_denoiser_is_the_seeded_oracle(seed):
    backends = BenchmarkBackends(config_from_json_dict({**SMALL_DOC, "seed": seed}))
    d = backends.ae.latent_dim
    oracle = analytic_denoiser(derive_rng(seed, "analytic-model"), d, backends.sched)
    assert isinstance(backends.model, LinearGaussianDenoiser)
    assert np.array_equal(backends.model.mu, oracle.mu)
    assert np.array_equal(backends.model.sigma, oracle.sigma)
    # Σ's eigenvalues are spread evenly over [0.7, 1.5]
    np.testing.assert_allclose(np.linalg.eigvalsh(backends.model.sigma),
                               0.7 + 0.8 * np.arange(d) / (d - 1), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("d", [1, 2, 16, 64])
def test_analytic_denoiser_draws_basis_then_mean(d):
    sched = make_linear_schedule(100, 1e-4, 0.05)
    model = analytic_denoiser(np.random.default_rng(7), d, sched)
    rng = np.random.default_rng(7)
    q = np.linalg.qr(rng.standard_normal((d, d)))[0]
    np.testing.assert_array_equal(model.mu, 0.5 * rng.standard_normal(d))
    assert np.array_equal(model.sigma, model.sigma.T)
    np.testing.assert_allclose(np.linalg.eigvalsh(model.sigma), np.linspace(0.7, 1.5, d),
                               rtol=0.0, atol=1e-12)
    # Σ's eigenvectors are the columns of the drawn basis, up to sign
    lam = np.linspace(0.7, 1.5, d)
    np.testing.assert_allclose(model.sigma @ q, q * lam, rtol=0.0, atol=1e-12)


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


INVBENCH = Path(__file__).resolve().parents[1] / "invbench"


def _script(path: Path):
    """A script as a module: the benchmark harness is a directory of scripts, not a package,
    and pytest does not collect the scripts in tests/."""
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# three of the 32 pinned seeds: the first, one from the middle and the last
@pytest.mark.parametrize("seed", [0, 15, 31])
@pytest.mark.parametrize("workload", ["invert", "boost", "mlp-coarse"])
def test_workload_meets_its_pinned_means_at_three_seeds(workload, seed, tmp_path):
    # the benchmark's own check on its own inputs: a change that moves a pinned
    # mean beyond the benchmark's tolerance fails here first
    checks, worker = _script(INVBENCH / "bench_checks.py"), _script(INVBENCH / "bench_worker.py")
    doc = {**json.loads((INVBENCH / "workloads" / f"{workload}.json").read_text()), "seed": seed}
    cfg = config_from_json_dict(doc)
    run_benchmark(cfg, tmp_path)
    csv_text = (tmp_path / "benchmark.csv").read_text(encoding="utf-8")
    summary = json.loads((tmp_path / "summary.json").read_text(encoding="utf-8"))
    bounds = worker.bound_psnr(BenchmarkBackends(cfg))
    assert checks.check_call(doc, csv_text, summary, checks.load_pins(workload)[str(seed)],
                             bounds) == []


def test_digest_script_hashes_both_outputs_of_each_of_its_runs(tmp_path):
    digests = _script(Path(__file__).with_name("digests.py"))  # the byte-identity check
    cfg = RunConfig(steps=2, methods=("ddim", "lbo-n"),
                    dataset=DatasetSection(count=1, height=8, width=8))
    got = digests.run_digests(cfg, tmp_path / "a")
    summary = json.loads((tmp_path / "a" / "summary.json").read_text("utf-8"))
    assert got == {**{name: hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
                      for name in ("benchmark.csv", "summary.json")},
                   "means": {m: {k: v for k, v in stats.items() if k not in ("n_ok", "n_error")}
                             for m, stats in summary["per_method"].items()}}
    assert sorted(got["means"]) == ["ddim", "lbo-n"]
    assert digests.run_digests(cfg, tmp_path / "b") == got
    runs = digests.configs()
    assert sorted(runs) == [f"{name}@{seed}" for name in ("boost", "default", "invert", "mlp-coarse")
                            for seed in (0, 5)]
    assert runs["default@5"] == RunConfig(seed=5)
    assert runs["invert@0"] == load_config(INVBENCH / "workloads" / "invert.json")


def test_kernel_script_spreads_each_mean_over_the_kernels():
    kernels = _script(Path(__file__).with_name("kernels.py"))
    assert [kernels.relative_spread(v) for v in ([2.0, 2.0], [0.0, 0.0], [-2.0, 1.0],
                                                 [None, None], [None, 1.0])] == [
        0.0, 0.0, 1.5, 0.0, math.inf]

    def run(csv, psnr, ssim=None):
        return {"benchmark.csv": csv, "summary.json": "s",
                "means": {"ddim": {"mean_psnr_db": psnr, "mean_ssim": ssim}}}

    lines = {"SkylakeX": {"a@0": run("x", 10.0), "b@5": run("x", 10.0, 0.5)},
             "Haswell": {"a@0": run("x", 10.0), "b@5": run("y", 10.5, 0.5)},
             "Nehalem": {"a@0": run("x", 10.0), "b@5": run("x", 9.5, 0.5)}}
    report = kernels.spreads(lines)
    # max − min over all three kernels, not each against the first
    assert report == {"a@0": (True, {"ddim": {"mean_psnr_db": 0.0, "mean_ssim": 0.0}}),
                      "b@5": (False, {"ddim": {"mean_psnr_db": 1.0 / 10.5, "mean_ssim": 0.0}})}
    assert kernels.worst_spread(report) == (1.0 / 10.5, "b@5 ddim mean_psnr_db")
    assert kernels.worst_spread({}) == (0.0, None)


def test_kernel_script_measures_each_pinned_field_against_its_pin():
    kernels = _script(Path(__file__).with_name("kernels.py"))
    assert [kernels.relative_deviation(v, pin) for v, pin in (
        (2.0, 2.0), (1.5, 2.0), (0.25, 0.0), (None, None), (None, 1.0), (1.0, None))] == [
        0.0, 0.25, 0.25, 0.0, math.inf, math.inf]
    pins = {"w": {"0": {"ddim": {"psnr_db": 10.0, "ssim": 0.5}},
                  "15": {"ddim": {"psnr_db": 20.0, "ssim": 0.5}, "lbo-n": {"psnr_db": 20.0}}}}
    means = {"w@0": {"ddim": {"mean_psnr_db": 10.5, "mean_ssim": 0.5}},
             "w@15": {"ddim": {"mean_psnr_db": 20.0, "mean_ssim": 0.5},
                      "lbo-n": {"mean_psnr_db": 19.5, "mean_ssim": 0.1}}}  # ssim: not pinned
    # the worst over every run and method, each against its own pin
    assert kernels.pin_deviations(means, pins) == {"psnr_db": (0.05, "w@0 ddim"),
                                                   "ssim": (0.0, "w@0 ddim")}


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
    # written as every artifact is: json_text, indented by 2, with a trailing newline
    assert (out / "summary.json").read_text() == json_text(summary, indent=2) + "\n"


def test_exact_inversion_beats_one_shot(small_run):
    _, _, _, summary = small_run
    pm = summary["per_method"]
    assert pm["lbo-n"]["mean_roundtrip_l2_rel"] < 1e-8
    assert pm["ddim"]["mean_roundtrip_l2_rel"] > 1e-3
    # an exact inverse replays to the plain autoencoder round trip
    assert pm["lbo-n"]["mean_psnr_db"] == pytest.approx(
        summary["upper_bound"]["mean_psnr_db"], rel=1e-9)


def test_numpy_integer_sizes_are_kept_as_python_ints_and_budgeted_without_overflow():
    cfg = RunConfig(seed=np.int64(3), t_train=np.int64(60), steps=np.int64(6),
                    dataset=DatasetSection(np.int64(2), np.int64(8), np.int64(8)),
                    autoencoder=AutoencoderSection(fit_count=np.int64(16)),
                    denoiser=DenoiserSection(train=MlpTrainConfig(np.int64(4))))
    kept = (cfg.seed, cfg.t_train, cfg.steps, cfg.dataset.count, cfg.dataset.height,
            cfg.dataset.width, cfg.autoencoder.fit_count, cfg.denoiser.train.width)
    assert {type(v) for v in kept} == {int}
    # 8 bytes times 2**62 betas is 0 in int64 arithmetic
    with rejects("t_train"):
        RunConfig(t_train=np.int64(2**62), steps=1)


# 16x16 images and 64-row MLP batches: the fit's SVD and the trainer's 64x64 products
# run on two OpenBLAS threads when given two
THREADED_DOC = {"steps": 10, "dataset": {"count": 2}, "ilb": {"max_iters": 10},
                "denoiser": {"kind": "mlp", "train": {"max_epochs": 20, "batch_size": 64}},
                "methods": ["lbo-g", "lbo-n+ilb"]}
RUN_SCRIPT = ("import json, sys, invlab\n"
              "cfg = invlab.config_from_json_dict(json.loads(sys.argv[1]))\n"
              "invlab.run_benchmark(cfg, sys.argv[2])")


def child_env(threads: str) -> dict:
    """The environment of a fresh interpreter that imports this checkout's invlab."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "OPENBLAS_NUM_THREADS": threads,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_bytes_identical_across_blas_thread_counts(tmp_path):
    # each run in a fresh interpreter: OpenBLAS reads its thread count once, at load
    runs = {}
    for threads in ("1", "2"):
        runs[threads] = subprocess.Popen(
            [sys.executable, "-c", RUN_SCRIPT, json.dumps(THREADED_DOC), str(tmp_path / threads)],
            env=child_env(threads))
    assert [run.wait(timeout=120) for run in runs.values()] == [0, 0]
    for name in ("benchmark.csv", "summary.json"):
        digests = {hashlib.sha256((tmp_path / threads / name).read_bytes()).hexdigest()
                   for threads in runs}
        assert len(digests) == 1, name


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


def test_record_timing_populates_wall_ms():
    # the row's own time in milliseconds: within the call's, and not far below it
    backends = BenchmarkBackends(config_from_json_dict({**SMALL_DOC, "record_timing": True}))
    started = time.perf_counter()
    row = evaluate_instance(backends, 0, "ddim")
    elapsed_ms = (time.perf_counter() - started) * 1e3
    assert 0.01 * elapsed_ms < row.wall_ms <= elapsed_ms


def test_round_trip_of_a_zero_latent_is_its_absolute_error(monkeypatch):
    # z0 = 0 has no norm to divide by: roundtrip_l2_rel is then ‖z0_back‖
    backends = BenchmarkBackends(config_from_json_dict(SMALL_DOC))
    d = backends.ae.latent_dim
    monkeypatch.setattr("invlab.benchmark.start_latent", lambda b, x0, use_ilb: np.zeros(d))
    monkeypatch.setattr("invlab.benchmark.replay",
                        lambda b, z_t: SimpleNamespace(end=np.full(d, 0.5)))
    assert evaluate_instance(backends, 0, "ddim").roundtrip_l2_rel == pytest.approx(
        0.5 * math.sqrt(d), rel=1e-12)


def test_failed_instance_becomes_error_row(monkeypatch):
    backends = BenchmarkBackends(config_from_json_dict(SMALL_DOC))

    def diverge(backends, instance_id, method):
        raise DivergenceError("non-finite loss", iteration=3)

    monkeypatch.setattr("invlab.benchmark.evaluate_instance", diverge)
    row = _run_instance(backends, 1, "ddim")
    assert row.psnr_db == "error" and row.roundtrip_l2_rel == "error"
    assert row.instance_id == 1 and row.method == "ddim"
    assert (row.error_code, row.error_message) == ("divergence", "non-finite loss")


def test_non_finite_round_trip_is_a_divergence_row(tmp_path, monkeypatch):
    # Adam steps of 1e300 leave a z_T whose round-trip norm overflows to inf
    for method, mode in [("lbo-g", "gradient"), ("lbo-h", "hybrid")]:
        monkeypatch.setitem(invlab.benchmark.LBO_CONFIGS, method, LboConfig(mode, lr=1e300))
    doc = {**SMALL_DOC, "dataset": {"count": 1, "height": 8, "width": 8},
           "methods": ["lbo-g", "lbo-h"]}
    rows, _ = run_benchmark(config_from_json_dict(doc), tmp_path)
    assert [(r.method, r.error_code, r.roundtrip_l2_rel) for r in rows] == [
        ("lbo-g", "divergence", "error"), ("lbo-h", "divergence", "error")]

    summary = strict_json((tmp_path / "summary.json").read_text())
    assert summary["per_method"]["lbo-g"]["mean_roundtrip_l2_rel"] is None


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


# (an image size past the cap on the codec's pixel-by-pixel matrix, the key it is refused at)
CODEC_CAPPED = [({"height": 200, "width": 200}, "dataset.height"),
                ({"height": 5, "width": 900}, "dataset.width")]

# (a JSON document with one value outside its range, the key it is refused at); the same
# document built in Python is refused naming that key's field
OUT_OF_RANGE = [
    ({"n_workers": 0}, "n_workers"), ({"n_workers": -3}, "n_workers"),
    ({"n_workers": 2}, "n_workers"),
    ({"methods": []}, "methods"), ({"methods": ["ddim", "ddim"]}, "methods"),
    ({"methods": ["bogus"]}, "methods"),
    ({"denoiser": {"kind": "bogus"}}, "denoiser.kind"),
    ({"autoencoder": {"kind": "bogus"}}, "autoencoder.kind"),
    ({"steps": 0}, "steps"), ({"steps": 101}, "steps"), ({"t_train": 0}, "t_train"),
    ({"beta_start": 0.0}, "beta_start"), ({"beta_start": 0.1, "beta_end": 0.05}, "beta_end"),
    ({"beta_end": 1.0}, "beta_end"),
    # json.load reads NaN, Infinity and -Infinity from a config file
    ({"beta_start": NAN}, "beta_start"), ({"beta_end": INF}, "beta_end"),
    ({"autoencoder": {"latent_frac": -INF}}, "autoencoder.latent_frac"),
    ({"denoiser": {"kind": "mlp", "train": {"lr": INF}}}, "denoiser.train.lr"),
    ({"dataset": {"count": 0}}, "dataset.count"), ({"dataset": {"height": 4}}, "dataset.height"),
    ({"dataset": {"height": 3}}, "dataset.height"), ({"dataset": {"width": 4}}, "dataset.width"),
    # the builders would read "" as unset and build what the size budget skipped
    *[({section: {"path": ""}}, f"{section}.path")
      for section in ("dataset", "denoiser", "autoencoder")],
    ({"autoencoder": {"fit_count": 1}}, "autoencoder.fit_count"),
    # past 1e6 the round trip scores as inf or NaN
    *[({"autoencoder": {"leak_scale": value}}, "autoencoder.leak_scale")
      for value in (NAN, -0.5, INF, 1.000001e6, 1e300)],
    *[({"autoencoder": {"latent_frac": value}}, "autoencoder.latent_frac")
      for value in (-1.0, 0.0, 1.5)],
    # sizes whose arrays pass the memory budget
    ({"t_train": 10**20}, "t_train"), ({"dataset": {"count": 10**20}}, "dataset.count"),
    ({"dataset": {"count": 2**16 + 1}}, "dataset.count"),  # 2**16 16x16 images fill 2**27 bytes
    ({"autoencoder": {"fit_count": 10**20}}, "autoencoder.fit_count"),
    ({"dataset": {"height": 10**10, "width": 10**10}}, "dataset.height"),
    ({"denoiser": {"kind": "mlp", "train": {"width": 10**20}}}, "denoiser.train.width"),
    *[({"dataset": size, "autoencoder": {"kind": kind}}, key)
      for kind in ("linear", "identity") for size, key in CODEC_CAPPED],
    *[({"denoiser": {"kind": "mlp", "train": {field: value}}}, f"denoiser.train.{field}")
      for field, value in [("width", 0), ("max_epochs", -1), ("batch_size", 0), ("lr", 0.0),
                           ("lr", -0.5), ("lr", -1.0)]],
    *[({"ilb": {field: value}, "methods": ["lbo-n+ilb"]}, f"ilb.{field}")
      for field, value in [("lr", NAN), ("lr", 0.0), ("rel_tol", NAN), ("rel_tol", -1.0),
                           ("max_iters", 0), ("weights", [1.0, NAN, 1.0]),
                           ("weights", [1.0, 1.0, -0.5])]],
]


@pytest.mark.parametrize("doc,key", OUT_OF_RANGE, ids=[json.dumps(doc) for doc, _ in OUT_OF_RANGE])
def test_out_of_range_config_value_is_refused_on_every_route(doc, key, tmp_path, capsys):
    named, from_json, built = _refusals(doc, tmp_path, capsys)
    assert named == key and str(from_json) == f"config key {key}: {built}"


# documents at the accepted end of the ranges above
ACCEPTED_EDGES = [
    {"denoiser": {"train": {"width": 1, "max_epochs": 0, "batch_size": 1, "lr": 1e-12}}},
    {"t_train": 1, "steps": 1, "beta_start": 0.5, "beta_end": 0.5,
     "dataset": {"count": 1, "height": 5, "width": 5},
     "autoencoder": {"fit_count": 2, "leak_scale": 0.0}, "ilb": {"dt": 1}},
    {"dataset": {"count": 2**16}}, {"dataset": {"height": 64, "width": 64}},  # the codec's cap
    {"ilb": {"lr": 1e-300, "rel_tol": 1e-300, "max_iters": 1, "weights": [0.0, 0.0, 0.0]}},
    {"autoencoder": {"latent_frac": 1.0, "leak_scale": 1e6}},
    # a codec read from a file builds no pixel-by-pixel matrix, so the cap is not applied
    *[{"dataset": size, "autoencoder": {"kind": kind, "path": "codec.labmdl"}}
      for kind in ("linear", "identity") for size, _ in CODEC_CAPPED],
]


@pytest.mark.parametrize("doc", ACCEPTED_EDGES, ids=json.dumps)
def test_config_values_at_the_edge_of_their_range_load(doc):
    cfg = config_from_json_dict(doc)
    assert cfg == _built(RunConfig, doc)
    echo = cfg.to_json_dict()
    assert all(_lookup(echo, leaf) == _lookup(doc, leaf) for leaf in json_leaves(doc))


# every key a config can set, a list named once by its key: adding or removing an option
# is an edit here
SETTABLE_KEYS = [
    "seed", "t_train", "beta_start", "beta_end", "steps", "record_timing", "n_workers",
    "methods",
    "dataset.count", "dataset.height", "dataset.width", "dataset.path",
    "denoiser.kind", "denoiser.path", "denoiser.train.width", "denoiser.train.max_epochs",
    "denoiser.train.batch_size", "denoiser.train.lr",
    "autoencoder.kind", "autoencoder.path", "autoencoder.latent_frac", "autoencoder.fit_count",
    "autoencoder.leak_scale",
    "ilb.lr", "ilb.max_iters", "ilb.rel_tol", "ilb.dt", "ilb.use_reg", "ilb.weights",
]


def test_the_settable_config_keys_are_pinned():
    leaves = json_leaves(RunConfig().to_json_dict())
    keys = [".".join(k for k in leaf if isinstance(k, str)) for leaf in leaves]
    assert list(dict.fromkeys(keys)) == SETTABLE_KEYS


def key_paths(doc) -> set:
    """The path of every key and index in a JSON document."""
    return {key_path(leaf[:n]) for leaf in json_leaves(doc) for n in range(1, len(leaf) + 1)}


ODD_VALUES = (None, True, -3, 0, 1, 12, 10**20, -1.5, 1e308, NAN, INF, -INF, "x", [], {})


@pytest.mark.parametrize("leaf", json_leaves(RunConfig().to_json_dict()),
                         ids=key_path)
def test_any_value_at_one_leaf_loads_or_is_a_config_error_naming_a_key(leaf):
    # values that are refused, or accepted, before anything large is allocated; the
    # mid-range sizes run in a capped child, in test_size_past_the_memory_budget_...
    for value in ODD_VALUES:
        doc = RunConfig().to_json_dict()
        set_json_leaf(doc, leaf, value)
        try:
            assert isinstance(config_from_json_dict(doc), RunConfig)
        except ConfigError as e:
            assert e.context.get("key") in key_paths(doc), (value, e.context)


# (a key path that was once settable, the unknown key its error names): the dataset is
# the seeded shapes or a file's images, so it has no kind; the analytic oracle's recipe is
# fixed; denoiser.train is MlpTrainConfig, so the MLP trains on all autoencoder.fit_count
# fit images with the run's seed; and each LBO method runs its mode's LboConfig defaults,
# so the whole lbo section is unknown; and two keys that never were
FORMER_KEYS = [("stepz", "stepz"), ("denoiser.train.momentum", "denoiser.train.momentum"),
               ("dataset.kind", "dataset.kind"), ("denoiser.mu_scale", "denoiser.mu_scale"),
               ("denoiser.eig_min", "denoiser.eig_min"),
               ("denoiser.eig_max", "denoiser.eig_max"),
               ("denoiser.train.count", "denoiser.train.count"),
               ("denoiser.train.seed", "denoiser.train.seed"),
               ("lbo", "lbo"), ("lbo.max_iters", "lbo"), ("lbo.tol", "lbo"), ("lbo.lr", "lbo"),
               ("lbo.n_grad_warmup", "lbo")]


@pytest.mark.parametrize("path,key", FORMER_KEYS, ids=[path for path, _ in FORMER_KEYS])
def test_any_value_at_a_former_key_is_an_unknown_key(path, key):
    for value in ODD_VALUES:
        with pytest.raises(ConfigError, match=f"unknown config key '{re.escape(key)}'") as e:
            config_from_json_dict(_nest(path, value))
        assert e.value.context["key"] == key, value


# (command, a config with a size that NumPy can index but whose arrays would fill
# gigabytes or more, the key its error names)
OVERSIZED = [("roundtrip", {"t_train": 10**9}, "t_train"),
             ("roundtrip", {"dataset": {"count": 10**12}}, "dataset.count"),
             ("roundtrip", {"autoencoder": {"fit_count": 10**11}}, "autoencoder.fit_count"),
             # every array within the budget, but one trajectory keeps 2**24 + 1 latents
             ("roundtrip",
              {"t_train": 2**24, "steps": 2**24, "beta_start": 1e-9, "beta_end": 1e-9}, "steps"),
             # an empty path would skip the MLP's budget row and build a 5000 x 5000 layer
             ("roundtrip", {"denoiser": {"kind": "mlp", "path": "", "train": {"width": 5000}}},
              "denoiser.path"),
             # a set path skips what a run would load from it, but a train command builds it
             ("train-denoiser",
              {"denoiser": {"kind": "mlp", "path": "den.labmdl", "train": {"width": 5000}}},
              "denoiser.train.width"),
             ("train-autoencoder", {"autoencoder": {"path": "ae.labmdl", "fit_count": 5000}},
              "autoencoder.fit_count"),
             ("train-autoencoder",
              {"autoencoder": {"path": "ae.labmdl"}, "dataset": {"height": 200, "width": 200}},
              "dataset.height")]
# caps its own address space at 2 GiB before it imports NumPy, then runs each command on
# its config: a size that is allocated after all fails fast instead of filling the memory
CAPPED_CLI_SCRIPT = ("import resource, sys\n"
                     "resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30,) * 2)\n"
                     "from invlab.cli import main\n"
                     "for command, path in zip(sys.argv[2::2], sys.argv[3::2]):\n"
                     "    print(main([command, '--config', path, '--out', sys.argv[1]]))\n")


def test_size_past_the_memory_budget_exits_2_before_allocating(tmp_path):
    argv = []
    for i, (command, doc, _) in enumerate(OVERSIZED):
        path = tmp_path / f"run{i}.json"
        path.write_text(json.dumps(doc))
        argv += [command, str(path)]
    run = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI_SCRIPT, str(tmp_path / "out"), *argv],
        env=child_env("1"), capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    assert lines[1::2] == ["2"] * len(OVERSIZED), run.stdout
    for (_, _, key), line in zip(OVERSIZED, lines[::2]):
        doc = json.loads(line)
        assert doc["code"] == "config-error" and doc["context"]["key"] == key, doc


def test_steps_budget_is_one_trajectory_of_latents():
    # at 16x16, steps + 1 latents of 256 floats fit in 2**27 bytes up to 65535 steps
    long = {"t_train": 10**5, "beta_start": 1e-4, "beta_end": 1e-4}
    assert config_from_json_dict({**long, "steps": 65535}).steps == 65535
    with pytest.raises(ConfigError) as err:
        config_from_json_dict({**long, "steps": 65536})
    assert err.value.context["key"] == "steps"


def test_mlp_width_budget_is_its_parameter_count():
    # at 16x16 and t_train 100, width * (2 * 256 + 100 + width + 3) + 256 floats fit in
    # 2**27 bytes up to width 3799
    mlp = {"kind": "mlp", "train": {"width": 3799}}
    assert config_from_json_dict({"denoiser": mlp}).denoiser.train.width == 3799
    with pytest.raises(ConfigError) as err:
        config_from_json_dict({"denoiser": {**mlp, "train": {"width": 3800}}})
    assert err.value.context["key"] == "denoiser.train.width"


@pytest.mark.parametrize("built, not_built, key", [
    # the MLP's parameters count only when the run trains an MLP
    ({"denoiser": {"kind": "mlp"}}, {"denoiser": {"kind": "analytic"}}, "denoiser.train.width"),
    ({"denoiser": {"kind": "mlp"}}, {"denoiser": {"kind": "mlp", "path": "den.labmdl"}},
     "denoiser.train.width"),
    # the fit's left SVD basis, fit_count squared, only when the run fits the codec
    ({"autoencoder": {"fit_count": 5000}},
     {"autoencoder": {"fit_count": 5000, "kind": "identity"}}, "autoencoder.fit_count"),
    ({"autoencoder": {"fit_count": 5000}},
     {"autoencoder": {"fit_count": 5000, "path": "ae.labmdl"}}, "autoencoder.fit_count"),
])
def test_memory_budget_counts_only_what_the_run_builds(built, not_built, key):
    # a long schedule: 10**6 tiny betas, whose MLP time embedding would pass the budget
    long = {"t_train": 10**6, "steps": 10, "beta_start": 1e-9, "beta_end": 1e-9}
    with pytest.raises(ConfigError) as err:
        config_from_json_dict({**long, **built})
    assert err.value.context["key"] == key
    assert isinstance(config_from_json_dict({**long, **not_built}), RunConfig)


def test_summary_of_an_exact_codec_is_strict_json(tmp_path):
    # the exact codec's upper-bound PSNR is infinite, which strict JSON cannot hold
    cfg = config_from_json_dict({"autoencoder": {"kind": "identity"}, "dataset": {"count": 2},
                                 "steps": 5, "methods": ["ddim"]})
    run_benchmark(cfg, tmp_path)

    summary = strict_json((tmp_path / "summary.json").read_text())
    assert summary["upper_bound"]["mean_psnr_db"] is None
    assert math.isfinite(summary["per_method"]["ddim"]["mean_psnr_db"])


def test_json_text_writes_non_finite_floats_as_null():
    payload = {"b": [math.inf, (-math.inf, 1.5)], "a": {"x": math.nan}, "c": np.float64(0.25)}
    assert json_text(payload) == '{"a": {"x": null}, "b": [null, [null, 1.5]], "c": 0.25}'


def test_a_latent_as_large_as_the_image_builds():
    cfg = config_from_json_dict({**SMALL_DOC, "autoencoder": {"fit_count": 16, "latent_frac": 1}})
    assert BenchmarkBackends(cfg).ae.latent_dim == 64


TINY_MLP_DOC = {
    "seed": 2,
    "steps": 4,
    "t_train": 40,
    "dataset": {"count": 2, "height": 8, "width": 8},
    "autoencoder": {"fit_count": 16},
    "denoiser": {"kind": "mlp", "train": {"width": 8, "max_epochs": 3}},
    "ilb": {"max_iters": 6},
    "methods": ["lbo-g", "lbo-h", "lbo-n+ilb"],
}


@pytest.mark.parametrize("kind", ["mlp", "analytic"])
def test_shared_forward_passes_write_the_same_bytes(kind, tmp_path, monkeypatch):
    doc = {**TINY_MLP_DOC, "denoiser": {**TINY_MLP_DOC["denoiser"], "kind": kind}}
    cfg = config_from_json_dict(doc)
    run_benchmark(cfg, tmp_path / "shared")
    # separate paths: the prediction, then a fresh linearization per pullback; distance,
    # then x's features recomputed for each gradient
    for cls in (MlpDenoiser, LinearGaussianDenoiser):
        def linearize(self, z, t, shared=cls.linearize):
            return shared(self, z, t)[0], lambda v: shared(self, z, t)[1](v)
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

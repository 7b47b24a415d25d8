"""Tests for the benchmark's own code: proxies, span arithmetic, checks, workloads."""

import json

import numpy as np
import pytest

import invlab
import invlab.benchmark
from invlab.benchmark import BenchmarkBackends

from bench_checks import check_call, pooled_psnr
from bench_layers import (AUTOENCODER_SPANS, DENOISER_SPANS, LAYERS, PERCEPTUAL_SPANS, Proxy,
                          Span, Tracer, counts_repeat, layer_metrics, self_times, tail)
from bench_worker import bound_psnr
from run import BENCH, WORKLOADS

TINY = {"seed": 5, "steps": 5, "dataset": {"count": 2}, "ilb": {"max_iters": 3},
        "methods": ["ddim", "lbo-n", "lbo-g", "lbo-n+ilb"]}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_configs_load(workload):
    doc = json.loads((BENCH / "workloads" / f"{workload}.json").read_text())
    cfg = invlab.config_from_json_dict({**doc, "seed": 17})
    assert cfg.seed == 17
    assert cfg.n_workers == 1  # the tracer assumes one thread


def test_proxies_return_what_the_wrapped_objects_return():
    cfg = invlab.config_from_json_dict(TINY)
    b = BenchmarkBackends(cfg)
    tracer = Tracer()
    model = Proxy(tracer, b.model, DENOISER_SPANS)
    ae = Proxy(tracer, b.ae, AUTOENCODER_SPANS)
    perc = Proxy(tracer, b.perc, PERCEPTUAL_SPANS)
    rng = np.random.default_rng(0)
    x, y = b.images[0], np.clip(b.images[1] + 0.1, 0.0, 1.0)
    z = rng.standard_normal(b.ae.latent_dim)
    v = rng.standard_normal(b.ae.latent_dim)
    c = b.condition
    pairs = [
        (model.eval(z, 40, c), b.model.eval(z, 40, c)),
        (model.vjp(z, 40, c, v), b.model.vjp(z, 40, c, v)),
        (ae.encode(x), b.ae.encode(x)),
        (ae.decode(z), b.ae.decode(z)),
        (ae.decoder_vjp(z, x), b.ae.decoder_vjp(z, x)),
        (perc.distance(x, y), b.perc.distance(x, y)),
        (perc.grad_y(x, y), b.perc.grad_y(x, y)),
    ]
    for traced, plain in pairs:
        assert type(traced) is type(plain)
        assert np.array_equal(traced, plain)
    assert model.latent_dim == b.model.latent_dim and ae.image_shape == b.ae.image_shape
    assert [s.name for s in tracer.spans] == [
        "denoiser.eval", "denoiser.vjp", "autoencoder.encode", "autoencoder.decode",
        "autoencoder.vjp", "perceptual.distance", "perceptual.grad_y"]


def test_traced_run_writes_the_same_bytes_and_repeats_its_counts(tmp_path):
    cfg = invlab.config_from_json_dict(TINY)
    original = invlab.benchmark.evaluate_instance
    invlab.run_benchmark(cfg, tmp_path / "plain")
    tracer = Tracer()
    for call in range(2):
        tracer.call_index = call
        with tracer.installed():
            invlab.run_benchmark(cfg, tmp_path / f"traced{call}")
    assert invlab.benchmark.evaluate_instance is original
    for name in ("benchmark.csv", "summary.json"):
        plain = (tmp_path / "plain" / name).read_bytes()
        assert (tmp_path / "traced0" / name).read_bytes() == plain
        assert (tmp_path / "traced1" / name).read_bytes() == plain
    assert counts_repeat(tracer)
    m = layer_metrics(tracer)
    assert m["benchmark.rows.ddim"] == 4 and m["ilb.iters"] == 3
    assert m["lbo.iters_per_step.lbo-g"] == 20
    assert sum(m[f"{layer}.self_share"] for layer in LAYERS) == pytest.approx(1.0)


def test_self_times_on_a_hand_made_span_tree():
    spans = [
        Span("root", 0.0, 10.0, -1, None),
        Span("a", 1.0, 4.0, 0, None),
        Span("b", 3.0, 6.0, 0, None),   # overlaps a: the root loses [1, 6] once
        Span("c", 9.0, 12.0, 0, None),  # runs past the root: only [9, 10] counts
        Span("g", 2.0, 3.0, 1, None),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 3.0, 3.0, 1.0])


def test_layer_shares_on_a_hand_made_row():
    tracer = Tracer()
    row = (0, 0, "lbo-n")
    tracer.spans = [
        Span("benchmark.row", 0.0, 10.0, -1, row),
        Span("lbo.trajectory", 1.0, 9.0, 0, row),
        Span("denoiser.eval", 2.0, 4.0, 1, row),
        Span("data.make_shapes", 20.0, 30.0, -1, None),  # set-up, outside every row
    ]
    tracer.notes = {1: ("lbo", "numerical", [3, 2], [True, True], 1e-9)}
    m = layer_metrics(tracer)
    assert m["benchmark.self_share"] == pytest.approx(0.2)
    assert m["lbo.self_share"] == pytest.approx(0.6)
    assert m["denoiser.self_share"] == pytest.approx(0.2)
    assert m["denoiser.eval_calls"] == 1 and m["lbo.iters_per_step.lbo-n"] == 2.5


def test_tail_has_ten_rows_beyond_it():
    values = list(range(1, 21))
    assert tail(values) == 10
    assert sum(v > tail(values) for v in values) == 10
    assert tail(list(range(10))) == 0.0


def test_check_call_accepts_real_outputs_and_flags_drift(tmp_path):
    cfg = invlab.config_from_json_dict(TINY)
    _, summary = invlab.run_benchmark(cfg, tmp_path)
    csv_text = (tmp_path / "benchmark.csv").read_text()
    bounds = bound_psnr(BenchmarkBackends(cfg))
    pinned = {m: {f[len("mean_"):]: s[f] for f in s if f.startswith("mean_")}
              for m, s in summary["per_method"].items()}
    assert check_call(TINY, csv_text, summary, pinned, bounds) == []
    pinned["lbo-n"]["psnr_db"] += 1e-3
    assert check_call(TINY, csv_text, summary, pinned, bounds) == [
        f"lbo-n: mean psnr_db {summary['per_method']['lbo-n']['mean_psnr_db']!r} differs "
        f"from pinned {pinned['lbo-n']['psnr_db']!r}"]
    assert any("error" in p for p in check_call(
        TINY, csv_text.replace(csv_text.splitlines()[1].split(",")[2], "error", 1), summary, None,
        bounds))
    assert "the per-image bounds do not average to summary.json's upper bound" in check_call(
        TINY, csv_text, summary, None, bounds[:1] * 2)


def test_pooled_psnr_ignores_round_off_exact_images():
    # an all-white image: ~310 dB on the bound, ~200 dB after an exact inversion
    assert pooled_psnr([310.0, 20.0]) == pytest.approx(pooled_psnr([200.0, 20.0]), abs=1e-9)
    assert pooled_psnr([310.0, 20.0]) == pytest.approx(20.0 + 10.0 * np.log10(2.0))
    assert pooled_psnr([20.0, 20.0]) == pytest.approx(20.0)
    assert pooled_psnr([float("inf")]) == float("inf")

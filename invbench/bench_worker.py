"""One fresh interpreter of the invlab benchmark; run.py starts it.

    python3 invbench/bench_worker.py <role> <workload-json> <out-dir> <seconds>

Roles:
  setup    time `import invlab` + BenchmarkBackends(cfg), nothing else
  measure  set up (timed), one untimed warm-up run_benchmark call, then timed
           calls until <seconds> have passed
  trace    the same, alternating untraced and traced calls

Run from the root of a checkout with its src/ on PYTHONPATH. The last line of
stdout is one JSON object for run.py.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

MIN_TIMED_CALLS = 3
MAX_TRACED_CALLS = 4  # the spans of every traced call stay in memory


def _import_invlab():
    """Import invlab from ./src and return (module, BenchmarkBackends, seconds)."""
    start = time.perf_counter()
    import invlab
    from invlab.benchmark import BenchmarkBackends
    took = time.perf_counter() - start
    here = (Path.cwd() / "src" / "invlab").resolve()
    if Path(invlab.__file__).resolve().parent != here:
        sys.exit(f"bench_worker: imported invlab from {invlab.__file__}, expected {here}")
    return invlab, BenchmarkBackends, took


def _environment(doc: dict) -> dict:
    import os
    import platform

    import numpy as np
    import scipy

    blas = "unknown"
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    if "blas" in deps:
        blas = f"{deps['blas'].get('name')} {deps['blas'].get('version')}"
    cpu = platform.processor() or platform.machine()
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.is_file():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": blas, "cpu": cpu,
            "nproc": len(os.sched_getaffinity(0)), "seed": doc["seed"]}


def _peak_rss_mb() -> float:
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def _timed_call(invlab, cfg, out_dir: Path):
    """One run_benchmark call: (rows, rows per second, csv text, summary dict)."""
    start = time.perf_counter()
    rows, _ = invlab.run_benchmark(cfg, out_dir)
    rate = len(rows) / (time.perf_counter() - start)
    csv_text = (out_dir / "benchmark.csv").read_text(encoding="utf-8")
    summary = json.loads((out_dir / "summary.json").read_text(encoding="utf-8"))
    return rows, rate, csv_text, summary


def bound_psnr(backends) -> list:
    """Each image's PSNR after the plain encode -> decode round trip, as
    run_benchmark's upper bound computes it before averaging."""
    import numpy as np
    from invlab.metrics import psnr

    return [psnr(x0, np.clip(backends.ae.decode(backends.ae.encode(x0)), 0.0, 1.0))
            for x0 in backends.images]


def _quality(rows) -> dict:
    """Means over the non-error rows of the four image and latent quality columns."""
    rows = [r for r in rows if r.psnr_db != "error"]
    n = max(len(rows), 1)
    return {
        "metrics.mean_psnr_db": sum(r.psnr_db for r in rows) / n,
        "metrics.mean_ssim": sum(r.ssim for r in rows) / n,
        "perceptual.mean_distance": sum(r.perceptual for r in rows) / n,
        "benchmark.mean_roundtrip_l2_rel": sum(r.roundtrip_l2_rel for r in rows) / n,
    }


def setup(doc: dict) -> dict:
    start = time.perf_counter()
    invlab, BenchmarkBackends, _ = _import_invlab()
    BenchmarkBackends(invlab.config_from_json_dict(doc))
    return {"setup_s": time.perf_counter() - start}


def measure(doc: dict, out_dir: Path, seconds: float) -> dict:
    start = time.perf_counter()
    invlab, BenchmarkBackends, _ = _import_invlab()
    cfg = invlab.config_from_json_dict(doc)
    backends = BenchmarkBackends(cfg)
    setup_s = time.perf_counter() - start

    # the first call pays one-time lazy costs (first scipy and BLAS calls),
    # which a long-running user pays once; it is checked but not timed
    rows, _, ref_csv, ref_summary = _timed_call(invlab, cfg, out_dir)
    rates, differing = [], 0
    window = time.perf_counter()
    while len(rates) < MIN_TIMED_CALLS or time.perf_counter() - window < seconds:
        _, rate, csv_text, summary = _timed_call(invlab, cfg, out_dir)
        rates.append(rate)
        differing += (csv_text, summary) != (ref_csv, ref_summary)
    return {"env": _environment(doc), "setup_s": setup_s, "rows_per_call": len(rows),
            "rates": rates, "differing_calls": differing, "peak_rss_mb": _peak_rss_mb(),
            "csv": ref_csv, "summary": ref_summary, "bound_psnr": bound_psnr(backends)}


def trace(doc: dict, out_dir: Path, seconds: float) -> dict:
    import statistics

    invlab, BenchmarkBackends, import_s = _import_invlab()
    import bench_layers

    cfg = invlab.config_from_json_dict(doc)
    setup_tracer = bench_layers.Tracer()
    with setup_tracer.installed():
        t = time.perf_counter()
        BenchmarkBackends(cfg)
        backends_s = time.perf_counter() - t
    layers = bench_layers.setup_metrics(setup_tracer)
    layers.update({"benchmark.import_s": import_s, "benchmark.backends_s": backends_s})
    layers["denoiser.train_s"] = (layers["benchmark.build_denoiser_s"]
                                  if doc.get("denoiser", {}).get("kind") == "mlp" else 0.0)

    rows, _, ref_csv, ref_summary = _timed_call(invlab, cfg, out_dir)
    tracer = bench_layers.Tracer()
    plain, traced, differing = [], [], 0
    window = time.perf_counter()
    while len(traced) < 2 or (time.perf_counter() - window < seconds
                              and len(traced) < MAX_TRACED_CALLS):
        _, rate, csv_text, summary = _timed_call(invlab, cfg, out_dir)
        plain.append(rate)
        differing += (csv_text, summary) != (ref_csv, ref_summary)
        tracer.call_index = len(traced)
        with tracer.installed():
            _, rate, csv_text, summary = _timed_call(invlab, cfg, out_dir / "traced")
        traced.append(rate)
        differing += (csv_text, summary) != (ref_csv, ref_summary)

    layers.update(bench_layers.layer_metrics(tracer))
    layers.update(_quality(rows))
    untraced_rate, traced_rate = statistics.median(plain), statistics.median(traced)
    layers.update({"benchmark.rows_per_s_untraced": untraced_rate,
                   "benchmark.rows_per_s_traced": traced_rate,
                   "benchmark.trace_overhead": 1.0 - traced_rate / untraced_rate})
    bench_layers.write_spans(tracer, out_dir / "spans.csv")
    return {"env": _environment(doc), "metrics": layers, "rows_per_call": len(rows),
            "calls": 1 + len(plain) + len(traced), "differing_calls": differing,
            "counts_repeat": bench_layers.counts_repeat(tracer),
            "csv": ref_csv, "summary": ref_summary,
            # backends built inside a tracer keep its proxies, so build them outside
            "bound_psnr": bound_psnr(BenchmarkBackends(cfg))}


def main(argv: list) -> None:
    role, doc, out_dir, seconds = argv[1], json.loads(argv[2]), Path(argv[3]), float(argv[4])
    if role == "setup":
        result = setup(doc)
    elif role == "measure":
        result = measure(doc, out_dir, seconds)
    elif role == "trace":
        result = trace(doc, out_dir, seconds)
    else:
        sys.exit(f"bench_worker: unknown role {role!r}")
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv)

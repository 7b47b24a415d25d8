"""Correctness checks on the outputs of one run_benchmark call.

Every seed gets the structural and physical checks. Seeds listed in
pins.json are also held to the per-method means recorded when the benchmark
was defined, so a change that moves results (a speed-up bought with
accuracy, or a silent numerical change) fails the run.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path

import numpy as np

FIELDS = ("psnr_db", "ssim", "perceptual", "roundtrip_l2_rel", "mean_lbo_iters")
PINS_PATH = Path(__file__).resolve().parent / "pins.json"

# Tolerances against pinned means. Image metrics and the round trip are
# relative; the round trip also gets an absolute floor because lbo-n drives it
# to about 1e-10, where only solver round-off is left. Mean LBO iterations
# may move by a handful of single-step count flips.
PIN_RTOL = 1e-6
ROUNDTRIP_ATOL = 1e-9
ITERS_ATOL = 0.01
# Without boosting, decoding the recovered latent lands on the plain
# encode -> decode bound; with boosting it must beat that bound. Both sides
# are pooled over the images (see pooled_psnr).
BOUND_SLACK_DB = 0.5
# lbo-n converges to tol=1e-8 on every step, so its round trip is near exact:
# at most 2.6e-9 over the 96 pinned workload seeds.
LBO_N_ROUNDTRIP_MAX = 1e-8


def load_pins(workload: str) -> dict:
    with open(PINS_PATH, encoding="utf-8") as f:
        return json.load(f).get(workload, {})


def parse_rows(csv_text: str) -> list:
    return list(csv.DictReader(io.StringIO(csv_text)))


def pooled_psnr(values) -> float:
    """PSNR of the mean squared error over images, for data range 1.

    A mean of dB values lets one image reconstructed to round-off outweigh all
    the others: an all-white image reads about 310 dB on the bound and about
    200 dB after an exact inversion, or 50 dB after DDIM's. Pooling the squared
    errors first gives such an image a weight near 0, as its error is.
    """
    mse = float(np.mean([10.0 ** (-p / 10.0) for p in values]))
    return math.inf if mse == 0.0 else -10.0 * math.log10(mse)


def method_means(rows: list) -> dict:
    """{method: {field: mean over its non-error rows}}, as summary.json computes it."""
    out = {}
    for method in sorted({r["method"] for r in rows}):
        ok = [r for r in rows if r["method"] == method and r["psnr_db"] != "error"]
        out[method] = {f: float(np.mean([float(r[f]) for r in ok])) if ok else None
                       for f in FIELDS}
    return out


def _close(a: float, b: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


def check_call(doc: dict, csv_text: str, summary: dict, pinned: dict | None,
               bound_psnr: list) -> list:
    """Problems found in one call's benchmark.csv and summary.json; empty if none.

    bound_psnr holds each image's PSNR after the plain encode -> decode round
    trip, which summary.json's upper bound averages.
    """
    problems = []
    rows = parse_rows(csv_text)
    count, methods = doc["dataset"]["count"], doc["methods"]
    errors = sum(1 for r in rows if r["psnr_db"] == "error")
    if errors:
        problems.append(f"{errors} rows written as error")
    grid = sorted((i, m) for i in range(count) for m in methods)
    if sorted((int(r["instance_id"]), r["method"]) for r in rows) != grid:
        problems.append("rows do not cover the instance x method grid exactly once")
    means = method_means(rows)
    if len(bound_psnr) != count or not math.isclose(
            float(np.mean(bound_psnr)), summary["upper_bound"]["mean_psnr_db"], rel_tol=1e-12):
        problems.append("the per-image bounds do not average to summary.json's upper bound")
    bound = pooled_psnr(bound_psnr)
    for method in methods:
        stats = summary["per_method"].get(method)
        if stats is None or stats["n_ok"] != count or stats["n_error"] != 0:
            problems.append(f"{method}: summary counts {stats} for {count} instances")
            continue
        mine = means.get(method)
        for f in FIELDS:
            if mine is None or mine[f] is None or not _close(stats["mean_" + f], mine[f], 1e-12):
                problems.append(f"{method}: summary mean_{f} disagrees with the CSV rows")
        psnr = pooled_psnr([float(r["psnr_db"]) for r in rows
                            if r["method"] == method and r["psnr_db"] != "error"])
        if method.endswith("+ilb"):
            if not psnr > bound:
                problems.append(f"{method}: pooled psnr {psnr:.4f} does not beat "
                                f"the bound {bound:.4f}")
        elif abs(psnr - bound) > BOUND_SLACK_DB:
            problems.append(f"{method}: pooled psnr {psnr:.4f} is off the bound {bound:.4f}")
        if method.split("+")[0] == "lbo-n" and stats["mean_roundtrip_l2_rel"] > LBO_N_ROUNDTRIP_MAX:
            problems.append(f"{method}: round trip {stats['mean_roundtrip_l2_rel']:.3g} "
                            f"above {LBO_N_ROUNDTRIP_MAX}")
        if pinned is None:
            continue
        pin = pinned.get(method)
        if pin is None:
            problems.append(f"{method}: no pinned means for this seed")
            continue
        for f in FIELDS:
            got, want = stats["mean_" + f], pin[f]
            if f == "mean_lbo_iters":
                ok = _close(got, want, 0.0, ITERS_ATOL)
            elif f == "roundtrip_l2_rel":
                ok = _close(got, want, PIN_RTOL, ROUNDTRIP_ATOL)
            else:
                ok = _close(got, want, PIN_RTOL)
            if not ok:
                problems.append(f"{method}: mean {f} {got!r} differs from pinned {want!r}")
    return problems

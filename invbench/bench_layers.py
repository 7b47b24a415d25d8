"""Outside-in layer tracing for the invlab benchmark.

The tracer wraps, from outside the package, the backend objects the pipeline
builds (denoiser, autoencoder, perceptual metric) and the module-level
functions it calls. Each wrapped call records one span (name, start, end,
parent span, row) in memory; `layer_metrics` turns the spans into per-layer
call counts, typical call times and self-time shares. Nothing under src/
changes: `Tracer.installed()` rebinds names in the invlab modules and
restores the originals on exit.

A span's layer is its name up to the first dot. Wrapper bookkeeping happens
outside the wrapped call's [start, end], so it lands in the parent span's
self time; layers that make many tiny calls (lbo, ilb) read high by that
amount in traced runs.
"""

from __future__ import annotations

import statistics
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import NamedTuple

import invlab.benchmark
import invlab.dynamics
import invlab.ilb
import invlab.lbo

DENOISER_SPANS = {"eval": "denoiser.eval", "vjp": "denoiser.vjp"}
AUTOENCODER_SPANS = {"encode": "autoencoder.encode", "decode": "autoencoder.decode",
                     "decoder_vjp": "autoencoder.vjp"}
PERCEPTUAL_SPANS = {"distance": "perceptual.distance", "grad_y": "perceptual.grad_y"}

LBO_MODES = ("numerical", "hybrid", "gradient")
MODE_KEY = {"numerical": "lbo-n", "hybrid": "lbo-h", "gradient": "lbo-g"}
METHODS = ("ddim", "lbo-n", "lbo-h", "lbo-g", "lbo-n+ilb")
# layers that run inside benchmark rows; data only runs in set-up
LAYERS = ("benchmark", "autoencoder", "denoiser", "perceptual", "metrics", "ilb",
          "lbo", "optim", "schedule", "dynamics")
# a row's tail time is the highest percentile with at least this many rows beyond it
TAIL_ROWS_BEYOND = 10


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root
    row: tuple | None  # (call, instance_id, method) inside a benchmark row


class Proxy:
    """Forwards everything to `inner`; the methods named in `spans` are traced."""

    def __init__(self, tracer: "Tracer", inner, spans: dict):
        self._inner = inner
        for attr, span in spans.items():
            setattr(self, attr, tracer.wrap(span, getattr(inner, attr)))

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class Tracer:
    """Span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[Span | None] = []  # None only while the call is running
        self.notes: dict[int, tuple] = {}  # span index -> solver report summary
        self.call_index = 0
        self._stack: list[int] = []
        self._row = None

    def call(self, name, fn, args, kwargs, note=None):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        row = self._row
        self._stack.append(idx)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[idx] = Span(name, start, end, parent, row)
        if note is not None:
            self.notes[idx] = note(args, result)
        return result

    def wrap(self, name, fn, note=None, post=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs, note)
            return post(result) if post is not None else result
        traced.__wrapped__ = fn
        return traced

    def _row_span(self, fn):
        def traced(backends, instance_id, method):
            self._row = (self.call_index, instance_id, method)
            try:
                return self.call("benchmark.row", fn, (backends, instance_id, method), {})
            finally:
                self._row = None
        traced.__wrapped__ = fn
        return traced

    def _patches(self):
        bm, lbo, ilb, dyn = invlab.benchmark, invlab.lbo, invlab.ilb, invlab.dynamics
        perc_cls = bm.RandomConvPerceptual

        def as_proxy(spans):
            return lambda inner: Proxy(self, inner, spans)

        return [
            (bm, "evaluate_instance", self._row_span(bm.evaluate_instance)),
            (bm, "make_shapes", self.wrap("data.make_shapes", bm.make_shapes)),
            (bm, "build_autoencoder", self.wrap("benchmark.build_autoencoder",
                                                bm.build_autoencoder,
                                                post=as_proxy(AUTOENCODER_SPANS))),
            (bm, "build_denoiser", self.wrap("benchmark.build_denoiser", bm.build_denoiser,
                                             post=as_proxy(DENOISER_SPANS))),
            (bm, "RandomConvPerceptual",
             lambda *a, **k: Proxy(self, perc_cls(*a, **k), PERCEPTUAL_SPANS)),
            (bm, "ilb_optimize", self.wrap("ilb.optimize", bm.ilb_optimize, note=_ilb_note)),
            (bm, "lbo_invert_trajectory", self.wrap("lbo.trajectory", bm.lbo_invert_trajectory,
                                                    note=_lbo_note)),
            (bm, "ddim_invert_trajectory", self.wrap("dynamics.invert",
                                                     bm.ddim_invert_trajectory)),
            (bm, "generate_trajectory", self.wrap("dynamics.replay", bm.generate_trajectory)),
            (bm, "psnr", self.wrap("metrics.psnr", bm.psnr)),
            (bm, "ssim", self.wrap("metrics.ssim", bm.ssim)),
            (ilb, "ssim_with_grad", self.wrap("metrics.ssim_grad", ilb.ssim_with_grad)),
            (ilb, "adam_step", self.wrap("optim.adam", ilb.adam_step)),
            (ilb, "skip_coefficients", self.wrap("schedule.coefficients",
                                                 ilb.skip_coefficients)),
            (lbo, "adam_step", self.wrap("optim.adam", lbo.adam_step)),
            (lbo, "coefficients", self.wrap("schedule.coefficients", lbo.coefficients)),
            (dyn, "coefficients", self.wrap("schedule.coefficients", dyn.coefficients)),
        ]

    @contextmanager
    def installed(self):
        """Trace every call the benchmark pipeline makes inside the block."""
        patches = self._patches()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
        try:
            for mod, attr, traced in patches:
                setattr(mod, attr, traced)
            yield self
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)


def _lbo_note(args, result):
    # evaluate_instance passes the LboConfig as the sixth positional argument
    mode = args[5].mode
    reports = result[1]
    return ("lbo", mode, [r.iters for r in reports], [r.converged for r in reports],
            max(r.residual for r in reports))


def _ilb_note(args, result):
    report = result[1]
    return ("ilb", report.iters_used, report.initial_total, report.final_total)


def self_times(spans: list) -> list:
    """Each span's duration minus the part of its interval its children cover."""
    children = [[] for _ in spans]
    for i, s in enumerate(spans):
        if s.parent >= 0:
            children[s.parent].append(i)
    out = []
    for s, kids in zip(spans, children):
        covered = 0.0
        lo = hi = None
        for j in sorted(kids, key=lambda j: spans[j].start):
            a, b = max(spans[j].start, s.start), min(spans[j].end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out.append((s.end - s.start) - covered)
    return out


def row_signatures(tracer: Tracer) -> dict:
    """{call: {(instance_id, method): (span-name counts, solver iteration counts)}}."""
    counts: dict = {}
    for s in tracer.spans:
        if s.row is not None:
            call, *row = s.row
            counts.setdefault(call, {}).setdefault(tuple(row), Counter())[s.name] += 1
    iters: dict = {}
    for i, note in tracer.notes.items():
        call, *row = tracer.spans[i].row
        iters.setdefault((call, tuple(row)), []).append(note[2] if note[0] == "lbo" else note[1])
    return {call: {row: (sorted(c.items()), iters.get((call, row))) for row, c in rows.items()}
            for call, rows in counts.items()}


def counts_repeat(tracer: Tracer) -> bool:
    """True when every traced call made exactly the same calls in every row."""
    sigs = list(row_signatures(tracer).values())
    return len(sigs) >= 2 and all(sig == sigs[0] for sig in sigs[1:])


def write_spans(tracer: Tracer, path) -> None:
    """Write the first traced call's spans as CSV, times in microseconds from its start."""
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s.row is not None and s.row[0] == 0]
    t0 = spans[0][1].start if spans else 0.0
    with open(path, "w", encoding="utf-8") as f:
        f.write("span,name,start_us,end_us,parent,instance_id,method\n")
        for i, s in spans:
            f.write(f"{i},{s.name},{(s.start - t0) * 1e6:.1f},{(s.end - t0) * 1e6:.1f},"
                    f"{s.parent},{s.row[1]},{s.row[2]}\n")


def tail(values: list) -> float:
    """Highest percentile that still has TAIL_ROWS_BEYOND values beyond it; 0 if none."""
    if len(values) <= TAIL_ROWS_BEYOND:
        return 0.0
    return sorted(values)[len(values) - TAIL_ROWS_BEYOND - 1]


def _p50(values: list, scale: float) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer numbers from the spans recorded inside benchmark rows."""
    spans = tracer.spans
    selfs = self_times(spans)
    durations: dict = {}
    self_by_layer = Counter()
    for s, own in zip(spans, selfs):
        if s.row is None:
            continue
        durations.setdefault(s.name, []).append(s.end - s.start)
        self_by_layer[s.name.split(".", 1)[0]] += own
    rows = durations.get("benchmark.row", [])
    n_rows = len(rows)
    row_total = sum(rows)

    def calls(name):
        return len(durations.get(name, [])) / n_rows if n_rows else 0.0

    def us(name):
        return _p50(durations.get(name, []), 1e6)

    def ms(name):
        return _p50(durations.get(name, []), 1e3)

    m = {f"{layer}.self_share": (self_by_layer[layer] / row_total if row_total else 0.0)
         for layer in LAYERS}
    m.update({
        "perceptual.distance_calls": calls("perceptual.distance"),
        "perceptual.grad_y_calls": calls("perceptual.grad_y"),
        "perceptual.distance_us": us("perceptual.distance"),
        "perceptual.grad_y_us": us("perceptual.grad_y"),
        "metrics.ssim_calls": calls("metrics.ssim"),
        "metrics.ssim_us": us("metrics.ssim"),
        "metrics.ssim_grad_calls": calls("metrics.ssim_grad"),
        "metrics.ssim_grad_us": us("metrics.ssim_grad"),
        "metrics.psnr_us": us("metrics.psnr"),
        "autoencoder.encode_us": us("autoencoder.encode"),
        "autoencoder.decode_calls": calls("autoencoder.decode"),
        "autoencoder.decode_us": us("autoencoder.decode"),
        "autoencoder.vjp_calls": calls("autoencoder.vjp"),
        "autoencoder.vjp_us": us("autoencoder.vjp"),
        "denoiser.eval_calls": calls("denoiser.eval"),
        "denoiser.vjp_calls": calls("denoiser.vjp"),
        "denoiser.eval_us": us("denoiser.eval"),
        "denoiser.vjp_us": us("denoiser.vjp"),
        "optim.adam_calls": calls("optim.adam"),
        "optim.adam_us": us("optim.adam"),
        "schedule.coefficients_calls": calls("schedule.coefficients"),
        "schedule.coefficients_us": us("schedule.coefficients"),
        "dynamics.invert_ms": ms("dynamics.invert"),
        "dynamics.replay_ms": ms("dynamics.replay"),
        "ilb.optimize_ms": ms("ilb.optimize"),
    })

    ilb_notes = [n for n in tracer.notes.values() if n[0] == "ilb"]
    ilb_iters = sum(n[1] for n in ilb_notes)
    ilb_time = sum(durations.get("ilb.optimize", []))
    m["ilb.iters"] = ilb_iters / len(ilb_notes) if ilb_notes else 0.0
    m["ilb.ms_per_iter"] = ilb_time * 1e3 / ilb_iters if ilb_iters else 0.0
    # share of the initial total loss that boosting removes; the total can be
    # negative (it subtracts SSIM), hence the absolute value
    m["ilb.loss_drop"] = (statistics.mean((n[2] - n[3]) / abs(n[2]) for n in ilb_notes)
                          if ilb_notes else 0.0)

    lbo_runs = [(tracer.spans[i], n) for i, n in tracer.notes.items() if n[0] == "lbo"]
    for mode in LBO_MODES:
        key = MODE_KEY[mode]
        notes = [n for _, n in lbo_runs if n[1] == mode]
        steps = sum(len(n[2]) for n in notes)
        times = [s.end - s.start for s, n in lbo_runs if n[1] == mode]
        m[f"lbo.trajectory_ms.{key}"] = _p50(times, 1e3)
        m[f"lbo.iters_per_step.{key}"] = sum(sum(n[2]) for n in notes) / steps if steps else 0.0
        m[f"lbo.converged_frac.{key}"] = sum(sum(n[3]) for n in notes) / steps if steps else 0.0
        m[f"lbo.worst_residual.{key}"] = max((n[4] for n in notes), default=0.0)

    by_method: dict = {}
    for s in spans:
        if s.name == "benchmark.row":
            by_method.setdefault(s.row[2], []).append((s.end - s.start) * 1e3)
    for method in METHODS:
        key = method.replace("+", "-")
        times = by_method.get(method, [])
        m[f"benchmark.rows.{key}"] = len(times)
        m[f"benchmark.row_ms.{key}"] = _p50(times, 1.0)
        m[f"benchmark.row_ms_tail.{key}"] = tail(times)
    return m


def setup_metrics(tracer: Tracer) -> dict:
    """Set-up layer times from the spans of one traced BenchmarkBackends build."""
    total = Counter()
    for s in tracer.spans:
        total[s.name] += s.end - s.start
    return {
        "data.make_shapes_s": total["data.make_shapes"],
        "benchmark.build_autoencoder_s": total["benchmark.build_autoencoder"],
        "benchmark.build_denoiser_s": total["benchmark.build_denoiser"],
    }

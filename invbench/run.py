"""The invlab benchmark: one workload, one seed, one result line.

Run from the root of an invlab checkout:

    python3 invbench/run.py --workload invert --seed 0 --seconds 20 --trace 0

The program comes from ./src; nothing needs installing. Each run starts fresh
interpreters (see bench_worker.py), checks the outputs, prints the
environment, every metric with its unit, any problems found, and, as the last
line, one JSON object {correct, attempted, failed, metrics}. With --trace 0
the metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones from a traced run. Outputs go under .bench_build/invbench/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from bench_checks import check_call, load_pins

BENCH = Path(__file__).resolve().parent

WORKLOADS = ("invert", "boost", "mlp-coarse")
# fresh interpreters per untimed run, measuring ones each also timing their
# set-up; a setup-only one runs before each measuring one and after the last,
# so the setup_s samples span the whole run
MEASURE_PROCESSES = 3
# the run ends within --seconds plus this: 8 set-ups, 3 warm-up calls and the
# last call of each measuring interpreter, with room for a slow machine
DEADLINE_MARGIN_S = 110.0


def declared_units() -> dict:
    """{"end_to_end": {name: unit}, "per_layer": {name: unit}} from BENCHMARK.json."""
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


class Workers:
    """Starts bench_worker.py interpreters in the checkout, each to completion."""

    def __init__(self, root: Path, doc: dict, out_dir: Path, seconds: float):
        self.root, self.doc, self.out_dir = root, doc, out_dir
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(root / "src"), os.environ.get("PYTHONPATH")) if p)
        self.deadline = time.monotonic() + seconds + DEADLINE_MARGIN_S

    def run(self, role: str, seconds: float = 0.0) -> dict:
        cmd = [sys.executable, str(BENCH / "bench_worker.py"), role, json.dumps(self.doc),
               str(self.out_dir), str(seconds)]
        # subprocess.run kills and reaps the worker if it overruns the deadline
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env, capture_output=True, text=True,
                                  timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            sys.exit(f"invbench: the {role} worker was stopped at the run's deadline")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            sys.exit(f"invbench: the {role} worker exited with code {proc.returncode}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def _check(workload: str, seed: int, doc: dict, result: dict, differing: int) -> list:
    problems = check_call(doc, result["csv"], result["summary"], load_pins(workload).get(str(seed)),
                          result["bound_psnr"])
    if differing:
        problems.append(f"{differing} calls wrote other bytes than the first")
    return problems


def main(argv=None) -> int:
    args = _parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "invlab" / "__init__.py").is_file():
        sys.exit("invbench: no src/invlab here; run from the root of an invlab checkout")
    doc = json.loads((BENCH / "workloads" / f"{args.workload}.json").read_text(encoding="utf-8"))
    doc["seed"] = args.seed
    out_dir = root / ".bench_build" / "invbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    units = declared_units()["per_layer" if args.trace else "end_to_end"]
    workers = Workers(root, doc, out_dir, args.seconds)

    # untimed: the first interpreter after the machine idles pays about 0.9 s
    # in its first SVD, and cold file caches slow its imports
    workers.run("setup")
    if args.trace:
        result = workers.run("trace", args.seconds)
        problems = _check(args.workload, args.seed, doc, result, result["differing_calls"])
        if not result["counts_repeat"]:
            problems.append("per-row call counts differ between traced calls")
        calls = result["calls"]
        values = result["metrics"]
    else:
        # the window is split over fresh interpreters because their speeds
        # differ by 10-20% on a shared machine, more than calls in one do
        setups, runs = [], []
        for _ in range(MEASURE_PROCESSES):
            setups.append(workers.run("setup")["setup_s"])
            runs.append(workers.run("measure", args.seconds / MEASURE_PROCESSES))
        setups.append(workers.run("setup")["setup_s"])
        result = runs[0]
        setups += [r["setup_s"] for r in runs]
        rates = [rate for r in runs for rate in r["rates"]]
        calls = sum(1 + len(r["rates"]) for r in runs)
        differing = sum(r["differing_calls"] if (r["csv"], r["summary"]) == (
            result["csv"], result["summary"]) else 1 + len(r["rates"]) for r in runs)
        problems = _check(args.workload, args.seed, doc, result, differing)
        values = {
            "setup_s": statistics.median(setups),
            # every call makes the same rows, so this is rows ÷ total timed wall time
            "rows_per_s": statistics.harmonic_mean(rates),
            "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
            "rows_ok_frac": 0.0 if problems else 1.0,
        }
        (out_dir / "samples.json").write_text(json.dumps(
            {"setup_s": setups, "rows_per_s": [r["rates"] for r in runs]}, indent=1),
            encoding="utf-8")

    if set(values) != set(units):
        sys.exit(f"invbench: the run measured {sorted(set(values) - set(units))} beyond "
                 f"BENCHMARK.json and missed {sorted(set(units) - set(values))}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    # a failed check fails the whole run: every call wrote the same bytes as the
    # first, or a differing call is itself the failure
    attempted = calls * result["rows_per_call"]
    line = {"correct": not problems, "attempted": attempted,
            "failed": attempted if problems else 0, "metrics": metrics}
    (out_dir / "result.json").write_text(json.dumps(
        {"workload": args.workload, "env": result["env"], "problems": problems, **line},
        indent=1), encoding="utf-8")
    print("env " + json.dumps(result["env"], sort_keys=True))
    for name, m in metrics.items():
        print(f"metric {name} = {m['value']:.6g} {m['unit']}")
    for problem in problems:
        print("problem " + problem)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())

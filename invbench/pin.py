"""Record the per-method summary means that bench_checks.py pins, per workload and seed.

Run from the root of an invlab checkout, at the commit whose results are the
reference (it rewrites invbench/pins.json):

    python3 invbench/pin.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(Path.cwd() / "src"))
sys.path.insert(0, str(BENCH))

import invlab  # noqa: E402
from bench_checks import FIELDS, PINS_PATH  # noqa: E402
from run import WORKLOADS  # noqa: E402

PINNED_SEEDS = 32  # seeds 0 .. PINNED_SEEDS - 1


def main() -> None:
    pins = {}
    out_dir = Path.cwd() / ".bench_build" / "invbench" / "pin"
    for workload in WORKLOADS:
        doc = json.loads((BENCH / "workloads" / f"{workload}.json").read_text())
        pins[workload] = {}
        for seed in range(PINNED_SEEDS):
            cfg = invlab.config_from_json_dict({**doc, "seed": seed})
            _, summary = invlab.run_benchmark(cfg, out_dir)
            pins[workload][str(seed)] = {
                method: {f: stats["mean_" + f] for f in FIELDS}
                for method, stats in summary["per_method"].items()}
        print(f"pinned {workload} seeds 0..{PINNED_SEEDS - 1}", flush=True)
    PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()

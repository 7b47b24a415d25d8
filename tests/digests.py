"""The sha256 of `benchmark.csv` and `summary.json` for a fixed set of runs.

A change that must leave every output byte-identical runs this on the old tree
and on the new one, and compares the digests of the two printed lines:

    python tests/digests.py

The runs are `RunConfig()` and each `invbench/workloads/*.json`, at seeds 0 and
5; the workload files are read, never written. The line is one JSON object,
keyed `<config>@<seed>`, of {file name: sha256 hex digest, "means": summary.json's
per-method means}; `tests/kernels.py` reads the means to tell how far they move
between BLAS kernels. pytest does not collect this file; a tier-1 test runs
`run_digests` on one tiny config.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from invlab.benchmark import RunConfig, load_config, run_benchmark  # noqa: E402

SEEDS = (0, 5)
OUTPUTS = ("benchmark.csv", "summary.json")


def run_digests(cfg: RunConfig, out_dir) -> dict:
    """Run cfg into out_dir; {output file name: sha256 hex digest of its bytes, "means":
    {method: {"mean_<metric>": value}} as summary.json holds them}."""
    run_benchmark(cfg, out_dir)
    out = {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
           for name in OUTPUTS}
    per_method = json.loads((Path(out_dir) / "summary.json").read_text("utf-8"))["per_method"]
    out["means"] = {method: {k: v for k, v in stats.items() if k.startswith("mean_")}
                    for method, stats in per_method.items()}
    return out


def configs(seeds=SEEDS) -> dict:
    """{`<config>@<seed>`: RunConfig} for the default config and every workload file, at each
    of `seeds`."""
    base = {"default": RunConfig()}
    for path in sorted((ROOT / "invbench" / "workloads").glob("*.json")):
        base[path.stem] = load_config(path)
    return {f"{name}@{seed}": replace(cfg, seed=seed)
            for name, cfg in base.items() for seed in seeds}


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        out = {key: run_digests(cfg, Path(tmp) / key) for key, cfg in configs().items()}
    print(json.dumps(out, sort_keys=True))


if __name__ == "__main__":
    main()

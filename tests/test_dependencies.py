"""numpy is the only runtime dependency: the package imports and runs without scipy."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# a None entry in sys.modules makes any `import scipy...` raise ImportError
NO_SCIPY = """
import sys
sys.modules["scipy"] = None
import invlab
from invlab.benchmark import config_from_json_dict, run_benchmark
cfg = config_from_json_dict({
    "steps": 4, "t_train": 40,
    "dataset": {"count": 1, "height": 8, "width": 8},
    "autoencoder": {"fit_count": 8},
    "ilb": {"max_iters": 2},
    "methods": ["lbo-n+ilb"],
})
rows, _ = run_benchmark(cfg, sys.argv[1])
print(rows[0].psnr_db)
"""


def test_package_runs_without_scipy(tmp_path):
    src = str(ROOT / "src")
    done = subprocess.run([sys.executable, "-c", NO_SCIPY, str(tmp_path)], cwd=tmp_path,
                          env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) > 0.0


def test_numpy_is_the_only_declared_dependency():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    block = re.search(r"^dependencies = \[(.*?)\]", text, re.M | re.S).group(1)
    names = [re.match(r"[A-Za-z0-9_.-]+", item.strip().strip('"')).group(0)
             for item in block.split(",") if item.strip()]
    assert names == ["numpy"]

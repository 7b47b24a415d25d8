"""A pytest selection run once under each OpenBLAS kernel, one subprocess per kernel.

    python tests/kernels.py [pytest selection ...]

OpenBLAS built with `DYNAMIC_ARCH` picks its kernel at load time, and the
`OPENBLAS_CORETYPE` environment variable overrides that pick. Each child runs
under one of KERNELS and prints the core OpenBLAS reports at run time (read
through ctypes), and this script prints, per kernel, that core, the pass and
fail counts, each failing test and each acceptance verdict line. Without a
selection it runs criterion 3 and every test file that calls the gradient
checker. Only the children's environment is changed. The exit status is 1 when
any kernel fails a test. pytest does not collect this file.
"""

from __future__ import annotations

import ctypes
import importlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Prescott")
# NumPy's bundled scipy-openblas (64-bit integers) names its functions so; a plain build does not
_SYMBOLS = ("scipy_openblas_get_{}64_", "openblas_get_{}")
_RESULT = "kernels.py result: "


def default_selection() -> list:
    """Criterion 3 and every test file that calls `gradient_check`."""
    tests = ROOT / "tests"
    return ["tests/test_acceptance.py::test_criterion_03_gradient_fidelity"] + [
        f"tests/{path.name}" for path in sorted(tests.glob("test_*.py"))
        if path.name != "test_acceptance.py" and "gradient_check(" in path.read_text("utf-8")]


def _ask(lib, what: str):
    """The string OpenBLAS's get_<what> function returns, or None if lib has none."""
    for symbol in _SYMBOLS:
        if hasattr(lib, symbol.format(what)):
            fn = getattr(lib, symbol.format(what))
            fn.restype = ctypes.c_char_p
            return fn().decode()
    return None


def openblas() -> dict:
    """{"core", "config"}: what the OpenBLAS that NumPy loaded into this process reports at
    run time, both None where no loaded library answers (Linux: read off /proc/self/maps)."""
    importlib.import_module("numpy")  # loads NumPy's BLAS
    maps = Path("/proc/self/maps")
    paths = sorted({line.split()[-1] for line in maps.read_text().splitlines()
                    if "openblas" in line.split()[-1].lower()}) if maps.exists() else []
    for lib in map(ctypes.CDLL, paths):
        core = _ask(lib, "corename")
        if core is not None:
            return {"core": core, "config": _ask(lib, "config")}
    return {"core": None, "config": None}


class _Tally:
    """Pytest plugin: the collected count, the passed and failed tests and each acceptance
    verdict line."""

    def __init__(self):
        self.collected, self.passed, self.failed, self.verdicts = 0, 0, [], []

    def pytest_collection_finish(self, session):
        self.collected = len(session.items)

    def pytest_runtest_logreport(self, report):
        if report.failed:
            self.failed.append(report.nodeid)
        if report.when == "call":
            self.passed += report.passed
            self.verdicts += re.findall(r"^criterion \d\d: .*$", report.capstdout,
                                        re.MULTILINE)


def child(selection: list) -> None:
    import pytest

    tally = _Tally()
    pytest.main(["-q", "-p", "no:cacheprovider", *selection], plugins=[tally])
    invlab = sys.modules.get("invlab")  # the copy the tests imported, if any did
    print(_RESULT + json.dumps({**openblas(), "collected": tally.collected, "passed": tally.passed,
                                "failed": tally.failed, "verdicts": tally.verdicts,
                                "invlab": getattr(invlab, "__file__", None)}))


def main(selection: list) -> int:
    info = openblas()
    if info["config"] is None:
        print("NumPy has loaded no OpenBLAS here: OPENBLAS_CORETYPE changes nothing")
    else:
        print(info["config"])
        if "DYNAMIC_ARCH" not in info["config"]:
            print("not a DYNAMIC_ARCH build: OPENBLAS_CORETYPE changes nothing, every run "
                  f"uses {info['core']}")
    failing = 0
    for kernel in KERNELS:
        run = subprocess.run([sys.executable, __file__, "--child", *selection], cwd=ROOT,
                             env={**os.environ, "OPENBLAS_CORETYPE": kernel},
                             capture_output=True, text=True)
        lines = [line for line in run.stdout.splitlines() if line.startswith(_RESULT)]
        if not lines:
            print(f"{kernel}: the child exited {run.returncode} without a result\n"
                  f"{run.stdout[-2000:]}{run.stderr[-2000:]}")
            failing += 1
            continue
        res = json.loads(lines[-1][len(_RESULT):])
        failing += bool(res["failed"])
        print(f"OPENBLAS_CORETYPE={kernel}: core {res['core']}, {res['passed']} passed, "
              f"{len(res['failed'])} failed")
        for line in res["failed"] + res["verdicts"]:
            print(f"  {line}")
    return 1 if failing else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--child"]:
        child(args[1:])
    else:
        sys.exit(main(args or default_selection()))

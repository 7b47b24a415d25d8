"""A pytest selection, `tests/digests.py` and the pinned workloads run once under each
OpenBLAS kernel.

    python tests/kernels.py [pytest selection ...]

OpenBLAS built with `DYNAMIC_ARCH` picks its kernel at load time, and the
`OPENBLAS_CORETYPE` environment variable overrides that pick. Under each of
KERNELS this script runs two subprocesses. The first runs the selection and
prints the core OpenBLAS reports at run time (read through ctypes); this script
prints, per kernel, that core, the pass and fail counts, each failing test and
each acceptance verdict line. Without a selection it runs criterion 3 and every
test file that calls the gradient checker. The second runs `tests/digests.py`.
For each of its runs this script then prints whether the output digests agree
across kernels and the relative spread of each per-method mean, and last the
worst spread of any mean. The third runs every invbench workload at the seeds
tier-1 holds to `invbench/pins.json` (PIN_SEEDS); this script prints, per kernel,
the worst relative deviation of each pinned field from that file, which it only
reads. Only the children's environment is changed. The exit status is 1 when any
kernel fails a test, its digests run or its pinned run. pytest does not collect
this file.
"""

from __future__ import annotations

import ctypes
import importlib
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Prescott")
# NumPy's bundled scipy-openblas (64-bit integers) names its functions so; a plain build does not
_SYMBOLS = ("scipy_openblas_get_{}64_", "openblas_get_{}")
_RESULT = "kernels.py result: "
_PINNED = "kernels.py pinned means: "
_DIGESTS = ROOT / "tests" / "digests.py"
_PINS = ROOT / "invbench" / "pins.json"
PIN_SEEDS = (0, 15, 31)  # test_workload_meets_its_pinned_means_at_three_seeds's seeds


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


def pinned_child() -> None:
    """Print {`<workload>@<seed>`: {method: {"mean_<field>": value}}} at PIN_SEEDS."""
    import digests

    with tempfile.TemporaryDirectory() as tmp:
        out = {run: digests.run_digests(cfg, Path(tmp) / run)["means"]
               for run, cfg in digests.configs(PIN_SEEDS).items()
               if not run.startswith("default@")}
    print(_PINNED + json.dumps(out))


def relative_deviation(value, pin) -> float:
    """|value − pin|/|pin|, or |value| against a pin of 0; 0 where both are null (not
    finite) and inf where only one is."""
    if value is None or pin is None:
        return 0.0 if value is pin else math.inf
    return abs(value - pin) / abs(pin) if pin else abs(value)


def pin_deviations(means: dict, pins: dict) -> dict:
    """{pinned field: (worst relative deviation, "run method")} of one kernel's
    `pinned_child` means from pins.json's {workload: {seed: {method: {field: pin}}}}."""
    worst = {}
    for run, per_method in means.items():
        workload, seed = run.split("@")
        for method, fields in pins[workload][seed].items():
            for field, pin in fields.items():
                here = (relative_deviation(per_method[method]["mean_" + field], pin),
                        f"{run} {method}")
                worst[field] = max(worst.get(field, here), here, key=lambda p: p[0])
    return worst


def _print_pin_deviations(means: dict) -> None:
    pins = json.loads(_PINS.read_text("utf-8"))
    print(f"invbench/pins.json at seeds {', '.join(map(str, PIN_SEEDS))}: worst relative "
          "deviation of each pinned field")
    worst = (0.0, None)
    for kernel, kernel_means in means.items():
        per_field = pin_deviations(kernel_means, pins)
        print(f"{kernel}: " + ", ".join(
            f"{field} {dev:.2g}" + (f" ({where})" if dev else "")
            for field, (dev, where) in per_field.items()))
        worst = max(worst, *((dev, f"{kernel} {where} {field}")
                             for field, (dev, where) in per_field.items()), key=lambda p: p[0])
    print(f"worst relative deviation from a pin: {worst[0]:.2g}"
          + (f" ({worst[1]})" if worst[0] else ""))


def relative_spread(values: list) -> float:
    """(max − min)/max |v| of one mean over the kernels; 0 where they agree, and inf where
    some kernel's mean is null (not finite) and another's is not."""
    if None in values:
        return 0.0 if all(v is None for v in values) else math.inf
    top = max(map(abs, values))
    return (max(values) - min(values)) / top if top else 0.0


def spreads(lines: dict) -> dict:
    """{run: (whether its digests agree, {method: {mean: relative spread}})} over the
    kernels' `tests/digests.py` lines, given as {kernel: line}."""
    outs = list(lines.values())
    report = {}
    for run, first in outs[0].items():
        runs = [out[run] for out in outs]
        digests = [{k: v for k, v in r.items() if k != "means"} for r in runs]
        report[run] = (all(d == digests[0] for d in digests), {
            method: {name: relative_spread([r["means"][method][name] for r in runs])
                     for name in means}
            for method, means in first["means"].items()})
    return report


def worst_spread(report: dict) -> tuple:
    """(spread, "run method mean") of the mean that spreads most, or (0.0, None)."""
    return max(((s, f"{run} {method} {name}") for run, (_, per) in report.items()
                for method, means in per.items() for name, s in means.items()),
               default=(0.0, None))


def _print_spreads(lines: dict) -> None:
    report = spreads(lines)
    print(f"tests/digests.py across {', '.join(lines)}:")
    for run, (agree, per) in report.items():
        print(f"{run}: digests {'agree' if agree else 'differ'}")
        for method, means in per.items():
            print(f"  {method}: " + ", ".join(f"{name.removeprefix('mean_')} {s:.2g}"
                                               for name, s in means.items()))
    spread, where = worst_spread(report)
    print(f"worst relative spread of a mean: {spread:.2g}" + (f" ({where})" if where else ""))


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
    digest_lines, pinned_means = {}, {}
    for kernel in KERNELS:
        env = {**os.environ, "OPENBLAS_CORETYPE": kernel}
        run = subprocess.run([sys.executable, __file__, "--child", *selection], cwd=ROOT,
                             env=env, capture_output=True, text=True)
        digests = subprocess.run([sys.executable, str(_DIGESTS)], cwd=ROOT, env=env,
                                 capture_output=True, text=True)
        if digests.returncode == 0:
            digest_lines[kernel] = json.loads(digests.stdout.splitlines()[-1])
        else:
            print(f"{kernel}: tests/digests.py exited {digests.returncode}\n"
                  f"{digests.stderr[-2000:]}")
            failing += 1
        pinned = subprocess.run([sys.executable, __file__, "--pins"], cwd=ROOT, env=env,
                                capture_output=True, text=True)
        lines = [line for line in pinned.stdout.splitlines() if line.startswith(_PINNED)]
        if pinned.returncode == 0 and lines:
            pinned_means[kernel] = json.loads(lines[-1][len(_PINNED):])
        else:
            print(f"{kernel}: the pinned run exited {pinned.returncode}\n{pinned.stderr[-2000:]}")
            failing += 1
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
    if digest_lines:
        _print_spreads(digest_lines)
    if pinned_means:
        _print_pin_deviations(pinned_means)
    return 1 if failing else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    if args[:1] == ["--child"]:
        child(args[1:])
    elif args == ["--pins"]:
        pinned_child()
    else:
        sys.exit(main(args or default_selection()))

"""The kill matrix of a seeded sample of `src/invlab` mutants: the tier-1 tests each one fails.

    python tests/mutate.py

A mutant changes one site of one module: `<` <-> `<=`, `>` <-> `>=`, `+` <-> `-` and
`*` <-> `/` (in augmented assignments too), a numeric constant c -> 2c (0 -> 1), or one
expression-statement call or `raise` becomes `pass`. SEED draws at least SIZE sites, at
least PER_MODULE from each module, each module from its own stream.

The repository is copied, without `.git`, once per worker, every module rewritten through
`ast.unparse`; tier-1 must pass on each copy and import invlab from it (the control runs),
so a lint test that reads source cannot fake a kill. Each mutant then runs all of tier-1
through the copy's `tests/kernels.py --child`, under a 2 GiB address-space cap and a
wall-time cap of TIME_CAP control runs. A run that a cap stops, or that prints no result,
is killed by every test ("*"); one that collects fewer tests than the control runs has
broken an import ("collection"). WORKERS mutants run at a time, each in its own copy, and
each run starts without the hypothesis examples earlier runs saved, so the matrix does not
depend on the order of the runs. Ctrl-C or SIGTERM stops the runs under way, starts no other
and removes the copies.

Progress goes to stderr; stdout gets one JSON line: the seed, the number of sites, the
control runs, the wall time and the matrix, {`<module>#<site>:<line> <change>`: sorted
failing test IDs, "*" or "collection"}. A mutant costs one tier-1 run: on 2 vCPUs, two at
a time, 264 mutants took 2.0-2.4 h. pytest does not collect this file; a tier-1 test checks the
draw and the operators without running a mutant.
"""

from __future__ import annotations

import ast
import json
import math
import os
import queue
import random
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import suppress
from pathlib import Path
from shutil import copytree, ignore_patterns, rmtree
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "invlab"
SEED = 20261020
SIZE = 250
PER_MODULE = 5
WORKERS = 2
TIME_CAP = 3.0  # a mutant's wall-time cap, in slower control runs
_SWAPS = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
          ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
_SYMBOLS = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
            ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/"}
_RESULT = "kernels.py result: "
# caps its own address space, as tests/test_benchmark.py's CAPPED_CLI_SCRIPT does, then
# runs the script named after the cap with the arguments that follow it
_CAPPED = ("import resource, runpy, sys\n"
           "resource.setrlimit(resource.RLIMIT_AS, (2 * 2**30,) * 2)\n"
           "sys.argv = sys.argv[1:]\n"
           "runpy.run_path(sys.argv[0], run_name='__main__')\n")
_TIER1 = ["tests/kernels.py", "--child", "--continue-on-collection-errors"]
_RUNNING = set()  # the process groups of the tier-1 runs under way


class Site(NamedTuple):
    """One mutable site: `holder[key]`, a list's item or a node's attribute in `vars(node)`,
    becomes `new`."""

    line: int
    change: str
    holder: object
    key: object
    new: object


def sites(tree: ast.Module) -> list:
    """Every mutable site of tree, in `ast.walk` order."""
    places = {id(stmt): (body, i) for node in ast.walk(tree)
              for _, body in ast.iter_fields(node) if isinstance(body, list)
              for i, stmt in enumerate(body)}
    found = []
    for node in ast.walk(tree):
        ops = ([(node.ops, i) for i in range(len(node.ops))] if isinstance(node, ast.Compare)
               else [(vars(node), "op")] if isinstance(node, (ast.BinOp, ast.AugAssign)) else [])
        found += [Site(node.lineno, f"{_SYMBOLS[type(holder[key])]} -> "
                       f"{_SYMBOLS[_SWAPS[type(holder[key])]]}", holder, key,
                       _SWAPS[type(holder[key])]())
                  for holder, key in ops if type(holder[key]) in _SWAPS]
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            value = 2 * node.value if node.value else node.value + 1
            found.append(Site(node.lineno, f"{node.value!r} -> {value!r}", vars(node), "value",
                              value))
        elif isinstance(node, ast.Raise) or (isinstance(node, ast.Expr)
                                             and isinstance(node.value, ast.Call)):
            what = "raise" if isinstance(node, ast.Raise) else ast.unparse(node.value.func)
            found.append(Site(node.lineno, f"{what} -> pass", *places[id(node)], ast.Pass()))
    return found


def mutated(tree: ast.Module, site: Site) -> str:
    """tree's source with site changed; tree itself is left as it was."""
    old, site.holder[site.key] = site.holder[site.key], site.new
    try:
        return ast.unparse(tree)
    finally:
        site.holder[site.key] = old


def parsed() -> dict:
    """{module file name: its parsed tree} for every module of the package."""
    return {path.name: ast.parse(path.read_text("utf-8")) for path in sorted(PACKAGE.glob("*.py"))}


def draw(trees: dict) -> list:
    """The sample: [(module, site index, mutant name)], in module then site order."""
    found = {module: sites(tree) for module, tree in trees.items()}
    total = sum(map(len, found.values()))
    sample = []
    for module, listed in found.items():
        count = min(len(listed), max(PER_MODULE, math.ceil(SIZE * len(listed) / total)))
        for k in sorted(random.Random(f"{SEED}:{module}").sample(range(len(listed)), count)):
            sample.append((module, k, f"{module}#{k}:{listed[k].line} {listed[k].change}"))
    return sample


def _tier1(copy: Path, basetemp: Path, timeout=None):
    """The result kernels.py's child prints for one tier-1 run in copy, with its seconds,
    or None where a cap stopped it or it printed no result."""
    env = {**os.environ, "PYTHONPATH": str(copy / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", _CAPPED, *_TIER1, f"--basetemp={basetemp}"],
                          cwd=copy, env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, start_new_session=True) as child:
        _RUNNING.add(child.pid)
        try:
            out = child.communicate(timeout=timeout)[0]
        except subprocess.TimeoutExpired:
            out = ""
        finally:
            _RUNNING.discard(child.pid)
            _stop(child.pid)  # the child, if a cap stopped it, and anything it left running
    lines = [line for line in out.splitlines() if line.startswith(_RESULT)]
    if not lines:
        return None
    return {**json.loads(lines[-1][len(_RESULT):]), "seconds": time.perf_counter() - started}


def _stop(group: int) -> None:
    with suppress(ProcessLookupError):
        os.killpg(group, signal.SIGKILL)


def main() -> None:
    started = time.perf_counter()
    trees = parsed()
    sample = draw(trees)
    control = {module: ast.unparse(tree) for module, tree in trees.items()}
    with tempfile.TemporaryDirectory(prefix="invlab-mutate-") as tmp:
        copies = queue.Queue()
        for worker in range(WORKERS):
            copy = Path(tmp) / f"repo{worker}"
            copytree(ROOT, copy, ignore=ignore_patterns(".git", "__pycache__", ".hypothesis",
                                                        ".pytest_cache"))
            for module, source in control.items():
                (copy / "src" / "invlab" / module).write_text(source, "utf-8")
            copies.put((copy, Path(tmp) / f"pytest{worker}"))

        def run(module=None, k=None, timeout=None):
            copy, basetemp = copies.get()
            target = copy / "src" / "invlab" / str(module)
            try:
                if module is not None:  # a tree of its own: `mutated` changes it for a while
                    tree = ast.parse((PACKAGE / module).read_text("utf-8"))
                    target.write_text(mutated(tree, sites(tree)[k]), "utf-8")
                return _tier1(copy, basetemp, timeout)
            finally:
                if module is not None:
                    target.write_text(control[module], "utf-8")
                # a failing example hypothesis saved would be replayed on the next mutant
                rmtree(copy / ".hypothesis", ignore_errors=True)
                copies.put((copy, basetemp))

        def kill(job):
            i, (module, k, name) = job
            res = run(module, k, cap)
            killers = ("*" if res is None else "collection" if res["collected"] < tests
                       else sorted(set(res["failed"])))
            print(f"[{i + 1}/{len(sample)}] " + json.dumps({name: killers}), file=sys.stderr)
            return name, killers

        signal.signal(signal.SIGTERM, lambda *_: sys.exit("mutate.py: stopped"))
        with ThreadPoolExecutor(WORKERS) as pool:
            try:
                runs = list(pool.map(lambda _: run(), range(WORKERS)))
                for res in runs:
                    if (res is None or res["failed"] or res["passed"] != res["collected"]
                            or not res["invlab"].startswith(tmp)):
                        sys.exit(f"a control run does not pass on its copy: {res}")
                tests = runs[0]["collected"]
                cap = TIME_CAP * max(res["seconds"] for res in runs)
                seconds = [round(res["seconds"], 1) for res in runs]
                print(f"control: {tests} tests pass twice, in {seconds} s", file=sys.stderr)
                matrix = dict(pool.map(kill, enumerate(sample)))
            except BaseException:  # Ctrl-C or SIGTERM: start no mutant, stop those running
                pool.shutdown(wait=False, cancel_futures=True)
                for group in list(_RUNNING):
                    _stop(group)
                raise
    print(json.dumps({"seed": SEED, "sites": sum(len(sites(t)) for t in trees.values()),
                      "control": {"tests": tests, "seconds": seconds},
                      "wall_s": round(time.perf_counter() - started), "matrix": matrix}))


if __name__ == "__main__":
    main()

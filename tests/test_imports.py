"""Lint rules checked on the source, since there is no linter to say so.

Every module uses each name it imports, and no module under src/invlab or
invbench catches everything: a bare `except:` or one naming Exception or
BaseException would turn a programming bug into a quiet result. No
`__post_init__` under src/invlab raises by itself, and no module but errors.py
builds an `InvalidParameterError`: a value's check goes through `errors.require`,
so every bad value is reported in one form that names it. Likewise no module but
errors.py compares an array's shape and raises: an exact shape check goes through
`errors.require_shape`, and any other shape check is an `errors.require` call, so
a wrong shape and a bad value are one `invalid-parameter` that names the
argument. No module under src/invlab raises a built-in exception class: every
fault it reports is an `InvlabError` with a documented code, every such class is
defined in errors.py, and the codes the package defines are exactly those in
README's table.
No module under src/invlab but schedule.py reads a step's φ or ψ: the sampler's
transition is written once, as `StepCoefficients.generate` and `.invert`. An
argument's integer check is `errors.is_int`: no `require` call tests an integer
with `type(...) is int` or `isinstance`, and no module but errors.py names
`np.integer`, so one rule says which values are integers. No `__post_init__`
under src/invlab tests a field's type by hand (`is_int(self.…)`, `self.… is True`
or `self.… is False`): `errors.check_fields` types every config field from its
annotation. No module but dynamics.py calls `Trajectory(...)`, and there only
`walk` does: every trajectory is one walk along its grid. No subclass of
`DenoiserInterface` defines `eval`: a backend writes its prediction once, in
`linearize`, and the interface's `eval` is that method's first half.
"""

import ast
import builtins
import functools
import importlib
import importlib.util
import re
from pathlib import Path

import pytest

import invlab.cli
import invlab.errors

ROOT = Path(__file__).resolve().parent.parent
BENCH = sorted((ROOT / "invbench").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "invlab").glob("*.py"))
SOURCES = PACKAGE + BENCH
BEYOND_ERRORS = [p for p in PACKAGE if p.name != "errors.py"]  # errors.py defines the helpers
# schedule.py defines StepCoefficients and its transition
BEYOND_SCHEDULE = [p for p in PACKAGE if p.name != "schedule.py"]
DYNAMICS = ROOT / "src" / "invlab" / "dynamics.py"
MODULES = [p for p in SOURCES if p.name != "__init__.py"]
MODULES += sorted((ROOT / "tests").glob("*.py"))
BROAD = {"Exception", "BaseException"}


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = [alias.asname or alias.name.split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used]


def broad_excepts(source: str) -> list:
    """Line numbers of handlers that catch everything or name Exception/BaseException."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(c is None or (isinstance(c, ast.Name) and c.id in BROAD) for c in caught):
                lines.append(node.lineno)
    return lines


def raising_post_inits(source: str) -> list:
    """Line numbers of raise statements inside a __post_init__."""
    return [node.lineno
            for fn in ast.walk(ast.parse(source))
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
            for node in ast.walk(fn) if isinstance(node, ast.Raise)]


def hand_shape_checks(source: str) -> list:
    """Line numbers of `if` statements that compare some `<expr>.shape` with != and raise."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.If)
                and any(isinstance(n, ast.Raise) for s in node.body for n in ast.walk(s))):
            continue
        if any(isinstance(cmp, ast.Compare) and any(isinstance(op, ast.NotEq) for op in cmp.ops)
               and any(isinstance(e, ast.Attribute) and e.attr == "shape"
                       for e in (cmp.left, *cmp.comparators))
               for cmp in ast.walk(node.test)):
            lines.append(node.lineno)
    return lines


def _calls(source: str, name: str) -> list:
    """The `name(...)` and `<expr>.name(...)` call nodes in source."""
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call)
            and name in (getattr(node.func, "id", None), getattr(node.func, "attr", None))]


def hand_invalid_parameter_errors(source: str) -> list:
    """Line numbers of `InvalidParameterError(...)` calls."""
    return [node.lineno for node in _calls(source, "InvalidParameterError")]


BUILTIN_ERRORS = {name for name, obj in vars(builtins).items()
                  if isinstance(obj, type) and issubclass(obj, BaseException)}


def builtin_raises(source: str) -> list:
    """Line numbers of `raise X` or `raise X(...)` where X is a built-in exception class."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id in BUILTIN_ERRORS:
                lines.append(node.lineno)
    return lines


def documented_codes(readme: str) -> set:
    """The codes in README's error table: rows of the form | `code` | exit | meaning |."""
    return set(re.findall(r"^\| `([a-z-]+)` \| \d \|", readme, flags=re.MULTILINE))


def test_error_codes_are_the_documented_ones():
    modules = [importlib.import_module(f"invlab.{path.stem}".removesuffix(".__init__"))
               for path in PACKAGE]
    classes = {obj for module in modules for obj in vars(module).values()
               if isinstance(obj, type) and issubclass(obj, invlab.errors.InvlabError)
               and obj is not invlab.errors.InvlabError}  # the base is never raised itself
    # every error class is defined in errors.py, whichever module imports it
    assert {cls.__module__ for cls in classes} == {"invlab.errors"}
    # main's OSError handler writes its code as a literal
    literal = {value.value
               for node in ast.walk(ast.parse(Path(invlab.cli.__file__).read_text("utf-8")))
               if isinstance(node, ast.Dict)
               for key, value in zip(node.keys, node.values)
               if isinstance(key, ast.Constant) and key.value == "code"}
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert {cls.code for cls in classes} | literal == documented_codes(readme)


def coefficient_reads(source: str) -> list:
    """Line numbers of reads of a `.phi` or `.psi` attribute."""
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Attribute) and node.attr in ("phi", "psi")
                  and isinstance(node.ctx, ast.Load))


def hand_integer_tests(source: str) -> list:
    """Line numbers of a `type(...) is int` or `isinstance(...)` test inside a `require(...)`
    call, and of every `np.integer`."""
    tree = ast.parse(source)
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "integer"
             and getattr(node.value, "id", None) in ("np", "numpy")]
    for call in _calls(source, "require"):
        for node in ast.walk(call):
            type_is_int = (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                           and getattr(node.left.func, "id", None) == "type"
                           and any(getattr(c, "id", None) == "int" for c in node.comparators))
            if type_is_int or (isinstance(node, ast.Call)
                               and getattr(node.func, "id", None) == "isinstance"):
                lines.append(node.lineno)
    return sorted(lines)


def hand_type_tests(source: str) -> list:
    """Line numbers, inside a __post_init__, of an `is_int(...)` call on a field of self and
    of a field of self compared `is True` or `is False`."""
    lines = set()
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "is_int":
                operands = node.args
            elif isinstance(node, ast.Compare) and any(isinstance(op, ast.Is) for op in node.ops) \
                    and any(isinstance(c, ast.Constant) and isinstance(c.value, bool)
                            for c in node.comparators):
                operands = [node.left]
            else:
                continue
            if any(isinstance(n, ast.Name) and n.id == "self"
                   for operand in operands for n in ast.walk(operand)):
                lines.add(node.lineno)
    return sorted(lines)


def trajectory_builds(source: str, builder: str = "") -> list:
    """Line numbers of `Trajectory(...)` calls outside the function named `builder`."""
    inside = [range(fn.lineno, fn.end_lineno + 1) for fn in ast.walk(ast.parse(source))
              if isinstance(fn, ast.FunctionDef) and fn.name == builder]
    return [node.lineno for node in _calls(source, "Trajectory")
            if not any(node.lineno in lines for lines in inside)]


def trajectory_builds_outside_walk(source: str) -> list:
    """`trajectory_builds` where a function named `walk` may build trajectories."""
    return trajectory_builds(source, "walk")


def denoiser_evals(source: str) -> list:
    """Line numbers of a `def eval` in a class that subclasses `DenoiserInterface`, directly
    or through an earlier class of the same source."""
    denoisers, lines = {"DenoiserInterface"}, []
    classes = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.ClassDef)]
    for cls in sorted(classes, key=lambda node: node.lineno):
        if any(getattr(base, "id", getattr(base, "attr", None)) in denoisers
               for base in cls.bases):
            denoisers.add(cls.name)
            lines += [fn.lineno for fn in cls.body
                      if isinstance(fn, ast.FunctionDef) and fn.name == "eval"]
    return lines


TRAJECTORY_EXAMPLE = ("def walk(grid, z, direction, step):\n"
                      "    return Trajectory(z, direction, grid)\n"
                      "def replay(z):\n    return dynamics.Trajectory(z, 'generation', g)\n"
                      "traj = walk(grid, z, INVERSION, step)\n"
                      "def end(traj: Trajectory) -> Trajectory:\n    return traj.latents[-1]\n")

# (checker, the files it reads, a source it flags, what it flags there: line numbers, or
# names for unused_imports); each file in a row's scope must flag nothing
LINTS = [
    (unused_imports, MODULES, "import os\nfrom a import b, c\nc()\n", ["os", "b"]),
    (broad_excepts, SOURCES,
     "try:\n    f()\nexcept:\n    pass\n"
     "try:\n    f()\nexcept (KeyError, Exception):\n    pass\n"
     "try:\n    f()\nexcept BaseException as e:\n    pass\n"
     "try:\n    f()\nexcept (KeyError, ValueError):\n    pass\n", [3, 7, 11]),
    (raising_post_inits, PACKAGE,
     "class A:\n    def __post_init__(self):\n        if self.x < 0:\n"
     "            raise ValueError(self.x)\n"
     "class B:\n    def __post_init__(self):\n        require(self.x >= 0)\n"
     "    def check(self):\n        raise ValueError(self.x)\n", [4]),
    (hand_shape_checks, BEYOND_ERRORS,
     "if x.shape != (3,):\n    raise E(x)\n"
     "if n > 0 and a.b.shape != y.shape:\n    raise E(a)\n"
     "if x.shape != y:\n    pass\n"
     "if x.shape == y:\n    raise E(x)\n"
     "wrong = [k for k in d if d[k].shape != s]\n", [1, 3]),
    (hand_invalid_parameter_errors, BEYOND_ERRORS,
     'raise InvalidParameterError("x must be > 0", field="x")\n'
     'require(x > 0, "x", x, "> 0")\n'
     'err = errors.InvalidParameterError("x is short")\n'
     'try:\n    f()\nexcept InvalidParameterError:\n    pass\n', [1, 3]),
    (builtin_raises, PACKAGE,
     "raise ValueError(x)\n"
     "raise ConfigError(x) from None\n"
     "try:\n    f()\nexcept KeyError:\n    raise\n"
     "raise KeyboardInterrupt\n"
     "raise errors.DivergenceError(x)\n"
     "raise OverflowError(x) from e\n", [1, 7, 9]),
    (coefficient_reads, BEYOND_SCHEDULE,
     "z = co.phi * z + co.psi * eps\n"
     "z = co.generate(z, eps)\n"
     "phi, psi = 1.0, 2.0\n"
     "scale = coefficients(s, t, 0).psi\n"
     "self.phi = phi\n", [1, 1, 4]),
    (hand_integer_tests, BEYOND_ERRORS,
     'require(type(n) is int and n >= 1, "n", n, "an integer >= 1")\n'
     'require(n >= 0 and isinstance(n, int), "n", n, ">= 0")\n'
     'ok = type(n) is int or isinstance(n, np.integer)\n'
     'require(is_int(n), "n", n, "an integer")\n'
     'if type(t) is not int:\n    check(t)\n'
     'require(type(x) in (int, float), "x", x, "a number")\n', [1, 2, 3]),
    (hand_type_tests, PACKAGE,
     "class A:\n    def __post_init__(self):\n"
     "        require(is_int(self.n) and self.n >= 1, 'n', self.n, '>= 1')\n"
     "        require(self.on is True or self.on is False, 'on', self.on, 'a bool')\n"
     "        for name in ('a', 'b'):\n"
     "            require(is_int(getattr(self, name)), name, 0, 'an integer')\n"
     "        require(self.dt is None or self.dt >= 1, 'dt', self.dt, '>= 1')\n"
     "        require(is_int(n) and flag is True, 'n', n, 'an integer')\n"
     "    def check(self):\n        return is_int(self.n) and self.on is True\n", [3, 4, 6]),
    # dynamics.py's `walk` is the one builder of a trajectory; anywhere else none is built
    (trajectory_builds_outside_walk, [DYNAMICS], TRAJECTORY_EXAMPLE, [4]),
    (trajectory_builds, [p for p in MODULES if p != DYNAMICS], TRAJECTORY_EXAMPLE, [2, 4]),
    (denoiser_evals, MODULES,
     "class A(DenoiserInterface):\n    def eval(self, z, t, c):\n        return z\n"
     "    def linearize(self, z, t, c):\n        return z, lambda v: v\n"
     "class B(invlab.DenoiserInterface):\n    def eval(self, z, t, c):\n        return z\n"
     "class C(A):\n    def eval(self, z, t, c):\n        return z\n"
     "class D:\n    def eval(self, x):\n        return x\n", [2, 7, 10]),
]
LINT_IDS = [checker.__name__ for checker, _, _, _ in LINTS]


@pytest.mark.parametrize("checker,example,flagged",
                         [(checker, example, flagged) for checker, _, example, flagged in LINTS],
                         ids=LINT_IDS)
def test_checker_flags_its_example(checker, example, flagged):
    assert checker(example) == flagged


@pytest.mark.parametrize("scope", [scope for _, scope, _, _ in LINTS], ids=LINT_IDS)
def test_lint_scope_names_an_existing_file(scope):
    # a scope whose glob matched nothing would pass the lint as zero cases
    assert scope and all(path.is_file() for path in scope)


@pytest.mark.parametrize("checker,path", [(checker, path) for checker, scope, _, _ in LINTS
                                          for path in scope],
                         ids=[f"{lint}-{path.parent.name}/{path.name}"
                              for lint, (_, scope, _, _) in zip(LINT_IDS, LINTS)
                              for path in scope])
def test_source_file_passes_its_lint(checker, path):
    assert checker(path.read_text(encoding="utf-8")) == []


def test_mutation_harness_draws_one_sample_whose_every_mutant_compiles():
    # tests/mutate.py is a script pytest does not collect; this runs none of its mutants
    spec = importlib.util.spec_from_file_location("mutate", ROOT / "tests" / "mutate.py")
    mutate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutate)
    trees = mutate.parsed()
    sample = mutate.draw(trees)
    assert mutate.draw(mutate.parsed()) == sample and len(sample) >= mutate.SIZE
    listed = {module: mutate.sites(tree) for module, tree in trees.items()}
    control = functools.cache(ast.unparse)  # many sites share a statement
    for module, k, _ in sample:
        # the statement of the module that holds the site, as the mutant writes it
        site = listed[module][k]
        top = next(stmt for stmt in trees[module].body if site.line <= stmt.end_lineno)
        source = mutate.mutated(top, site)
        assert source != control(top)
        compile(source, module, "exec")
    # the count check of a dataset section, turned off
    assert any(site.change == "require -> pass" and ast.unparse(site.holder[site.key])
               == "require(self.count >= 1, 'count', self.count, 'an integer >= 1')"
               for site in listed["benchmark.py"])

"""Lint rules checked on the source, since there is no linter to say so.

Every module uses each name it imports, and no module under src/invlab or
invbench catches everything: a bare `except:` or one naming Exception or
BaseException would turn a programming bug into a quiet result. No
`__post_init__` under src/invlab raises by itself: a value's check goes through
`errors.require`, so every bad value is reported in one form that names it.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = sorted((ROOT / "invbench").glob("*.py"))
PACKAGE = sorted((ROOT / "src" / "invlab").glob("*.py"))
SOURCES = PACKAGE + BENCH
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


def test_checker_flags_an_unused_import():
    assert unused_imports("import os\nfrom a import b, c\nc()\n") == ["os", "b"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def broad_excepts(source: str) -> list:
    """Line numbers of handlers that catch everything or name Exception/BaseException."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ExceptHandler):
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(c is None or (isinstance(c, ast.Name) and c.id in BROAD) for c in caught):
                lines.append(node.lineno)
    return lines


def test_checker_flags_a_broad_except():
    source = ("try:\n    f()\nexcept:\n    pass\n"
              "try:\n    f()\nexcept (KeyError, Exception):\n    pass\n"
              "try:\n    f()\nexcept BaseException as e:\n    pass\n"
              "try:\n    f()\nexcept (KeyError, ValueError):\n    pass\n")
    assert broad_excepts(source) == [3, 7, 11]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_broad_except(path):
    assert broad_excepts(path.read_text(encoding="utf-8")) == []


def raising_post_inits(source: str) -> list:
    """Line numbers of raise statements inside a __post_init__."""
    return [node.lineno
            for fn in ast.walk(ast.parse(source))
            if isinstance(fn, ast.FunctionDef) and fn.name == "__post_init__"
            for node in ast.walk(fn) if isinstance(node, ast.Raise)]


def test_checker_flags_a_raise_in_post_init():
    source = ("class A:\n    def __post_init__(self):\n        if self.x < 0:\n"
              "            raise ValueError(self.x)\n"
              "class B:\n    def __post_init__(self):\n        require(self.x >= 0)\n"
              "    def check(self):\n        raise ValueError(self.x)\n")
    assert raising_post_inits(source) == [4]


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_post_init_checks_go_through_require(path):
    assert raising_post_inits(path.read_text(encoding="utf-8")) == []

"""No module-level import goes unused.

An AST scan of every module under ``src/``, ``tests/``, ``examples/``,
``benchmarks/`` and ``scripts/``: each name bound by a top-level ``import``
or ``from ... import`` must be read somewhere in its module's code.  Package
``__init__.py`` files (which re-export), names listed in a module's
``__all__`` and ``from __future__`` imports are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIRECTORIES = ("src", "tests", "examples", "benchmarks", "scripts")


def unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by ``tree``'s top-level imports that it never reads."""
    bound: dict[str, int] = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            read.add(node.id)
        elif (isinstance(node, ast.Assign) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in node.targets)):
            read.update(elt.value for elt in node.value.elts
                        if isinstance(elt, ast.Constant))
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


def modules() -> list[Path]:
    return [path for directory in DIRECTORIES
            for path in sorted((ROOT / directory).rglob("*.py"))
            if path.name != "__init__.py"]


def test_no_module_level_import_is_unused():
    found = {path.relative_to(ROOT).as_posix(): names for path in modules()
             if (names := unused_imports(ast.parse(path.read_text())))}
    assert found == {}


@pytest.mark.parametrize("source,expected", [
    ("import os\n", ["os (line 1)"]),
    ("import os.path\nos.getcwd()\n", []),
    ("import numpy as np\nx = np.zeros(1)\n", []),
    ("from a import b as c\nc()\n", []),
    ("from a import b as c\nb()\n", ["c (line 1)"]),
    ("from __future__ import annotations\n", []),
    ("from a import b\n__all__ = ['b']\n", []),
    ("from a import B\ndef f():\n    '''B'''\n", ["B (line 1)"]),
    ("def f():\n    import os\n", []),
])
def test_scan(source, expected):
    assert unused_imports(ast.parse(source)) == expected

"""Every name a package exports has a caller outside the tests.

A name in the ``__all__`` of a package ``__init__.py`` under ``src/repro`` is
public API.  This scan fails when such a name has no whole-word reference
outside ``tests/``, outside its own definition and outside a module-level
``__all__`` list: in a non-``__init__`` module of ``src/``, or under
``examples/``, ``benchmarks/``, ``perfbench/``, ``scripts/`` or ``docs/``, or
in ``README.md``.  A name that only the tests need is deleted, or kept in
:data:`KEEP` with the reason.

The public functions of :mod:`repro.autodiff.ops` are scanned too, though
callers reach them as ``ops.<name>`` rather than through an ``__all__``:
each needs an ``ops.<name>`` reference, an import from the module or a call
from another op, in Python code outside ``tests/`` (comments, docstrings and
docs do not count), or a :data:`KEEP_OPS` entry with the reason.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
ELSEWHERE = ("examples", "benchmarks", "perfbench", "scripts", "docs")

#: Exported names that only the tests call, kept on purpose.
KEEP = {
    "capacity_requirements": "Eq. 5 for one mapping, which the Figure-3 test "
                             "checks against the paper and the tile-kernel "
                             "parity test against the scalar walk",
    "check_gradients": "the finite-difference check the autodiff tests run "
                       "on every differentiable op",
}


OPS = PACKAGE / "autodiff" / "ops.py"

#: ``repro.autodiff.ops`` functions that only the tests call, kept on purpose.
KEEP_OPS = {
    "exp": "the per-column model oracle (tests/oracles/layer_model.py) runs "
           "it on the log factors",
    "maximum": "the per-column model oracle runs it for its roofline latency "
               "and its chained per-layer hardware maxima",
    "transpose": "the parity tests of fold_max and reload_product build their "
                 "chains with it",
}


def exported() -> list[tuple[str, str]]:
    """``(package __init__ path, name)`` for every ``__all__`` entry."""
    found = []
    for init in sorted(PACKAGE.rglob("__init__.py")):
        for node in ast.parse(init.read_text()).body:
            if isinstance(node, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in node.targets):
                found += [(init.relative_to(PACKAGE.parent).as_posix(), elt.value)
                          for elt in node.value.elts]
    return found


def definition_lines(tree: ast.AST, name: str) -> set[int]:
    """Lines of every function, class or module-level assignment named ``name``."""
    lines: set[int] = set()
    spans = [node for node in ast.walk(tree)
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
             and node.name == name]
    spans += [node for node in getattr(tree, "body", [])
              if isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
                  isinstance(target, ast.Name) and target.id == name
                  for target in (node.targets if isinstance(node, ast.Assign)
                                 else [node.target]))]
    for node in spans:
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        lines.update(range(first, node.end_lineno + 1))
    return lines


def export_lines(tree: ast.AST) -> set[int]:
    """Lines of every module-level ``__all__`` list: exporting a name does
    not call it."""
    lines: set[int] = set()
    for node in getattr(tree, "body", []):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)) and any(
                isinstance(target, ast.Name) and target.id == "__all__"
                for target in (node.targets if isinstance(node, ast.Assign)
                               else [node.target])):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def sources() -> list[tuple[str, ast.AST | None]]:
    """The text that counts as a caller, with the parse tree of Python files."""
    paths = [path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"]
    for directory in ELSEWHERE:
        paths += [path for path in sorted((ROOT / directory).rglob("*"))
                  if path.suffix in (".py", ".md")]
    paths.append(ROOT / "README.md")
    texts = [path.read_text() for path in paths]
    return [(text, ast.parse(text) if path.suffix == ".py" else None)
            for path, text in zip(paths, texts)]


def referenced(name: str, corpus: list[tuple[str, ast.AST | None]]) -> bool:
    """Whether ``name`` appears as a whole word outside its own definitions."""
    pattern = re.compile(rf"(?<!\w){re.escape(name)}(?!\w)")
    for text, tree in corpus:
        if not pattern.search(text):
            continue
        skip = (definition_lines(tree, name) | export_lines(tree)
                if tree is not None else set())
        if any(number not in skip and pattern.search(line)
               for number, line in enumerate(text.splitlines(), 1)):
            return True
    return False


def ops_functions() -> list[str]:
    """The public functions of ``repro.autodiff.ops``."""
    return [node.name for node in ast.parse(OPS.read_text()).body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def ops_references(tree: ast.AST) -> set[str]:
    """Names the code of ``tree`` reaches as ``ops.<name>`` or imports from
    ``repro.autodiff.ops``."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "ops"):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "repro.autodiff.ops":
            names.update(alias.name for alias in node.names)
    return names


def ops_callers() -> set[str]:
    """Every ``ops`` function some code outside ``tests/`` reaches, including
    the ops that another op calls by name (a package ``__init__`` that
    re-exports a name is not a caller)."""
    paths = [path for path in sorted(PACKAGE.rglob("*.py")) if path.name != "__init__.py"]
    for directory in ELSEWHERE:
        paths += sorted((ROOT / directory).rglob("*.py"))
    names: set[str] = set()
    for path in paths:
        names |= ops_references(ast.parse(path.read_text()))
    for function in ast.parse(OPS.read_text()).body:
        if isinstance(function, ast.FunctionDef):
            names.update(node.func.id for node in ast.walk(function)
                         if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                         and node.func.id != function.name)
    return names


def test_every_exported_name_has_a_caller_outside_the_tests():
    corpus = sources()
    uncalled = [f"{init}: {name}" for init, name in exported()
                if name not in KEEP and not referenced(name, corpus)]
    assert uncalled == []


def test_kept_names_are_exported_and_still_uncalled():
    corpus = sources()
    names = {name for _, name in exported()}
    assert sorted(name for name in KEEP
                  if name not in names or referenced(name, corpus)) == []


@pytest.mark.parametrize("source,expected", [
    ("def helper():\n    return helper_value()\n", False),
    ("@register\nclass helper:\n    pass\n", False),
    ("helper = 3\n", False),
    ("def run():\n    return helper()\n", True),
    ("from repro.utils import helper\n", True),
    ("class Box:\n    def helper(self):\n        return 1\n", False),
    ("def helpers():\n    return helper_x\n", False),
    ("__all__ = [\n    \"helper\",\n]\n", False),
    ("__all__ += [\"helper\"]\n", False),
    ("__all__ = [\"helper\"]\nvalue = helper()\n", True),
])
def test_scan_excludes_definitions_and_partial_words(source, expected):
    assert referenced("helper", [(source, ast.parse(source))]) is expected


def test_every_ops_function_has_a_caller_outside_the_tests():
    callers = ops_callers()
    assert [name for name in ops_functions()
            if name not in KEEP_OPS and name not in callers] == []


def test_kept_ops_are_defined_and_still_uncalled():
    names, callers = set(ops_functions()), ops_callers()
    assert sorted(name for name in KEEP_OPS
                  if name not in names or name in callers) == []


@pytest.mark.parametrize("source,expected", [
    ("y = ops.relu(x)\n", {"relu"}),
    ("from repro.autodiff.ops import relu, stack\n", {"relu", "stack"}),
    ("from repro.autodiff import ops\nf = ops.fold_max\n", {"fold_max"}),
    ("relu = np.maximum\n", set()),
    ("# ops.relu\nx = 1\n", set()),
    ("\"\"\"Runs ops.relu.\"\"\"\n", set()),
])
def test_ops_scan_counts_code_references_only(source, expected):
    assert ops_references(ast.parse(source)) == expected

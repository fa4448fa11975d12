"""API surface rule: ``__all__`` tells the truth about a package's exports.

``__init__.py`` files are the repo's public-API declarations: downstream
code (and ``from repro import *`` in notebooks) trusts ``__all__``.  Two
drifts happen in practice — an ``__all__`` entry survives the removal of
the symbol it named, or a new convenience import never gets listed, so the
symbol works interactively but is invisible to ``*``-imports, API docs and
anyone auditing the surface.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.findings import Finding
from repro.analysis.registry import Checker, register_checker


def _module_bindings(tree: ast.Module) -> set[str]:
    """Names bound at module level: imports, assignments, defs, classes."""
    bindings: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bindings.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if alias.name != "*":
                    bindings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bindings.add(target.id)
        elif isinstance(node, ast.AnnAssign) \
                and isinstance(node.target, ast.Name):
            bindings.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)):
            bindings.add(node.name)
        elif isinstance(node, (ast.If, ast.Try)):
            # Conditional imports (feature gates, optional deps) still bind.
            bindings |= _module_bindings(node)  # type: ignore[arg-type]
    return bindings


def _lazy_exports(tree: ast.Module) -> set[str]:
    """Names a module ``__getattr__`` (PEP 562) resolves on first access.

    They are the string keys of every module-level dict literal assigned
    to a name the module's ``__getattr__`` reads; a module without the hook
    has none.
    """
    hook = next((node for node in tree.body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "__getattr__"), None)
    if hook is None:
        return set()
    read = {node.id for node in ast.walk(hook) if isinstance(node, ast.Name)}
    names: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Dict) \
                and any(isinstance(target, ast.Name) and target.id in read
                        for target in node.targets):
            names |= {key.value for key in node.value.keys
                      if isinstance(key, ast.Constant)
                      and isinstance(key.value, str)}
    return names


def _dunder_all(tree: ast.Module) -> tuple[list[tuple[str, int]], bool]:
    """``(name, line)`` entries of a literal ``__all__``, and whether one exists.

    A dynamically built ``__all__`` (concatenation of variables, list
    comprehension, ...) returns ``([], True)`` — present but unauditable,
    so the checker stays quiet rather than guessing.
    """
    entries: list[tuple[str, int]] = []
    present = False
    for node in tree.body:
        values: ast.expr | None = None
        if isinstance(node, ast.Assign) \
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets):
            values = node.value
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.target, ast.Name) \
                and node.target.id == "__all__":
            values = node.value
        if values is None:
            continue
        present = True
        if not isinstance(values, (ast.List, ast.Tuple)):
            return [], True
        for element in values.elts:
            if isinstance(element, ast.Constant) \
                    and isinstance(element.value, str):
                entries.append((element.value, element.lineno))
            else:
                return [], True
    return entries, present


@register_checker
class ApiSurface(Checker):
    """__all__ out of sync with a package __init__'s imports.

    In every ``__init__.py`` that declares a literal ``__all__``, the list
    must match the module's actual bindings in both directions: each
    ``__all__`` entry must name a symbol the module defines, imports or
    exports lazily (an entry for a removed symbol makes ``from repro
    import *`` raise ``AttributeError``), and each public name the module
    ``from``-imports must appear in ``__all__`` (an unlisted import is a
    symbol that works by accident — present at runtime, absent from the
    declared surface, the drift this repo's top-level ``repro/__init__.py``
    accumulated for its campaign exports).  Names starting with ``_`` and
    plain ``import x`` module bindings are exempt; a dynamically built
    ``__all__`` is not audited.  A lazy export is a string key of a
    module-level dict literal that the module's ``__getattr__`` (PEP 562)
    reads: the table the top-level package resolves its names from on
    first access.

    Fix by adding the missing names to ``__all__`` or deleting the stale
    entry; imports used only internally can be renamed with a leading
    underscore.
    """

    rule_id = "api-surface"

    def applies_to(self, source) -> bool:
        return source.package_relpath.name == "__init__.py"

    def check(self, source) -> Iterator[Finding]:
        entries, present = _dunder_all(source.tree)
        if not present or not entries:
            return
        bindings = _module_bindings(source.tree) | _lazy_exports(source.tree)
        listed = {name for name, _ in entries}
        for name, line in entries:
            if name not in bindings:
                yield Finding(
                    path=source.display, line=line, rule=self.rule_id,
                    message=f"__all__ names {name!r}, which this module "
                            "neither defines, imports nor exports lazily")
        for node in source.tree.body:
            if not isinstance(node, ast.ImportFrom):
                continue
            for alias in node.names:
                bound = alias.asname or alias.name
                if alias.name == "*" or bound.startswith("_"):
                    continue
                if bound not in listed:
                    yield Finding(
                        path=source.display, line=node.lineno,
                        rule=self.rule_id,
                        message=f"{bound!r} is imported into the package "
                                "namespace but missing from __all__")

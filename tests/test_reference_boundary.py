"""The scalar reference model keeps no production caller outside itself.

``repro.timeloop`` is the one-mapping-at-a-time reference that the tests and
the benchmark re-score against.  Every other module under ``src/repro``
scores mappings through the batch evaluator (``repro.eval.batch``) and sizes
tiles with the tile-word kernel (``repro.mapping.constraints``).  This AST
scan fails when a module outside ``repro/timeloop/`` imports
``repro.timeloop.loopnest`` or one of the scalar scorers.  The top-level
re-export in ``repro/__init__.py`` is the public API and is exempt; the
shared result types (``PerformanceResult``, ``NetworkPerformance``) stay
importable everywhere.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "repro"
REFERENCE = "repro.timeloop"
LOOPNEST = "repro.timeloop.loopnest"
SCORERS = frozenset({"evaluate_mapping", "evaluate_network_mappings",
                     "analyze_traffic", "energy_breakdown"})
EXEMPT = frozenset({PACKAGE / "__init__.py"})


def reference_imports(tree: ast.AST, package: str) -> list[str]:
    """Dotted names of the reference-only imports anywhere in ``tree``.

    ``package`` is the importing module's package, which resolves relative
    imports.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names
                      if alias.name == LOOPNEST or alias.name.startswith(LOOPNEST + ".")]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                parts = package.split(".")
                base = parts[:len(parts) - node.level + 1]
                module = ".".join(base + ([node.module] if node.module else []))
            else:
                module = node.module or ""
            names = {alias.name for alias in node.names}
            if module == LOOPNEST or module.startswith(LOOPNEST + "."):
                found.append(module)
            elif module == REFERENCE and "loopnest" in names:
                found.append(LOOPNEST)
            elif module in ("repro", REFERENCE) or module.startswith(REFERENCE + "."):
                found += [f"{module}.{name}" for name in sorted(names & SCORERS)]
    return found


def offenders() -> dict[str, list[str]]:
    """Modules outside ``repro/timeloop/`` with reference-only imports."""
    result = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        if path in EXEMPT or PACKAGE / "timeloop" in path.parents:
            continue
        relative = path.relative_to(PACKAGE.parent).with_suffix("")
        package = ".".join(relative.parts[:-1])
        found = reference_imports(ast.parse(path.read_text()), package)
        if found:
            result[relative.as_posix()] = found
    return result


def test_no_module_outside_the_reference_imports_it():
    assert offenders() == {}


@pytest.mark.parametrize("source", [
    "import repro.timeloop.loopnest",
    "import repro.timeloop.loopnest as loopnest",
    "from repro.timeloop.loopnest import tile_words",
    "from repro.timeloop import loopnest",
    "from repro.timeloop import evaluate_mapping",
    "from repro.timeloop.model import evaluate_network_mappings",
    "from repro.timeloop.accelergy import energy_breakdown",
    "from repro import analyze_traffic",
    "from ..timeloop.loopnest import TrafficBreakdown",
    "from ..timeloop.model import evaluate_mapping",
    "def score(mapping, spec):\n"
    "    from repro.timeloop.model import evaluate_mapping\n"
    "    return evaluate_mapping(mapping, spec)",
])
def test_scan_sees_every_import_form(source):
    assert reference_imports(ast.parse(source), "repro.eval")


@pytest.mark.parametrize("source", [
    "from repro.timeloop.model import NetworkPerformance, PerformanceResult",
    "from repro.timeloop import PerformanceResult",
    "from repro.timeloop.accelergy import DRAM_BLOCK_WORDS",
    "from repro.eval.batch import evaluate_mappings_batched",
    "from ..timeloop.model import NetworkPerformance",
    "import repro.timeloop.model",
])
def test_scan_allows_the_shared_types(source):
    assert reference_imports(ast.parse(source), "repro.eval") == []

"""Every example and benchmark script still imports.

The tier-1 suite does not run ``examples/*.py`` or ``benchmarks/bench_*.py``,
so a rename in ``src/`` could break them unnoticed.  This loads each one by
path.  Loading runs nothing: each script guards its ``main()`` behind
``__main__``, and the ``bench_fig*`` files need pytest-benchmark only when
run.  ``examples/quickstart.py`` is the exception: its README block runs at
import, and the CI docs job runs it whole.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = sorted(path for path in [*ROOT.glob("examples/*.py"),
                                   *ROOT.glob("benchmarks/bench_*.py")]
                 if path.name != "quickstart.py")


def test_scripts_are_found():
    assert {"rtl_codesign.py", "bench_ablations.py", "bench_fig12_rtl.py"} <= {
        path.name for path in SCRIPTS}


@pytest.mark.parametrize("path", SCRIPTS, ids=lambda path: path.relative_to(ROOT).as_posix())
def test_script_imports(path):
    spec = importlib.util.spec_from_file_location(f"script_{path.stem}", path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))

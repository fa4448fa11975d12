"""Every call the benchmark's tracer patches still exists.

``perfbench/tracer.py`` patches the functions and methods listed in its
``SPANS`` (a span name, a module and an attribute path) and hooks some of
them by path.  A renamed or deleted target only breaks the traced benchmark
runs, so this loads the tracer by path and resolves every entry.  It reads
``perfbench/`` and changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load_tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = _load_tracer()


def test_spans_are_found():
    assert {"Tape.forward", "Adam.step", "best_ordering_per_layer",
            "ResultStore.append_cache_segment"} <= {path for _, _, path in TRACER.SPANS}


@pytest.mark.parametrize("module_name, path",
                         [(module_name, path) for _, module_name, path in TRACER.SPANS],
                         ids=[f"{module_name}:{path}" for _, module_name, path in TRACER.SPANS])
def test_patch_target_resolves_to_a_callable(module_name, path):
    target = importlib.import_module(module_name)
    for attribute in path.split("."):
        target = getattr(target, attribute)
    assert callable(target)


def test_every_hook_names_a_span_target():
    assert sorted(set(TRACER._HOOKS) - {path for _, _, path in TRACER.SPANS}) == []


def test_autodiff_names_the_hooks_read_exist():
    """The tape and Adam hooks read ``recorded``, ``num_nodes`` and
    ``parameters`` by name."""
    from repro.autodiff import Adam, Tape, Tensor

    x = Tensor(np.ones(2), requires_grad=True)
    tape = Tape(lambda: (x * x).sum())
    assert tape.recorded is False
    tape.forward()
    assert tape.recorded is True and tape.num_nodes > 0
    assert Adam([x]).parameters == [x]

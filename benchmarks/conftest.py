"""Shared pytest-benchmark configuration for the experiment benchmarks.

Every benchmark regenerates one of the paper's tables or figures at a reduced
but shape-preserving scale (full paper-scale runs take hours:
``python -m repro.cli <figure> --scale paper``).  The benchmark value is the
wall-clock time of the harness; the scientific outputs are attached to
``benchmark.extra_info`` so they appear in the saved benchmark JSON.
"""

import pytest


@pytest.fixture
def record_results():
    """Helper to stash experiment numbers in the benchmark's extra_info."""

    def _record(benchmark, **values):
        for key, value in values.items():
            benchmark.extra_info[key] = value

    return _record

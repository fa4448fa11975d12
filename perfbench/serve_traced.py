"""Run the search-service daemon with the benchmark's span wrappers installed.

    python3 perfbench/serve_traced.py --root DIR --trace-dir DIR

The equivalent of ``python -m repro.cli serve --root DIR --n-workers 1``,
except that the tracer patches the layer calls first, so the pool worker the
daemon forks inherits the wrappers.  Workers write their spans to
``--trace-dir`` after each job; the daemon writes ``daemon.json`` there once
it drained (SIGTERM).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from tracer import TRACER


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", required=True)
    parser.add_argument("--trace-dir", required=True)
    args = parser.parse_args()

    from repro.service import ServiceConfig, serve

    TRACER.flush_dir = Path(args.trace_dir)
    TRACER.install()
    try:
        return serve(ServiceConfig(root=Path(args.root), n_workers=1))
    finally:
        TRACER.dump(TRACER.flush_dir / "daemon.json")


if __name__ == "__main__":
    sys.exit(main())

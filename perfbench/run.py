"""The repository benchmark: one command, two workloads.

    python3 perfbench/run.py --workload {offline,served} \\
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1`` it holds every per-layer metric
instead (see ``perfbench/README.md``).  Either way the run checks the
program's outputs: ``correct`` is false and ``failed`` counts the searches
or jobs whose result failed a check.  The benchmark builds nothing; it runs
the sources under ``src/`` of the checkout it sits in and writes only under
``.perfbench-work/`` there, which it removes on exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import signal
import sys

import common
import layers

WORKLOADS = ("offline", "served")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception so the daemons a run started are
    # stopped on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    try:
        common.require_sources()
    except common.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    work = common.make_work_dir()
    try:
        if args.workload == "served":
            import served
            attempted, failed, problems, values = served.run(
                args.seed, args.seconds, bool(args.trace), work)
        else:
            import offline
            attempted, failed, problems, values = offline.run(
                args.seed, args.seconds, bool(args.trace))
    except common.BenchmarkError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            work.parent.rmdir()

    for problem in problems[:20]:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    if args.trace:
        metrics = layers.report(values)
    else:
        metrics = {name: {"value": float(value), "unit": unit}
                   for name, (value, unit) in values.items()}
    print(json.dumps({"correct": failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

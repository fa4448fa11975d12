#!/usr/bin/env python
"""Benchmark CI gate: check the result line of a ``perfbench`` run.

``perfbench/run.py`` exits 0 whether or not the program's outputs passed the
benchmark's own checks, so CI reads its result line instead.  The last
non-empty line of the saved standard output must be the run's JSON object,
with

* ``correct`` true and ``failed`` 0 — every search or job passed the
  checks: the reference re-score and fit check (``offline``) and
  served-vs-offline byte-identity (``served``);
* ``attempted`` above 0 — the run did some work;
* a numeric metric for every name of one metric set in ``BENCHMARK.json``:
  ``--set per_layer`` (the default) for a ``--trace 1`` run, ``--set
  end_to_end`` for a ``--trace 0`` run, the mode that reports the end-to-end
  metrics (``peak_rss_mb`` among them).

A run that cannot patch a call ``perfbench/tracer.py`` times (say, a renamed
method) dies before printing its result, so it fails here too.  No timing is
checked.

Run with::

    python3 perfbench/run.py --workload offline --seed 0 --seconds 5 \\
        --trace 1 > offline.out
    python3 scripts/check_bench_result.py offline.out
    python3 perfbench/run.py --workload offline --seed 0 --seconds 5 \\
        --trace 0 > offline-untraced.out
    python3 scripts/check_bench_result.py --set end_to_end offline-untraced.out

Exit 0 when the run passes, 1 with one line per problem.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def metric_names(metric_set: str = "per_layer",
                 benchmark: Path = REPO_ROOT / "BENCHMARK.json") -> list[str]:
    """The names of one metric set ``BENCHMARK.json`` declares."""
    return [entry["name"]
            for entry in json.loads(benchmark.read_text())[metric_set]]


def result_line(output: str) -> str | None:
    """The last non-empty line of a run's standard output."""
    lines = [line for line in output.splitlines() if line.strip()]
    return lines[-1] if lines else None


def result_problems(output: str, names: list[str],
                    metric_set: str = "per_layer") -> list[str]:
    """Every reason the run whose standard output is ``output`` fails."""
    line = result_line(output)
    if line is None:
        return ["no result line: the run printed nothing"]
    try:
        result = json.loads(line)
    except json.JSONDecodeError as error:
        return [f"the last line is not JSON ({error}): {line[:200]!r}"]
    if not isinstance(result, dict):
        return [f"the result line is not a JSON object: {line[:200]!r}"]
    problems = []
    if result.get("correct") is not True:
        problems.append(f"correct is {result.get('correct')!r}, not true")
    if result.get("failed") != 0:
        problems.append(f"failed is {result.get('failed')!r}, not 0")
    attempted = result.get("attempted")
    if not isinstance(attempted, int) or attempted <= 0:
        problems.append(f"attempted is {attempted!r}, not a positive count")
    metrics = result.get("metrics")
    if not isinstance(metrics, dict):
        return problems + ["the result line has no metrics object"]
    for name in names:
        entry = metrics.get(name)
        if not isinstance(entry, dict) \
                or not isinstance(entry.get("value"), (int, float)):
            problems.append(f"no value for {_label(metric_set)} metric {name}")
    return problems


def _label(metric_set: str) -> str:
    return metric_set.replace("_", "-")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=Path,
                        help="saved standard output of perfbench/run.py")
    parser.add_argument("--set", dest="metric_set", default="per_layer",
                        choices=("per_layer", "end_to_end"),
                        help="the metrics the run must report: per_layer "
                             "(--trace 1) or end_to_end (--trace 0)")
    args = parser.parse_args(argv)
    names = metric_names(args.metric_set)
    output = args.output.read_text()
    problems = result_problems(output, names, args.metric_set)
    for problem in problems:
        print(f"{args.output}: {problem}")
    if problems:
        return 1
    result = json.loads(result_line(output))
    print(f"{args.output}: correct, {result['attempted']} attempted, "
          f"0 failed, {len(names)}/{len(names)} {_label(args.metric_set)} "
          f"metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python
"""Benchmark CI gate: check the result line of a traced ``perfbench`` run.

``perfbench/run.py`` exits 0 whether or not the program's outputs passed the
benchmark's own checks, so CI reads its result line instead.  The last
non-empty line of the saved standard output must be the run's JSON object,
with

* ``correct`` true and ``failed`` 0 — every search or job passed the
  checks: the reference re-score and fit check (``offline``) and
  served-vs-offline byte-identity (``served``);
* ``attempted`` above 0 — the run did some work;
* a numeric metric for every ``per_layer`` name in ``BENCHMARK.json`` (a
  ``--trace 1`` run reports them all).

A run that cannot patch a call ``perfbench/tracer.py`` times (say, a renamed
method) dies before printing its result, so it fails here too.  No timing is
checked.

Run with::

    python3 perfbench/run.py --workload offline --seed 0 --seconds 5 \\
        --trace 1 > offline.out
    python3 scripts/check_bench_result.py offline.out

Exit 0 when the run passes, 1 with one line per problem.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def per_layer_names(benchmark: Path = REPO_ROOT / "BENCHMARK.json") -> list[str]:
    """The per-layer metric names ``BENCHMARK.json`` declares."""
    return [entry["name"]
            for entry in json.loads(benchmark.read_text())["per_layer"]]


def result_line(output: str) -> str | None:
    """The last non-empty line of a run's standard output."""
    lines = [line for line in output.splitlines() if line.strip()]
    return lines[-1] if lines else None


def result_problems(output: str, names: list[str]) -> list[str]:
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
            problems.append(f"no value for per-layer metric {name}")
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("output", type=Path,
                        help="saved standard output of perfbench/run.py")
    args = parser.parse_args(argv)
    names = per_layer_names()
    output = args.output.read_text()
    problems = result_problems(output, names)
    for problem in problems:
        print(f"{args.output}: {problem}")
    if problems:
        return 1
    result = json.loads(result_line(output))
    print(f"{args.output}: correct, {result['attempted']} attempted, "
          f"0 failed, {len(names)}/{len(names)} per-layer metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())

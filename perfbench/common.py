"""Shared helpers: checkout paths, scratch space, machine speed, cold
starts, process memory."""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Cold starts per run for ``setup_s``; their median is reported, so the
#: first start in a fresh checkout (which also fills ``__pycache__``) does
#: not set the figure.
COLD_STARTS = 5
#: Probe samples taken before each cold start.
PROBES_PER_START = 8

#: Mean seconds of one :class:`SpeedProbe` sample at the speed the scaled
#: figures refer to: the probe's mean over 12 minutes of rounds of offline
#: searches on a 2-vCPU Intel Xeon VM (Python 3.11, NumPy 2.4).
PROBE_REFERENCE_S = 2.3e-3
#: Seconds between two samples :meth:`SpeedProbe.tick` takes (each ~2 ms).
PROBE_PERIOD_S = 0.1


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no sources, a daemon that never came up)."""


def require_sources() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        raise BenchmarkError(f"no repro sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def make_work_dir() -> Path:
    """A per-process scratch directory inside the checkout; temp files go there."""
    work = ROOT / ".perfbench-work" / str(os.getpid())
    work.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work)
    tempfile.tempdir = str(work)
    return work


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


# --------------------------------------------------------------------------- #
# Machine speed
# --------------------------------------------------------------------------- #
class SpeedProbe:
    """A fixed slice of interpreter and small-array NumPy work, sampled
    while a workload runs.

    The machine is shared and its speed drifts by tens of percent for
    seconds to minutes at a time.  The probe's mean time over a run moves
    with the workload's mean time over the same run (see the README), so
    :meth:`scale` turns a run's mean timings into seconds at the reference
    speed of :data:`PROBE_REFERENCE_S`.  The probe runs only benchmark code,
    so no change to the program moves it.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        #: Seconds spent sampling, for callers to leave out of their timings.
        self.spent = 0.0
        self._due = 0.0
        self._array = np.linspace(0.5, 1.5, 64)

    def sample(self, count: int = 1) -> None:
        for _ in range(count):
            start = time.perf_counter()
            table, total = {}, 0
            for i in range(6000):
                table[i & 63] = i
                total += table[i & 63] * 3 % 7
            x = self._array
            for _ in range(400):
                x = np.tanh(x * 0.5 + 0.1)
            elapsed = time.perf_counter() - start
            self.samples.append(elapsed)
            self.spent += elapsed

    def tick(self) -> None:
        """Sample once if :data:`PROBE_PERIOD_S` passed since the last sample."""
        now = time.perf_counter()
        if now >= self._due:
            self.sample()
            self._due = time.perf_counter() + PROBE_PERIOD_S

    def scale(self) -> float:
        """Reference speed ÷ this run's speed, as a factor on its times."""
        return PROBE_REFERENCE_S / statistics.fmean(self.samples)


# --------------------------------------------------------------------------- #
# Cold starts
# --------------------------------------------------------------------------- #
def cold_import_seconds(networks) -> float:
    """Median wall time from spawning a fresh interpreter to ``ready``, at
    the reference speed of a probe sampled before each start.

    The child imports ``repro`` and builds ``networks``, then prints a line;
    the clock runs from just before the spawn to reading that line.
    """
    code = ("import repro\n"
            "from repro.workloads.networks import get_network\n"
            f"for name in {list(networks)!r}:\n"
            "    get_network(name)\n"
            "print('ready', flush=True)\n")
    times = []
    probe = SpeedProbe()
    for _ in range(COLD_STARTS):
        probe.sample(PROBES_PER_START)
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", code], env=child_env(),
                              cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            if child.wait(timeout=60) != 0 or line.strip() != "ready":
                raise BenchmarkError("cold import of repro failed")
        times.append(elapsed)
    return statistics.median(times) * probe.scale()


def peak_rss_mb_of(pids) -> float:
    """Summed peak resident set size (``VmHWM``) of live processes, in MB."""
    total_kb = 0
    for pid in pids:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
    return total_kb / 1024.0


def child_pids(pid: int) -> list[int]:
    """Live child processes of ``pid`` (none once it exited)."""
    children = []
    try:
        tasks = sorted(Path(f"/proc/{pid}/task").iterdir())
    except FileNotFoundError:
        return []
    for task in tasks:
        try:
            text = (task / "children").read_text().split()
        except FileNotFoundError:  # the thread ended meanwhile
            continue
        children.extend(int(child) for child in text)
    return children

"""Shared helpers: output checks, seeded grids, normalised timing.

Timing on a shared machine
--------------------------
On a shared 2-core Xeon virtual machine, measured speed swings by 10-40 %
in phases lasting seconds, for this process and its children alike (CPU
time tracks wall time, so this is slower execution, not waiting).
Every timed unit is therefore bracketed by runs of a probe that does the
same kind of work, and reported as `seconds * nominal / mean probe
seconds`: the time the unit would take on a machine where the probe takes
its nominal time.  A slow phase does not slow every kind of work alike, so
there are three probes: PYTHON, a pure-Python loop (30 ms), for units
spent in Python code; NUMPY, a numpy sampling and reduction (25 ms), for
units spent in numpy samplers; BARE, a bare `python -c pass` child
(50 ms), for units that are child processes (a CLI invocation, a set-up
child), whose start-up swings in ways no in-process probe follows.  A change to discmax moves the unit and not the probe, so it
moves the normalised time by the same factor as the wall time.  Raw wall
times are kept in the result file next to the normalised ones.
"""

from __future__ import annotations

import math
import os
import select
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
WORK = ROOT / ".bench_out"
CHILD_TIMEOUT_S = 120.0
FLOOR_REPEATS = 5
def python_loop() -> float:
    """Seconds taken by a fixed pure-Python loop."""
    t0 = time.perf_counter()
    table = {}
    acc = 0
    for i in range(200000):
        acc = (acc * 31 + i) % 1000003
        table[i & 1023] = acc
    return time.perf_counter() - t0


def numpy_sampling() -> float:
    """Seconds taken by a fixed numpy negative binomial sampling and
    block-maximum reduction."""
    t0 = time.perf_counter()
    draws = np.random.default_rng(12345).negative_binomial(2, 0.7, size=312000)
    int(draws.reshape(-1, 24).max(axis=1).sum())
    return time.perf_counter() - t0


def bare_start() -> float:
    """Seconds taken by a bare `python -c pass` child: the reference for
    units that are child processes, whose start-up speed swings in ways an
    in-process loop does not follow."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=child_env(), check=False)
    return time.perf_counter() - t0


@dataclass(frozen=True)
class Probe:
    """A reference and the seconds it is normalised to."""
    run: object
    nominal_s: float


PYTHON = Probe(python_loop, 0.030)
NUMPY = Probe(numpy_sampling, 0.025)
BARE = Probe(bare_start, 0.050)


class Clock:
    """Times the units of work of one pass in normalised seconds.

    Each unit runs between two runs of its probe.  A probe run that ended
    less than REUSE_S before the next unit on that probe starts also
    serves as that unit's first run, so back-to-back units cost one probe
    run each.  norm_total and wall_total sum the units timed so far;
    `units` keeps (label, normalised seconds, wall seconds) per unit;
    child_rss_mb is the largest peak RSS of the children run on this clock
    (0 when none ran).
    """

    REUSE_S = 0.05

    def __init__(self) -> None:
        self._last: dict = {}
        self.norm_total = 0.0
        self.wall_total = 0.0
        self.units: list[tuple[str, float, float]] = []
        self.child_rss_mb = 0.0

    def time(self, label: str, probe: Probe, fn, *args, **kwargs):
        """Run fn as one unit named `label`, normalised by `probe`; return (normalised seconds, wall
        seconds, normalising factor, fn's result)."""
        last, last_end = self._last.get(probe, (0.0, -math.inf))
        before = last if time.perf_counter() - last_end < self.REUSE_S else probe.run()
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        after = probe.run()
        self._last[probe] = (after, time.perf_counter())
        factor = probe.nominal_s / (0.5 * (before + after))
        norm = wall * factor
        self.norm_total += norm
        self.wall_total += wall
        self.units.append((label, norm, wall))
        return norm, wall, factor, result


class Checks:
    """Counts checked outputs and keeps the first few failures for stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.examples: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.examples) < 20:
                self.examples.append(what)


def binomial_bound(theory: float, trials: int, slack: float) -> float:
    """5 sigma of a frequency estimated from `trials` draws, plus `slack`.

    A correct sampler exceeds 5 sigma in about one check in 1.7 million,
    so a pass with a few dozen such checks fails well under once in 10^4.
    """
    p = min(max(theory, 0.0), 1.0)
    return 5.0 * math.sqrt(p * (1.0 - p) / trials) + slack


def stratified_log_grid(rng, lo: float, hi: float, count: int, fixed=()) -> list:
    """`count` points, one log-uniform point per equal-width stratum of
    [log lo, log hi), merged with the `fixed` points, strictly increasing.

    One point per stratum keeps the cost of a scan nearly the same for
    every seed, which keeps pass times comparable across seeds.
    """
    a, b = math.log10(lo), math.log10(hi)
    width = (b - a) / count
    points = {10.0 ** (a + width * (i + rng.random())) for i in range(count)}
    points.update(float(n) for n in fixed)
    return sorted(points)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Child:
    returncode: int
    stdout: str
    stderr: str
    peak_rss_mb: float


def _spawn(argv: list) -> Child:
    """Run argv to completion.  Its output goes to files under WORK rather
    than pipes, so that the child can be reaped with os.wait4, which gives
    the peak RSS of that child alone."""
    with open(WORK / "child.out", "w+b") as out, open(WORK / "child.err", "w+b") as err:
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            if not select.select([pidfd], [], [], CHILD_TIMEOUT_S)[0]:
                proc.kill()
        finally:
            os.close(pidfd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(),
                     usage.ru_maxrss / 1024.0)


def run_child(clock: Clock, label: str, argv: list, probe: Probe = BARE):
    """Run one child to completion as a unit of `clock`, normalised by
    `probe`; return (normalised seconds, wall seconds, normalising factor,
    Child)."""
    result = clock.time(label, probe, _spawn, argv)
    clock.child_rss_mb = max(clock.child_rss_mb, result[3].peak_rss_mb)
    return result


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values, q: float) -> float:
    """The q-th percentile (0 < q < 100) by the inclusive method."""
    values = sorted(values)
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[int(q) - 1]


_FLOOR_IMPORT = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "import {module}\n"
    "print((time.perf_counter() - t) * 1000.0, int('numpy' in sys.modules))\n"
)


def measure_floors() -> dict:
    """Fresh-interpreter floors that CLI and set-up gains are sized against.

    interpreter_ms: wall time of a bare `python -c pass`;
    numpy_import_ms: in-process time of a bare `import numpy`;
    import_ms / numpy_loaded: in-process time of `import discmax.cli` and
    whether that import left numpy in sys.modules.
    Times are normalised medians over FLOOR_REPEATS children each.
    """
    py = sys.executable
    clock = Clock()
    interp, numpy_ms, cli_ms, loaded = [], [], [], []
    for _ in range(FLOOR_REPEATS):
        interp.append(run_child(clock, "interpreter", [py, "-c", "pass"], PYTHON)[0] * 1000.0)
        for module, sink in (("numpy", numpy_ms), ("discmax.cli", cli_ms)):
            _, _, factor, proc = run_child(clock, module,
                                           [py, "-c", _FLOOR_IMPORT.format(module=module)],
                                           PYTHON)
            if proc.returncode != 0:
                raise RuntimeError(f"import {module} failed in a child: {proc.stderr.strip()}")
            ms, has_numpy = proc.stdout.split()
            sink.append(float(ms) * factor)
            if module == "discmax.cli":
                loaded.append(int(has_numpy))
    return {
        "cli.interpreter_ms": median(interp),
        "cli.numpy_import_ms": median(numpy_ms),
        "cli.import_ms": median(cli_ms),
        "cli.numpy_loaded": max(loaded),
    }


"""Helpers shared by every workload: the measured-phase clock, order
statistics, the independent ``dgesv`` check and the machine record.

Nothing here imports the program under test, so the checks stay
independent of the code they judge.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

#: equal wall-clock windows per measured phase; each window is scaled
#: by the host slowness probed during it
WINDOWS = 10


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile (``q`` in [0, 100])."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dgesv_flops(n: int) -> float:
    """The catalogue's complexity for ``linsys/dgesv``: 2/3 n^3 + 2 n^2."""
    return 2.0 / 3.0 * n ** 3 + 2.0 * n ** 2


def dgesv_ok(a: np.ndarray, b: np.ndarray, x) -> bool:
    """``x`` solves ``a x = b``: it agrees with ``numpy.linalg.solve``
    and meets the backward-error bound
    ``|a x - b| <= 10 n eps (|a| |x| + |b|)`` (infinity norms)."""
    x = np.asarray(x, dtype=float)
    if x.shape != b.shape or not np.all(np.isfinite(x)):
        return False
    n = a.shape[0]
    eps = np.finfo(float).eps
    resid = np.linalg.norm(a @ x - b, np.inf)
    scale = np.linalg.norm(a, np.inf) * np.linalg.norm(x, np.inf)
    scale += np.linalg.norm(b, np.inf)
    if resid > 10.0 * n * eps * scale:
        return False
    ref = np.linalg.solve(a, b)
    cond = np.linalg.cond(a, np.inf)
    return bool(
        np.linalg.norm(x - ref, np.inf)
        <= 10.0 * n * eps * cond * np.linalg.norm(ref, np.inf)
    )


def well_conditioned(rng: np.random.Generator, n: int) -> np.ndarray:
    """A random, strongly diagonally dominant ``n x n`` matrix."""
    return rng.standard_normal((n, n)) + n * np.eye(n)


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
_TABLE = {i: i * 7 % 13 for i in range(64)}


class _Box:
    __slots__ = ("v",)

    def __init__(self) -> None:
        self.v = 3


_BOX = _Box()


def _mix(i: int, table=_TABLE, box=_BOX) -> int:
    return (i * i + table[i & 63] + box.v) % 1009


def reference_work() -> int:
    """Fixed pure-Python work: calls, integer arithmetic, dict and slot
    reads.  It allocates nothing that outlives it, so the collector and
    the program's heap do not touch its timing."""
    s = 0
    for i in range(1500):
        s += _mix(i)
    return s


#: thread CPU seconds :func:`reference_work` takes on the reference
#: host (2-CPU x86-64 VM, Python 3.11.7; median of 2000 probes)
REFERENCE_SECONDS = 4.5e-4
#: wall seconds between speed probes inside a measured phase
PROBE_EVERY = 0.05


def probe() -> float:
    """This host's current slowness against the reference host: the
    thread CPU time of one :func:`reference_work` call over
    :data:`REFERENCE_SECONDS` (above 1 = slower).  Thread CPU time
    leaves out waits for the interpreter lock and for a stolen CPU."""
    t0 = time.thread_time()
    reference_work()
    return (time.thread_time() - t0) / REFERENCE_SECONDS


def slowness(samples: int = 10) -> float:
    """Median of ``samples`` back-to-back probes."""
    return statistics.median(probe() for _ in range(samples))


@dataclass
class Windows:
    """Splits a measured phase into equal wall-clock windows.

    The measuring loop calls :meth:`tick` between units of work with
    the number of operations completed so far.  Each window's wall and
    CPU time is divided by the host slowness probed during that window,
    so rates read in reference-host seconds: the host this runs on
    speeds up and slows down by up to 2x over seconds to minutes, and
    the probes share that drift with the program.  Rates are totals
    over the windows, so collector pauses and other periodic program
    work count in full.  Probes and the benchmark's own checks run
    inside :meth:`paused` so they are not billed to the program.
    """

    seconds: float
    #: operations completed before the phase opened
    start_ops: int = 0
    #: per window: operations, wall s, process CPU s, slowness
    ops: list = field(default_factory=list)
    walls: list = field(default_factory=list)
    cpus: list = field(default_factory=list)
    factors: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.length = self.seconds / WINDOWS
        self._probes: list = []
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        self._ops0 = self.start_ops
        self._next_probe = self._t0

    def done(self) -> bool:
        return len(self.ops) >= WINDOWS

    @contextmanager
    def paused(self):
        """Leave the enclosed work out of the open window."""
        t, c = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self._t0 += time.perf_counter() - t
            self._c0 += time.process_time() - c

    def tick(self, ops: int) -> None:
        now = time.perf_counter()
        if now >= self._next_probe:
            with self.paused():
                self._probes.append(probe())
            self._next_probe = now + PROBE_EVERY
        wall = now - self._t0
        if wall < self.length:
            return
        done = ops - self._ops0
        cpu = time.process_time() - self._c0
        factor = (
            statistics.median(self._probes) if self._probes
            else self.factors[-1] if self.factors else 1.0
        )
        self._probes = []
        self.ops.append(done)
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.factors.append(factor)
        self._t0 = time.perf_counter()
        self._c0 = time.process_time()
        self._ops0 = ops

    def raw_rates(self) -> list:
        return [n / w for n, w in zip(self.ops, self.walls)]

    def throughput(self) -> float:
        """Operations per reference-host wall second."""
        return sum(self.ops) / sum(
            w / f for w, f in zip(self.walls, self.factors)
        )

    def cpu_ms_per_op(self) -> float:
        """Process CPU milliseconds per operation, reference host."""
        return 1e3 * sum(
            c / f for c, f in zip(self.cpus, self.factors)
        ) / max(1, sum(self.ops))


@dataclass
class Result:
    """What a measured phase of any workload gives back."""

    #: every operation the phase started (solves, stores, fetches)
    attempted: int
    failed: int
    #: solve requests submitted: the base of the per-request ratios
    requests: int
    windows: Windows
    #: peak resident memory once the turnaround sample was submitted
    rss_mb: float
    #: independent check -> operations that broke it
    checks: dict
    #: turnaround sample in ms (empty when no sample was asked for)
    turnaround: list
    #: the client's request records, for the prediction error
    records: list

    def correct(self) -> bool:
        return self.failed == 0 and not any(self.checks.values())


class GcWatch:
    """Collector pauses and generation-2 passes, read through
    ``gc.callbacks`` without changing any collector setting."""

    def __init__(self) -> None:
        self.pause_s = 0.0
        self.gen2 = 0
        self._t = 0.0

    def _cb(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._t = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t
            if info.get("generation") == 2:
                self.gen2 += 1

    def __enter__(self) -> "GcWatch":
        gc.callbacks.append(self._cb)
        return self

    def __exit__(self, *exc) -> None:
        gc.callbacks.remove(self._cb)


def _cpu_times() -> list[int]:
    with open("/proc/stat") as f:
        return [int(v) for v in f.readline().split()[1:]]


def machine_record() -> dict:
    """CPU count, interpreter, numpy, load and CPU steal at start."""
    record = {
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }
    try:
        record["loadavg"] = list(os.getloadavg())
    except OSError:
        record["loadavg"] = None
    try:
        first = _cpu_times()
        time.sleep(0.2)
        second = _cpu_times()
        delta = [b - a for a, b in zip(first, second)]
        # /proc/stat columns: user nice system idle iowait irq softirq steal
        record["steal_pct"] = round(100.0 * delta[7] / max(1, sum(delta)), 2)
    except (OSError, IndexError, ValueError):
        record["steal_pct"] = None
    return record


def log(*parts) -> None:
    """Progress lines go to stdout ahead of the final JSON line."""
    print(*parts, flush=True)
    sys.stdout.flush()

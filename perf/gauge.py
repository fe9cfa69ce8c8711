"""Where the benchmark runs and how fast: one CPU, a speed gauge, host steal.

The benchmark runs on virtual CPUs shared with other tenants of their
host, and takes three measures so that timings repeat:

* **One CPU.** The measuring process, the service's threads included,
  runs on :data:`CPU` alone (``run.py`` pins it before anything starts a
  thread). Each virtual CPU changes speed on its own, so work spread over
  two of them ran at a mix of speeds no single gauge could follow.
* **Speed.** A virtual CPU's speed moves by tens of percent within
  seconds (on the machine ``results/README.md`` names, the reference loop
  below took either about 3.0 or about 4.7 ms, switching every second or
  so). :class:`Gauge` times :func:`reference`, a fixed loop of this file's
  own (interpreter work plus small NumPy operations, like the program's),
  at quiet points between units of work, in CPU time of the calling
  thread. A sample's *factor* is that time over :data:`NOMINAL_S`: 1.25
  means the CPU ran 25 % slower than nominal. Only the part of a timing
  the CPU was busy (the process's CPU time over it) is divided by the
  factor around it; the rest is waiting on a timer or another thread, and
  stays as measured (:func:`at_nominal`). The benchmark thus reports
  times as on a CPU that runs the reference loop in :data:`NOMINAL_S`,
  and prints the raw times beside them.
* **Steal.** Timings taken while the host ran something else on the
  benchmark's CPU are left out (:meth:`Gauge.calm_at`).

The reference never calls the program, so a change to the program does
not move it; it runs on the sender thread while the service is idle,
and CPU time leaves out any wait for the interpreter lock.

The loop tracks work bound by the interpreter and small arrays, like the
serving workloads': between the two speeds, ``serve_newton_warm``'s
rounds slowed by the same ratio as the loop. ``batch_pele``'s large
batches slowed by 1.06 to 1.36 times where the loop slowed by 1.5, so
that workload uses a :class:`CheckGauge` instead: each solve is scaled by
the time of the benchmark's own residual check of the same batch, a
sparse product over the same arrays, timed right after it (it slowed by
1.11 to 1.37).
"""

from __future__ import annotations

import os
import time

import numpy as np

#: The CPU the measuring process runs on: the last one it may use.
CPU = max(os.sched_getaffinity(0))

#: A unit of work counts only if, between the gauge samples around it, the
#: host took at most this share of the CPU from the benchmark (see
#: :meth:`Gauge.calm_at`).
STEAL_LIMIT = 0.05

#: CPU seconds :func:`reference` takes on the machine ``results/README.md``
#: names: 400 samples over a minute gave a median of 3.8 ms, between two
#: speeds of about 3.0 and 4.8 ms.
NOMINAL_S = 0.004

# Arrays stay under 128 KiB, the C library's default threshold for serving
# an allocation from fresh pages: above it, a young process pays page faults
# an older one does not, and the loop ran up to twice as slow right after
# start-up.
_RNG = np.random.default_rng(0)
_VALUES = _RNG.standard_normal((32, 200))
_GATHER = _RNG.integers(0, 22, 200)
_SEGMENTS = np.arange(0, 200, 20)


def cpu_ns() -> int:
    """CPU time of the whole process (every thread), in nanoseconds."""
    return time.process_time_ns()


def steal_s() -> float:
    """Seconds the host has run something else while :data:`CPU` had work.

    The kernel counts this as *steal* time; 0.0 where ``/proc/stat`` is absent.
    """
    try:
        with open("/proc/stat") as stat:
            ticks = sum(int(line.split()[8]) for line in stat if line.split()[0] == f"cpu{CPU}")
    except OSError:
        return 0.0
    return ticks / os.sysconf("SC_CLK_TCK")


def reference() -> float:
    """Run the reference loop once; returns the CPU seconds it took."""
    start = time.thread_time()
    for _ in range(120):
        rows = np.add.reduceat((_VALUES * 1.0001)[:, _GATHER], _SEGMENTS, axis=1)
        float(np.linalg.norm(rows))
        counts: dict = {}
        for i in range(100):
            counts[i % 17] = counts.get(i % 17, 0) + i
    return time.thread_time() - start


def at_nominal(seconds, busy_s, factor):
    """``seconds`` of wall time as on a CPU of factor 1.

    ``busy_s`` of it the CPU spent working (clamped to ``[0, seconds]``);
    that part is divided by ``factor``, the rest is kept. Works on arrays.
    """
    busy = np.clip(busy_s, 0.0, seconds)
    return seconds - busy + busy / factor


class Gauge:
    """Speed samples of one run, and the factor that scales a timing."""

    def __init__(self) -> None:
        self._times: list[int] = []  # perf_counter_ns of each sample
        self._steal: list[float] = []  # steal_s() at each sample
        self.factors: list[float] = []
        self.seconds = 0.0  # wall time spent sampling
        self._probes: list[tuple[int, int, int, int]] = []  # start, end, CPU at both

    def probe(self) -> float:
        """Time :func:`reference` now; returns the sample's factor."""
        start, cpu = time.perf_counter_ns(), cpu_ns()
        factor = self.record(reference(), NOMINAL_S, start)
        self._probes.append((start, self._times[-1], cpu, cpu_ns()))
        return factor

    def busy_between(self) -> list[tuple[int, int, float]]:
        """``(from_ns, to_ns, busy_s)`` of each interval between two probes.

        ``busy_s`` is the process's CPU time from the end of one probe to
        the start of the next.
        """
        return [(a[1], b[0], (b[2] - a[3]) / 1e9) for a, b in zip(self._probes, self._probes[1:])]

    def record(self, cpu_s: float, nominal_s: float, start_ns: int) -> float:
        """Add a sample of reference work that began at ``start_ns``; returns its factor."""
        end = time.perf_counter_ns()
        self._times.append(end)
        self._steal.append(steal_s())
        self.factors.append(cpu_s / nominal_s)
        self.seconds += (end - start_ns) / 1e9
        return self.factors[-1]

    def factor_at(self, t_ns):
        """Mean factor of the last sample before ``t_ns`` and the first after it.

        ``t_ns`` is a ``perf_counter_ns`` time or an array of them. Before
        the first sample or after the last, that sample alone counts.
        """
        if not self.factors:
            return np.ones_like(t_ns, dtype=np.float64)
        factors = np.asarray(self.factors)
        i = np.searchsorted(np.asarray(self._times), t_ns)
        last = len(factors) - 1
        return (factors[np.clip(i - 1, 0, last)] + factors[np.clip(i, 0, last)]) / 2

    def calm_at(self, t_ns):
        """True where the host left the benchmark's CPU alone around ``t_ns``.

        That is, between the last sample before ``t_ns`` and the first after
        it, steal time came to at most :data:`STEAL_LIMIT` of the CPU. While
        the host runs another tenant on the benchmark's CPU, work on it
        stops, and the gauge cannot see it: CPU time leaves steal out. In a
        run where steal took 12 % of a CPU, ``serve_keys_open``'s p90 rose
        by half and its sender ran up to 16 ms late; calm runs saw under 2 %.
        """
        t_ns = np.asarray(t_ns)
        if len(self._times) < 2:
            return np.ones(t_ns.shape, dtype=bool)
        times, steal = np.asarray(self._times), np.asarray(self._steal)
        i = np.clip(np.searchsorted(times, t_ns), 1, len(times) - 1)
        share = (steal[i] - steal[i - 1]) / ((times[i] - times[i - 1]) / 1e9)
        return share <= STEAL_LIMIT

    def median(self) -> float:
        return float(np.median(self.factors)) if self.factors else 1.0


class CheckGauge(Gauge):
    """Samples taken right after each unit of work, by checking its answer.

    A timing is scaled by the first sample after it alone: the one that
    checked the same unit's answer. The samples of different units have
    different nominal times, so averaging neighbours would mix them.
    """

    def factor_at(self, t_ns):
        if not self.factors:
            return np.ones_like(t_ns, dtype=np.float64)
        i = np.searchsorted(np.asarray(self._times), t_ns)
        return np.asarray(self.factors)[np.clip(i, 0, len(self.factors) - 1)]

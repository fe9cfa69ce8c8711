"""Counters, gauges and histograms with percentile summaries.

The metrics registry subsumes the scattered telemetry the layers used to
keep privately: kernel-launch counts (``repro.sycl``), per-solver
convergence statistics (iterations, converged systems, breakdowns), SLM
footprints, communication bytes. A :class:`MetricsRegistry` hangs off
every :class:`~repro.observability.tracer.Tracer`; exporters turn a
snapshot into JSONL records or an ASCII table.

All metric types are thread-safe (one small lock per instrument) and
cheap enough to update inside solver iteration loops.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Iterable

__all__ = ["Counter", "Gauge", "Histogram", "LogHistogram", "MetricsRegistry"]


class _Labeled:
    """Mixin giving an instrument per-label child instruments.

    ``metric.labels(backend="sycl")`` returns a child of the same type
    named ``metric{backend="sycl"}`` — the Prometheus child convention —
    created on first use and stored on the parent, so snapshots and the
    text exposition see every breakdown that was ever touched.
    """

    __slots__ = ()

    def labels(self, **labels: Any):
        if not labels:
            raise ValueError(f"metric {self.name!r}: labels() needs at least one label")
        key = tuple(sorted((k, str(v)) for k, v in labels.items()))
        with self._lock:
            child = self._children.get(key)
            if child is None:
                rendered = ",".join(f'{k}="{v}"' for k, v in key)
                child = type(self)(f"{self.name}{{{rendered}}}")
                self._children[key] = child
        return child

    def children(self) -> list:
        """Every label child created so far (stable order)."""
        with self._lock:
            return [self._children[k] for k in sorted(self._children)]


class Counter(_Labeled):
    """A monotonically increasing count (launches, iterations, bytes)."""

    __slots__ = ("name", "_value", "_lock", "_children")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()
        self._children: dict[tuple, Counter] = {}

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be non-negative) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name!r}: negative increment {amount}")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current total."""
        return self._value

    def summary(self) -> dict[str, Any]:
        """Flat snapshot used by the exporters."""
        return {"value": self._value}


class Gauge(_Labeled):
    """A point-in-time value (modelled runtime, occupancy, queue depth)."""

    __slots__ = ("name", "_value", "_lock", "_children")

    kind = "gauge"

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = math.nan
        self._lock = threading.Lock()
        self._children: dict[tuple, Gauge] = {}

    def set(self, value: float) -> None:
        """Record the latest value."""
        with self._lock:
            self._value = float(value)

    def add(self, delta: float) -> float:
        """Shift the value by ``delta`` (an unset gauge counts as 0).

        Queue-depth style gauges are maintained by increments from several
        threads; doing the read-modify-write under the gauge's lock keeps
        them consistent. Returns the new value.
        """
        with self._lock:
            base = 0.0 if math.isnan(self._value) else self._value
            self._value = base + float(delta)
            return self._value

    @property
    def value(self) -> float:
        """Most recently set value (NaN before the first ``set``)."""
        return self._value

    def summary(self) -> dict[str, Any]:
        """Flat snapshot used by the exporters."""
        return {"value": self._value}


class Histogram:
    """A distribution of observations with exact percentile summaries.

    Keeps every observation (solves here record at most a few thousand
    samples); percentiles use the nearest-rank method on a sorted copy.
    """

    __slots__ = ("name", "_values", "_lock")

    kind = "histogram"

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: list[float] = []
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample."""
        with self._lock:
            self._values.append(float(value))

    def observe_many(self, values: Iterable[float]) -> None:
        """Record a batch of samples (per-system iteration counts etc.)."""
        with self._lock:
            self._values.extend(float(v) for v in values)

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return len(self._values)

    @property
    def total(self) -> float:
        """Sum of all samples."""
        return sum(self._values)

    @property
    def mean(self) -> float:
        """Arithmetic mean (NaN when empty)."""
        return self.total / len(self._values) if self._values else math.nan

    @property
    def min(self) -> float:
        """Smallest sample (NaN when empty)."""
        return min(self._values) if self._values else math.nan

    @property
    def max(self) -> float:
        """Largest sample (NaN when empty)."""
        return max(self._values) if self._values else math.nan

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile ``p`` in [0, 100] (NaN when empty)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if not self._values:
                return math.nan
            ordered = sorted(self._values)
        if p == 0.0:
            return ordered[0]
        rank = math.ceil(p / 100.0 * len(ordered))
        return ordered[rank - 1]

    def summary(self) -> dict[str, Any]:
        """count / mean / min / p50 / p90 / p99 / max snapshot."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "max": self.max,
        }


class LogHistogram:
    """A streaming latency histogram with fixed logarithmic buckets.

    The HDR-histogram idea at its smallest: observations land in
    geometric buckets ``[growth^i, growth^(i+1))``, so memory stays
    bounded no matter how many samples stream through and any quantile is
    answered with bounded *relative* error (one bucket width, i.e. a
    factor of ``growth``). The default growth of ``2**0.25`` ≈ 1.19 keeps
    every quantile estimate within ±19 % of the exact value — plenty for
    p50/p90/p99 service latencies — at ~4 buckets per octave.

    Unlike :class:`Histogram` (exact, keeps every sample) this type is
    **mergeable**: two histograms with the same growth add bucket-wise,
    which is what per-worker collection followed by a global rollup
    needs. Values ``<= 0`` are clamped into a dedicated underflow bucket
    reported as 0.

    **Exemplars** (OpenMetrics-style): ``observe(value, trace_id=...)``
    remembers the most recent trace id per bucket, so a p99 reading is
    one :meth:`exemplar_for` hop away from a concrete trace to pull up
    in the flight recorder or the trace viewer.
    """

    __slots__ = ("name", "growth", "_buckets", "_zero", "_count", "_sum",
                 "_min", "_max", "_exemplars", "_lock")

    kind = "log_histogram"

    #: Default bucket growth factor (4 buckets per factor-of-2).
    DEFAULT_GROWTH = 2.0 ** 0.25

    def __init__(self, name: str, growth: float = DEFAULT_GROWTH) -> None:
        if growth <= 1.0:
            raise ValueError(f"log histogram {name!r}: growth must be > 1, got {growth}")
        self.name = name
        self.growth = float(growth)
        self._buckets: dict[int, int] = {}
        self._zero = 0  # observations <= 0
        self._count = 0
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._exemplars: dict[int, tuple[str, float]] = {}
        self._lock = threading.Lock()

    def _fold(self, value: float, trace_id: str | None) -> None:
        """Fold one float sample in (the lock is held)."""
        self._count += 1
        self._sum += value
        self._min = min(self._min, value)
        self._max = max(self._max, value)
        if value <= 0.0:
            self._zero += 1
        else:
            idx = math.floor(math.log(value) / math.log(self.growth))
            self._buckets[idx] = self._buckets.get(idx, 0) + 1
            if trace_id is not None:
                self._exemplars[idx] = (trace_id, value)

    def observe(self, value: float, trace_id: str | None = None) -> None:
        """Record one sample in O(1) time and O(buckets) total memory.

        ``trace_id`` attaches an exemplar: the bucket the sample lands in
        remembers this (latest) trace id, retrievable per percentile via
        :meth:`exemplar_for`.
        """
        value = float(value)
        with self._lock:
            self._fold(value, trace_id)

    def observe_many(
        self, values: Iterable[float], trace_ids: Iterable[str | None] | None = None
    ) -> None:
        """Record a batch of samples under one lock acquisition.

        Equal to :meth:`observe` on each value in order, ``trace_ids``
        (when given) pairing one exemplar id or ``None`` with each value.
        """
        values = [float(v) for v in values]
        ids = [None] * len(values) if trace_ids is None else list(trace_ids)
        if len(ids) != len(values):
            raise ValueError(
                f"log histogram {self.name!r}: {len(values)} values but "
                f"{len(ids)} trace ids"
            )
        with self._lock:
            for value, trace_id in zip(values, ids):
                self._fold(value, trace_id)

    @property
    def count(self) -> int:
        """Number of samples recorded."""
        return self._count

    @property
    def total(self) -> float:
        """Sum of all samples (exact — tracked outside the buckets)."""
        return self._sum

    @property
    def mean(self) -> float:
        """Arithmetic mean (NaN when empty; exact, from the tracked sum)."""
        return self._sum / self._count if self._count else math.nan

    @property
    def min(self) -> float:
        """Smallest sample (NaN when empty; exact)."""
        return self._min if self._count else math.nan

    @property
    def max(self) -> float:
        """Largest sample (NaN when empty; exact)."""
        return self._max if self._count else math.nan

    def percentile(self, p: float) -> float:
        """Estimated percentile: the geometric midpoint of the bucket the
        nearest-rank sample landed in (relative error < one growth step).
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if self._count == 0:
                return math.nan
            if p == 0.0:
                return self._min
            rank = math.ceil(p / 100.0 * self._count)
            seen = self._zero
            if rank <= seen:
                return 0.0
            for idx in sorted(self._buckets):
                seen += self._buckets[idx]
                if rank <= seen:
                    # clamp the estimate into the actually observed range
                    mid = self.growth ** (idx + 0.5)
                    return min(max(mid, self._min), self._max)
            return self._max

    def merge(self, other: "LogHistogram") -> None:
        """Add another histogram's buckets into this one (same growth)."""
        if abs(other.growth - self.growth) > 1e-12:
            raise ValueError(
                f"cannot merge log histograms with growth {self.growth} and "
                f"{other.growth}"
            )
        with other._lock:
            buckets = dict(other._buckets)
            zero, count = other._zero, other._count
            total, vmin, vmax = other._sum, other._min, other._max
            exemplars = dict(other._exemplars)
        with self._lock:
            for idx, n in buckets.items():
                self._buckets[idx] = self._buckets.get(idx, 0) + n
            self._zero += zero
            self._count += count
            self._sum += total
            self._min = min(self._min, vmin)
            self._max = max(self._max, vmax)
            for idx, exemplar in exemplars.items():
                self._exemplars.setdefault(idx, exemplar)

    def exemplars(self) -> list[dict[str, Any]]:
        """Every bucket exemplar: ``{upper_bound, trace_id, value}`` rows."""
        with self._lock:
            return [
                {
                    "upper_bound": self.growth ** (idx + 1),
                    "trace_id": trace_id,
                    "value": value,
                }
                for idx, (trace_id, value) in sorted(self._exemplars.items())
            ]

    def exemplar_for(self, p: float) -> tuple[str, float] | None:
        """The exemplar of the bucket holding percentile ``p``, if any.

        Falls back to the nearest *lower* bucket with an exemplar (not
        every bucket has seen a traced observation), so "show me a p99
        request" degrades gracefully rather than failing.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        with self._lock:
            if self._count == 0 or not self._exemplars or not self._buckets:
                return None
            rank = max(1, math.ceil(p / 100.0 * self._count))
            seen = self._zero
            if rank <= seen:
                return None  # percentile lands in the underflow bucket
            target = max(self._buckets)
            for idx in sorted(self._buckets):
                seen += self._buckets[idx]
                if rank <= seen:
                    target = idx
                    break
            candidates = [idx for idx in self._exemplars if idx <= target]
            if not candidates:
                return None
            return self._exemplars[max(candidates)]

    def bucket_bounds(self) -> list[tuple[float, int]]:
        """``(upper_bound, cumulative_count)`` pairs for text exposition."""
        with self._lock:
            bounds = []
            cumulative = self._zero
            if self._zero:
                bounds.append((0.0, cumulative))
            for idx in sorted(self._buckets):
                cumulative += self._buckets[idx]
                bounds.append((self.growth ** (idx + 1), cumulative))
            return bounds

    def summary(self) -> dict[str, Any]:
        """count / mean / min / p50 / p90 / p99 / max snapshot."""
        return {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "p50": self.percentile(50.0),
            "p90": self.percentile(90.0),
            "p99": self.percentile(99.0),
            "max": self.max,
        }


class MetricsRegistry:
    """Get-or-create registry of named instruments (thread-safe)."""

    def __init__(self) -> None:
        self._metrics: dict[str, Any] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, name: str, cls: type):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = self._metrics[name] = cls(name)
            elif not isinstance(metric, cls):
                raise TypeError(
                    f"metric {name!r} is already registered as a "
                    f"{type(metric).__name__}, not a {cls.__name__}"
                )
            return metric

    def counter(self, name: str) -> Counter:
        """The counter called ``name`` (created on first use)."""
        return self._get_or_create(name, Counter)

    def gauge(self, name: str) -> Gauge:
        """The gauge called ``name`` (created on first use)."""
        return self._get_or_create(name, Gauge)

    def histogram(self, name: str) -> Histogram:
        """The histogram called ``name`` (created on first use)."""
        return self._get_or_create(name, Histogram)

    def log_histogram(self, name: str) -> LogHistogram:
        """The streaming log-bucket histogram ``name`` (created on first use)."""
        return self._get_or_create(name, LogHistogram)

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def instruments(self) -> list[Any]:
        """Every instrument, label children expanded after their parent."""
        with self._lock:
            metrics = list(self._metrics.values())
        out = []
        for metric in metrics:
            out.append(metric)
            if hasattr(metric, "children"):
                out.extend(metric.children())
        return out

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """``{name: {"kind": ..., **summary}}`` for every instrument,
        including per-label children (their name carries the labels)."""
        return {m.name: {"kind": m.kind, **m.summary()} for m in self.instruments()}

    def rows(self) -> list[dict[str, Any]]:
        """Uniform dict-rows for :func:`repro.bench.report.format_table`."""
        rows = []
        for name, snap in sorted(self.snapshot().items()):
            rows.append(
                {
                    "metric": name,
                    "kind": snap["kind"],
                    "count": snap.get("count"),
                    "value": snap.get("value", snap.get("mean")),
                    "p50": snap.get("p50"),
                    "p99": snap.get("p99"),
                    "max": snap.get("max"),
                }
            )
        return rows

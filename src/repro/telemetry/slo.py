"""Declarative SLOs evaluated over the metrics registry, SRE-style.

An :class:`SloSpec` declares an objective as a *good-fraction* target over
a bad/total event pair derived from PR-5 instruments:

* ``kind="latency"`` — good events are requests under ``threshold_ms``,
  counted from the cumulative buckets of a
  :class:`~repro.observability.metrics.LogHistogram` (the same buckets the
  Prometheus exposition renders, so the monitor and an external scraper
  read one source of truth).
* ``kind="ratio"`` — bad events are one or more counters (fallbacks,
  failures) against a total counter (served, accepted).

:class:`SloMonitor` samples the cumulative (bad, total) pairs over time
and evaluates **multi-window burn-rate alerts** (Google SRE workbook,
chapter 5): an alert fires only when both a short and a long window burn
error budget faster than the window's threshold —

    ``burn_rate = bad_fraction / error_budget``

with the canonical pairs: *fast* 5 m/1 h at 14.4× (a 30-day budget gone
in two days) and *slow* 30 m/6 h at 6× (gone in five days). The short
window makes the alert reset quickly once the regression stops; the long
window keeps one noisy minute from paging. The monitor's clock is
injectable so tests and ``repro slo check`` drive synthetic multi-hour
timelines in milliseconds.
"""

from __future__ import annotations

import json
import re
import time
from dataclasses import dataclass, field
from collections import deque
from pathlib import Path
from typing import Callable

from repro.instruments import current
from repro.observability.metrics import MetricsRegistry
from repro.observability.prometheus import sanitize_name

__all__ = [
    "BurnWindow",
    "DEFAULT_WINDOWS",
    "SloSpec",
    "BurnAlert",
    "SloStatus",
    "SloMonitor",
    "latency_slo",
    "ratio_slo",
    "default_slos",
    "load_slos",
    "dump_slos",
    "counts_from_registry",
    "counts_from_prometheus",
]


@dataclass(frozen=True)
class BurnWindow:
    """One multi-window alert rule: short + long lookback and a threshold."""

    name: str
    short_s: float
    long_s: float
    threshold: float

    def __post_init__(self) -> None:
        if self.short_s <= 0 or self.long_s <= 0:
            raise ValueError(f"window durations must be positive: {self}")
        if self.short_s > self.long_s:
            raise ValueError(f"short window must not exceed long window: {self}")
        if self.threshold <= 0:
            raise ValueError(f"burn threshold must be positive: {self}")

    def to_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        return {
            "name": self.name,
            "short_s": self.short_s,
            "long_s": self.long_s,
            "threshold": self.threshold,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "BurnWindow":
        return cls(
            name=data["name"],
            short_s=float(data["short_s"]),
            long_s=float(data["long_s"]),
            threshold=float(data["threshold"]),
        )


#: The SRE-workbook pairs: page on fast burn, ticket on slow burn.
DEFAULT_WINDOWS = (
    BurnWindow("fast", short_s=300.0, long_s=3600.0, threshold=14.4),
    BurnWindow("slow", short_s=1800.0, long_s=21600.0, threshold=6.0),
)

#: Supported spec kinds.
KINDS = ("latency", "ratio")


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over registry instruments."""

    name: str
    objective: float  # target good fraction, e.g. 0.99
    kind: str  # "latency" | "ratio"
    histogram: str | None = None  # latency: LogHistogram instrument name
    threshold_ms: float | None = None  # latency: the good/bad boundary
    bad: tuple[str, ...] = ()  # ratio: counter names counting bad events
    total: str | None = None  # ratio: counter name counting all events
    windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS

    def __post_init__(self) -> None:
        if not 0.0 < self.objective < 1.0:
            raise ValueError(
                f"objective must be in (0, 1), got {self.objective} for {self.name!r}"
            )
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.kind == "latency":
            if not self.histogram or self.threshold_ms is None or self.threshold_ms <= 0:
                raise ValueError(
                    f"latency SLO {self.name!r} needs a histogram name and a "
                    f"positive threshold_ms"
                )
        else:
            if not self.bad or not self.total:
                raise ValueError(
                    f"ratio SLO {self.name!r} needs bad counter name(s) and a total"
                )
        if not self.windows:
            raise ValueError(f"SLO {self.name!r} needs at least one burn window")

    @property
    def error_budget(self) -> float:
        """The tolerated bad fraction (1 − objective)."""
        return 1.0 - self.objective

    def to_dict(self) -> dict:
        """JSON-ready form (inverse of :meth:`from_dict`)."""
        data: dict = {
            "name": self.name,
            "objective": self.objective,
            "kind": self.kind,
            "windows": [w.to_dict() for w in self.windows],
        }
        if self.kind == "latency":
            data["histogram"] = self.histogram
            data["threshold_ms"] = self.threshold_ms
        else:
            data["bad"] = list(self.bad)
            data["total"] = self.total
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "SloSpec":
        windows = tuple(
            BurnWindow.from_dict(w) for w in data.get("windows", [])
        ) or DEFAULT_WINDOWS
        return cls(
            name=data["name"],
            objective=float(data["objective"]),
            kind=data["kind"],
            histogram=data.get("histogram"),
            threshold_ms=(
                float(data["threshold_ms"]) if data.get("threshold_ms") is not None else None
            ),
            bad=tuple(data.get("bad", ())),
            total=data.get("total"),
            windows=windows,
        )


def latency_slo(
    name: str,
    histogram: str,
    threshold_ms: float,
    objective: float = 0.99,
    windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
) -> SloSpec:
    """Shorthand: ``objective`` of requests complete under ``threshold_ms``."""
    return SloSpec(
        name=name,
        objective=objective,
        kind="latency",
        histogram=histogram,
        threshold_ms=threshold_ms,
        windows=windows,
    )


def ratio_slo(
    name: str,
    bad: tuple[str, ...],
    total: str,
    objective: float,
    windows: tuple[BurnWindow, ...] = DEFAULT_WINDOWS,
) -> SloSpec:
    """Shorthand: at most ``1 - objective`` of ``total`` events are ``bad``."""
    return SloSpec(
        name=name, objective=objective, kind="ratio", bad=bad, total=total, windows=windows
    )


def default_slos(latency_threshold_ms: float = 500.0) -> tuple[SloSpec, ...]:
    """The serving layer's stock objectives over its PR-5 instruments."""
    return (
        latency_slo(
            "latency_p99",
            histogram="serve.latency_hdr_ms",
            threshold_ms=latency_threshold_ms,
            objective=0.99,
        ),
        ratio_slo(
            "fallback_rate", bad=("serve.fallbacks",), total="serve.served", objective=0.95
        ),
        ratio_slo(
            "error_rate", bad=("serve.failed",), total="serve.accepted", objective=0.99
        ),
    )


def load_slos(path: str | Path) -> tuple[SloSpec, ...]:
    """Read SLO specs from a JSON file (``{"slos": [spec, ...]}``)."""
    payload = json.loads(Path(path).read_text())
    specs = payload["slos"] if isinstance(payload, dict) else payload
    return tuple(SloSpec.from_dict(spec) for spec in specs)


def dump_slos(specs: tuple[SloSpec, ...] | list[SloSpec], path: str | Path) -> Path:
    """Write specs as the JSON form :func:`load_slos` reads."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"slos": [s.to_dict() for s in specs]}, indent=2) + "\n")
    return path


# -- cumulative (bad, total) extraction --------------------------------------


def counts_from_registry(spec: SloSpec, registry: MetricsRegistry) -> tuple[float, float]:
    """Cumulative ``(bad, total)`` event counts for ``spec`` right now.

    Latency counts come from the LogHistogram's cumulative bucket bounds —
    the largest bucket boundary at or under ``threshold_ms`` — so the SLO
    sees exactly the resolution the Prometheus ``_bucket`` samples expose.
    """
    if spec.kind == "latency":
        hist = registry.log_histogram(spec.histogram)
        total = float(hist.count)
        good = 0.0
        for bound, cumulative in hist.bucket_bounds():
            if bound <= spec.threshold_ms:
                good = float(cumulative)
            else:
                break
        return total - good, total
    bad = sum(float(registry.counter(name).value) for name in spec.bad)
    total = float(registry.counter(spec.total).value)
    return bad, total


_PROM_SAMPLE = re.compile(
    r"^(?P<family>[a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(?P<labels>[^}]*)\})?\s+(?P<value>\S+)$"
)
_LE_LABEL = re.compile(r'le="(?P<le>[^"]+)"')


def counts_from_prometheus(spec: SloSpec, text: str) -> tuple[float, float]:
    """Cumulative ``(bad, total)`` from a Prometheus text-format scrape body.

    The offline twin of :func:`counts_from_registry`: ``repro slo report
    --metrics-in`` evaluates a dumped exposition exactly as an external
    scraper would, so both consumers read the same wire format.
    """
    samples: list[tuple[str, str, float]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        match = _PROM_SAMPLE.match(line)
        if not match:
            continue
        try:
            value = float(match.group("value"))
        except ValueError:
            continue
        samples.append((match.group("family"), match.group("labels") or "", value))

    def family_sum(family: str) -> float:
        return sum(v for f, _l, v in samples if f == family)

    if spec.kind == "latency":
        family = sanitize_name(spec.histogram)
        total = family_sum(f"{family}_count")
        good = 0.0
        bucket_family = f"{family}_bucket"
        for f, labels, value in samples:
            if f != bucket_family:
                continue
            le_match = _LE_LABEL.search(labels)
            if le_match is None or le_match.group("le") == "+Inf":
                continue
            bound = float(le_match.group("le"))
            if bound <= spec.threshold_ms:
                good = max(good, value)
        return total - good, total
    bad = sum(family_sum(sanitize_name(name)) for name in spec.bad)
    total = family_sum(sanitize_name(spec.total))
    return bad, total


# -- evaluation ---------------------------------------------------------------


@dataclass
class BurnAlert:
    """One multi-window rule's verdict at evaluation time."""

    window: BurnWindow
    short_burn: float | None  # None = no traffic / not enough samples
    long_burn: float | None
    firing: bool


@dataclass
class SloStatus:
    """One spec's verdict: overall compliance plus burn alerts."""

    spec: SloSpec
    bad: float
    total: float
    alerts: list[BurnAlert] = field(default_factory=list)

    @property
    def good_fraction(self) -> float:
        """Overall good fraction since the process started (1.0 when idle)."""
        if self.total <= 0:
            return 1.0
        return 1.0 - self.bad / self.total

    @property
    def compliant(self) -> bool:
        """Overall objective met (ignores windows; the long-run view)."""
        return self.good_fraction >= self.spec.objective

    @property
    def budget_consumed(self) -> float:
        """Fraction of the error budget spent overall (1.0 = exhausted)."""
        if self.total <= 0:
            return 0.0
        return (self.bad / self.total) / self.spec.error_budget

    @property
    def burning(self) -> bool:
        """True when any multi-window alert is firing."""
        return any(alert.firing for alert in self.alerts)


class SloMonitor:
    """Samples cumulative SLO counts and evaluates burn-rate alerts.

    Parameters
    ----------
    registry:
        The metrics registry the specs read (a live service's registry).
    specs:
        Objectives to track; defaults to :func:`default_slos`.
    clock:
        Seconds clock (injectable: tests and ``slo check`` feed a
        synthetic timeline). Defaults to ``time.monotonic``.
    max_samples:
        Ring bound on retained samples (bounded memory, like the event
        log).
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        specs: tuple[SloSpec, ...] | list[SloSpec] | None = None,
        clock: Callable[[], float] = time.monotonic,
        max_samples: int = 4096,
    ) -> None:
        self.registry = registry
        self.specs = tuple(specs) if specs is not None else default_slos()
        self._clock = clock
        self._samples: deque[tuple[float, dict[str, tuple[float, float]]]] = deque(
            maxlen=max_samples
        )

    # -- sampling -------------------------------------------------------------

    def sample(self, now: float | None = None) -> None:
        """Record the cumulative (bad, total) of every spec at ``now``."""
        t = self._clock() if now is None else now
        counts = {
            spec.name: counts_from_registry(spec, self.registry) for spec in self.specs
        }
        self._samples.append((t, counts))

    @property
    def num_samples(self) -> int:
        return len(self._samples)

    # -- burn math ------------------------------------------------------------

    def _window_burn(self, spec: SloSpec, window_s: float, now: float) -> float | None:
        """Burn rate over the trailing ``window_s`` seconds, or ``None``.

        ``None`` means "cannot tell": fewer than two samples, or no
        traffic inside the window. When history is shorter than the
        window, the earliest sample stands in for the window edge — the
        standard cold-start behaviour (a service ten minutes old can
        still page on its 1-hour window).
        """
        if len(self._samples) < 2:
            return None
        edge_t = now - window_s
        edge = None
        for t, counts in self._samples:
            if t <= edge_t:
                edge = (t, counts)
            else:
                break
        if edge is None:
            edge = self._samples[0]
        latest = self._samples[-1]
        if latest[0] <= edge[0]:
            return None
        bad0, total0 = edge[1][spec.name]
        bad1, total1 = latest[1][spec.name]
        delta_total = total1 - total0
        if delta_total <= 0:
            return None
        bad_fraction = max(0.0, bad1 - bad0) / delta_total
        return bad_fraction / spec.error_budget

    # -- verdicts -------------------------------------------------------------

    def evaluate(self, now: float | None = None) -> list[SloStatus]:
        """Take a fresh sample and return every spec's status."""
        t = self._clock() if now is None else now
        self.sample(t)
        statuses = []
        for spec in self.specs:
            bad, total = self._samples[-1][1][spec.name]
            status = SloStatus(spec=spec, bad=bad, total=total)
            for window in spec.windows:
                short = self._window_burn(spec, window.short_s, t)
                long = self._window_burn(spec, window.long_s, t)
                firing = (
                    short is not None
                    and long is not None
                    and short > window.threshold
                    and long > window.threshold
                )
                status.alerts.append(
                    BurnAlert(window=window, short_burn=short, long_burn=long, firing=firing)
                )
            statuses.append(status)
        if any(status.burning for status in statuses):
            # black-box trigger: a burning SLO snapshots the flight
            # recorder (the recorder itself rate-limits repeat dumps)
            from repro.recorder.recorder import TRIGGER_SLO_BURN

            recorder = current().recorder
            if recorder is not None:
                burning = [s.spec.name for s in statuses if s.burning]
                recorder.trigger(TRIGGER_SLO_BURN, slos=burning)
        return statuses

    @property
    def burning(self) -> bool:
        """True when the latest evaluation would fire any alert."""
        return any(status.burning for status in self.evaluate())

    # -- reporting ------------------------------------------------------------

    def report_rows(self, statuses: list[SloStatus] | None = None) -> list[dict]:
        """Table rows for :func:`repro.bench.report.format_table`."""
        if statuses is None:
            statuses = self.evaluate()
        rows = []
        for status in statuses:
            worst = None
            for alert in status.alerts:
                burns = [b for b in (alert.short_burn, alert.long_burn) if b is not None]
                if burns:
                    candidate = min(burns)  # the pair fires on its weaker leg
                    if worst is None or candidate > worst:
                        worst = candidate
            rows.append(
                {
                    "slo": status.spec.name,
                    "objective": f"{status.spec.objective:.3f}",
                    "good": f"{status.good_fraction:.4f}",
                    "events": int(status.total),
                    "budget_used": f"{status.budget_consumed:.2f}x",
                    "max_burn": "-" if worst is None else f"{worst:.1f}x",
                    "state": "BURNING" if status.burning else (
                        "OK" if status.compliant else "VIOLATED"
                    ),
                }
            )
        return rows

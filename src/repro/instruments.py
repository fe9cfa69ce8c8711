"""The installed observers: one context-local record, installed with :func:`use`.

Seven optional observers watch simulated kernel launches and the serving
path: a span :class:`~repro.observability.tracer.Tracer`, a structured
:class:`~repro.telemetry.events.EventLog`, a command-wide
:class:`~repro.telemetry.hub.TelemetryHub`, a
:class:`~repro.recorder.FlightRecorder`, a
:class:`~repro.chaos.ChaosInjector`, a kernel-counter
:class:`~repro.profile.Profiler` and a kernel
:class:`~repro.sanitize.Sanitizer`. They live together in one frozen
:class:`Instruments` record held by one :class:`contextvars.ContextVar`,
so an installation belongs to the thread or task that made it (and to
contexts copied from it)::

    from repro.instruments import current, use

    with use(tracer=tracer, profiler=profiler):
        ...                      # current().tracer is tracer
        with use(profiler=None):
            ...                  # profiling off, tracer still installed

A keyword given to :func:`use` installs that value and ``None`` turns
that observer off; an omitted keyword keeps whatever the enclosing scope
installed; leaving the block restores the previous record, also when the
block raises. Readers call :func:`current` (one context-variable lookup)
and test the field they need against ``None``;
:func:`~repro.observability.tracer.current_tracer` is the one reader that
substitutes a no-op (``NULL_TRACER``).

Objects that run work on threads of their own (``SolverService`` and
``FleetService``) capture :func:`current` once when they are built and
run each job under :func:`use` of that record, so work on a background
thread sees the observers installed where the object was constructed.
"""

from __future__ import annotations

import contextvars
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Iterator

if TYPE_CHECKING:  # pragma: no cover - annotations only; this module imports nothing
    from repro.chaos.injector import ChaosInjector
    from repro.observability.tracer import Tracer
    from repro.profile.profiler import Profiler
    from repro.recorder.recorder import FlightRecorder
    from repro.sanitize.sanitizer import Sanitizer
    from repro.telemetry.events import EventLog
    from repro.telemetry.hub import TelemetryHub

__all__ = ["Instruments", "current", "use"]


@dataclass(frozen=True)
class Instruments:
    """The observers installed in one context; ``None`` means that one is off."""

    tracer: Tracer | None = None
    events: EventLog | None = None
    hub: TelemetryHub | None = None
    recorder: FlightRecorder | None = None
    chaos: ChaosInjector | None = None
    profiler: Profiler | None = None
    sanitizer: Sanitizer | None = None


_INSTRUMENTS: contextvars.ContextVar[Instruments] = contextvars.ContextVar(
    "repro_instruments", default=Instruments()
)


def current() -> Instruments:
    """The observers installed in the calling context."""
    return _INSTRUMENTS.get()


@contextmanager
def use(**observers: Any) -> Iterator[Instruments]:
    """Install ``observers`` for a ``with`` block; yields the new record.

    Given keywords replace their observer (``None`` turns it off), omitted
    ones are kept, and the previous record comes back on exit. An unknown
    keyword raises :class:`TypeError`.
    """
    record = replace(_INSTRUMENTS.get(), **observers)
    token = _INSTRUMENTS.set(record)
    try:
        yield record
    finally:
        _INSTRUMENTS.reset(token)

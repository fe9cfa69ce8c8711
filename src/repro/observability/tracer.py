"""Span-based tracing with a zero-overhead disabled path.

The design follows what Level-Zero tracing tools (unitrace, onetrace)
record for SYCL programs: *spans* (named durations with nested structure,
one per kernel launch / solve / dispatch), *instant events* (markers) and
*counter series* (per-iteration convergence telemetry). Timestamps are
integer nanoseconds from ``time.perf_counter_ns`` — the monotonic clock —
so durations survive wall-clock adjustments and export losslessly to the
microsecond ``ts``/``dur`` fields of the Chrome trace-event format.

Instrumented library code never takes a tracer parameter explicitly; it
asks :func:`current_tracer` for the installed tracer and gets
:data:`NULL_TRACER` — whose every method is a no-op returning shared
singletons — when tracing is off. Public solve APIs additionally accept an
opt-in ``tracer=`` argument which they install with
:func:`repro.instruments.use` for the duration of the call.

Thread safety: finished records append under a lock; the *open-span stack*
lives in a :class:`contextvars.ContextVar`, so concurrent solves on
different threads — and interleaved host tasks that inherit a copied
context — nest their own spans correctly and export with distinct ``tid``
lanes. Spans additionally carry request attribution: a ``trace_id``
inherited from the enclosing span or the ambient
:class:`~repro.observability.context.TraceContext`, and *span links*
recording batch fan-in (several requests converging on one shared flush
span, OpenTelemetry style).
"""

from __future__ import annotations

import contextvars
import functools
import threading
import time
from typing import Any, Callable

from repro.instruments import current
from repro.observability.context import (
    TraceContext,
    current_trace_context,
    new_span_id,
)
from repro.observability.metrics import MetricsRegistry

__all__ = [
    "Span",
    "TraceEvent",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "current_tracer",
    "traced",
]

#: Open spans of the calling execution context, innermost last. One stack
#: is shared by all tracers; parentage and ``current_span`` filter by the
#: owning tracer so nested tracer installations stay independent.
_SPAN_STACK: contextvars.ContextVar[tuple] = contextvars.ContextVar(
    "repro_span_stack", default=()
)


class TraceEvent:
    """One instant marker or counter sample (non-span trace record)."""

    __slots__ = ("kind", "name", "ts_ns", "tid", "args", "trace_id", "span_id")

    INSTANT = "instant"
    COUNTER = "counter"

    def __init__(
        self,
        kind: str,
        name: str,
        ts_ns: int,
        tid: int,
        args: dict,
        trace_id: str | None = None,
        span_id: str | None = None,
    ) -> None:
        self.kind = kind
        self.name = name
        self.ts_ns = ts_ns
        self.tid = tid
        self.args = args
        self.trace_id = trace_id
        self.span_id = span_id

    def __repr__(self) -> str:
        return f"TraceEvent({self.kind}, {self.name!r}, ts={self.ts_ns})"


class Span:
    """A named duration; context manager handed out by :meth:`Tracer.span`.

    Attributes are filled progressively: ``set``/``set_args`` attach
    key-value arguments (exported into the Chrome ``args`` field) and
    ``event`` drops an instant marker on the span's timeline lane.
    """

    __slots__ = (
        "name",
        "category",
        "args",
        "start_ns",
        "end_ns",
        "tid",
        "parent",
        "trace_id",
        "span_id",
        "parent_id",
        "links",
        "_tracer",
    )

    def __init__(
        self,
        tracer: "Tracer",
        name: str,
        category: str,
        args: dict,
        tid: int | None = None,
        context: TraceContext | None = None,
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.category = category
        self.args = args
        self.start_ns = 0
        self.end_ns = 0
        self.tid = tid
        self.parent: Span | None = None
        # request attribution: a ``context`` passed explicitly wins; else
        # _open_span inherits from the enclosing span / ambient context
        self.trace_id: str | None = context.trace_id if context is not None else None
        self.span_id: str | None = None
        self.parent_id: str | None = context.span_id if context is not None else None
        self.links: list[dict] = []

    # -- annotation ----------------------------------------------------------

    def set(self, key: str, value: Any) -> "Span":
        """Attach one argument to the span."""
        self.args[key] = value
        return self

    def set_args(self, **kwargs: Any) -> "Span":
        """Attach several arguments to the span."""
        self.args.update(kwargs)
        return self

    def link(self, target: "TraceContext | Span") -> "Span":
        """Record a causal link to another trace (OpenTelemetry span link).

        Used for batch fan-in: a shared flush span belongs to no single
        request, so it *links* every constituent request's root context
        instead — reconstruction follows the links back out.
        """
        self.links.append({"trace_id": target.trace_id, "span_id": target.span_id})
        return self

    def event(self, name: str, **args: Any) -> None:
        """Drop an instant marker at the current time on this span's lane."""
        self._tracer._record_event(
            TraceEvent(
                TraceEvent.INSTANT,
                name,
                time.perf_counter_ns(),
                self.tid,
                args,
                trace_id=self.trace_id,
                span_id=self.span_id,
            )
        )

    @property
    def duration_ns(self) -> int:
        """Span duration in integer nanoseconds (0 while still open)."""
        return max(0, self.end_ns - self.start_ns)

    @property
    def duration_seconds(self) -> float:
        """Span duration in seconds."""
        return self.duration_ns * 1e-9

    # -- context-manager protocol -------------------------------------------

    def __enter__(self) -> "Span":
        self._tracer._open_span(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is not None:
            self.args.setdefault("error", exc_type.__name__)
        self._tracer._close_span(self)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, cat={self.category!r}, "
            f"dur={self.duration_ns} ns, args={self.args})"
        )


class _NullSpan:
    """Shared do-nothing span; the disabled tracer hands out one instance."""

    __slots__ = ()

    name = ""
    category = ""
    args: dict = {}
    start_ns = 0
    end_ns = 0
    tid = None
    parent = None
    trace_id = None
    span_id = None
    parent_id = None
    links: list = []
    duration_ns = 0
    duration_seconds = 0.0

    def set(self, key: str, value: Any) -> "_NullSpan":
        return self

    def set_args(self, **kwargs: Any) -> "_NullSpan":
        return self

    def link(self, target: Any) -> "_NullSpan":
        return self

    def event(self, name: str, **args: Any) -> None:
        return None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        return None


class Tracer:
    """Collects spans, instant events and counter samples, plus metrics.

    Parameters
    ----------
    enabled:
        When false the tracer behaves like :class:`NullTracer` (kept for
        symmetry; prefer simply not installing a tracer).
    """

    enabled: bool = True

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.epoch_ns = time.perf_counter_ns()
        self.metrics = MetricsRegistry()
        self.spans: list[Span] = []
        self.events: list[TraceEvent] = []
        self._lock = threading.Lock()
        self._tids: dict[int, int] = {}

    # -- recording API -------------------------------------------------------

    def span(
        self,
        name: str,
        category: str = "",
        tid: int | None = None,
        context: TraceContext | None = None,
        **args: Any,
    ):
        """A context manager recording one span (finished on ``__exit__``).

        ``tid`` overrides the export lane — used e.g. for per-rank lanes of
        the distributed solves; by default spans land on the lane of the
        thread that opened them. ``context`` pins the span to a specific
        request's trace (per-request scatter/fallback spans inside a shared
        flush); without it the span inherits the enclosing span's trace id
        or the ambient :func:`current_trace_context`.
        """
        if not self.enabled:
            return _NULL_SPAN
        return Span(self, name, category, dict(args), tid=tid, context=context)

    def instant(self, name: str, **args: Any) -> None:
        """Record a free-standing instant marker."""
        if not self.enabled:
            return
        self._record_event(
            TraceEvent(
                TraceEvent.INSTANT, name, time.perf_counter_ns(), self._thread_tid(), args
            )
        )

    def counter(self, name: str, **series: float) -> None:
        """Record one sample of a Chrome counter track (numeric series)."""
        if not self.enabled:
            return
        self._record_event(
            TraceEvent(
                TraceEvent.COUNTER,
                name,
                time.perf_counter_ns(),
                self._thread_tid(),
                {k: float(v) for k, v in series.items()},
            )
        )

    def annotate(self, **args: Any) -> None:
        """Attach arguments to the innermost open span of this thread.

        No-op when no span is open — lets deep layers (the launch
        configurator, the timing model) decorate whatever span happens to
        surround them without threading a handle through every call.
        """
        if not self.enabled:
            return
        span = self.current_span()
        if span is not None:
            span.set_args(**args)

    def trace(self, name: str | None = None, category: str = "function", **args: Any):
        """Decorator: wrap every call of the function in a span."""

        def decorator(fn: Callable) -> Callable:
            label = name if name is not None else fn.__qualname__

            @functools.wraps(fn)
            def wrapper(*a: Any, **kw: Any):
                with self.span(label, category=category, **args):
                    return fn(*a, **kw)

            return wrapper

        return decorator

    # -- introspection -------------------------------------------------------

    def current_span(self) -> Span | None:
        """The innermost open span of the calling execution context, if any."""
        for span in reversed(_SPAN_STACK.get()):
            if span._tracer is self:
                return span
        return None

    @property
    def num_records(self) -> int:
        """Finished spans plus instant/counter events recorded so far."""
        return len(self.spans) + len(self.events)

    def reset(self) -> None:
        """Drop all finished records (open spans are unaffected)."""
        with self._lock:
            self.spans.clear()
            self.events.clear()

    # -- span bookkeeping (called by Span) ------------------------------------

    def _open_span(self, span: Span) -> None:
        stack = _SPAN_STACK.get()
        span.parent = self.current_span()
        span.span_id = new_span_id()
        if span.parent is not None and span.parent_id is None:
            # structural parent: the enclosing span, whatever trace it is on
            span.parent_id = span.parent.span_id
        if span.trace_id is None:
            if span.parent is not None and span.parent.trace_id is not None:
                span.trace_id = span.parent.trace_id
            else:
                ctx = current_trace_context()
                if ctx is not None:
                    span.trace_id = ctx.trace_id
                    if span.parent_id is None:
                        span.parent_id = ctx.span_id
        if span.tid is None:
            span.tid = self._thread_tid()
        _SPAN_STACK.set(stack + (span,))
        span.start_ns = time.perf_counter_ns()

    def _close_span(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        stack = _SPAN_STACK.get()
        if stack and stack[-1] is span:
            _SPAN_STACK.set(stack[:-1])
        elif span in stack:  # tolerate out-of-order exits
            idx = len(stack) - 1 - stack[::-1].index(span)
            _SPAN_STACK.set(stack[:idx] + stack[idx + 1 :])
        with self._lock:
            self.spans.append(span)

    def _record_event(self, event: TraceEvent) -> None:
        if event.tid is None:
            event.tid = self._thread_tid()
        if event.trace_id is None:
            span = self.current_span()
            if span is not None and span.trace_id is not None:
                event.trace_id = span.trace_id
                event.span_id = span.span_id
            else:
                ctx = current_trace_context()
                if ctx is not None:
                    event.trace_id = ctx.trace_id
                    event.span_id = ctx.span_id
        with self._lock:
            self.events.append(event)

    def _thread_tid(self) -> int:
        """Small stable lane number for the calling thread (main thread = 0)."""
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids))
        return tid


class NullTracer(Tracer):
    """The disabled tracer: every method is a no-op returning singletons.

    Instrumented code paths pay one attribute check (``tracer.enabled``)
    or one shared-singleton context manager — no allocation, no clock
    reads, no lock traffic.
    """

    enabled = False

    def __init__(self) -> None:  # deliberately skips Tracer.__init__
        self.epoch_ns = 0
        self.metrics = MetricsRegistry()
        self.spans = []
        self.events = []

    def span(
        self,
        name: str,
        category: str = "",
        tid: int | None = None,
        context: TraceContext | None = None,
        **args: Any,
    ):
        return _NULL_SPAN

    def instant(self, name: str, **args: Any) -> None:
        return None

    def counter(self, name: str, **series: float) -> None:
        return None

    def annotate(self, **args: Any) -> None:
        return None

    def current_span(self) -> Span | None:
        return None

    def reset(self) -> None:
        return None


_NULL_SPAN = _NullSpan()

#: The process-wide disabled tracer (what :func:`current_tracer` returns
#: when nothing is installed).
NULL_TRACER = NullTracer()


def current_tracer() -> Tracer:
    """The installed tracer, or :data:`NULL_TRACER` when tracing is off."""
    tracer = current().tracer
    return NULL_TRACER if tracer is None else tracer


def traced(name: str | None = None, category: str = "function", **static_args: Any):
    """Decorator tracing calls against whatever tracer is installed *then*.

    Unlike :meth:`Tracer.trace` this does not bind a tracer at decoration
    time: each call asks :func:`current_tracer`, so library functions can
    be decorated once and cost nothing until a tracer is installed.
    """

    def decorator(fn: Callable) -> Callable:
        label = name if name is not None else fn.__qualname__

        @functools.wraps(fn)
        def wrapper(*a: Any, **kw: Any):
            tracer = current_tracer()
            if not tracer.enabled:
                return fn(*a, **kw)
            with tracer.span(label, category=category, **static_args):
                return fn(*a, **kw)

        return wrapper

    return decorator

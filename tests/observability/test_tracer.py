"""Tracer core: span nesting/ordering, thread safety, the no-op path."""

from __future__ import annotations

import threading

import pytest

from repro.instruments import use
from repro.observability import (
    NULL_TRACER,
    NullTracer,
    Tracer,
    current_tracer,
    traced,
)


class TestSpans:
    def test_span_records_duration_and_args(self):
        tracer = Tracer()
        with tracer.span("work", category="test", size=4) as span:
            span.set("extra", "yes")
        assert len(tracer.spans) == 1
        recorded = tracer.spans[0]
        assert recorded.name == "work"
        assert recorded.category == "test"
        assert recorded.args == {"size": 4, "extra": "yes"}
        assert recorded.end_ns >= recorded.start_ns
        assert recorded.duration_ns == recorded.end_ns - recorded.start_ns
        assert recorded.duration_seconds == pytest.approx(recorded.duration_ns * 1e-9)

    def test_nesting_sets_parent_and_finish_order(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("middle") as middle:
                with tracer.span("inner") as inner:
                    pass
        # children finish (and are recorded) before their parents
        assert [s.name for s in tracer.spans] == ["inner", "middle", "outer"]
        assert inner.parent is middle
        assert middle.parent is outer
        assert outer.parent is None
        # parents open before and close after their children
        assert outer.start_ns <= middle.start_ns <= inner.start_ns
        assert outer.end_ns >= middle.end_ns >= inner.end_ns

    def test_current_span_tracks_innermost(self):
        tracer = Tracer()
        assert tracer.current_span() is None
        with tracer.span("a") as a:
            assert tracer.current_span() is a
            with tracer.span("b") as b:
                assert tracer.current_span() is b
            assert tracer.current_span() is a
        assert tracer.current_span() is None

    def test_annotate_decorates_innermost_open_span(self):
        tracer = Tracer()
        tracer.annotate(ignored=True)  # no open span: silently dropped
        with tracer.span("target"):
            tracer.annotate(sub_group_size=16)
        assert tracer.spans[0].args["sub_group_size"] == 16
        assert "ignored" not in tracer.spans[0].args

    def test_exception_closes_span_and_marks_error(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        assert len(tracer.spans) == 1
        assert tracer.spans[0].args["error"] == "RuntimeError"
        assert tracer.current_span() is None

    def test_instant_and_counter_events(self):
        tracer = Tracer()
        tracer.instant("marker", detail="x")
        tracer.counter("active", value=3)
        kinds = [(e.kind, e.name) for e in tracer.events]
        assert kinds == [("instant", "marker"), ("counter", "active")]
        assert tracer.events[1].args == {"value": 3.0}

    def test_span_event_lands_on_span_lane(self):
        tracer = Tracer()
        with tracer.span("host", tid=42) as span:
            span.event("milestone", step=1)
        assert tracer.events[0].tid == 42

    def test_reset_drops_finished_records(self):
        tracer = Tracer()
        with tracer.span("s"):
            tracer.instant("i")
        assert tracer.num_records == 2
        tracer.reset()
        assert tracer.num_records == 0


class TestDecorator:
    def test_tracer_bound_decorator(self):
        tracer = Tracer()

        @tracer.trace(category="fn")
        def add(a, b):
            return a + b

        assert add(1, 2) == 3
        assert tracer.spans[0].name.endswith("add")
        assert tracer.spans[0].category == "fn"

    def test_module_level_traced_uses_installed_tracer(self):
        calls = []

        @traced("labelled", category="fn")
        def work():
            calls.append(1)
            return 7

        assert work() == 7  # no tracer installed: plain call
        tracer = Tracer()
        with use(tracer=tracer):
            assert work() == 7
        assert len(calls) == 2
        assert [s.name for s in tracer.spans] == ["labelled"]


class TestInstallation:
    def test_default_is_null_tracer(self):
        assert current_tracer() is NULL_TRACER
        assert not current_tracer().enabled

    def test_use_tracer_installs_and_restores(self):
        tracer = Tracer()
        with use(tracer=tracer):
            assert current_tracer() is tracer
            inner = Tracer()
            with use(tracer=inner):
                assert current_tracer() is inner
            assert current_tracer() is tracer
        assert current_tracer() is NULL_TRACER

    def test_use_tracer_none_turns_tracing_off(self):
        tracer = Tracer()
        with use(tracer=tracer):
            with use(tracer=None):
                assert current_tracer() is NULL_TRACER
            assert current_tracer() is tracer


class TestNullTracer:
    def test_noop_span_is_shared_singleton(self):
        null = NullTracer()
        s1 = null.span("a", category="kernel", big_arg=list(range(10)))
        s2 = null.span("b")
        assert s1 is s2  # no allocation on the disabled path
        with s1 as inside:
            inside.set("k", "v").set_args(x=1)
            inside.event("e")
        assert null.spans == [] and null.events == []

    def test_noop_instant_counter_annotate(self):
        null = NULL_TRACER
        null.instant("x")
        null.counter("c", value=1)
        null.annotate(k=2)
        assert null.spans == [] and null.events == []
        assert null.current_span() is None
        assert not null.enabled

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("s"):
            tracer.instant("i")
            tracer.counter("c", v=1)
        assert tracer.spans == [] and tracer.events == []


class TestThreadSafety:
    def test_concurrent_span_stacks_are_independent(self):
        tracer = Tracer()
        errors: list[str] = []
        # keep all workers alive together: thread idents (and so tracer
        # lanes) are only distinct for concurrently-running threads
        gate = threading.Barrier(4)

        def worker(label: str) -> None:
            try:
                gate.wait(timeout=10)
                for i in range(50):
                    with tracer.span(f"{label}.outer{i}") as outer:
                        with tracer.span(f"{label}.inner{i}") as inner:
                            if inner.parent is not outer:
                                errors.append(f"{label}: wrong parent at {i}")
                        if tracer.current_span() is not outer:
                            errors.append(f"{label}: stack corrupted at {i}")
                    tracer.counter(f"{label}.count", i=i)
            except Exception as exc:  # pragma: no cover - diagnostic
                errors.append(repr(exc))

        threads = [
            threading.Thread(target=worker, args=(f"t{k}",)) for k in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(tracer.spans) == 4 * 50 * 2
        assert len(tracer.events) == 4 * 50
        # each thread got its own export lane
        lanes = {s.tid for s in tracer.spans}
        assert len(lanes) == 4

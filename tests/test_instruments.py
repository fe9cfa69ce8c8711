"""The one installation slot: ``repro.instruments.use`` / ``current``."""

from __future__ import annotations

import threading
from dataclasses import fields

import pytest

from repro.chaos import DEVICE_DELAY, ChaosInjector, FaultPlan, FaultSpec
from repro.instruments import Instruments, current, use
from repro.observability import NULL_TRACER, Tracer, current_tracer
from repro.profile import Profiler
from repro.recorder import FlightRecorder
from repro.sanitize import Sanitizer
from repro.telemetry import EventLog, TelemetryHub


def _all_observers() -> dict:
    return {
        "tracer": Tracer(),
        "events": EventLog(),
        "hub": TelemetryHub(),
        "recorder": FlightRecorder(),
        "chaos": ChaosInjector(FaultPlan(0, (FaultSpec(DEVICE_DELAY, at=(0,)),))),
        "profiler": Profiler(),
        "sanitizer": Sanitizer(),
    }


def _fields(record: Instruments) -> dict:
    return {f.name: getattr(record, f.name) for f in fields(record)}


@pytest.mark.no_sanitize
def test_nothing_installed_by_default():
    assert current() == Instruments()
    assert all(value is None for value in _fields(current()).values())
    assert current_tracer() is NULL_TRACER


def test_use_installs_every_observer_and_restores():
    base = current()
    observers = _all_observers()
    with use(**observers) as record:
        assert record is current()
        assert _fields(current()) == observers
        assert current_tracer() is observers["tracer"]
    assert current() is base


def test_nested_use_stacks_and_unwinds():
    outer, inner = Tracer(), Tracer()
    with use(tracer=outer):
        with use(tracer=inner):
            assert current().tracer is inner
        assert current().tracer is outer
    assert current_tracer() is NULL_TRACER


def test_omitted_observers_stay_unchanged():
    observers = _all_observers()
    replacement = Profiler()
    with use(**observers):
        with use(profiler=replacement):
            assert current().profiler is replacement
            rest = {k: v for k, v in _fields(current()).items() if k != "profiler"}
            assert rest == {k: v for k, v in observers.items() if k != "profiler"}
        with use():
            assert _fields(current()) == observers


def test_none_turns_an_observer_off():
    recorder, sanitizer = FlightRecorder(), Sanitizer()
    with use(recorder=recorder, sanitizer=sanitizer):
        with use(recorder=None):
            assert current().recorder is None
            assert current().sanitizer is sanitizer
        assert current().recorder is recorder


def test_exit_restores_on_exception():
    base = current()
    with pytest.raises(RuntimeError, match="boom"):
        with use(tracer=Tracer(), recorder=FlightRecorder()):
            raise RuntimeError("boom")
    assert current() is base


def test_unknown_observer_rejected():
    base = current()
    with pytest.raises(TypeError):
        with use(tracr=Tracer()):
            pass
    assert current() is base


def test_installations_are_isolated_between_threads():
    """An install on one thread is invisible to another running meanwhile."""
    mine = Tracer()
    installed, checked = threading.Event(), threading.Event()
    seen = {}

    def other_thread():
        assert installed.wait(10.0)
        seen["before"] = current().tracer
        with use(tracer=Tracer()):
            seen["own"] = current().tracer
        checked.set()

    thread = threading.Thread(target=other_thread)
    thread.start()
    with use(tracer=mine):
        installed.set()
        assert checked.wait(10.0)
        # the other thread's install and restore never touched this one
        assert current().tracer is mine
    thread.join(timeout=10.0)
    assert not thread.is_alive()
    assert seen["before"] is None
    assert seen["own"] is not mine and seen["own"] is not None

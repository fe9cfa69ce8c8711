"""Cooperative, barrier-correct execution of ND-range kernels.

Work-groups are independent in SYCL (no cross-group synchronization exists
— Section 2.3 of the paper), so the executor runs them one after another.
Within a work-group, every work-item runs as a Python generator; the
scheduler advances each item until it yields a :class:`~repro.sycl.group.SyncOp`,
assembles collectives once *all* members of the operation's scope have
arrived with an identical operation signature, and resumes the members with
their results.

Divergence — some work-items of a scope exiting or waiting on a different
operation while siblings sit in a barrier — is undefined behaviour on real
hardware and raises :class:`~repro.exceptions.BarrierDivergenceError` here,
with a diagnostic naming the offending work-items.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

import numpy as np

from repro.exceptions import BarrierDivergenceError, KernelFaultError
from repro.instruments import current
from repro.observability.tracer import current_tracer
from repro.profile.context import reset_active_launch, set_active_launch
from repro.sanitize.report import AccessSite
from repro.sycl.device import SyclDevice
from repro.sycl.group import GROUP, SUB_GROUP, NDItem, SyncOp, evaluate_collective
from repro.sycl.memory import (
    LocalSpec,
    allocate_local,
    check_local_capacity,
    poison_local,
    total_local_bytes,
)
from repro.sycl.ndrange import NDRange

_RUNNING = "running"
_WAITING = "waiting"
_DONE = "done"


@dataclass
class LaunchStats:
    """Bookkeeping for one kernel launch, consumed by tests and the hw model."""

    num_groups: int = 0
    local_size: int = 0
    sub_group_size: int = 0
    slm_bytes_per_group: int = 0
    collective_counts: dict[str, int] = field(default_factory=dict)

    def record_collective(self, kind: str, scope: str, count: int) -> None:
        """Count ``count`` completed collectives, keyed as ``scope:kind``."""
        key = f"{scope}:{kind}"
        self.collective_counts[key] = self.collective_counts.get(key, 0) + count


class _WorkItemState:
    """Scheduler bookkeeping for one running work-item.

    ``site`` is the source location of the item's current sync point
    (captured only when a sanitizer is active; ``None`` otherwise).
    """

    __slots__ = ("item", "gen", "status", "pending", "site")

    def __init__(self, item: NDItem, gen: Any) -> None:
        self.item = item
        self.gen = gen
        self.status = _RUNNING
        self.pending: SyncOp | None = None
        self.site: AccessSite | None = None


def _yield_site(gen: Any) -> AccessSite | None:
    """Source location of the statement a suspended generator yielded from.

    Kernels delegate to subroutines with ``yield from``; the innermost
    generator of the delegation chain holds the frame of the actual
    barrier/collective statement.
    """
    inner = gen
    while True:
        delegate = getattr(inner, "gi_yieldfrom", None)
        if delegate is None or not inspect.isgenerator(delegate):
            break
        inner = delegate
    frame = getattr(inner, "gi_frame", None)
    if frame is None:
        return None
    return AccessSite(frame.f_code.co_filename, frame.f_lineno, frame.f_code.co_name)


def _advance(
    state: _WorkItemState,
    send_value: Any = None,
    *,
    first: bool = False,
    check: Any = None,
    prof: Any = None,
) -> None:
    """Run one work-item until its next sync point or completion."""
    if state.gen is None:
        state.status = _DONE
        return
    if check is not None:
        check.set_current(state.item)
    if prof is not None:
        prof.set_current(state.item)
    try:
        yielded = state.gen.send(None) if first else state.gen.send(send_value)
    except StopIteration:
        state.status = _DONE
        state.pending = None
        state.site = None
        return
    finally:
        if check is not None:
            check.set_current(None)
    if not isinstance(yielded, SyncOp):
        raise KernelFaultError(
            f"work-item {state.item.global_id} yielded {yielded!r}; kernels "
            f"must only yield SyncOp objects (barrier / group functions)"
        )
    state.status = _WAITING
    state.pending = yielded
    if check is not None:
        state.site = _yield_site(state.gen)


def run_work_group(
    ndrange: NDRange,
    group_id: int,
    kernel: Callable[..., Any],
    local: Any,
    args: tuple,
    stats: LaunchStats | None = None,
    check: Any = None,
    prof: Any = None,
) -> None:
    """Execute every work-item of one work-group to completion.

    ``check`` is the sanitizer's per-group :class:`~repro.sanitize.GroupCheck`
    (or ``None``); when present, ``local`` is already its shadow-wrapped
    view and every work-item advance runs with the shadow state primed.
    ``prof`` is the profiler's per-launch
    :class:`~repro.profile.profiler.LaunchProfile` (or ``None``); when
    present, ``local`` and ``args`` are already counting-proxy views.
    """
    base = group_id * ndrange.local_size
    states: list[_WorkItemState] = []
    for local_id in range(ndrange.local_size):
        item = NDItem(ndrange, base + local_id)
        if check is not None:
            # non-generator kernels execute their whole body inside this
            # call, so the shadow state must already know the item
            check.set_current(item)
        if prof is not None:
            prof.set_current(item)
        try:
            produced = kernel(item, local, *args)
        finally:
            if check is not None:
                check.set_current(None)
        gen = produced if inspect.isgenerator(produced) else None
        states.append(_WorkItemState(item, gen))

    for state in states:
        _advance(state, first=True, check=check, prof=prof)

    while True:
        if all(s.status == _DONE for s in states):
            return
        if not _assemble_round(ndrange, states, stats, check, prof):
            if check is not None:
                check.classify_deadlock(states)
            _raise_divergence(states)


def _assemble_round(
    ndrange: NDRange,
    states: list[_WorkItemState],
    stats: LaunchStats | None,
    check: Any = None,
    prof: Any = None,
) -> bool:
    """Complete every collective whose scope has fully assembled.

    Returns True if at least one collective completed (progress was made).
    """
    progressed = False

    # Work-group scope: requires every work-item of the group.
    if all(s.status == _WAITING and s.pending.scope == GROUP for s in states):
        _check_signatures(states, "work-group", check)
        op = states[0].pending
        if check is not None:
            check.check_assembly(op, states, "the work-group")
        results = _member_results(op, states, ndrange.sub_group_size)
        if stats is not None:
            stats.record_collective(op.kind, GROUP, 1)
        if check is not None:
            # epochs advance before any member resumes and touches SLM
            check.on_sync_complete(op, [s.item.local_id for s in states], None)
        if prof is not None:
            prof.on_collective(op.kind, GROUP, states[0].item)
        for state, result in zip(states, results):
            _advance(state, result, check=check, prof=prof)
        return True

    # Divergence accounting uses the state of the *round entry* — members
    # resumed by an earlier sub-group's completion in the same round must
    # not masquerade as divergent siblings (uniform flow measures zero).
    snapshot = None
    if prof is not None:
        snapshot = [
            (s.status, s.pending.signature() if s.status == _WAITING else None)
            for s in states
        ]

    # Sub-group scope: each sub-group assembles independently.
    for sg_id in range(ndrange.sub_groups_per_group):
        members = [s for s in states if s.item.sub_group_id == sg_id]
        if not members:
            continue
        if all(s.status == _WAITING and s.pending.scope == SUB_GROUP for s in members):
            _check_signatures(members, f"sub-group {sg_id}", check)
            op = members[0].pending
            if check is not None:
                check.check_assembly(op, members, f"sub-group {sg_id}")
            results = _member_results(op, members, ndrange.sub_group_size)
            if stats is not None:
                stats.record_collective(op.kind, SUB_GROUP, 1)
            if check is not None:
                check.on_sync_complete(op, [s.item.local_id for s in members], sg_id)
            if prof is not None:
                prof.on_collective(op.kind, SUB_GROUP, members[0].item)
                sig = op.signature()
                for s, (status, pending_sig) in zip(states, snapshot):
                    if s.item.sub_group_id == sg_id:
                        continue
                    if status == _DONE or (
                        status == _WAITING and pending_sig != sig
                    ):
                        prof.on_divergence(members[0].item)
                        break
            for state, result in zip(members, results):
                _advance(state, result, check=check, prof=prof)
            progressed = True

    return progressed


def _member_results(
    op: SyncOp, members: list[_WorkItemState], sub_group_size: int
) -> list[Any]:
    """Each member's result of one assembled scope (members in lane order).

    The scope is evaluated as one lane array; every member gets the
    scope's result, or its own lane of it.
    """
    values = [s.pending.value for s in members]
    result = evaluate_collective(op, values, len(members), sub_group_size)
    if isinstance(result, np.ndarray):
        return list(result)
    return [result] * len(members)


def _check_signatures(
    states: Iterable[_WorkItemState], scope_name: str, check: Any = None
) -> None:
    states = list(states)
    sigs = {s.pending.signature() for s in states}
    if len(sigs) > 1:
        if check is not None:
            check.classify_deadlock(states)
        raise BarrierDivergenceError(
            f"work-items of {scope_name} reached different synchronization "
            f"operations: {sorted(sigs)}"
        )


def _raise_divergence(states: list[_WorkItemState]) -> None:
    done = [s.item.local_id for s in states if s.status == _DONE]
    waiting = {
        s.item.local_id: s.pending.signature() for s in states if s.status == _WAITING
    }
    raise BarrierDivergenceError(
        "work-group deadlocked: no synchronization scope can assemble. "
        f"finished work-items: {done}; waiting work-items: {waiting}. "
        "This is barrier divergence (undefined behaviour on hardware)."
    )


def launch(
    device: SyclDevice,
    ndrange: NDRange,
    kernel: Callable[..., Any],
    args: tuple = (),
    local_specs: list[LocalSpec] | None = None,
    poison_slm: bool = False,
    name: str | None = None,
) -> LaunchStats:
    """Validate and execute a full ND-range kernel launch on ``device``.

    Raises the same classes of errors a strict SYCL runtime would: invalid
    sub-group/work-group sizes, SLM over-subscription, and (beyond real
    runtimes) deterministic barrier-divergence detection. When a sanitizer
    is installed (:mod:`repro.instruments`) every work-group
    additionally runs under shadow-memory and convergence checking; when a
    profiler is installed every
    global/SLM access, collective and divergence event is counted into
    per-phase hardware counters. The two compose: the profiler wraps
    *outside* the sanitizer's shadow views so both observe every access.
    ``name`` labels the launch in sanitizer reports and counter profiles
    (defaults to the kernel's ``__name__``).
    """
    specs, stats = prepare_launch(device, ndrange, local_specs)
    instruments = current()
    sanitizer, profiler = instruments.sanitizer, instruments.profiler
    kernel_name = name or getattr(kernel, "__name__", "kernel")
    if sanitizer is not None:
        sanitizer.begin_launch(kernel_name, ndrange.num_groups)
    prof = None
    token = None
    if profiler is not None:
        prof = profiler.begin_launch(kernel_name, ndrange.num_groups, device.name)
        args = prof.wrap_args(args)
        token = set_active_launch(prof)
    try:
        for group_id in range(ndrange.num_groups):
            local = allocate_local(specs)
            if poison_slm:
                poison_local(local)
            check = None
            if sanitizer is not None:
                check = sanitizer.begin_group(
                    kernel_name,
                    group_id,
                    ndrange.local_size,
                    ndrange.sub_group_size,
                    ndrange.sub_groups_per_group,
                )
                local = check.wrap_local(local)
            if prof is not None:
                local = prof.wrap_local(local)
            run_work_group(ndrange, group_id, kernel, local, args, stats, check, prof)
    finally:
        if prof is not None:
            reset_active_launch(token)
            profiler.end_launch(prof)

    publish_launch(device, stats)
    return stats


def prepare_launch(
    device: SyclDevice, ndrange: NDRange, local_specs: list[LocalSpec] | None
) -> tuple[list[LocalSpec], LaunchStats]:
    """Validate a launch against ``device``; its SLM specs and empty stats.

    Both executors start every launch here, so each rejects and sizes a
    launch the same way.
    """
    device.validate_work_group_size(ndrange.local_size)
    device.validate_sub_group_size(ndrange.sub_group_size)
    specs = list(local_specs or [])
    check_local_capacity(specs, device.slm_bytes_per_cu, device.name)
    stats = LaunchStats(
        num_groups=ndrange.num_groups,
        local_size=ndrange.local_size,
        sub_group_size=ndrange.sub_group_size,
        slm_bytes_per_group=total_local_bytes(specs),
    )
    return specs, stats


def publish_launch(
    device: SyclDevice, stats: LaunchStats, backend: str | None = None
) -> None:
    """Count one completed launch on the installed tracer's metrics.

    The executor is below the Queue span, so it contributes metrics (and
    annotates whatever span surrounds it) rather than opening its own
    span per launch. A launch on another ``backend`` also counts on
    ``<backend>.launches`` and names its backend on the span.
    """
    tracer = current_tracer()
    if not tracer.enabled:
        return
    metrics = tracer.metrics
    metrics.counter("sycl.launches").inc()
    metrics.counter("sycl.work_groups").inc(stats.num_groups)
    metrics.histogram("sycl.slm_bytes_per_group").observe(
        float(stats.slm_bytes_per_group)
    )
    for key, count in stats.collective_counts.items():
        metrics.counter(f"sycl.collectives.{key}").inc(count)
    tracer.annotate(device=device.name)
    if backend is not None:
        metrics.counter(f"{backend}.launches").inc()
        tracer.annotate(backend=backend)

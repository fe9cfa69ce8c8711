"""SYCL queues and profiling events.

A :class:`Queue` binds a device and submits kernel launches. The simulator
executes synchronously but preserves the SYCL surface: ``parallel_for``
returns an :class:`Event` carrying profiling information plus the launch
statistics the performance model consumes (work-group geometry, SLM
footprint, collective counts). Profiling timestamps are integer
nanoseconds from the monotonic clock (``time.perf_counter_ns``), matching
Level-Zero's ``zeEventQueryKernelTimestamp`` convention.

Queues also keep a submission log so tests can assert that the multi-level
dispatch mechanism produced exactly one fused kernel launch per solve
(Section 3.4 of the paper: all functionality gathered into a single kernel
to avoid launch latency). Long benchmark sweeps should call
:meth:`Queue.reset_events` between solves so the log does not grow without
bound.

When a tracer is installed (:mod:`repro.observability`), every submission
additionally emits a kernel-launch span carrying the
:class:`~repro.sycl.executor.LaunchStats` as span arguments.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.observability.tracer import current_tracer
from repro.sycl.device import SyclDevice, cpu_device
from repro.sycl.executor import LaunchStats, launch
from repro.sycl.memory import LocalSpec, total_local_bytes
from repro.sycl.ndrange import NDRange


@dataclass(frozen=True)
class Event:
    """Completion record of one submitted kernel (``sycl::event``).

    Timestamps are monotonic-clock nanoseconds (Level-Zero style); the
    ``*_time`` / ``duration_seconds`` properties expose the legacy
    floating-point-seconds view.
    """

    name: str
    submit_ns: int
    start_ns: int
    end_ns: int
    stats: LaunchStats

    @property
    def duration_ns(self) -> int:
        """Execution time of the (simulated) kernel in integer nanoseconds."""
        return self.end_ns - self.start_ns

    @property
    def duration_seconds(self) -> float:
        """Host wall-clock execution time of the (simulated) kernel."""
        return self.duration_ns * 1e-9

    @property
    def submit_time(self) -> float:
        """Submission timestamp in seconds (monotonic clock)."""
        return self.submit_ns * 1e-9

    @property
    def start_time(self) -> float:
        """Start timestamp in seconds (monotonic clock)."""
        return self.start_ns * 1e-9

    @property
    def end_time(self) -> float:
        """Completion timestamp in seconds (monotonic clock)."""
        return self.end_ns * 1e-9

    def wait(self) -> None:
        """No-op: the simulator executes synchronously."""


class Queue:
    """An in-order queue with profiling enabled.

    Parameters
    ----------
    device:
        Target device; defaults to the host CPU device.
    """

    #: Runs one launch: the faithful per-work-item interpreter here, the
    #: lockstep executor on :class:`~repro.wide.queue.WideQueue`.
    executor = staticmethod(launch)
    #: Extra arguments every kernel span of this queue carries.
    kernel_span_args: dict[str, Any] = {}

    def __init__(self, device: SyclDevice | None = None) -> None:
        self.device = device if device is not None else cpu_device()
        self.events: list[Event] = []

    def parallel_for(
        self,
        ndrange: NDRange,
        kernel: Callable[..., Any],
        args: tuple = (),
        local_specs: list[LocalSpec] | None = None,
        name: str | None = None,
        poison_slm: bool = False,
    ) -> Event:
        """Launch ``kernel`` over ``ndrange`` and wait for completion."""
        kernel_name = name or getattr(kernel, "__name__", "kernel")
        tracer = current_tracer()
        with tracer.span(
            kernel_name, category="kernel", device=self.device.name
        ) as span:
            # geometry is known up front: set it before the launch so a
            # launch aborted mid-flight (e.g. by a sanitizer violation)
            # still leaves a valid kernel span on the trace
            span.set_args(
                num_groups=ndrange.global_size // ndrange.local_size,
                work_group_size=ndrange.local_size,
                sub_group_size=ndrange.sub_group_size,
                slm_bytes_per_group=total_local_bytes(list(local_specs or [])),
                **self.kernel_span_args,
            )
            submit = time.perf_counter_ns()
            start = submit
            stats = self.executor(
                self.device,
                ndrange,
                kernel,
                args=args,
                local_specs=local_specs,
                poison_slm=poison_slm,
                name=kernel_name,
            )
            end = time.perf_counter_ns()
            span.set_args(collectives=dict(stats.collective_counts))
        event = Event(
            name=kernel_name,
            submit_ns=submit,
            start_ns=start,
            end_ns=end,
            stats=stats,
        )
        self.events.append(event)
        return event

    def submit_host_task(
        self, fn: Callable[[], Any], name: str = "host_task", **span_args: Any
    ) -> tuple[Any, Event]:
        """Run ``fn`` as a host task on this queue (``sycl::host_task``).

        Host tasks interleave with kernel launches in the queue's in-order
        submission log and profiling timeline — the serving layer submits
        whole batched solves this way so every flush appears on its
        device's event log and trace lane. Returns ``(fn(), event)``.
        """
        tracer = current_tracer()
        with tracer.span(
            name, category="host_task", device=self.device.name, **span_args
        ):
            submit = time.perf_counter_ns()
            result = fn()
            end = time.perf_counter_ns()
        event = Event(
            name=name,
            submit_ns=submit,
            start_ns=submit,
            end_ns=end,
            stats=LaunchStats(),
        )
        self.events.append(event)
        return result, event

    def wait(self) -> None:
        """Block until all submitted work completes (no-op: synchronous)."""

    def reset_events(self) -> None:
        """Clear the submission log (keeps long sweeps from accumulating).

        The profiling events of completed launches are plain records; a
        benchmark loop that reuses one queue across thousands of solves
        should drop them once inspected, exactly as a real runtime releases
        ``sycl::event`` objects when their last handle dies.
        """
        self.events.clear()

    @property
    def num_launches(self) -> int:
        """Number of kernels submitted to this queue so far."""
        return len(self.events)

"""Lockstep execution of ND-range kernels over a NumPy lane axis.

Where :func:`repro.sycl.executor.launch` runs one Python generator per
work-item and assembles collectives once every member of a scope has
arrived, :func:`wide_launch` runs ONE generator per work-group: every
per-item scalar is a length-``work_group_size`` lane array, barriers are
no-ops (lockstep order *is* barrier order — all lanes reach each program
point together by construction), and each collective of the
:class:`~repro.sycl.group.SyncOp` vocabulary is evaluated over the whole
lane axis by :func:`repro.sycl.group.evaluate_collective`, the function
the faithful interpreter evaluates every assembled scope with. The two
executors therefore reduce in one order and return the same bits.

When a sanitizer or profiler is installed the launch transparently falls
back to the faithful interpreter: shadow-memory, convergence and counter
checking are defined per work-item and have no meaning over a collapsed
lane axis (``docs/wide_backend.md`` discusses exactly which checks do
not apply and why the fallback is the honest answer).
"""

from __future__ import annotations

import inspect
from types import SimpleNamespace
from typing import Any, Callable

import numpy as np

from repro.exceptions import KernelFaultError
from repro.instruments import current
from repro.sycl.device import SyclDevice
from repro.sycl.executor import LaunchStats, launch, prepare_launch, publish_launch
from repro.sycl.group import SUB_GROUP, NDItem, SyncOp, evaluate_collective
from repro.sycl.memory import LocalSpec, allocate_local, poison_local
from repro.sycl.ndrange import NDRange
from repro.wide.lanes import LaneArray, WideArray, lane_array, lane_ids
from repro.wide.lower import lower_kernel


class WideItem(NDItem):
    """The work-group-wide ``nd_item``: ids carry the whole lane axis.

    ``group_id`` stays a plain integer (one work-group per generator);
    ``local_id``/``lane``/``sub_group_id``/``global_id`` are
    :class:`~repro.wide.lanes.LaneArray` vectors whose comparisons
    produce truthy lane masks, so unmodified kernel sources index and
    guard with them exactly as they do per-item. The first three are the
    read-only vectors :func:`~repro.wide.lanes.lane_ids` shares between
    all work-groups of a geometry. The SyncOp factory methods are
    inherited from :class:`~repro.sycl.group.NDItem` unchanged — the op
    vocabulary is the backend seam.
    """

    def __init__(self, ndrange: NDRange, group_id: int) -> None:
        wg = ndrange.local_size
        self.ndrange = ndrange
        self.group_id = group_id
        self.local_id, self.sub_group_id, self.lane = lane_ids(wg, ndrange.sub_group_size)
        self.global_id: LaneArray = lane_array(group_id * wg + self.local_id)


def run_work_group_wide(
    ndrange: NDRange,
    group_id: int,
    kernel: Callable[..., Any],
    local: Any,
    args: tuple,
    stats: LaunchStats | None = None,
) -> None:
    """Execute one work-group as a single lockstep generator.

    ``kernel`` must already be lowered (:func:`repro.wide.lower.lower_kernel`)
    and ``local``/``args`` already lane-wrapped.
    """
    item = WideItem(ndrange, group_id)
    produced = kernel(item, local, *args)
    if not inspect.isgenerator(produced):
        return
    wg, sgs = ndrange.local_size, ndrange.sub_group_size
    nsg = ndrange.sub_groups_per_group
    try:
        op = produced.send(None)
        while True:
            if not isinstance(op, SyncOp):
                raise KernelFaultError(
                    f"work-group {group_id} yielded {op!r}; kernels must only "
                    f"yield SyncOp objects (barrier / group functions)"
                )
            result = evaluate_collective(op, op.value, wg, sgs)
            if stats is not None:
                # one assembly per scope instance, matching the faithful
                # executor's accounting (each sub-group assembles its own)
                stats.record_collective(
                    op.kind, op.scope, nsg if op.scope == SUB_GROUP else 1
                )
            op = produced.send(result)
    except StopIteration:
        pass


def wide_launch(
    device: SyclDevice,
    ndrange: NDRange,
    kernel: Callable[..., Any],
    args: tuple = (),
    local_specs: list[LocalSpec] | None = None,
    poison_slm: bool = False,
    name: str | None = None,
) -> LaunchStats:
    """Validate and execute a full ND-range launch in lockstep.

    Same contract as :func:`repro.sycl.executor.launch` — the same size
    and SLM validation, :class:`LaunchStats` and tracer metrics — but the
    per-work-item interpreter is replaced by lane-axis array execution.
    With a sanitizer or profiler installed, falls back to the faithful
    executor so per-item checking semantics are preserved.
    """
    instruments = current()
    if instruments.sanitizer is not None or instruments.profiler is not None:
        return launch(
            device,
            ndrange,
            kernel,
            args=args,
            local_specs=local_specs,
            poison_slm=poison_slm,
            name=name,
        )
    specs, stats = prepare_launch(device, ndrange, local_specs)
    lowered = lower_kernel(kernel)
    wrapped_args = tuple(
        WideArray(a) if isinstance(a, np.ndarray) else a for a in args
    )
    for group_id in range(ndrange.num_groups):
        raw = allocate_local(specs)
        if poison_slm:
            poison_local(raw)
        local = SimpleNamespace(
            **{key: WideArray(value) for key, value in vars(raw).items()}
        )
        run_work_group_wide(ndrange, group_id, lowered, local, wrapped_args, stats)

    publish_launch(device, stats, backend="wide")
    return stats

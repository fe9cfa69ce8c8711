"""Lockstep execution of ND-range kernels over a NumPy lane axis.

Where :func:`repro.sycl.executor.launch` runs one Python generator per
work-item and assembles collectives once every member of a scope has
arrived, :func:`wide_launch` runs ONE generator per work-group: every
per-item scalar is a length-``work_group_size`` lane array, barriers are
no-ops (lockstep order *is* barrier order — all lanes reach each program
point together by construction), and each collective of the
:class:`~repro.sycl.group.SyncOp` vocabulary maps to a vectorized NumPy
equivalent:

====================  =====================================================
``reduce`` (group)    axis reduction over the lane axis → scalar
``reduce`` (sg)       ``(num_sub_groups, sg_size)`` reshape, axis-1 reduce
``broadcast``         lane/column pick, repeated back over the scope
``*_scan``            ``np.*.accumulate`` along the lane axis
``shuffle``           per-sub-group fancy indexing (own value off-range)
``any`` / ``all``     ``np.any`` / ``np.all`` over the lane axis
====================  =====================================================

Group-scope reductions return plain Python scalars so the kernels'
group-uniform control flow (``while res2 > threshold2``) stays ordinary
scalar control flow; a single-sub-group reduction does the same, which
is the case the small-matrix solver path relies on.

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
from repro.observability.tracer import current_tracer
from repro.sycl.device import SyclDevice
from repro.sycl.executor import LaunchStats, launch
from repro.sycl.group import GROUP, SUB_GROUP, NDItem, SyncOp
from repro.sycl.memory import (
    LocalSpec,
    allocate_local,
    check_local_capacity,
    poison_local,
    total_local_bytes,
)
from repro.sycl.ndrange import NDRange
from repro.wide.lanes import LaneArray, WideArray, lane_array
from repro.wide.lower import lower_kernel

_REDUCERS = {
    "sum": np.add.reduce,
    "prod": np.multiply.reduce,
    "max": np.maximum.reduce,
    "min": np.minimum.reduce,
}
_ACCUMULATORS = {
    "sum": np.add.accumulate,
    "prod": np.multiply.accumulate,
    "max": np.maximum.accumulate,
    "min": np.minimum.accumulate,
}
_IDENTITY = {"sum": 0.0, "prod": 1.0, "max": -np.inf, "min": np.inf}


class WideItem(NDItem):
    """The work-group-wide ``nd_item``: ids carry the whole lane axis.

    ``group_id`` stays a plain integer (one work-group per generator);
    ``local_id``/``lane``/``sub_group_id``/``global_id`` are
    :class:`~repro.wide.lanes.LaneArray` vectors whose comparisons
    produce truthy lane masks, so unmodified kernel sources index and
    guard with them exactly as they do per-item. The SyncOp factory
    methods are inherited from :class:`~repro.sycl.group.NDItem`
    unchanged — the op vocabulary is the backend seam.
    """

    def __init__(self, ndrange: NDRange, group_id: int) -> None:
        wg = ndrange.local_size
        lids = np.arange(wg, dtype=np.int64)
        self.ndrange = ndrange
        self.group_id = group_id
        self.global_id: LaneArray = lane_array(group_id * wg + lids)
        self.local_id: LaneArray = lane_array(lids)
        self.sub_group_id: LaneArray = lane_array(lids // ndrange.sub_group_size)
        self.lane: LaneArray = lane_array(lids % ndrange.sub_group_size)

    def any_of_group(self, predicate: Any) -> SyncOp:
        """Lane-axis ``any``: keep the raw per-lane predicate vector."""
        return SyncOp("any", GROUP, predicate, ())

    def all_of_group(self, predicate: Any) -> SyncOp:
        """Lane-axis ``all``: keep the raw per-lane predicate vector."""
        return SyncOp("all", GROUP, predicate, ())


def _as_lanes(value: Any, width: int) -> np.ndarray:
    """Materialize one contribution per lane (scalars are uniform)."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.full(width, arr[()])
    if arr.shape[0] != width:
        raise KernelFaultError(
            f"collective operand has {arr.shape[0]} lanes; the scope has {width}"
        )
    return np.asarray(arr)


def evaluate_wide_collective(op: SyncOp, ndrange: NDRange) -> Any:
    """Vectorized result of one assembled collective (all lanes at once).

    Returns what the kernel's ``yield`` expression evaluates to: a plain
    scalar for group-scope reductions/broadcasts/predicates (and for
    single-sub-group reductions), a lane-axis array otherwise.
    """
    wg = ndrange.local_size
    sgs = ndrange.sub_group_size
    nsg = ndrange.sub_groups_per_group
    kind = op.kind
    if kind == "barrier":
        return None

    if op.scope == GROUP:
        v = _as_lanes(op.value, wg)
        if kind == "reduce":
            return _REDUCERS[op.params[0]](v).item()
        if kind == "broadcast":
            return v[op.params[0]].item()
        if kind in ("inclusive_scan", "exclusive_scan"):
            acc = _ACCUMULATORS[op.params[0]](np.asarray(v, dtype=np.float64))
            if kind == "exclusive_scan":
                shifted = np.empty_like(acc)
                shifted[0] = _IDENTITY[op.params[0]]
                shifted[1:] = acc[:-1]
                return shifted
            return acc
        if kind == "any":
            return bool(np.any(v))
        if kind == "all":
            return bool(np.all(v))
        raise KernelFaultError(f"unknown group collective kind {kind!r}")

    if op.scope != SUB_GROUP:
        raise KernelFaultError(f"unknown collective scope {op.scope!r}")
    v = _as_lanes(op.value, wg).reshape(nsg, sgs)
    if kind == "reduce":
        per_sg = _REDUCERS[op.params[0]](v, axis=1)
        if nsg == 1:
            return per_sg[0].item()
        return np.repeat(per_sg, sgs)
    if kind == "broadcast":
        col = v[:, op.params[0]]
        if nsg == 1:
            return col[0].item()
        return np.repeat(col, sgs)
    if kind == "shuffle":
        direction, delta = op.params
        lanes = np.arange(sgs)
        if direction == "down":
            src = lanes + delta
        elif direction == "up":
            src = lanes - delta
        else:  # xor
            src = lanes ^ delta
        result = v.copy()
        valid = (src >= 0) & (src < sgs)
        result[:, valid] = v[:, src[valid]]
        return result.reshape(wg)
    raise KernelFaultError(f"unknown sub-group collective kind {kind!r}")


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
    nsg = ndrange.sub_groups_per_group
    try:
        op = produced.send(None)
        while True:
            if not isinstance(op, SyncOp):
                raise KernelFaultError(
                    f"work-group {group_id} yielded {op!r}; kernels must only "
                    f"yield SyncOp objects (barrier / group functions)"
                )
            result = evaluate_wide_collective(op, ndrange)
            if stats is not None:
                # one assembly per scope instance, matching the faithful
                # executor's accounting (each sub-group assembles its own)
                count = nsg if op.scope == SUB_GROUP else 1
                for _ in range(count):
                    stats.record_collective(op.kind, op.scope)
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

    Same contract as :func:`repro.sycl.executor.launch` — identical size
    and SLM validation, identical :class:`LaunchStats` shape — but the
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

    tracer = current_tracer()
    if tracer.enabled:
        metrics = tracer.metrics
        metrics.counter("sycl.launches").inc()
        metrics.counter("wide.launches").inc()
        metrics.counter("sycl.work_groups").inc(stats.num_groups)
        metrics.histogram("sycl.slm_bytes_per_group").observe(
            float(stats.slm_bytes_per_group)
        )
        for key, count in stats.collective_counts.items():
            metrics.counter(f"sycl.collectives.{key}").inc(count)
        tracer.annotate(device=device.name, backend="wide")
    return stats

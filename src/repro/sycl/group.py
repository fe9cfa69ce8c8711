"""Work-item view of the execution model: ids, barriers, group functions.

Kernels in the simulator are generator functions receiving an
:class:`NDItem`. Synchronizing operations — barriers and the SYCL group
functions (reduce, broadcast, scans, shuffles, any/all) — are *yielded*;
the executor suspends the work-item until every member of the operation's
scope has arrived, computes the collective result, and resumes each member
with its result::

    def kernel(item, slm, x):
        val = x[item.global_id]
        total = yield item.reduce_over_group(val, "sum")   # like sycl::reduce_over_group
        yield item.barrier()                               # group_barrier
        ...

This mirrors how SYCL kernels are written (Section 3.2 of the paper: dot
and norm use ``reduce`` over the whole work-group — "a primitive function
provided by SYCL" — or over a sub-group for small matrices).

Once a scope has assembled, :func:`evaluate_collective` computes its
result for every lane at once with NumPy reductions. The faithful
interpreter (:mod:`repro.sycl.executor`) and the lockstep backend
(:mod:`repro.wide`) both call it, so the two reduce in one order and
return the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.exceptions import KernelFaultError
from repro.sycl.ndrange import NDRange

# Scopes for collective operations.
GROUP = "group"
SUB_GROUP = "sub_group"

#: Reduction operators available to group functions, as NumPy reductions
#: over the lane axis (pairwise summation for ``sum``; NaN propagates
#: through ``max`` and ``min``) and their running scans.
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
#: The first lane of an exclusive scan; integer scans take their type's
#: extremes for ``max``/``min``, as SYCL's ``known_identity`` does.
_IDENTITY = {"sum": 0, "prod": 1, "max": -np.inf, "min": np.inf}


@dataclass(frozen=True)
class SyncOp:
    """A synchronization request yielded by a work-item.

    ``kind`` is one of ``barrier``, ``reduce``, ``broadcast``,
    ``inclusive_scan``, ``exclusive_scan``, ``shuffle``, ``any``, ``all``.
    ``scope`` is :data:`GROUP` or :data:`SUB_GROUP`. ``params`` carries
    operation parameters that must match across the scope (e.g. the
    reduction operator); mismatches are barrier divergence.
    """

    kind: str
    scope: str
    value: Any = None
    params: tuple = ()

    def signature(self) -> tuple:
        """The part of the op that must be identical across the scope."""
        return (self.kind, self.scope, self.params)


class NDItem:
    """The per-work-item handle passed to kernels (``sycl::nd_item``)."""

    __slots__ = ("ndrange", "global_id", "group_id", "local_id", "sub_group_id", "lane")

    def __init__(self, ndrange: NDRange, global_id: int) -> None:
        self.ndrange = ndrange
        self.global_id = global_id
        self.group_id = ndrange.group_of(global_id)
        self.local_id = ndrange.local_of(global_id)
        self.sub_group_id, self.lane = ndrange.sub_group_of(global_id)

    # -- geometry queries ---------------------------------------------------

    @property
    def local_range(self) -> int:
        """Work-group size (``get_local_range`` in SYCL)."""
        return self.ndrange.local_size

    @property
    def global_range(self) -> int:
        """Total number of work-items."""
        return self.ndrange.global_size

    @property
    def sub_group_range(self) -> int:
        """Sub-group size."""
        return self.ndrange.sub_group_size

    @property
    def num_sub_groups(self) -> int:
        """Sub-groups per work-group."""
        return self.ndrange.sub_groups_per_group

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"NDItem(global={self.global_id}, group={self.group_id}, "
            f"local={self.local_id}, sg={self.sub_group_id}, lane={self.lane})"
        )

    # -- synchronizing operations (to be yielded) ---------------------------

    def barrier(self) -> SyncOp:
        """Work-group barrier with local-memory fence (``group_barrier``)."""
        return SyncOp("barrier", GROUP)

    def sub_group_barrier(self) -> SyncOp:
        """Barrier over the calling work-item's sub-group."""
        return SyncOp("barrier", SUB_GROUP)

    def reduce_over_group(self, value: Any, op: str = "sum") -> SyncOp:
        """Reduce ``value`` across the work-group; every item gets the result."""
        _check_op(op)
        return SyncOp("reduce", GROUP, value, (op,))

    def reduce_over_sub_group(self, value: Any, op: str = "sum") -> SyncOp:
        """Reduce ``value`` across the sub-group; every lane gets the result."""
        _check_op(op)
        return SyncOp("reduce", SUB_GROUP, value, (op,))

    def broadcast_over_group(self, value: Any, src_local_id: int = 0) -> SyncOp:
        """All items receive the ``value`` contributed by ``src_local_id``."""
        return SyncOp("broadcast", GROUP, value, (int(src_local_id),))

    def broadcast_over_sub_group(self, value: Any, src_lane: int = 0) -> SyncOp:
        """All lanes receive the ``value`` contributed by lane ``src_lane``."""
        return SyncOp("broadcast", SUB_GROUP, value, (int(src_lane),))

    def inclusive_scan_over_group(self, value: Any, op: str = "sum") -> SyncOp:
        """Inclusive prefix scan over the work-group in local-id order."""
        _check_op(op)
        return SyncOp("inclusive_scan", GROUP, value, (op,))

    def exclusive_scan_over_group(self, value: Any, op: str = "sum") -> SyncOp:
        """Exclusive prefix scan over the work-group in local-id order."""
        _check_op(op)
        return SyncOp("exclusive_scan", GROUP, value, (op,))

    def shift_sub_group_left(self, value: Any, delta: int = 1) -> SyncOp:
        """Lane ``i`` receives the value of lane ``i + delta``.

        Out-of-range lanes receive their own value (matching the CUDA
        ``__shfl_down_sync`` convention, which the butterfly-reduction
        kernels rely on).
        """
        return SyncOp("shuffle", SUB_GROUP, value, ("down", int(delta)))

    def shift_sub_group_right(self, value: Any, delta: int = 1) -> SyncOp:
        """Lane ``i`` receives the value of lane ``i - delta`` (own if < 0)."""
        return SyncOp("shuffle", SUB_GROUP, value, ("up", int(delta)))

    def permute_sub_group_xor(self, value: Any, mask: int) -> SyncOp:
        """Lane ``i`` receives the value of lane ``i ^ mask``."""
        return SyncOp("shuffle", SUB_GROUP, value, ("xor", int(mask)))

    def any_of_group(self, predicate: Any) -> SyncOp:
        """True on all items iff the predicate is true on any item."""
        return SyncOp("any", GROUP, predicate, ())

    def all_of_group(self, predicate: Any) -> SyncOp:
        """True on all items iff the predicate is true on all items."""
        return SyncOp("all", GROUP, predicate, ())


def _check_op(op: str) -> None:
    if op not in _REDUCERS:
        raise ValueError(f"unknown reduction op {op!r}; expected one of {sorted(_REDUCERS)}")


# ---------------------------------------------------------------------------
# Collective evaluation (both executors, once a scope has assembled)
# ---------------------------------------------------------------------------


def _as_lanes(value: Any, width: int) -> np.ndarray:
    """Materialize one contribution per lane (scalars are uniform)."""
    arr = np.asarray(value)
    if arr.ndim == 0:
        return np.full(width, arr[()])
    if arr.shape[0] != width:
        raise KernelFaultError(
            f"collective operand has {arr.shape[0]} lanes; the scope has {width}"
        )
    return arr


def _source_lane(src: int, width: int) -> int:
    if not 0 <= src < width:
        raise ValueError(
            f"broadcast source lane {src} is not a member of the scope "
            f"(lanes 0..{width - 1})"
        )
    return src


def evaluate_collective(op: SyncOp, values: Any, width: int, sub_group_size: int) -> Any:
    """The result of one assembled collective, for every lane at once.

    ``values`` are the scope's contributions in lane order: ``width`` of
    them, or one scalar that every lane contributes. For sub-group scope
    ``width`` spans whole sub-groups of ``sub_group_size`` lanes, each
    evaluated on its own. Both executors call this one function: the
    lockstep backend with a work-group's lane vector, the faithful
    interpreter with the values of the members of one assembled scope.

    Returns what the kernel's ``yield`` expression evaluates to: a Python
    scalar where the result is uniform over ``width`` (group-scope
    reductions, broadcasts and predicates; sub-group reductions and
    broadcasts over one sub-group), else an array with one entry per lane.
    """
    kind = op.kind
    if kind == "barrier":
        return None

    if op.scope == GROUP:
        v = _as_lanes(values, width)
        if kind == "reduce":
            return _REDUCERS[op.params[0]](v).item()
        if kind == "broadcast":
            return v[_source_lane(op.params[0], width)].item()
        if kind in ("inclusive_scan", "exclusive_scan"):
            acc = _ACCUMULATORS[op.params[0]](v)
            if kind == "inclusive_scan":
                return acc
            first = _IDENTITY[op.params[0]]
            if np.isinf(first) and acc.dtype.kind in "iu":
                info = np.iinfo(acc.dtype)
                first = info.min if first < 0 else info.max
            shifted = np.empty_like(acc)
            shifted[0] = first
            shifted[1:] = acc[:-1]
            return shifted
        if kind == "any":
            return bool(np.any(v))
        if kind == "all":
            return bool(np.all(v))
        raise KernelFaultError(f"unknown group collective kind {kind!r}")

    if op.scope != SUB_GROUP:
        raise KernelFaultError(f"unknown collective scope {op.scope!r}")
    nsg = width // sub_group_size
    v = _as_lanes(values, width).reshape(nsg, sub_group_size)
    if kind == "reduce":
        per_sg = _REDUCERS[op.params[0]](v, axis=1)
        if nsg == 1:
            return per_sg[0].item()
        return np.repeat(per_sg, sub_group_size)
    if kind == "broadcast":
        col = v[:, _source_lane(op.params[0], sub_group_size)]
        if nsg == 1:
            return col[0].item()
        return np.repeat(col, sub_group_size)
    if kind == "shuffle":
        direction, delta = op.params
        lanes = np.arange(sub_group_size)
        if direction == "down":
            src = lanes + delta
        elif direction == "up":
            src = lanes - delta
        else:  # xor
            src = lanes ^ delta
        result = v.copy()
        valid = (src >= 0) & (src < sub_group_size)
        result[:, valid] = v[:, src[valid]]
        return result.reshape(width)
    raise KernelFaultError(f"unknown sub-group collective kind {kind!r}")

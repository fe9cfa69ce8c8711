"""The kernel sanitizer: checking layer over the execution-model simulators.

Four detector classes, mirroring what hides in whole-solver-in-one-kernel
code (Section 3 of the paper: one work-group per system, SLM-staged
vectors, sub-group-size dispatch):

* **barrier divergence** — work-items of a scope reaching different
  barrier sites, executing different barrier counts, or deadlocking with
  siblings parked at different synchronization operations;
* **SLM data races** — two work-items touching the same SLM cell without
  an intervening barrier, at least one access being a write. The happens
  -before model is strict: only *barriers* order shared local memory
  (group barriers for the whole work-group, sub-group barriers within one
  sub-group). Group *collectives* (reduce/scan/broadcast) force converged
  execution but — per SYCL 2020, which gives group algorithms no local
  memory fence semantics — do **not** order SLM accesses;
* **uninitialized / out-of-bounds SLM accesses** — reads of cells no
  work-item has written (the simulator's zero-fill would mask them) and
  indices outside the declared accessor shape (negative included);
* **collective misuse** — shuffles/broadcasts whose width parameter
  cannot fit the dispatched sub-group size, collectives entered from
  different call sites, and non-uniform participation (part of a scope
  entering a collective while siblings exit or wait elsewhere).

The executor drives the sanitizer through :class:`GroupCheck`, one per
work-group; the :class:`Sanitizer` itself only carries configuration and
aggregated results, so one instance can observe many launches (including
concurrently, from the serving layer's worker threads).

Violations raise immediately (fail-fast) with a structured
:class:`~repro.sanitize.report.SanitizerReport` attached to the exception;
when a tracer is installed the report carries the enclosing span's name
and an ``sanitizer.violation`` instant event lands on the trace.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.exceptions import (
    BarrierDivergenceError,
    CollectiveMisuseError,
    SanitizerError,
    SlmOutOfBoundsError,
    SlmRaceError,
    UninitializedSlmReadError,
)
from repro.observability.context import current_trace_context
from repro.observability.tracer import current_tracer
from repro.sanitize import report as _report
from repro.telemetry.events import SANITIZER_TRIP, emit_event
from repro.sanitize.report import AccessSite, SanitizerReport
from repro.sanitize.shadow import (
    ACC_GEPOCH,
    ACC_ITEM,
    ACC_SG,
    ACC_SITE,
    ACC_SUBEPOCH,
    ShadowArray,
    ShadowLocal,
    caller_site,
    wrap_local,
)

#: Scope strings, kept as literals so this module never imports the
#: executor's world (the executor imports *us*).
_GROUP = "group"
_SUB_GROUP = "sub_group"


@dataclass(frozen=True)
class SanitizerConfig:
    """Which detectors run (all on by default) and how they behave.

    ``collectives_fence`` relaxes the race detector to treat group/sub-group
    collectives as memory fences — useful to confirm that a reported race
    is only hidden by collective convergence, not by a real barrier.
    ``record_sites`` disables source-site capture for a faster sweep.
    """

    check_races: bool = True
    check_uninit: bool = True
    check_bounds: bool = True
    check_collectives: bool = True
    check_barrier_sites: bool = True
    collectives_fence: bool = False
    record_sites: bool = True


@dataclass
class SanitizerStats:
    """Aggregate counters of one sanitizer instance."""

    launches: int = 0
    work_groups: int = 0
    slm_accesses: int = 0
    syncs: int = 0
    violations: dict[str, int] = field(default_factory=dict)


class Sanitizer:
    """Configuration + result sink shared by every checked launch."""

    def __init__(self, config: SanitizerConfig | None = None) -> None:
        self.config = config if config is not None else SanitizerConfig()
        self.stats = SanitizerStats()
        self.reports: list[SanitizerReport] = []
        self._lock = threading.Lock()

    @property
    def clean(self) -> bool:
        """True while no violation has been recorded."""
        return not self.reports

    def begin_launch(self, kernel_name: str, num_groups: int) -> None:
        """Account one checked kernel launch."""
        with self._lock:
            self.stats.launches += 1
            self.stats.work_groups += num_groups

    def begin_group(
        self,
        kernel_name: str,
        group_id: int,
        local_size: int,
        sub_group_size: int,
        sub_groups_per_group: int,
    ) -> "GroupCheck":
        """Fresh per-work-group shadow state (one per executed group)."""
        return GroupCheck(
            self, kernel_name, group_id, local_size, sub_group_size, sub_groups_per_group
        )

    def summary(self) -> dict[str, Any]:
        """Aggregate counters as a plain dict (CLI / smoke scripts)."""
        return {
            "launches": self.stats.launches,
            "work_groups": self.stats.work_groups,
            "slm_accesses": self.stats.slm_accesses,
            "syncs": self.stats.syncs,
            "violations": dict(self.stats.violations),
        }

    # -- violation sink ------------------------------------------------------

    def violation(self, exc_cls: type, rep: SanitizerReport) -> None:
        """Record ``rep``, attach trace context, raise ``exc_cls``.

        The report gets the enclosing tracer span's name (when tracing is
        active) so a failure inside ``python -m repro run --with trace
        <cmd>`` can be located on the exported timeline; an instant event
        and a metrics counter mark the violation on the trace itself.
        """
        with self._lock:
            self.reports.append(rep)
            count = self.stats.violations.get(rep.kind, 0) + 1
            self.stats.violations[rep.kind] = count
        ctx = current_trace_context()
        if ctx is not None:
            rep.trace_id = ctx.trace_id
        emit_event(
            SANITIZER_TRIP,
            ctx=ctx,
            critical=True,
            kind=rep.kind,
            kernel=rep.kernel,
            group=rep.group_id,
        )
        tracer = current_tracer()
        if tracer.enabled:
            span = tracer.current_span()
            if span is not None:
                rep.span = span.name
                span.set("sanitizer_violation", rep.kind)
            tracer.instant(
                "sanitizer.violation",
                kind=rep.kind,
                kernel=rep.kernel,
                group=rep.group_id,
            )
            tracer.metrics.counter(f"sanitize.violations.{rep.kind}").inc()
            # a counter *track* sample, so violation traces carry a ph='C'
            # series (trace validation requires counters on every export)
            tracer.counter("sanitize.violations", **{rep.kind: float(count)})
        raise exc_cls(rep.format(), rep)


class GroupCheck:
    """Shadow state and detector logic for one executing work-group."""

    def __init__(
        self,
        sanitizer: Sanitizer,
        kernel_name: str,
        group_id: int,
        local_size: int,
        sub_group_size: int,
        sub_groups_per_group: int,
    ) -> None:
        self.sanitizer = sanitizer
        self.config = sanitizer.config
        self.kernel = kernel_name
        self.group_id = group_id
        self.local_size = local_size
        self.sub_group_size = sub_group_size
        #: the work-item currently advanced by the executor (None = host).
        self.current: Any = None
        #: barrier epochs: bumped on group barriers (group_epoch and every
        #: sub-group epoch) and on sub-group barriers (that sub-group only).
        self.group_epoch = 0
        self.sub_epochs = [0] * sub_groups_per_group
        #: completed synchronization operations per work-item (diagnostics).
        self.sync_counts = [0] * local_size
        self._arrays: list[ShadowArray] = []

    # -- wiring --------------------------------------------------------------

    def wrap_local(self, local) -> ShadowLocal:
        """Checked view over the group's SLM namespace."""
        return wrap_local(local, self)

    def track_array(self, array: ShadowArray) -> None:
        """Register an SLM array for epoch bookkeeping."""
        self._arrays.append(array)

    def set_current(self, item: Any) -> None:
        """Tell the shadow state which work-item executes next."""
        self.current = item

    # -- memory detectors ----------------------------------------------------

    def _access(self, site: AccessSite | None) -> tuple:
        item = self.current
        sg = item.sub_group_id
        return (item.local_id, sg, self.group_epoch, self.sub_epochs[sg], site)

    def _conflicting(self, a: tuple, b: tuple) -> bool:
        """No barrier orders ``a`` and ``b`` (items known to differ)."""
        if a[ACC_SG] == b[ACC_SG]:
            # same sub-group: a sub-group *or* group barrier between the two
            # accesses would have bumped the sub-group epoch
            return a[ACC_SUBEPOCH] == b[ACC_SUBEPOCH]
        # different sub-groups: only a group barrier orders them
        return a[ACC_GEPOCH] == b[ACC_GEPOCH]

    def on_read(self, array: ShadowArray, flats: Iterable[int]) -> None:
        """Validate and record one read access of ``array``."""
        if self.current is None:
            return  # host-side inspection (tests poking at SLM) is unchecked
        cfg = self.config
        self.sanitizer.stats.slm_accesses += 1
        site = caller_site() if cfg.record_sites else None
        acc = self._access(site)
        for flat in flats:
            if cfg.check_uninit and not array.init[flat]:
                self._raise_uninit(array, flat, acc)
            if cfg.check_races:
                w = array.writes.get(flat)
                if w is not None and w[ACC_ITEM] != acc[ACC_ITEM] and self._conflicting(w, acc):
                    self._raise_race(array, flat, w, acc, "write", "read")
            array.reads.setdefault(flat, {})[acc[ACC_ITEM]] = acc

    def on_write(self, array: ShadowArray, flats: Iterable[int]) -> None:
        """Validate and record one write access of ``array``."""
        if self.current is None:
            return
        cfg = self.config
        self.sanitizer.stats.slm_accesses += 1
        site = caller_site() if cfg.record_sites else None
        acc = self._access(site)
        for flat in flats:
            if cfg.check_races:
                w = array.writes.get(flat)
                if w is not None and w[ACC_ITEM] != acc[ACC_ITEM] and self._conflicting(w, acc):
                    self._raise_race(array, flat, w, acc, "write", "write")
                for r in array.reads.get(flat, {}).values():
                    if r[ACC_ITEM] != acc[ACC_ITEM] and self._conflicting(r, acc):
                        self._raise_race(array, flat, r, acc, "read", "write")
            array.writes[flat] = acc
            array.init[flat] = True

    def oob(self, array: ShadowArray, idx) -> None:
        """Out-of-bounds index on an SLM array (always fatal when checked)."""
        if not self.config.check_bounds:
            # still stop the access: NumPy would wrap negative indices,
            # silently corrupting a neighbouring cell
            raise SlmOutOfBoundsError(
                f"SLM index {idx!r} outside {array.name}{array.shape}", None
            )
        site = caller_site() if self.config.record_sites else None
        items = (self.current.local_id,) if self.current is not None else ()
        rep = SanitizerReport(
            kind=_report.OOB_ACCESS,
            kernel=self.kernel,
            group_id=self.group_id,
            message=(
                f"out-of-bounds SLM access: index {idx!r} outside the declared "
                f"shape {array.shape} of {array.name!r}"
            ),
            array=array.name,
            index=idx,
            items=items,
            sites=(str(site),) if site else (),
        )
        self.sanitizer.violation(SlmOutOfBoundsError, rep)

    def _raise_uninit(self, array: ShadowArray, flat: int, acc: tuple) -> None:
        import numpy as np

        index = tuple(int(c) for c in np.unravel_index(flat, array.shape))
        index = index[0] if len(index) == 1 else index
        rep = SanitizerReport(
            kind=_report.UNINIT_READ,
            kernel=self.kernel,
            group_id=self.group_id,
            message=(
                f"work-item {acc[ACC_ITEM]} read {array.name}[{index}] before any "
                f"work-item wrote it (SLM is uninitialized on real hardware)"
            ),
            array=array.name,
            index=index,
            items=(acc[ACC_ITEM],),
            sites=(str(acc[ACC_SITE]),) if acc[ACC_SITE] else (),
        )
        self.sanitizer.violation(UninitializedSlmReadError, rep)

    def _raise_race(
        self,
        array: ShadowArray,
        flat: int,
        first: tuple,
        second: tuple,
        first_kind: str,
        second_kind: str,
    ) -> None:
        import numpy as np

        index = tuple(int(c) for c in np.unravel_index(flat, array.shape))
        index = index[0] if len(index) == 1 else index
        sites = tuple(
            str(a[ACC_SITE]) for a in (first, second) if a[ACC_SITE] is not None
        )
        rep = SanitizerReport(
            kind=_report.SLM_RACE,
            kernel=self.kernel,
            group_id=self.group_id,
            message=(
                f"SLM data race on {array.name}[{index}]: {first_kind} by "
                f"work-item {first[ACC_ITEM]} and {second_kind} by work-item "
                f"{second[ACC_ITEM]} with no barrier between them"
            ),
            array=array.name,
            index=index,
            items=(first[ACC_ITEM], second[ACC_ITEM]),
            sites=sites,
            details={
                "first_access": f"{first_kind} @ group_epoch {first[ACC_GEPOCH]}",
                "second_access": f"{second_kind} @ group_epoch {second[ACC_GEPOCH]}",
            },
        )
        self.sanitizer.violation(SlmRaceError, rep)

    # -- synchronization detectors -------------------------------------------

    def check_assembly(self, op, member_states: list, scope_desc: str) -> None:
        """Checks at the moment a scope has fully assembled on one op.

        ``member_states`` are the executor's work-item states (carrying
        ``item``, ``pending`` and the captured yield ``site``).
        """
        cfg = self.config
        if cfg.check_barrier_sites:
            sites = {s.site for s in member_states if s.site is not None}
            if len(sites) > 1:
                self._raise_site_divergence(op, member_states, sites, scope_desc)
        if cfg.check_collectives:
            self._check_widths(op, member_states, scope_desc)

    def _raise_site_divergence(self, op, member_states, sites, scope_desc) -> None:
        items = tuple(s.item.local_id for s in member_states)
        rendered = tuple(sorted(str(site) for site in sites))
        if op.kind == "barrier":
            rep = SanitizerReport(
                kind=_report.BARRIER_DIVERGENCE,
                kernel=self.kernel,
                group_id=self.group_id,
                message=(
                    f"work-items of {scope_desc} synchronized on *different* "
                    f"barrier statements (undefined behaviour: every work-item "
                    f"must execute the same barrier)"
                ),
                items=items,
                sites=rendered,
            )
            self.sanitizer.violation(BarrierDivergenceError, rep)
        rep = SanitizerReport(
            kind=_report.COLLECTIVE_MISUSE,
            kernel=self.kernel,
            group_id=self.group_id,
            message=(
                f"{op.kind} collective over {scope_desc} entered from different "
                f"call sites — group functions must be encountered in converged "
                f"control flow"
            ),
            items=items,
            sites=rendered,
        )
        self.sanitizer.violation(CollectiveMisuseError, rep)

    def _check_widths(self, op, member_states, scope_desc) -> None:
        width = self.sub_group_size if op.scope == _SUB_GROUP else self.local_size
        bad: str | None = None
        if op.kind == "shuffle":
            direction, delta = op.params
            if not 0 <= int(delta) < width:
                bad = (
                    f"shuffle ({direction}) with delta/mask {delta} cannot address "
                    f"any lane of a sub-group of size {width} — the kernel "
                    f"assumes a different dispatched sub-group width"
                )
        elif op.kind == "broadcast":
            src = int(op.params[0])
            if not 0 <= src < width:
                bad = (
                    f"broadcast source {src} outside the {scope_desc} "
                    f"(size {width})"
                )
        if bad is None:
            return
        items = tuple(s.item.local_id for s in member_states)
        sites = tuple(
            sorted({str(s.site) for s in member_states if s.site is not None})
        )
        rep = SanitizerReport(
            kind=_report.COLLECTIVE_MISUSE,
            kernel=self.kernel,
            group_id=self.group_id,
            message=bad,
            items=items,
            sites=sites,
            details={"op": op.kind, "params": op.params, "scope_size": width},
        )
        self.sanitizer.violation(CollectiveMisuseError, rep)

    def on_sync_complete(self, op, member_local_ids: Iterable[int], sg_id: int | None) -> None:
        """Advance the happens-before epochs after one completed sync op."""
        self.sanitizer.stats.syncs += 1
        for lid in member_local_ids:
            self.sync_counts[lid] += 1
        fences = op.kind == "barrier" or self.config.collectives_fence
        if not fences:
            return
        if op.scope == _GROUP:
            self.group_epoch += 1
            self.sub_epochs = [epoch + 1 for epoch in self.sub_epochs]
            for array in self._arrays:
                array.writes.clear()
                array.reads.clear()
        elif sg_id is not None:
            self.sub_epochs[sg_id] += 1

    def classify_deadlock(self, states: list) -> None:
        """Diagnose a stuck work-group (no scope can assemble) and raise.

        Pure collective non-participation gets the collective-misuse class;
        anything involving a barrier (or mixed sync ops) is barrier
        divergence, reported with per-item completed-barrier counts.
        """
        done = [s.item.local_id for s in states if s.pending is None]
        waiting = {
            s.item.local_id: (s.pending.signature(), str(s.site) if s.site else "?")
            for s in states
            if s.pending is not None
        }
        kinds = {sig[0] for sig, _ in waiting.values()}
        items = tuple(sorted(waiting))
        sites = tuple(sorted({site for _, site in waiting.values()}))
        if kinds and "barrier" not in kinds:
            rep = SanitizerReport(
                kind=_report.COLLECTIVE_MISUSE,
                kernel=self.kernel,
                group_id=self.group_id,
                message=(
                    f"non-uniform participation in {sorted(kinds)} collective(s): "
                    f"work-items {sorted(waiting)} entered the operation while "
                    f"work-items {done} exited or diverged — every member of the "
                    f"scope must participate"
                ),
                items=items,
                sites=sites,
                details={"finished_items": done, "waiting": _render_waiting(waiting)},
            )
            self.sanitizer.violation(CollectiveMisuseError, rep)
        rep = SanitizerReport(
            kind=_report.BARRIER_DIVERGENCE,
            kernel=self.kernel,
            group_id=self.group_id,
            message=(
                "barrier divergence: work-items of the group executed different "
                "barrier counts or stopped at different synchronization "
                "operations, so no scope can assemble"
            ),
            items=items,
            sites=sites,
            details={
                "finished_items": done,
                "waiting": _render_waiting(waiting),
                "completed_syncs_per_item": list(self.sync_counts),
            },
        )
        self.sanitizer.violation(BarrierDivergenceError, rep)


def _render_waiting(waiting: dict) -> dict:
    """Compact ``{local_id: 'op @ site'}`` rendering for reports."""
    return {
        lid: f"{sig[0]}:{sig[1]} @ {site}" for lid, (sig, site) in sorted(waiting.items())
    }


def format_summary(sanitizer: Sanitizer) -> str:
    """One-paragraph text summary (CLI footer)."""
    s = sanitizer.stats
    head = (
        f"sanitizer: {s.launches} launches / {s.work_groups} work-groups checked, "
        f"{s.slm_accesses} SLM accesses, {s.syncs} sync operations"
    )
    if not s.violations:
        return head + " — no violations"
    parts = ", ".join(f"{kind}: {count}" for kind, count in sorted(s.violations.items()))
    return head + f" — VIOLATIONS ({parts})"


# Re-exported detector-kind constants (stable public names).
SLM_RACE = _report.SLM_RACE
UNINIT_READ = _report.UNINIT_READ
OOB_ACCESS = _report.OOB_ACCESS
BARRIER_DIVERGENCE = _report.BARRIER_DIVERGENCE
COLLECTIVE_MISUSE = _report.COLLECTIVE_MISUSE

__all__ = [
    "Sanitizer",
    "SanitizerConfig",
    "SanitizerStats",
    "GroupCheck",
    "format_summary",
    "SanitizerError",
    "SLM_RACE",
    "UNINIT_READ",
    "OOB_ACCESS",
    "BARRIER_DIVERGENCE",
    "COLLECTIVE_MISUSE",
]

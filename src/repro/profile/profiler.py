"""The measured-counter profiler threaded through the simulators.

A :class:`Profiler` collects :class:`~repro.profile.counters.KernelProfile`
records keyed by kernel name. The executor (shared by the SYCL queue and
the CUDA stream — :func:`repro.sycl.executor.launch`) reads
``repro.instruments.current().profiler`` once per launch; when one
is installed it opens a :class:`LaunchProfile`, wraps the launch's global
arrays and every work-group's SLM in counting proxies, and reports each
completed collective and divergence event. The launch's counters merge
into the profiler under a lock at launch end, so concurrent launches
(e.g. the serve worker pool) never contend during execution.

Attribution machinery: the executor primes :meth:`LaunchProfile.set_current`
around every generator advance (exactly like the sanitizer's
``GroupCheck``), so the phase each work-item last declared via
:func:`~repro.profile.context.kernel_phase` is restored whenever that
item runs — phases are per-work-item state, counters are per-phase
accumulators.
"""

from __future__ import annotations

import threading
from typing import Any

from repro.profile.counters import KernelProfile, PhaseCounters
from repro.profile.proxy import wrap_args, wrap_local

_OTHER = "other"


class LaunchProfile:
    """Counter collection state of one kernel launch (single-threaded)."""

    __slots__ = (
        "kernel_name",
        "device",
        "num_groups",
        "phases",
        "_item_phase",
        "_gid",
        "_cur",
    )

    def __init__(
        self, kernel_name: str, device: str | None = None, num_groups: int = 0
    ) -> None:
        self.kernel_name = kernel_name
        self.device = device
        self.num_groups = num_groups
        self.phases: dict[str, PhaseCounters] = {}
        self._item_phase: dict[int, str] = {}  # global_id -> current phase
        self._gid: int = -1
        self._cur: PhaseCounters = self._phase(_OTHER)

    def _phase(self, name: str) -> PhaseCounters:
        counters = self.phases.get(name)
        if counters is None:
            counters = self.phases[name] = PhaseCounters()
        return counters

    # -- executor hooks -------------------------------------------------------

    def set_current(self, item: Any) -> None:
        """Prime the profile for one work-item's advance (``None`` = leave).

        Restores the item's phase so counters recorded while its generator
        runs land in the right bucket.
        """
        if item is None:
            return
        gid = item.global_id
        self._gid = gid
        self._cur = self._phase(self._item_phase.get(gid, _OTHER))

    def enter_phase(self, name: str) -> None:
        """Switch the *current work-item* into solver phase ``name``."""
        self._item_phase[self._gid] = name
        self._cur = self._phase(name)

    def phase_of(self, item: Any) -> str:
        """The phase a work-item last declared (``other`` before markers)."""
        return self._item_phase.get(item.global_id, _OTHER)

    def on_collective(self, kind: str, scope: str, member_item: Any) -> None:
        """Record one completed collective, attributed to the members' phase."""
        counters = self._phase(self.phase_of(member_item))
        if kind == "barrier":
            counters.barriers += 1
        elif scope == "sub_group":
            counters.sub_group_collectives += 1
        else:
            counters.group_collectives += 1

    def on_divergence(self, member_item: Any) -> None:
        """Record one divergence event (sub-group collective completing
        while a sibling work-item sat elsewhere)."""
        self._phase(self.phase_of(member_item)).divergence_events += 1

    # -- kernel-side counter API ---------------------------------------------

    def add_flops(self, count: int) -> None:
        """Hand-counted floating-point operations (see counter conventions)."""
        self._cur.flops += count

    def on_global_read(self, nbytes: int) -> None:
        """Bytes read from a global array (proxy callback)."""
        self._cur.global_read_bytes += nbytes

    def on_global_write(self, nbytes: int) -> None:
        """Bytes written to a global array (proxy callback)."""
        self._cur.global_write_bytes += nbytes

    def on_slm_read(self, nbytes: int) -> None:
        """Bytes read from shared local memory (proxy callback)."""
        self._cur.slm_read_bytes += nbytes

    def on_slm_write(self, nbytes: int) -> None:
        """Bytes written to shared local memory (proxy callback)."""
        self._cur.slm_write_bytes += nbytes

    # -- wrapping -------------------------------------------------------------

    def wrap_args(self, args: tuple) -> tuple:
        """Counting proxies around the launch's global ndarray arguments."""
        return wrap_args(args, self.on_global_read, self.on_global_write)

    def wrap_local(self, local: Any) -> Any:
        """Counting proxies around one work-group's SLM namespace."""
        return wrap_local(local, self.on_slm_read, self.on_slm_write)


class Profiler:
    """Aggregated measured counters per kernel name (thread-safe rollup)."""

    def __init__(self) -> None:
        self.kernels: dict[str, KernelProfile] = {}
        self._lock = threading.Lock()

    # -- executor protocol ----------------------------------------------------

    def begin_launch(
        self, kernel_name: str, num_groups: int, device: str | None = None
    ) -> LaunchProfile:
        """Open the per-launch collection state (single executor thread)."""
        return LaunchProfile(kernel_name, device=device, num_groups=num_groups)

    def end_launch(self, launch: LaunchProfile) -> None:
        """Fold a finished launch's counters into the per-kernel rollup."""
        with self._lock:
            profile = self.kernels.get(launch.kernel_name)
            if profile is None:
                profile = self.kernels[launch.kernel_name] = KernelProfile(
                    launch.kernel_name, device=launch.device
                )
            profile.launches += 1
            if profile.device is None:
                profile.device = launch.device
            for name, counters in launch.phases.items():
                # an all-zero bucket (e.g. "other" before the first marker)
                # would only add noise to the attribution report
                if any(counters.as_dict().values()):
                    profile.phase(name).merge(counters)

    # -- inspection -----------------------------------------------------------

    def profile_for(self, kernel_name: str) -> KernelProfile:
        """The rollup of one kernel (KeyError if it never launched)."""
        with self._lock:
            return self.kernels[kernel_name]

    def kernel_names(self) -> list[str]:
        """Sorted names of every kernel that launched under this profiler."""
        with self._lock:
            return sorted(self.kernels)

    def totals(self) -> PhaseCounters:
        """Counters summed over every kernel and phase collected so far."""
        total = PhaseCounters()
        with self._lock:
            for profile in self.kernels.values():
                total.merge(profile.totals())
        return total

    def snapshot(self) -> dict[str, dict[str, Any]]:
        """``{kernel: nested counter dict}`` — bitwise-stable across runs."""
        with self._lock:
            profiles = list(self.kernels.values())
        return {p.name: p.as_dict() for p in sorted(profiles, key=lambda p: p.name)}

    def merge(self, other: "Profiler") -> None:
        """Fold another profiler's rollups into this one."""
        with other._lock:
            profiles = list(other.kernels.values())
        with self._lock:
            for incoming in profiles:
                mine = self.kernels.get(incoming.name)
                if mine is None:
                    self.kernels[incoming.name] = incoming
                else:
                    mine.merge(incoming)

    def reset(self) -> None:
        """Drop every collected profile."""
        with self._lock:
            self.kernels.clear()

"""The launch in flight, for the kernels' phase markers.

The execution-model simulators never take a profiler parameter: the
executor reads ``repro.instruments.current().profiler`` at launch time and
gets ``None`` when counter collection is off, so unprofiled launches pay
a single contextvar lookup. Profiled regions install a
:class:`~repro.profile.Profiler` with ``repro.instruments.use(profiler=...)``.

While the executor is advancing a kernel's work-items it installs the
launch's :class:`~repro.profile.profiler.LaunchProfile` in a contextvar of
its own so the lightweight phase markers in :mod:`repro.kernels`
(:func:`kernel_phase`) can find it without any parameter threading. When
no profiler is installed the marker costs one contextvar lookup
returning ``None``.
"""

from __future__ import annotations

import contextvars
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from repro.profile.profiler import LaunchProfile

_ACTIVE_LAUNCH: contextvars.ContextVar["LaunchProfile | None"] = contextvars.ContextVar(
    "repro_profile_active_launch", default=None
)


def set_active_launch(launch: "LaunchProfile | None") -> contextvars.Token:
    """Install the launch being executed; returns the reset token."""
    return _ACTIVE_LAUNCH.set(launch)


def reset_active_launch(token: contextvars.Token) -> None:
    """Undo :func:`set_active_launch`."""
    _ACTIVE_LAUNCH.reset(token)


def active_launch() -> "LaunchProfile | None":
    """The :class:`LaunchProfile` of the launch in flight (``None`` = off)."""
    return _ACTIVE_LAUNCH.get()


def kernel_phase(name: str) -> "LaunchProfile | None":
    """Phase marker: attribute subsequent counters to solver phase ``name``.

    Called from inside kernel code (``kernel_phase("spmv")``); the phase
    sticks to the *calling work-item* until its next marker. Returns the
    active :class:`LaunchProfile` so kernels can hand-count FLOPs::

        prof = kernel_phase("blas1")
        ...
        if prof:
            prof.add_flops(2)

    When no profiler is installed this is a single contextvar lookup
    returning ``None`` — the marker is near-free on the production path.
    """
    launch = _ACTIVE_LAUNCH.get()
    if launch is not None:
        launch.enter_phase(name)
    return launch

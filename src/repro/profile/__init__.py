"""repro.profile — measured kernel counters with phase-level attribution.

Layer 8 of the stack: a hardware-counter-style profiler for the simulated
execution model. While a :class:`~repro.profile.profiler.Profiler` is
installed (``repro.instruments.use(profiler=...)``), every kernel
launch on either backend counts FLOPs, global-memory and SLM bytes,
barriers, group/sub-group collectives and divergence events, attributed
to solver phases (``spmv``, ``precond``, ``blas1``, ``reduction``) via
the :func:`~repro.profile.context.kernel_phase` markers inside the
kernels. When no profiler is installed the whole layer costs one
contextvar lookup per launch plus one per phase marker.

On top of the raw counters sit the attribution report
(:mod:`repro.profile.report`), flamegraph-ready folded-stack export
(:mod:`repro.profile.folded`) and measured-roofline placement with model
drift detection (:mod:`repro.profile.roofline`).
"""

from repro.profile.context import kernel_phase
from repro.profile.counters import PHASES, KernelProfile, PhaseCounters
from repro.profile.profiler import LaunchProfile, Profiler

__all__ = [
    "PHASES",
    "KernelProfile",
    "LaunchProfile",
    "PhaseCounters",
    "Profiler",
    "kernel_phase",
]

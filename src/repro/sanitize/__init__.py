"""Kernel sanitizer for the simulated SYCL/CUDA execution model.

An opt-in checking layer over :mod:`repro.sycl` and :mod:`repro.cudasim`:
install a :class:`Sanitizer` with ``repro.instruments.use(sanitizer=...)``
(or ``python -m repro run --with sanitize <cmd>``) and every kernel launch
is executed under shadow state detecting SLM data races, uninitialized and
out-of-bounds SLM accesses, barrier divergence, and group/sub-group
collective misuse.
Violations raise subclasses of :class:`~repro.exceptions.SanitizerError`
carrying a structured :class:`SanitizerReport`.

The differential harness lives in :mod:`repro.sanitize.diff` and the
mutation self-test battery in :mod:`repro.sanitize.selftest`; both are
imported lazily (not here) to keep this package importable from inside
the executor without cycles.
"""

from repro.exceptions import (
    BarrierDivergenceError,
    CollectiveMisuseError,
    SanitizerError,
    SlmOutOfBoundsError,
    SlmRaceError,
    UninitializedSlmReadError,
)
from repro.sanitize.report import (
    ALL_KINDS,
    BARRIER_DIVERGENCE,
    COLLECTIVE_MISUSE,
    OOB_ACCESS,
    SLM_RACE,
    UNINIT_READ,
    AccessSite,
    SanitizerReport,
)
from repro.sanitize.sanitizer import (
    GroupCheck,
    Sanitizer,
    SanitizerConfig,
    SanitizerStats,
    format_summary,
)
from repro.sanitize.shadow import ShadowArray, ShadowLocal

__all__ = [
    "Sanitizer",
    "SanitizerConfig",
    "SanitizerStats",
    "GroupCheck",
    "SanitizerReport",
    "AccessSite",
    "ShadowArray",
    "ShadowLocal",
    "format_summary",
    "SanitizerError",
    "SlmRaceError",
    "UninitializedSlmReadError",
    "SlmOutOfBoundsError",
    "CollectiveMisuseError",
    "BarrierDivergenceError",
    "SLM_RACE",
    "UNINIT_READ",
    "OOB_ACCESS",
    "BARRIER_DIVERGENCE",
    "COLLECTIVE_MISUSE",
    "ALL_KINDS",
]

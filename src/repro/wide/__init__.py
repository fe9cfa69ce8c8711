"""repro.wide — NumPy-vectorized lockstep execution backend.

The third execution backend (after the faithful SYCL interpreter and the
CUDA-dialect stream): one Python generator per *work-group* instead of
one per work-item, with the lane axis materialized as NumPy arrays and
every :class:`~repro.sycl.group.SyncOp` collective evaluated over the
whole lane axis by the faithful interpreter's own evaluator. Runs the
same kernel sources in :mod:`repro.kernels` unmodified and returns the
same bits — see ``docs/wide_backend.md``.
"""

from repro.wide.executor import (
    WideItem,
    run_work_group_wide,
    wide_launch,
)
from repro.wide.lanes import (
    LaneArray,
    LaneIndex,
    LaneMask,
    WideArray,
    wide_float,
    wide_int,
    wide_range,
)
from repro.wide.lower import lower_kernel
from repro.wide.queue import WideQueue

__all__ = [
    "LaneArray",
    "LaneIndex",
    "LaneMask",
    "WideArray",
    "WideItem",
    "WideQueue",
    "lower_kernel",
    "run_work_group_wide",
    "wide_launch",
    "wide_float",
    "wide_int",
    "wide_range",
]

"""A CUDA-flavoured view of the execution-model simulator.

The paper's baseline is Ginkgo's CUDA implementation of the batched
solvers. Its kernels differ from the SYCL port in one important way
(Section 3.2): CUDA has no efficient *thread-block level* reduction
primitive, so reductions are composed from warp-level shuffles plus a
shared-memory combination stage, whereas SYCL offers
``reduce_over_group`` directly.

This package reuses the cooperative executor of :mod:`repro.sycl` but
exposes CUDA semantics and vocabulary:

* the warp width is fixed at 32 (``WARP_SIZE``);
* :class:`~repro.cudasim.thread.CudaItem` offers ``syncthreads``,
  ``shfl_down``/``shfl_up``/``shfl_xor`` and warp ``ballot``-style
  any/all — but deliberately **no** block-scope reduction primitive;
* :class:`~repro.cudasim.stream.Stream` is a :class:`repro.sycl.queue.Queue`
  on an A100 with ``launch_kernel`` as the CUDA spelling of a launch.

Block-level reductions must therefore be written the CUDA way — see
:func:`repro.kernels.blas1.block_reduce_cuda` — which is exactly the
code-structure difference the paper calls out between the two backends.
"""

from repro.cudasim.device import CudaDevice, a100_device, h100_device
from repro.cudasim.thread import WARP_SIZE, CudaItem
from repro.cudasim.stream import Stream, LaunchConfig

__all__ = [
    "CudaDevice",
    "a100_device",
    "h100_device",
    "WARP_SIZE",
    "CudaItem",
    "Stream",
    "LaunchConfig",
]

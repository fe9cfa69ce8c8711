"""CUDA stream: kernel submission with launch statistics.

A :class:`Stream` is a :class:`repro.sycl.queue.Queue` on an A100 by
default. :meth:`Stream.launch_kernel` is the CUDA spelling of
``parallel_for`` for kernels written against
:class:`~repro.cudasim.thread.CudaItem`; events, host tasks
(``cudaLaunchHostFunc``) and kernel spans are ``Queue``'s own code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

from repro.cudasim.device import CudaDevice, a100_device
from repro.cudasim.thread import cuda_nd_range, wrap_cuda_kernel
from repro.sycl.memory import LocalSpec
from repro.sycl.queue import Event, Queue


@dataclass(frozen=True)
class LaunchConfig:
    """The execution configuration of a CUDA kernel launch."""

    grid_dim: int
    block_dim: int

    def __post_init__(self) -> None:
        if self.grid_dim <= 0 or self.block_dim <= 0:
            raise ValueError(
                f"grid and block dimensions must be positive, got "
                f"<<<{self.grid_dim}, {self.block_dim}>>>"
            )


class Stream(Queue):
    """An in-order CUDA stream bound to a device."""

    def __init__(self, device: CudaDevice | None = None) -> None:
        super().__init__(device if device is not None else a100_device())

    def launch_kernel(
        self,
        config: LaunchConfig,
        kernel: Callable[..., Any],
        args: tuple = (),
        shared_specs: list[LocalSpec] | None = None,
        name: str | None = None,
    ) -> Event:
        """Launch a CUDA-style kernel and wait for completion."""
        return self.parallel_for(
            cuda_nd_range(config.grid_dim, config.block_dim),
            wrap_cuda_kernel(kernel),
            args=args,
            local_specs=shared_specs,
            name=name,
        )

    def synchronize(self) -> None:
        """Block until all submitted work completes (no-op: synchronous)."""

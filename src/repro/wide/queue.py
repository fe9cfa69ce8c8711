"""The wide backend's queue: same SYCL surface, lockstep execution.

:class:`WideQueue` is a :class:`~repro.sycl.queue.Queue` that names
:func:`repro.wide.executor.wide_launch` as its executor and tags its kernel
spans ``backend="wide"``. Events, the submission log, host tasks and the
spans themselves are ``Queue``'s own code, so callers consume wide
launches through the same interfaces.
"""

from __future__ import annotations

from repro.sycl.queue import Queue
from repro.wide.executor import wide_launch


class WideQueue(Queue):
    """An in-order queue executing launches on the lockstep wide backend."""

    executor = staticmethod(wide_launch)
    kernel_span_args = {"backend": "wide"}

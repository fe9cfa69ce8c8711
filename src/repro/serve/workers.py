"""The worker pool: one thread per simulated device queue/stream.

Each worker owns a backend context built by the one backend-to-queue map,
:func:`repro.kernels.queue_for` — a :class:`repro.sycl.queue.Queue` or a
lockstep :class:`repro.wide.queue.WideQueue` on a PVC stack device, or a
:class:`repro.cudasim.stream.Stream` on an A100 — and drains its own job
queue. Flushed batches are submitted to the
least-loaded worker and executed as *host tasks* on that worker's
queue/stream, in order, each on the worker's own trace lane (``tid`` =
:data:`WORKER_LANE_BASE` + index), the same one-row-per-device picture
:mod:`repro.multi` paints for distributed solves. The worker clears its
context's event log after every job, so a long-running service holds no
per-flush events.
"""

from __future__ import annotations

import contextvars
import queue as _queue
import threading
import traceback
from typing import Any, Callable

from repro.kernels import queue_for
from repro.sycl.device import SyclDevice

#: Chrome-trace lane of worker 0 (multi-rank lanes start at 100).
WORKER_LANE_BASE = 200

_STOP = object()


class Worker(threading.Thread):
    """One serving thread bound to a simulated device context."""

    def __init__(self, index: int, backend: str, device: SyclDevice | None = None) -> None:
        super().__init__(name=f"serve-worker-{index}", daemon=True)
        self.index = index
        self.context = queue_for(backend, device)
        self.jobs: _queue.Queue = _queue.Queue()
        self.completed = 0

    @property
    def device_name(self) -> str:
        """Marketing name of the simulated device this worker drives."""
        return self.context.device.name

    @property
    def lane(self) -> int:
        """Chrome-trace ``tid`` lane of this worker."""
        return WORKER_LANE_BASE + self.index

    def run(self) -> None:
        while True:
            item = self.jobs.get()
            if item is _STOP:
                break
            ctx, job = item
            try:
                # run under the submitter's captured contextvars so the
                # ambient trace context (and any open-span stack) at submit
                # time flows into the host task — and each job's own span
                # stack stays isolated from its neighbours on this thread
                ctx.run(job, self)
            except Exception:  # the job owns error delivery; never kill the thread
                traceback.print_exc()
            finally:
                self.context.reset_events()
                self.completed += 1
                self.jobs.task_done()

    def stop(self) -> None:
        """Ask the worker to exit after its queued jobs."""
        self.jobs.put(_STOP)


class WorkerPool:
    """Least-loaded dispatch over ``num_workers`` device-bound threads."""

    def __init__(
        self,
        num_workers: int,
        backend: str = "sycl",
        device: SyclDevice | None = None,
    ) -> None:
        if num_workers <= 0:
            raise ValueError(f"num_workers must be positive, got {num_workers}")
        self.workers = [Worker(i, backend, device) for i in range(num_workers)]
        self._lock = threading.Lock()
        self._rr = 0
        for worker in self.workers:
            worker.start()

    @property
    def size(self) -> int:
        """Number of workers."""
        return len(self.workers)

    def submit(self, job: Callable[[Worker], Any]) -> Worker:
        """Enqueue ``job`` on the least-loaded worker; ties break round-robin.

        The submitter's ``contextvars`` snapshot travels with the job, so
        request-scoped trace context crosses the thread boundary intact.
        """
        with self._lock:
            depths = [w.jobs.qsize() for w in self.workers]
            best = min(depths)
            # round-robin over the workers at the minimum depth
            order = [(self._rr + i) % len(self.workers) for i in range(len(self.workers))]
            chosen = next(i for i in order if depths[i] == best)
            self._rr = (chosen + 1) % len(self.workers)
        worker = self.workers[chosen]
        worker.jobs.put((contextvars.copy_context(), job))
        return worker

    def join(self) -> None:
        """Block until every queued job has been executed."""
        for worker in self.workers:
            worker.jobs.join()

    def close(self) -> None:
        """Drain queued jobs, then stop and join every worker thread."""
        for worker in self.workers:
            worker.stop()
        for worker in self.workers:
            worker.join()

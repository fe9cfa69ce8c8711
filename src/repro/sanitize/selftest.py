"""Mutation self-tests: seeded kernel bugs the sanitizer must catch.

Each case pairs a *mutant* kernel carrying one representative bug from the
paper's kernel idiom (SLM-staged vectors, barrier-separated phases,
sub-group collectives) with the detector class the sanitizer must flag it
as. A matching *clean* battery runs bug-free counterparts that must pass
without a report — the sanitizer's own false-positive regression test.

Run via ``python -m repro sanitize selftest`` or
:func:`run_selftest`; the CLI exits non-zero unless every mutant is
caught with the right diagnostic and every clean kernel passes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.exceptions import BarrierDivergenceError, SanitizerError
from repro.instruments import use

#: Everything the sanitizer raises: BarrierDivergenceError predates the
#: sanitizer (the bare executor raises it too) so it is not a SanitizerError.
SANITIZER_EXCEPTIONS = (SanitizerError, BarrierDivergenceError)
from repro.sanitize import report as _report
from repro.sanitize.sanitizer import Sanitizer, SanitizerConfig
from repro.sycl.memory import LocalSpec
from repro.sycl.ndrange import NDRange
from repro.sycl.queue import Queue

#: Geometry shared by every self-test kernel: two sub-groups of four.
_WG, _SG, _GROUPS = 8, 4, 1


# -- mutant kernels ----------------------------------------------------------


def _racy_write_kernel(item, slm, out):
    """Every work-item writes SLM cell 0 — a classic reduction-gone-wrong."""
    slm.buf[0] = float(item.local_id)
    yield item.barrier()
    out[item.global_id] = slm.buf[0]


def _read_write_race_kernel(item, slm, out):
    """Work-item 0 reads a cell its neighbour writes in the same phase."""
    slm.buf[item.local_id] = 1.0
    yield item.barrier()
    if item.local_id == 0:
        out[item.global_id] = slm.buf[1]
    slm.buf[1] = 2.0
    yield item.barrier()


def _missing_barrier_kernel(item, slm, out):
    """Producer/consumer with the barrier between the phases deleted."""
    slm.buf[item.local_id] = 0.0
    yield item.barrier()
    slm.buf[item.local_id] = float(item.local_id)
    out[item.global_id] = slm.buf[(item.local_id + 1) % item.local_range]
    yield item.barrier()


def _divergent_barrier_count_kernel(item, slm, out):
    """Half the group executes one extra barrier (divergent loop trip)."""
    slm.buf[item.local_id] = 1.0
    yield item.barrier()
    if item.local_id < item.local_range // 2:
        yield item.barrier()
    out[item.global_id] = slm.buf[item.local_id]


def _split_site_barrier_kernel(item, slm, out):
    """Both halves barrier the same number of times — at different lines."""
    slm.buf[item.local_id] = 1.0
    if item.local_id % 2 == 0:
        yield item.barrier()
    else:
        yield item.barrier()
    out[item.global_id] = slm.buf[item.local_id]


def _uninit_read_kernel(item, slm, out):
    """Reads an SLM cell nothing ever wrote (zero-fill would mask it)."""
    slm.buf[item.local_id] = 1.0
    yield item.barrier()
    out[item.global_id] = slm.buf[item.local_id] + slm.extra[0]


def _oob_kernel(item, slm, out):
    """Indexes one cell past the declared accessor shape."""
    slm.buf[item.local_id + 1] = 1.0
    yield item.barrier()
    out[item.global_id] = 0.0


def _negative_index_kernel(item, slm, out):
    """Negative SLM index: NumPy would wrap, hardware would corrupt."""
    slm.buf[item.local_id - item.local_range] = 1.0
    yield item.barrier()
    out[item.global_id] = 0.0


def _partial_reduce_kernel(item, slm, out):
    """One lane skips the sub-group reduction its siblings entered."""
    if item.lane == 0:
        out[item.global_id] = 0.0
        return
    total = yield item.reduce_over_sub_group(1.0, "sum")
    out[item.global_id] = total


def _wide_shuffle_kernel(item, slm, out):
    """Shuffle delta equal to the sub-group size: no lane can supply it."""
    other = yield item.shift_sub_group_left(float(item.lane), item.sub_group_range)
    out[item.global_id] = other
    yield item.barrier()


def _wide_broadcast_kernel(item, slm, out):
    """Broadcast from a source lane outside the sub-group."""
    value = yield item.broadcast_over_sub_group(float(item.lane), item.sub_group_range + 1)
    out[item.global_id] = value


# -- clean counterparts ------------------------------------------------------


def _clean_staged_kernel(item, slm, out):
    """The correct producer/consumer shape with barriers between phases."""
    slm.buf[item.local_id] = float(item.local_id)
    yield item.barrier()
    out[item.global_id] = slm.buf[(item.local_id + 1) % item.local_range]
    yield item.barrier()
    slm.buf[(item.local_id + 3) % item.local_range] = 0.0
    yield item.barrier()


def _clean_reduce_kernel(item, slm, out):
    """Uniform-participation collectives at group and sub-group scope."""
    total = yield item.reduce_over_group(float(item.local_id), "sum")
    sub = yield item.reduce_over_sub_group(1.0, "sum")
    other = yield item.shift_sub_group_left(float(item.lane), 1)
    out[item.global_id] = total + sub + other


def _clean_master_slave_kernel(item, slm, out):
    """Single-writer then barrier then all-readers (scalar staging)."""
    if item.local_id == 0:
        slm.buf[0] = 42.0
    yield item.barrier()
    out[item.global_id] = slm.buf[0]


@dataclass(frozen=True)
class SelftestCase:
    """One seeded-mutation case: a kernel plus the expected detector."""

    name: str
    kernel: Callable
    expect: str | None  # detector kind, or None for the clean battery
    specs: tuple = (("buf", (_WG,)),)


MUTANT_CASES = (
    SelftestCase("racy-write", _racy_write_kernel, _report.SLM_RACE),
    SelftestCase("read-write-race", _read_write_race_kernel, _report.SLM_RACE),
    SelftestCase("missing-barrier", _missing_barrier_kernel, _report.SLM_RACE),
    SelftestCase(
        "divergent-barrier-count",
        _divergent_barrier_count_kernel,
        _report.BARRIER_DIVERGENCE,
    ),
    SelftestCase(
        "split-site-barrier", _split_site_barrier_kernel, _report.BARRIER_DIVERGENCE
    ),
    SelftestCase(
        "uninit-read",
        _uninit_read_kernel,
        _report.UNINIT_READ,
        specs=(("buf", (_WG,)), ("extra", (2,))),
    ),
    SelftestCase("oob-index", _oob_kernel, _report.OOB_ACCESS),
    SelftestCase("negative-index", _negative_index_kernel, _report.OOB_ACCESS),
    SelftestCase(
        "partial-reduce", _partial_reduce_kernel, _report.COLLECTIVE_MISUSE
    ),
    SelftestCase("wide-shuffle", _wide_shuffle_kernel, _report.COLLECTIVE_MISUSE),
    SelftestCase(
        "wide-broadcast", _wide_broadcast_kernel, _report.COLLECTIVE_MISUSE
    ),
)

CLEAN_CASES = (
    SelftestCase("clean-staged", _clean_staged_kernel, None),
    SelftestCase("clean-reduce", _clean_reduce_kernel, None),
    SelftestCase("clean-master-slave", _clean_master_slave_kernel, None),
)

ALL_CASES = MUTANT_CASES + CLEAN_CASES

_BY_NAME = {case.name: case for case in ALL_CASES}


@dataclass
class SelftestResult:
    """Outcome of one case: what was expected vs. what the sanitizer did."""

    name: str
    expect: str | None
    got: str | None
    message: str

    @property
    def passed(self) -> bool:
        """Mutants must be flagged with the right kind; clean must pass."""
        return self.got == self.expect


def run_case(case: SelftestCase, config: SanitizerConfig | None = None) -> SelftestResult:
    """Execute one self-test kernel under a fresh sanitizer."""
    queue = Queue()
    out = np.zeros(_WG * _GROUPS)
    specs = [LocalSpec(name, shape) for name, shape in case.specs]
    sanitizer = Sanitizer(config)
    got: str | None = None
    message = "no violation"
    try:
        with use(sanitizer=sanitizer):
            queue.parallel_for(
                NDRange(_WG * _GROUPS, _WG, _SG),
                case.kernel,
                args=(out,),
                local_specs=specs,
                name=f"selftest_{case.name}",
            )
    except SANITIZER_EXCEPTIONS as exc:
        got = exc.report.kind if exc.report is not None else "unclassified"
        message = str(exc).splitlines()[0]
    return SelftestResult(case.name, case.expect, got, message)


def case_by_name(name: str) -> SelftestCase:
    """Look up one self-test case (the ``sanitize check <name>`` CLI)."""
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(sorted(_BY_NAME))
        raise KeyError(f"unknown selftest case {name!r}; known: {known}") from None


def run_selftest(config: SanitizerConfig | None = None) -> list[SelftestResult]:
    """Run the whole battery; the caller decides how to render results."""
    return [run_case(case, config) for case in ALL_CASES]

"""Instrumentation: per-solve FLOP and memory-traffic accounting.

The production (vectorized) solvers tally the arithmetic and the logical
memory traffic of every kernel building block into a :class:`TrafficLedger`.
Traffic is attributed to *named objects* (the residual ``r``, search
direction ``p``, system matrix ``A``, right-hand side ``b``, ...) because
the hardware model needs to split the total between memory levels: the
workspace planner (:mod:`repro.core.workspace`) decides which objects live
in shared local memory and which stream from L2/HBM, exactly as Section 3.5
of the paper describes, and the Fig. 8 memory-metrics reproduction reads
that split straight off the ledger.

All byte counts are *logical* (algorithmic) traffic: each operand element
is counted once per kernel touch. Cache effects are applied later by the
hardware model.

Every solver loop but GMRES tallies its first pass only and adds it once
per pass (:meth:`TrafficLedger.add_scaled`): every pass runs the whole loop
body at the full batch size, so it tallies the same amounts, and the
totals equal the per-pass sums exactly. CGS's first pass copies where
later passes update, so it tallies its first two passes and scales the
second; GMRES's tallies grow with the Arnoldi step, so it tallies as it
runs. Tallies are integer-valued floats far below 2^53; the one
exception, a fractional per-row preconditioner work (ILU, IC(0), ISAI),
is within an ulp of an integer, and the running sums round that residue
away.
"""

from __future__ import annotations

from dataclasses import dataclass, field

_FP_BYTES = 8  # default: the paper evaluates FP64 throughout
_IDX_BYTES = 4  # 32-bit sparsity-pattern indices


@dataclass
class TrafficLedger:
    """Accumulates FLOPs, per-object bytes and kernel-call counts.

    ``fp_bytes`` is the width of one floating value (8 for FP64, 4 for
    FP32) — the dispatch mechanism's precision-format level scales every
    value-traffic tally through it.
    """

    flops: float = 0.0
    bytes_by_object: dict[str, float] = field(default_factory=dict)
    calls: dict[str, int] = field(default_factory=dict)
    fp_bytes: int = _FP_BYTES

    # -- low-level tally API -------------------------------------------------

    def add_flops(self, count: float) -> None:
        """Record ``count`` floating-point operations."""
        self.flops += count

    def add_bytes(self, obj: str, count: float) -> None:
        """Attribute ``count`` bytes of traffic to object ``obj``."""
        self.bytes_by_object[obj] = self.bytes_by_object.get(obj, 0.0) + count

    def add_call(self, kind: str, count: int = 1) -> None:
        """Record ``count`` invocations of kernel building-block ``kind``."""
        self.calls[kind] = self.calls.get(kind, 0) + count

    # -- building-block helpers (used by repro.core.blas / matrix) -----------

    def tally_dot(self, num_batch: int, length: int, x_name: str, y_name: str) -> None:
        """A batched dot: reads x and y, 2n flops per system."""
        self.add_flops(2.0 * num_batch * length)
        self.add_bytes(x_name, self.fp_bytes * num_batch * length)
        self.add_bytes(y_name, self.fp_bytes * num_batch * length)
        self.add_call("dot", num_batch)

    def tally_norm2(self, num_batch: int, length: int, x_name: str) -> None:
        """A batched 2-norm: reads x, 2n flops per system."""
        self.add_flops(2.0 * num_batch * length)
        self.add_bytes(x_name, self.fp_bytes * num_batch * length)
        self.add_call("norm", num_batch)

    def tally_axpy(self, num_batch: int, length: int, x_name: str, y_name: str) -> None:
        """A batched axpy (y += alpha x): reads x, reads+writes y, 2n flops."""
        self.add_flops(2.0 * num_batch * length)
        self.add_bytes(x_name, self.fp_bytes * num_batch * length)
        self.add_bytes(y_name, 2.0 * self.fp_bytes * num_batch * length)
        self.add_call("axpy", num_batch)

    def tally_scal(self, num_batch: int, length: int, x_name: str) -> None:
        """A batched scale (x *= alpha): reads+writes x, n flops."""
        self.add_flops(1.0 * num_batch * length)
        self.add_bytes(x_name, 2.0 * self.fp_bytes * num_batch * length)
        self.add_call("scal", num_batch)

    def tally_copy(self, num_batch: int, length: int, src_name: str, dst_name: str) -> None:
        """A batched copy: reads src, writes dst."""
        self.add_bytes(src_name, self.fp_bytes * num_batch * length)
        self.add_bytes(dst_name, self.fp_bytes * num_batch * length)
        self.add_call("copy", num_batch)

    def tally_spmv(
        self,
        num_batch: int,
        num_rows: int,
        nnz: int,
        index_bytes: int,
        mat_name: str,
        x_name: str,
        y_name: str,
    ) -> None:
        """A batched SpMV: reads values+pattern of A, gathers x, writes y.

        ``index_bytes`` is the per-item sparsity-pattern footprint. The
        pattern is *stored* once for the whole batch (Section 3.1, the
        Fig. 2 amortization) but every work-group still *reads* it, so its
        traffic is counted per batch item. Matrix values and pattern are
        tallied under separate object names (``<mat>_values`` /
        ``<mat>_pattern``) because the workspace planner may cache the
        values in SLM while the pattern stays in the L2-served read-only
        stream.
        """
        self.add_flops(2.0 * num_batch * nnz)
        self.add_bytes(f"{mat_name}_values", float(self.fp_bytes) * num_batch * nnz)
        self.add_bytes(f"{mat_name}_pattern", float(index_bytes) * num_batch)
        self.add_bytes(x_name, self.fp_bytes * num_batch * nnz)
        self.add_bytes(y_name, self.fp_bytes * num_batch * num_rows)
        self.add_call("spmv", num_batch)

    def tally_precond_apply(
        self, num_batch: int, length: int, work_flops_per_row: float, name: str = "precond"
    ) -> None:
        """A preconditioner application z = M r."""
        self.add_flops(work_flops_per_row * num_batch * length)
        self.add_bytes(name, self.fp_bytes * num_batch * length)
        self.add_call("precond", num_batch)

    # -- aggregation ----------------------------------------------------------

    @property
    def total_bytes(self) -> float:
        """All logical traffic regardless of destination level."""
        return sum(self.bytes_by_object.values())

    def bytes_for(self, names: set[str] | frozenset[str]) -> float:
        """Total traffic of the given object names."""
        return sum(v for k, v in self.bytes_by_object.items() if k in names)

    def merged(self, other: "TrafficLedger") -> "TrafficLedger":
        """Return a new ledger combining self and ``other``."""
        result = TrafficLedger(flops=self.flops + other.flops, fp_bytes=self.fp_bytes)
        for src in (self.bytes_by_object, other.bytes_by_object):
            for k, v in src.items():
                result.add_bytes(k, v)
        for src in (self.calls, other.calls):
            for k, v in src.items():
                result.add_call(k, v)
        return result

    def add_scaled(self, other: "TrafficLedger", times: int) -> None:
        """Add ``times`` copies of ``other``'s tallies (nothing when ``times`` is 0)."""
        if times == 0:
            return
        self.flops += times * other.flops
        for k, v in other.bytes_by_object.items():
            self.add_bytes(k, times * v)
        for k, v in other.calls.items():
            self.add_call(k, times * v)

    def arithmetic_intensity(self) -> float:
        """FLOPs per byte of total logical traffic (roofline x-axis)."""
        total = self.total_bytes
        return self.flops / total if total > 0 else 0.0

"""Traced runs: in-memory spans, layer-boundary probes, per-layer metrics.

Tracing lives entirely in the benchmark. :class:`Probes` wraps public
layer boundaries for the duration of a traced segment and restores them
afterwards:

* ``core`` — ``BatchIterativeSolver.solve`` (one ``core.solve`` span per
  call, carrying the time its building blocks took: SpMV, preconditioner
  apply, BLAS-1 updates, reductions; the rest is *control*) and
  ``ResolvedDispatch.build`` (``core.create``);
* ``wide`` — the three ``run_batch_*_on_device`` kernel launchers
  (``wide.kernel``);
* ``instr`` — ``EventLog.emit`` and the record methods of ``Counter``,
  ``Gauge``, ``Histogram`` and ``LogHistogram`` (counts and time only).

The serving layer's own ``serve.*`` spans are read from the ``Tracer``
handed to ``SolverService(tracer=...)``; generator spans come from the
load generator's records. Spans are ``(name, thread, start, end, parent)``
plus a trace id; they are written as a Chrome trace when the run ends.
"""

from __future__ import annotations

import json
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import loadgen

#: Serving stages whose self times add up to the flush.
STAGES = ("serve.flush", "serve.assembly", "serve.plan", "serve.solve", "serve.fallback",
          "serve.scatter")
CORE_PARTS = ("spmv", "precond", "blas1", "reduce")


@dataclass
class Span:
    name: str
    tid: int
    start_ns: int
    end_ns: int
    parent: int | None = None  # index into the owning list
    trace_id: str | None = None
    args: dict = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class Probes:
    """Monkeypatched wrappers around layer boundaries (see module docstring)."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._tls = threading.local()
        self._instr: list[dict] = []  # one accumulator per thread
        self._undo: list = []

    # -- install / uninstall ----------------------------------------------------

    def install(self) -> "Probes":
        from repro.core import blas
        from repro.core.dispatch import ResolvedDispatch
        from repro.core.matrix.batch_csr import BatchCsr
        from repro.core.preconditioner.identity import BatchIdentity
        from repro.core.preconditioner.jacobi import BatchJacobi
        from repro.core.solver.base import BatchIterativeSolver
        from repro.kernels import bicgstab_kernel, cg_kernel, richardson_kernel
        from repro.observability.metrics import Counter, Gauge, Histogram, LogHistogram
        from repro.telemetry.events import EventLog

        self._patch(BatchIterativeSolver, "solve", self._wrap_solve)
        self._patch(ResolvedDispatch, "build", self._wrap_create)
        self._patch(BatchCsr, "apply", self._wrap_part("spmv"))
        for cls in (BatchJacobi, BatchIdentity):
            self._patch(cls, "apply", self._wrap_part("precond"))
        for name in ("dot", "norm2"):
            self._patch(blas, name, self._wrap_part("reduce"))
        for name in ("axpy", "axpby", "scal", "copy", "elementwise_mul"):
            self._patch(blas, name, self._wrap_part("blas1"))
        for mod in (cg_kernel, bicgstab_kernel, richardson_kernel):
            name = next(n for n in vars(mod) if n.startswith("run_batch_"))
            self._patch(mod, name, self._wrap_kernel)
        self._patch(EventLog, "emit", self._wrap_instr("events"))
        for cls, names in (
            (Counter, ("inc",)),
            (Gauge, ("set", "add")),
            (Histogram, ("observe", "observe_many")),
            (LogHistogram, ("observe", "observe_many")),
        ):
            for name in names:
                self._patch(cls, name, self._wrap_instr("writes"))
        return self

    def uninstall(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def _patch(self, owner, name: str, make) -> None:
        original = getattr(owner, name)
        self._undo.append((owner, name, original))
        setattr(owner, name, make(original))

    # -- wrappers ---------------------------------------------------------------------

    def _wrap_solve(self, original):
        tls, spans = self._tls, self.spans

        def solve(solver, b, x0=None, tracer=None):
            if getattr(tls, "core", None) is not None:
                return original(solver, b, x0=x0, tracer=tracer)
            acc = tls.core = dict.fromkeys(CORE_PARTS, 0)
            start = time.perf_counter_ns()
            try:
                result = original(solver, b, x0=x0, tracer=tracer)
            finally:
                end = time.perf_counter_ns()
                tls.core = None
            acc.update(
                solver=result.solver_name,
                systems=int(result.num_batch),
                iters_sum=int(result.iterations.sum()),
                iters_max=int(result.iterations.max()),
                flops=float(result.ledger.flops),
                bytes=float(result.ledger.total_bytes),
            )
            spans.append(Span("core.solve", threading.get_ident(), start, end, args=acc))
            return result

        return solve

    def _wrap_part(self, part: str):
        tls = self._tls

        def make(original):
            def wrapped(*args, **kwargs):
                acc = getattr(tls, "core", None)
                if acc is None or getattr(tls, "in_part", False):
                    return original(*args, **kwargs)
                tls.in_part = True
                start = time.perf_counter_ns()
                try:
                    return original(*args, **kwargs)
                finally:
                    acc[part] += time.perf_counter_ns() - start
                    tls.in_part = False

            return wrapped

        return make

    def _wrap_create(self, original):
        spans = self.spans

        def build(resolved, matrix):
            start = time.perf_counter_ns()
            solver = original(resolved, matrix)
            spans.append(Span("core.create", threading.get_ident(), start, time.perf_counter_ns()))
            return solver

        return build

    def _wrap_kernel(self, original):
        spans = self.spans

        def launch(device, matrix, b, *args, **kwargs):
            start = time.perf_counter_ns()
            x, iters, event = original(device, matrix, b, *args, **kwargs)
            end = time.perf_counter_ns()
            iters = np.asarray(iters)
            spans.append(Span(
                "wide.kernel", threading.get_ident(), start, end,
                args={"solver": original.__name__, "systems": int(iters.size),
                      "iters_sum": int(iters.sum()), "iters_max": int(iters.max())},
            ))
            return x, iters, event

        return launch

    def _wrap_instr(self, kind: str):
        tls = self._tls
        registry = self._instr

        def make(original):
            def wrapped(*args, **kwargs):
                if getattr(tls, "in_instr", False):
                    return original(*args, **kwargs)
                acc = getattr(tls, "instr", None)
                if acc is None:
                    acc = tls.instr = {"events": 0, "writes": 0, "ns": 0}
                    registry.append(acc)
                tls.in_instr = True
                start = time.perf_counter_ns()
                try:
                    return original(*args, **kwargs)
                finally:
                    acc["ns"] += time.perf_counter_ns() - start
                    acc[kind] += 1
                    tls.in_instr = False

            return wrapped

        return make

    def instr_totals(self) -> dict:
        return {k: sum(acc[k] for acc in self._instr) for k in ("events", "writes", "ns")}


# -- span sources ---------------------------------------------------------------------


def serve_spans(tracer) -> list[Span]:
    """The service's own ``serve.*`` spans, parent links kept within the list."""
    chosen = [s for s in tracer.spans if s.name.startswith("serve.")]
    index = {id(s): i for i, s in enumerate(chosen)}
    out = []
    for s in chosen:
        parent = s.parent
        while parent is not None and id(parent) not in index:
            parent = parent.parent
        out.append(Span(
            s.name, int(s.tid or 0), s.start_ns, s.end_ns,
            parent=None if parent is None else index[id(parent)],
            trace_id=s.trace_id, args=dict(s.args),
        ))
    return out


def generator_spans(records: list) -> list[Span]:
    """One ``gen.request`` span per request (due → completion) with build/submit children."""
    out = []
    for rec in records:
        root = len(out)
        out.append(Span("gen.request", 0, rec.due_ns, rec.done_ns, trace_id=rec.trace_id))
        out.append(Span("gen.build", 0, rec.start_ns, rec.built_ns, root, rec.trace_id))
        out.append(Span("gen.submit", 0, rec.built_ns, rec.submitted_ns, root, rec.trace_id))
    return out


def stage_self_times(spans: list[Span]) -> dict[str, list[float]]:
    """Per-flush self time (ms) of every serving stage.

    A stage's self time is its duration minus its direct stage children;
    spans that are not stages (per-request spans, solver spans) fold into
    the stage around them. The flush's own remainder is ``flush_self``.
    """
    stage_parent = {}
    for i, s in enumerate(spans):
        if s.name not in STAGES:
            continue
        p = s.parent
        while p is not None and spans[p].name not in STAGES:
            p = spans[p].parent
        stage_parent[i] = p
    child_ns = dict.fromkeys(stage_parent, 0)
    for i, p in stage_parent.items():
        if p is not None:
            child_ns[p] += spans[i].dur_ns
    out: dict[str, list[float]] = {}
    for i in stage_parent:
        s = spans[i]
        name = "flush_self" if s.name == "serve.flush" else s.name.split(".", 1)[1]
        out.setdefault(name, []).append((s.dur_ns - child_ns[i]) / 1e6)
        if s.name == "serve.flush":
            out.setdefault("flush", []).append(s.dur_ns / 1e6)
    return out


# -- per-layer metrics --------------------------------------------------------------------


def _p50(values) -> float:
    return loadgen.percentile(values, 50) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def serve_metrics(records: list, spans: list[Span], probes: Probes) -> dict:
    """``serve.*`` and ``instr.*`` of one traced serving segment."""
    done = [r for r in records if r.outcome is not None]
    stages = stage_self_times(spans)
    flushes = [s for s in spans if s.name == "serve.flush"]
    kernels = [s for s in probes.spans if s.name == "wide.kernel"]
    instr = probes.instr_totals()
    requests = max(1, len(records))
    out = {
        "serve.submit_us_p50": (_p50([(r.submitted_ns - r.built_ns) / 1e3 for r in records]), "us"),
        "serve.request_build_us_p50": (_p50([(r.built_ns - r.start_ns) / 1e3 for r in records]),
                                       "us"),
        "serve.queue_wait_ms_p50": (_p50([r.outcome.queue_wait_ms for r in done]), "ms"),
        "serve.batch_size_mean": (_mean([s.args["batch_size"] for s in flushes]), "count"),
    }
    for stage in ("flush", "assembly", "plan", "solve", "scatter", "flush_self"):
        out[f"serve.{stage}_ms_p50"] = (_p50(stages.get(stage, [])), "ms")
    out.update({
        "serve.plan_hit_rate": (_mean([r.outcome.plan_cache_hit for r in done]), "ratio"),
        "serve.fallback_frac": (sum(r.outcome.used_fallback for r in done) / requests, "ratio"),
        "serve.kernel_path_frac": (len(kernels) / len(flushes) if flushes else 0.0, "ratio"),
        "instr.events_per_request": (instr["events"] / requests, "count"),
        "instr.metric_writes_per_request": (instr["writes"] / requests, "count"),
        "instr.us_per_request": (instr["ns"] / 1e3 / requests, "us"),
    })
    return out


def core_metrics(probes: Probes) -> dict:
    solves = [s for s in probes.spans if s.name == "core.solve"]
    creates = [s.dur_ns / 1e6 for s in probes.spans if s.name == "core.create"]
    total_ns = sum(s.dur_ns for s in solves) or 1
    systems = sum(s.args["systems"] for s in solves) or 1
    loop_iters = sum(s.args["iters_max"] for s in solves) or 1
    out = {"core.iters_mean": (sum(s.args["iters_sum"] for s in solves) / systems, "count")}
    parts = {p: sum(s.args[p] for s in solves) / total_ns for p in CORE_PARTS}
    for p in CORE_PARTS:
        out[f"core.{p}_share"] = (parts[p], "ratio")
    out["core.control_share"] = (1.0 - sum(parts.values()), "ratio")
    out["core.us_per_iter"] = (total_ns / 1e3 / loop_iters, "us")
    out["core.create_ms_p50"] = (_p50(creates), "ms")
    out["core.flops_per_system"] = (sum(s.args["flops"] for s in solves) / systems, "flop")
    out["core.bytes_per_system"] = (sum(s.args["bytes"] for s in solves) / systems, "B")
    return out


def wide_metrics(kernel_ms: list, loop_iters: int, first_call_ms: float, iter_delta: int) -> dict:
    return {
        "wide.kernel_ms_p50": (_p50(kernel_ms), "ms"),
        "wide.us_per_iter": (sum(kernel_ms) * 1e3 / max(1, loop_iters), "us"),
        "wide.first_call_ms": (first_call_ms, "ms"),
        "wide.iter_delta_max": (float(iter_delta), "count"),
    }


def path_metrics(matrix: dict) -> dict:
    out = {}
    for name, cell in matrix.items():
        out[f"path.vectorized_ms.{name}"] = (cell.vectorized_ms, "ms")
        out[f"path.wide_ms.{name}"] = (cell.wide_ms, "ms")
    return out


# -- output ---------------------------------------------------------------------------------


def write_chrome_trace(path: Path, groups: dict[str, list[Span]]) -> None:
    """Chrome trace-event JSON: one process row per span source."""
    events = []
    lanes: dict[tuple, int] = {}
    for pid, (source, spans) in enumerate(groups.items(), start=1):
        events.append({"ph": "M", "name": "process_name", "pid": pid, "args": {"name": source}})
        for s in spans:
            tid = lanes.setdefault((pid, s.tid), len(lanes))
            args = dict(s.args)
            if s.trace_id:
                args["trace_id"] = s.trace_id
            events.append({
                "ph": "X", "name": s.name, "pid": pid, "tid": tid,
                "ts": s.start_ns / 1e3, "dur": max(0, s.dur_ns) / 1e3,
                "args": {k: v for k, v in args.items() if isinstance(v, (int, float, str, bool))},
            })
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events}))


def write_table(path: Path, workload: str, metrics: dict) -> None:
    lines = [f"{workload} {name} {value:.6g} {unit}"
             for name, (value, unit) in sorted(metrics.items())]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")

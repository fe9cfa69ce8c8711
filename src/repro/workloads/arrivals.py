"""Shared arrival processes and request synthesis for serving benchmarks.

``bench_serve.py`` and ``bench_fleet_scaling.py`` drive services with
paced open-loop workloads; this module is their single source of truth
for *when* requests arrive (uniform, seeded Poisson, bursty) and *what*
arrives (perturbed shared-pattern stencil systems), so the two benches
measure the same traffic and only differ in the service under test.

All generators return **offsets in seconds from the workload start**, so
pacing is one loop: sleep until ``start + offset[i]``, submit request
``i`` (:func:`pace`).
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "uniform_offsets",
    "poisson_offsets",
    "bursty_offsets",
    "diurnal_offsets",
    "pace",
    "stencil_pattern",
    "make_request",
    "keyed_requests",
]


def _check(rate_rps: float, num_requests: int) -> None:
    if rate_rps <= 0:
        raise ValueError(f"rate_rps must be positive, got {rate_rps}")
    if num_requests < 0:
        raise ValueError(f"num_requests must be non-negative, got {num_requests}")


def uniform_offsets(rate_rps: float, num_requests: int) -> np.ndarray:
    """Deterministic constant pacing: request ``i`` arrives at ``i/rate``."""
    _check(rate_rps, num_requests)
    return np.arange(num_requests, dtype=np.float64) / rate_rps


def poisson_offsets(
    rate_rps: float, num_requests: int, rng: np.random.Generator
) -> np.ndarray:
    """A seeded Poisson process: i.i.d. exponential interarrivals at ``rate``.

    The memoryless arrivals real open-loop traffic shows — short-term
    clumping around the same long-run rate as :func:`uniform_offsets`.
    """
    _check(rate_rps, num_requests)
    gaps = rng.exponential(scale=1.0 / rate_rps, size=num_requests)
    offsets = np.cumsum(gaps)
    return offsets - offsets[0] if num_requests else offsets


def bursty_offsets(
    rate_rps: float,
    num_requests: int,
    rng: np.random.Generator,
    burst_factor: float = 8.0,
    burst_fraction: float = 0.25,
    mean_phase_requests: int = 16,
) -> np.ndarray:
    """A two-state modulated Poisson process (quiet/burst phases).

    Requests arrive in alternating phases of geometric length
    (``mean_phase_requests`` each): quiet phases run below the nominal
    rate, burst phases at ``burst_factor`` times the quiet rate, with
    ``burst_fraction`` of requests landing in bursts on average. The
    long-run rate stays ``rate_rps``; the tails do not — exactly the
    traffic shape that makes admission control earn its keep.
    """
    _check(rate_rps, num_requests)
    if burst_factor <= 1.0:
        raise ValueError(f"burst_factor must be > 1, got {burst_factor}")
    if not 0.0 < burst_fraction < 1.0:
        raise ValueError(f"burst_fraction must be in (0, 1), got {burst_fraction}")
    if mean_phase_requests <= 0:
        raise ValueError(
            f"mean_phase_requests must be positive, got {mean_phase_requests}"
        )
    # Solve for the quiet rate so the request-weighted mean rate is rate_rps:
    # 1/rate = (1-f)/quiet + f/(factor*quiet)  =>  quiet = rate * ((1-f) + f/factor)
    quiet_rate = rate_rps * ((1.0 - burst_fraction) + burst_fraction / burst_factor)
    burst_rate = burst_factor * quiet_rate
    gaps = np.empty(num_requests, dtype=np.float64)
    produced = 0
    bursting = False
    while produced < num_requests:
        phase_len = 1 + rng.geometric(1.0 / mean_phase_requests)
        # size phases so bursts hold burst_fraction of requests on average
        if bursting:
            phase_len = max(1, int(round(
                phase_len * burst_fraction / (1.0 - burst_fraction)
            )))
        phase_len = min(phase_len, num_requests - produced)
        phase_rate = burst_rate if bursting else quiet_rate
        gaps[produced : produced + phase_len] = rng.exponential(
            scale=1.0 / phase_rate, size=phase_len
        )
        produced += phase_len
        bursting = not bursting
    offsets = np.cumsum(gaps)
    return offsets - offsets[0] if num_requests else offsets


def diurnal_offsets(
    rate_rps: float,
    num_requests: int,
    rng: np.random.Generator,
    period_s: float = 60.0,
    depth: float = 0.8,
    phase: float = 0.0,
) -> np.ndarray:
    """A sinusoidally modulated Poisson process (a compressed diurnal cycle).

    The instantaneous rate is ``rate * (1 + depth * sin(2π t/period +
    phase))`` — the day/night swing of real user traffic squeezed into
    ``period_s`` so load tests see whole cycles in seconds. Sampled with
    Lewis-Shedler thinning: candidate arrivals are drawn from a
    homogeneous process at the peak rate and kept with probability
    ``rate(t) / peak``, which is exact for any bounded intensity.
    """
    _check(rate_rps, num_requests)
    if not 0.0 <= depth < 1.0:
        raise ValueError(f"depth must be in [0, 1), got {depth}")
    if period_s <= 0:
        raise ValueError(f"period_s must be positive, got {period_s}")
    peak = rate_rps * (1.0 + depth)
    offsets = np.empty(num_requests, dtype=np.float64)
    t = 0.0
    kept = 0
    while kept < num_requests:
        t += rng.exponential(scale=1.0 / peak)
        lam = rate_rps * (1.0 + depth * np.sin(2.0 * np.pi * t / period_s + phase))
        if rng.uniform() * peak <= lam:
            offsets[kept] = t
            kept += 1
    return offsets - offsets[0] if num_requests else offsets


def pace(
    offsets: Sequence[float] | np.ndarray,
    submit: Callable[[int], object],
    clock: Callable[[], float] | None = None,
    sleep: Callable[[float], None] | None = None,
) -> list[object]:
    """Open-loop pacing: fire ``submit(i)`` at ``start + offsets[i]``.

    Returns whatever each ``submit`` call returned (tickets, usually).
    A submission running late is fired immediately — open-loop generators
    never let the service's slowness throttle the offered load.
    """
    import time

    clock = time.perf_counter if clock is None else clock
    sleep = time.sleep if sleep is None else sleep
    start = clock()
    results = []
    for i, offset in enumerate(offsets):
        delay = (start + float(offset)) - clock()
        if delay > 0:
            sleep(delay)
        results.append(submit(i))
    return results


# -- request synthesis --------------------------------------------------------


def stencil_pattern(size: int):
    """The benches' canonical system: a 3-point stencil as one scipy CSR."""
    from repro.workloads.stencil import three_point_stencil

    return three_point_stencil(size, 1).item_scipy(0)


def make_request(
    pattern,
    rng: np.random.Generator,
    size: int,
    solver: str = "bicgstab",
    **kwargs,
):
    """One request on the shared stencil pattern with perturbed values."""
    from repro.serve import SolveRequest

    matrix = pattern.copy()
    # the congruence D A D (one d per row) keeps an SPD stencil SPD
    # (Sylvester's law of inertia), so CG requests stay well posed
    d = rng.uniform(0.95, 1.05, size=size)
    rows = np.repeat(np.arange(size), np.diff(matrix.indptr))
    matrix.data = matrix.data * d[rows] * d[matrix.indices]
    return SolveRequest(
        matrix,
        rng.standard_normal(size),
        solver=solver,
        preconditioner=kwargs.pop("preconditioner", "jacobi"),
        tolerance=kwargs.pop("tolerance", 1e-8),
        **kwargs,
    )


def keyed_requests(
    pattern,
    rng: np.random.Generator,
    size: int,
    num_requests: int,
    num_keys: int,
    solver: str = "cg",
    base_max_iterations: int = 500,
    layout: str = "interleaved",
    **kwargs,
) -> list:
    """Requests spread over ``num_keys`` distinct :class:`BatchKey`\\ s.

    Consistent-hash routing is keyed on the batch key, so a fleet
    workload needs key diversity to exercise more than one shard. The
    keys differ only in ``max_iterations`` (``base .. base+num_keys-1``)
    — far above what the well-conditioned stencil systems need, so the
    solves behave identically while the keys hash apart.

    ``layout="interleaved"`` gives request ``i`` key ``i % num_keys``
    (many clients round-robining); ``layout="grouped"`` keeps one key's
    requests adjacent (one client streaming a problem class), which lets
    the micro-batcher fill whole batches per key.
    """
    if num_keys <= 0:
        raise ValueError(f"num_keys must be positive, got {num_keys}")
    if layout not in ("interleaved", "grouped"):
        raise ValueError(f"layout must be interleaved|grouped, got {layout!r}")
    per_key = max(1, num_requests // num_keys)
    return [
        make_request(
            pattern,
            rng,
            size,
            solver=solver,
            max_iterations=base_max_iterations + (
                (i % num_keys) if layout == "interleaved"
                else min(i // per_key, num_keys - 1)
            ),
            **kwargs,
        )
        for i in range(num_requests)
    ]

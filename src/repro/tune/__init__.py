"""Empirical autotuning of the Section 3.5/3.6 launch parameters.

The paper deliberately leaves its launch knobs open — the small/large
sub-group threshold "needs to be determined experimentally for each
targeted device", SLM placement is a capacity-bounded priority order —
and this subsystem determines them experimentally, in the style of
Triton/TVM tuning caches:

* :mod:`repro.tune.space` — the legal launch-parameter space per
  ``(device, num_rows)``;
* :mod:`repro.tune.evaluate` — cheap cost-model scoring and measured
  (real solver run + wave model) scoring of candidates;
* :mod:`repro.tune.search` — exhaustive grid, coordinate descent, and
  seeded random search with budget/early stopping, all with optional
  cost-model pre-pruning;
* :mod:`repro.tune.db` — the persistent, versioned, atomically-written
  TuningDB keyed by (device, solver, preconditioner, rows bucket,
  precision), with staleness detection;
* :mod:`repro.tune.tuner` — the :class:`Autotuner` orchestrator and the
  :func:`derive_threshold` device-threshold extractor.

The tuner is an offline tool: ``python -m repro tune`` drives searches
and prints the records and the derived sub-group threshold. No launch
path reads the database; the fused kernels launch with the Section-3.6
heuristic, whose threshold a device may carry in
``device.extra['sub_group_threshold_rows']``.
"""

from repro.tune.db import TuningDB, TuningKey, TuningRecord, bucket_rows
from repro.tune.evaluate import (
    CandidateEvaluator,
    TuneWorkload,
    pele_workload,
    plan_candidate_workspace,
    stencil_workload,
)
from repro.tune.search import (
    COORDINATE,
    GRID,
    RANDOM,
    STRATEGIES,
    SearchResult,
    coordinate_descent,
    grid_search,
    prune_candidates,
    random_search,
    run_search,
)
from repro.tune.space import (
    SLM_STRATEGIES,
    ParameterSpace,
    TuneCandidate,
    space_signature,
)
from repro.tune.tuner import Autotuner, TuneOutcome, derive_threshold

__all__ = [
    "Autotuner",
    "CandidateEvaluator",
    "COORDINATE",
    "GRID",
    "ParameterSpace",
    "RANDOM",
    "STRATEGIES",
    "SearchResult",
    "SLM_STRATEGIES",
    "TuneCandidate",
    "TuneOutcome",
    "TuneWorkload",
    "TuningDB",
    "TuningKey",
    "TuningRecord",
    "bucket_rows",
    "coordinate_descent",
    "derive_threshold",
    "grid_search",
    "pele_workload",
    "plan_candidate_workspace",
    "prune_candidates",
    "random_search",
    "run_search",
    "space_signature",
    "stencil_workload",
]

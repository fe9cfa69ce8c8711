"""Autotuner end-to-end: evaluation, caching, thresholds."""

import pytest

from repro.core.launch import SUB_GROUP_REDUCE, WORK_GROUP_REDUCE
from repro.hw.specs import gpu
from repro.tune import (
    Autotuner,
    CandidateEvaluator,
    TuningDB,
    derive_threshold,
    pele_workload,
    stencil_workload,
)
from repro.tune.db import TuningKey, TuningRecord
from repro.tune.space import SLM_OFF, SLM_PAPER, TuneCandidate

SPEC = gpu("pvc1")


@pytest.fixture(scope="module")
def small_outcome():
    """One real tuning run shared by the cheap assertions below."""
    tuner = Autotuner(SPEC, db=TuningDB())
    return tuner, tuner.tune(stencil_workload(16, nb_solve=4))


class TestEvaluator:
    def test_measured_solve_shared_across_candidates(self):
        evaluator = CandidateEvaluator(SPEC, stencil_workload(16, nb_solve=4))
        for candidate in evaluator.space.candidates()[:4]:
            assert evaluator.measured_seconds(candidate) > 0
        assert evaluator.metrics.counter("tune.workload_solves").value == 1

    def test_work_group_reduction_costs_more_than_sub_group(self):
        evaluator = CandidateEvaluator(SPEC, stencil_workload(16, nb_solve=4))
        sub = TuneCandidate(16, 16, SUB_GROUP_REDUCE, SLM_PAPER)
        work = TuneCandidate(16, 16, WORK_GROUP_REDUCE, SLM_PAPER)
        assert evaluator.measured_seconds(sub) < evaluator.measured_seconds(work)

    def test_slm_off_is_slower_for_bandwidth_bound_solves(self):
        evaluator = CandidateEvaluator(SPEC, stencil_workload(64, nb_solve=4))
        space = evaluator.space
        on = evaluator.measured_seconds(space.default_candidate())
        off_candidate = TuneCandidate(16, 64, WORK_GROUP_REDUCE, SLM_OFF)
        assert evaluator.measured_seconds(off_candidate) > on

    def test_cost_model_runs_without_solving(self):
        evaluator = CandidateEvaluator(SPEC, stencil_workload(16, nb_solve=4))
        assert evaluator.cost_model_seconds(evaluator.space.default_candidate()) > 0
        assert evaluator.metrics.counter("tune.workload_solves").value == 0


class TestAutotuner:
    def test_first_run_searches_and_stores(self, small_outcome):
        tuner, outcome = small_outcome
        assert not outcome.from_cache
        assert outcome.search is not None
        assert len(tuner.db) == 1
        assert outcome.record.speedup >= 1.0

    def test_second_run_is_cache_hit_without_measurement(self, small_outcome):
        tuner, _ = small_outcome
        before = tuner.db.metrics.counter("tune.measurements").value
        again = tuner.tune(stencil_workload(16, nb_solve=4))
        assert again.from_cache
        assert tuner.db.metrics.counter("tune.measurements").value == before

    def test_force_researches(self, small_outcome):
        tuner, _ = small_outcome
        forced = tuner.tune(stencil_workload(16, nb_solve=4), force=True)
        assert not forced.from_cache

    def test_tuned_beats_default_on_small_system(self):
        # the paper's Section-3.6 claim: below the threshold the sub-group
        # fast path (sg 32, sub-group reductions) beats the heuristic
        outcome = Autotuner(SPEC, db=TuningDB()).tune(stencil_workload(32))
        assert outcome.record.speedup > 1.0
        assert outcome.record.candidate.reduction_scope == SUB_GROUP_REDUCE

    def test_pele_workload_tunes(self):
        outcome = Autotuner(SPEC, db=TuningDB()).tune(
            pele_workload("drm19", nb_solve=4)
        )
        assert outcome.record.key.solver == "bicgstab"
        assert outcome.record.speedup >= 1.0


class TestDeriveThreshold:
    @staticmethod
    def record_for(bucket: int, sg: int) -> TuningRecord:
        return TuningRecord(
            key=TuningKey("dev", "cg", "jacobi", bucket, "double"),
            candidate=TuneCandidate(sg, bucket, WORK_GROUP_REDUCE, SLM_PAPER),
            modeled_seconds=1e-4,
            default_seconds=2e-4,
            strategy="grid",
            evaluations=1,
            seed=0,
            space_signature="sig",
        )

    def test_crossover_found(self):
        db = TuningDB()
        db.put(self.record_for(32, 16))
        db.put(self.record_for(64, 16))
        db.put(self.record_for(128, 32))
        assert derive_threshold(db, "dev") == 64

    def test_needs_two_widths(self):
        db = TuningDB()
        db.put(self.record_for(32, 16))
        db.put(self.record_for(64, 16))
        assert derive_threshold(db, "dev") is None

    def test_unknown_device(self):
        assert derive_threshold(TuningDB(), "nope") is None

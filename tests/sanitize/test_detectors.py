"""Mutation tests: every seeded kernel bug is flagged with the right
diagnostic, every clean counterpart passes, and the sanitizer stays
strictly opt-in.

The positive battery comes from :mod:`repro.sanitize.selftest` (the same
cases ``python -m repro sanitize selftest`` runs); this module adds the
negative checks pytest is better at: exception classes, structured report
fields, configuration toggles, and the opt-in contract.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exceptions import (
    BarrierDivergenceError,
    CollectiveMisuseError,
    KernelFaultError,
    SanitizerError,
    SlmOutOfBoundsError,
    SlmRaceError,
    UninitializedSlmReadError,
)
from repro.instruments import current, use
from repro.sanitize.report import (
    BARRIER_DIVERGENCE,
    COLLECTIVE_MISUSE,
    OOB_ACCESS,
    SLM_RACE,
    UNINIT_READ,
)
from repro.sanitize.sanitizer import Sanitizer, SanitizerConfig
from repro.sanitize.selftest import (
    _GROUPS,
    _SG,
    _WG,
    CLEAN_CASES,
    MUTANT_CASES,
    case_by_name,
    run_case,
    run_selftest,
)
from repro.sycl.memory import LocalSpec
from repro.sycl.ndrange import NDRange
from repro.sycl.queue import Queue


def _launch(kernel, sanitizer=None, specs=(("buf", (_WG,)),), name="detector_test"):
    """Run one self-test-shaped kernel, optionally under a sanitizer."""
    queue = Queue()
    out = np.zeros(_WG * _GROUPS)
    local_specs = [LocalSpec(n, shape) for n, shape in specs]
    if sanitizer is None:
        queue.parallel_for(
            NDRange(_WG * _GROUPS, _WG, _SG),
            kernel,
            args=(out,),
            local_specs=local_specs,
            name=name,
        )
    else:
        with use(sanitizer=sanitizer):
            queue.parallel_for(
                NDRange(_WG * _GROUPS, _WG, _SG),
                kernel,
                args=(out,),
                local_specs=local_specs,
                name=name,
            )
    return out


# -- the mutation battery ----------------------------------------------------


@pytest.mark.parametrize("case", MUTANT_CASES, ids=[c.name for c in MUTANT_CASES])
def test_every_mutant_is_flagged_with_the_right_kind(case):
    result = run_case(case)
    assert result.got == case.expect, (
        f"{case.name}: expected kind {case.expect!r}, sanitizer said "
        f"{result.got!r} ({result.message})"
    )
    assert result.passed


@pytest.mark.parametrize("case", CLEAN_CASES, ids=[c.name for c in CLEAN_CASES])
def test_clean_counterparts_pass_without_report(case):
    result = run_case(case)
    assert result.got is None, f"false positive on {case.name}: {result.message}"
    assert result.passed


def test_run_selftest_covers_all_kinds():
    results = run_selftest()
    kinds = {r.got for r in results if r.got is not None}
    assert kinds == {
        SLM_RACE,
        UNINIT_READ,
        OOB_ACCESS,
        BARRIER_DIVERGENCE,
        COLLECTIVE_MISUSE,
    }
    assert all(r.passed for r in results)


def test_case_lookup_rejects_unknown_names():
    with pytest.raises(KeyError, match="unknown selftest case"):
        case_by_name("no-such-mutant")


# -- exception classes and report structure ----------------------------------


def test_race_report_names_both_items_and_sites():
    sanitizer = Sanitizer()
    case = case_by_name("racy-write")
    with pytest.raises(SlmRaceError) as err:
        _launch(case.kernel, sanitizer)
    rep = err.value.report
    assert rep.kind == SLM_RACE
    assert rep.array == "buf"
    assert rep.index == 0
    assert len(rep.items) == 2 and rep.items[0] != rep.items[1]
    assert len(rep.sites) == 2
    assert all("selftest" in site for site in rep.sites)
    assert not sanitizer.clean
    assert sanitizer.stats.violations == {SLM_RACE: 1}


def test_uninit_report_names_the_untouched_array():
    case = case_by_name("uninit-read")
    with pytest.raises(UninitializedSlmReadError) as err:
        _launch(case.kernel, Sanitizer(), specs=case.specs)
    rep = err.value.report
    assert rep.kind == UNINIT_READ
    assert rep.array == "extra"
    assert rep.index == 0
    assert "before any work-item wrote it" in rep.message


def test_oob_is_also_a_kernel_fault():
    case = case_by_name("oob-index")
    with pytest.raises(SlmOutOfBoundsError) as err:
        _launch(case.kernel, Sanitizer())
    assert isinstance(err.value, KernelFaultError)
    assert isinstance(err.value, SanitizerError)
    assert err.value.report.kind == OOB_ACCESS
    assert err.value.report.index == _WG


def test_negative_index_is_caught_before_numpy_wraps():
    case = case_by_name("negative-index")
    with pytest.raises(SlmOutOfBoundsError) as err:
        _launch(case.kernel, Sanitizer())
    assert err.value.report.index == -_WG


def test_partial_collective_reports_finished_and_waiting_items():
    case = case_by_name("partial-reduce")
    with pytest.raises(CollectiveMisuseError) as err:
        _launch(case.kernel, Sanitizer())
    rep = err.value.report
    assert rep.kind == COLLECTIVE_MISUSE
    assert "non-uniform participation" in rep.message
    # lanes 0 of both sub-groups returned early; everyone else waits
    assert 0 in rep.details["finished_items"]
    assert rep.details["waiting"]


def test_divergent_barrier_counts_report_per_item_sync_counts():
    case = case_by_name("divergent-barrier-count")
    with pytest.raises(BarrierDivergenceError) as err:
        _launch(case.kernel, Sanitizer())
    rep = err.value.report
    assert rep.kind == BARRIER_DIVERGENCE
    assert len(rep.details["completed_syncs_per_item"]) == _WG
    # half the group waits at the extra barrier, half already finished
    finished = set(rep.details["finished_items"])
    waiting = set(rep.details["waiting"])
    assert finished and waiting
    assert finished | waiting == set(range(_WG))
    assert not finished & waiting


def test_split_site_barrier_report_lists_both_sites():
    case = case_by_name("split-site-barrier")
    with pytest.raises(BarrierDivergenceError) as err:
        _launch(case.kernel, Sanitizer())
    rep = err.value.report
    assert rep.kind == BARRIER_DIVERGENCE
    assert len(rep.sites) == 2


def test_wide_shuffle_report_carries_the_offending_params():
    case = case_by_name("wide-shuffle")
    with pytest.raises(CollectiveMisuseError) as err:
        _launch(case.kernel, Sanitizer())
    rep = err.value.report
    assert rep.details["op"] == "shuffle"
    assert rep.details["scope_size"] == _SG


# -- configuration toggles ---------------------------------------------------


def _collective_separated_kernel(item, slm, out):
    """Conflicting phases separated only by a group collective (no barrier)."""
    slm.buf[item.local_id] = float(item.local_id)
    total = yield item.reduce_over_group(0.0, "sum")
    out[item.global_id] = slm.buf[(item.local_id + 1) % item.local_range] + total


def test_collectives_do_not_fence_by_default():
    """SYCL 2020 group algorithms carry no local-memory fence semantics."""
    with pytest.raises(SlmRaceError):
        _launch(_collective_separated_kernel, Sanitizer())


def test_collectives_fence_config_relaxes_the_race():
    sanitizer = Sanitizer(SanitizerConfig(collectives_fence=True))
    _launch(_collective_separated_kernel, sanitizer)
    assert sanitizer.clean


@pytest.mark.parametrize(
    "case_name, config",
    [
        ("racy-write", SanitizerConfig(check_races=False)),
        ("uninit-read", SanitizerConfig(check_uninit=False)),
        ("split-site-barrier", SanitizerConfig(check_barrier_sites=False)),
    ],
)
def test_disabled_detectors_stay_silent(case_name, config):
    result = run_case(case_by_name(case_name), config)
    assert result.got is None, result.message


def test_sites_can_be_disabled_for_speed():
    case = case_by_name("racy-write")
    with pytest.raises(SlmRaceError) as err:
        _launch(case.kernel, Sanitizer(SanitizerConfig(record_sites=False)))
    assert err.value.report.sites == ()


# -- the opt-in contract -----------------------------------------------------


@pytest.mark.no_sanitize
def test_without_sanitizer_buggy_kernels_run_unchecked():
    """No sanitizer installed: the simulator stays permissive (opt-in)."""
    assert current().sanitizer is None
    racy = case_by_name("racy-write").kernel
    out = _launch(racy, sanitizer=None)
    assert np.all(out == out[0])  # last write wins deterministically


def test_clean_run_accumulates_stats_without_reports():
    sanitizer = Sanitizer()
    _launch(case_by_name("clean-staged").kernel, sanitizer)
    summary = sanitizer.summary()
    assert sanitizer.clean
    assert summary["launches"] == 1
    assert summary["work_groups"] == _GROUPS
    assert summary["slm_accesses"] > 0
    assert summary["syncs"] > 0
    assert summary["violations"] == {}

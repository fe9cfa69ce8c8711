"""Unit tests of the lockstep executor (repro.wide.executor / queue)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.sycl.executor import launch
from repro.sycl.group import GROUP, SUB_GROUP, SyncOp, evaluate_collective
from repro.sycl.memory import LocalSpec
from repro.sycl.ndrange import NDRange
from repro.sycl.device import pvc_stack_device
from repro.wide.executor import WideItem, wide_launch
from repro.wide.lanes import LaneArray
from repro.wide.queue import WideQueue

pytestmark = pytest.mark.no_sanitize  # these tests target bare lockstep launches

ND = NDRange(32, 32, 16)  # one group, two sub-groups of 16


def _lockstep(op: SyncOp, nd: NDRange = ND):
    """What a lockstep work-group's ``yield op`` evaluates to."""
    return evaluate_collective(op, op.value, nd.local_size, nd.sub_group_size)


def _per_item(executor, op: SyncOp) -> np.ndarray:
    """Run ``op`` through ``executor`` with work-item ``i`` of ND contributing
    lane ``i`` of ``op.value``; what each item's ``yield`` gave it."""
    values = np.asarray(op.value)
    out = np.zeros(ND.local_size, dtype=values.dtype)

    def kernel(item, slm, values, out):
        lid = item.local_id
        out[lid] = yield SyncOp(op.kind, op.scope, values[lid], op.params)

    executor(pvc_stack_device(1), ND, kernel, args=(values, out))
    return out


class TestWideItem:
    def test_ids_carry_the_lane_axis(self):
        # two sub-group sizes at one work-group size: the shared ids are per geometry
        for sgs in (16, 8):
            item = WideItem(NDRange(32, 32, sgs), 0)
            assert isinstance(item.local_id, LaneArray)
            np.testing.assert_array_equal(np.asarray(item.local_id), np.arange(32))
            np.testing.assert_array_equal(
                np.asarray(item.sub_group_id), np.arange(32) // sgs
            )
            np.testing.assert_array_equal(np.asarray(item.lane), np.arange(32) % sgs)
            assert item.group_id == 0
            assert item.local_range == 32

    def test_work_groups_of_a_launch_share_one_set_of_ids(self):
        seen = []

        def kernel(item, slm):
            seen.append((item.local_id, item.sub_group_id, item.lane))

        wide_launch(pvc_stack_device(1), NDRange(64, 32, 16), kernel)
        assert len(seen) == 2
        assert all(a is b for a, b in zip(*seen))

    @pytest.mark.parametrize("name", ["local_id", "sub_group_id", "lane"])
    def test_kernel_writing_an_id_raises(self, name):
        def kernel(item, slm):
            getattr(item, name)[0] = 5

        with pytest.raises(ValueError):
            wide_launch(pvc_stack_device(1), ND, kernel)

    def test_global_ids_offset_by_group(self):
        item = WideItem(NDRange(64, 32, 16), 1)
        np.testing.assert_array_equal(
            np.asarray(item.global_id), 32 + np.arange(32)
        )

    def test_predicate_factories_keep_raw_lane_vectors(self):
        item = WideItem(ND, 0)
        mask = item.local_id == 0
        op = item.any_of_group(mask)
        assert op.value is mask  # not collapsed through bool()


class TestCollectives:
    def test_group_reduce_matches_faithful(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal(32)
        for red in ("sum", "prod", "max", "min"):
            op = SyncOp("reduce", GROUP, v, (red,))
            assert np.isscalar(_lockstep(op))
            np.testing.assert_array_equal(
                _per_item(wide_launch, op), _per_item(launch, op)
            )

    def test_scalar_contribution_counts_once_per_lane(self):
        # a lane-uniform scalar behaves as 32 identical contributions
        op = SyncOp("reduce", GROUP, 2.0, ("sum",))
        assert _lockstep(op) == 64.0

    def test_sub_group_reduce_repeats_per_subgroup_result(self):
        v = np.arange(32.0)
        op = SyncOp("reduce", SUB_GROUP, v, ("sum",))
        wide = _lockstep(op)
        expected = np.repeat([v[:16].sum(), v[16:].sum()], 16)
        np.testing.assert_allclose(wide, expected)

    def test_single_subgroup_reduce_returns_scalar(self):
        nd = NDRange(16, 16, 16)
        op = SyncOp("reduce", SUB_GROUP, np.arange(16.0), ("sum",))
        wide = _lockstep(op, nd)
        assert np.isscalar(wide)
        assert wide == np.arange(16.0).sum()

    def test_broadcasts(self):
        v = np.arange(32.0)
        assert _lockstep(SyncOp("broadcast", GROUP, v, (3,))) == 3.0
        sg = _lockstep(SyncOp("broadcast", SUB_GROUP, v, (2,)))
        np.testing.assert_array_equal(sg, np.repeat([2.0, 18.0], 16))

    def test_scans_match_faithful(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal(32)
        for kind in ("inclusive_scan", "exclusive_scan"):
            op = SyncOp(kind, GROUP, v, ("sum",))
            np.testing.assert_array_equal(
                _per_item(wide_launch, op), _per_item(launch, op)
            )

    def test_shuffles_match_faithful_per_subgroup(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal(32)
        for params in [("down", 1), ("down", 4), ("up", 2), ("xor", 5)]:
            op = SyncOp("shuffle", SUB_GROUP, v, params)
            # the faithful interpreter assembles each sub-group on its own
            np.testing.assert_array_equal(
                _per_item(wide_launch, op), _per_item(launch, op)
            )

    def test_any_all_over_lane_vectors(self):
        pred = np.zeros(32, dtype=bool)
        assert _lockstep(SyncOp("any", GROUP, pred, ())) is False
        pred[5] = True
        assert _lockstep(SyncOp("any", GROUP, pred, ())) is True
        assert _lockstep(SyncOp("all", GROUP, pred, ())) is False
        assert _lockstep(SyncOp("all", GROUP, np.ones(32, bool), ())) is True

    def test_barrier_returns_none(self):
        assert _lockstep(SyncOp("barrier", GROUP)) is None


def _dot_kernel(item, slm, x, out):
    lid, wg = item.local_id, item.local_range
    n = x.shape[1]
    sysid = item.group_id
    partial = 0.0
    for row in range(lid, n, wg):
        v = float(x[sysid, row])
        partial += v * v
    total = yield item.reduce_over_group(partial, "sum")
    if lid == 0:
        out[sysid] = total


class TestWideLaunch:
    def test_simple_kernel_matches_numpy(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((3, 40))
        out = np.zeros(3)
        device = pvc_stack_device(1)
        stats = wide_launch(
            device, NDRange(3 * 32, 32, 16), _dot_kernel, args=(x, out)
        )
        np.testing.assert_allclose(out, np.sum(x * x, axis=1), rtol=1e-12)
        assert stats.num_groups == 3
        assert stats.collective_counts["group:reduce"] == 3

    def test_queue_records_events_and_stats(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 20))
        out = np.zeros(2)
        queue = WideQueue(pvc_stack_device(1))
        event = queue.parallel_for(
            NDRange(2 * 16, 16, 16), _dot_kernel, args=(x, out), name="dot"
        )
        assert queue.num_launches == 1
        assert event.name == "dot"
        assert event.stats.local_size == 16
        np.testing.assert_allclose(out, np.sum(x * x, axis=1), rtol=1e-12)

    def test_slm_capacity_still_validated(self):
        from repro.exceptions import LocalMemoryError

        device = pvc_stack_device(1)
        huge = [LocalSpec("x", (device.slm_bytes_per_cu,))]  # 8x over budget
        with pytest.raises(LocalMemoryError):
            wide_launch(
                device,
                NDRange(16, 16, 16),
                _dot_kernel,
                args=(np.zeros((1, 4)), np.zeros(1)),
                local_specs=huge,
            )

    def test_sanitizer_falls_back_to_faithful_interpreter(self):
        from repro.instruments import use
        from repro.sanitize import Sanitizer

        rng = np.random.default_rng(6)
        x = rng.standard_normal((2, 12))
        out = np.zeros(2)
        sanitizer = Sanitizer()
        with use(sanitizer=sanitizer):
            wide_launch(
                pvc_stack_device(1),
                NDRange(2 * 16, 16, 16),
                _dot_kernel,
                args=(x, out),
            )
        # the faithful interpreter ran: the sanitizer saw the launch
        assert sanitizer.stats.launches == 1
        np.testing.assert_allclose(out, np.sum(x * x, axis=1), rtol=1e-12)
        # ... and returned the bits of a bare lockstep launch
        bare = np.zeros(2)
        wide_launch(
            pvc_stack_device(1), NDRange(2 * 16, 16, 16), _dot_kernel, args=(x, bare)
        )
        np.testing.assert_array_equal(out, bare)

    def test_wide_launch_counts_on_tracer_metrics(self):
        from repro.instruments import use
        from repro.observability.tracer import Tracer

        tracer = Tracer()
        with use(tracer=tracer):
            queue = WideQueue(pvc_stack_device(1))
            queue.parallel_for(
                NDRange(16, 16, 16),
                _dot_kernel,
                args=(np.ones((1, 8)), np.zeros(1)),
            )
        assert tracer.metrics.counter("wide.launches").value == 1
        assert tracer.metrics.counter("sycl.launches").value == 1


class TestKernelParity:
    def test_cuda_reduction_style_raises_wide_backend_error(self):
        from repro.core.matrix.batch_csr import BatchCsr
        from repro.exceptions import WideBackendError
        from repro.kernels.bicgstab_kernel import run_batch_bicgstab_on_device

        rng = np.random.default_rng(7)
        dense = np.eye(8)[None] * 4.0 + rng.standard_normal((1, 8, 8)) * 0.1
        matrix = BatchCsr.from_dense(dense)
        b = rng.standard_normal((1, 8))
        device = pvc_stack_device(1)
        with pytest.raises(WideBackendError, match="group"):
            run_batch_bicgstab_on_device(
                device, matrix, b, reduce_style="cuda", queue=WideQueue(device)
            )

"""Group and sub-group collectives: semantics against NumPy references."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sycl.device import cpu_device
from repro.sycl.group import GROUP, SUB_GROUP, SyncOp, evaluate_collective
from repro.sycl.ndrange import NDRange
from repro.sycl.queue import Queue
from repro.wide.queue import WideQueue


@pytest.fixture
def queue():
    return Queue(cpu_device())


def _run(queue, ndrange, kernel, *args, local_specs=None):
    return queue.parallel_for(ndrange, kernel, args=args, local_specs=local_specs)


class TestGroupReduce:
    def test_sum_over_group(self, queue):
        x = np.arange(16, dtype=np.float64)
        out = np.zeros(16)

        def kernel(item, slm, x, out):
            total = yield item.reduce_over_group(x[item.global_id], "sum")
            out[item.global_id] = total

        _run(queue, NDRange(16, 16, 8), kernel, x, out)
        assert np.all(out == x.sum())

    def test_max_over_group(self, queue):
        x = np.array([3.0, -1.0, 7.0, 2.0] * 2)
        out = np.zeros(8)

        def kernel(item, slm, x, out):
            out[item.global_id] = yield item.reduce_over_group(x[item.global_id], "max")

        _run(queue, NDRange(8, 8, 4), kernel, x, out)
        assert np.all(out == 7.0)

    def test_reduce_is_per_group(self, queue):
        x = np.arange(8, dtype=np.float64)
        out = np.zeros(8)

        def kernel(item, slm, x, out):
            out[item.global_id] = yield item.reduce_over_group(x[item.global_id], "sum")

        _run(queue, NDRange(8, 4, 4), kernel, x, out)
        assert np.all(out[:4] == 6.0)
        assert np.all(out[4:] == 22.0)


class TestSubGroupOps:
    def test_sub_group_reduce_scopes_are_independent(self, queue):
        x = np.arange(16, dtype=np.float64)
        out = np.zeros(16)

        def kernel(item, slm, x, out):
            out[item.global_id] = yield item.reduce_over_sub_group(
                x[item.global_id], "sum"
            )

        _run(queue, NDRange(16, 16, 4), kernel, x, out)
        for sg in range(4):
            chunk = x[4 * sg : 4 * sg + 4]
            assert np.all(out[4 * sg : 4 * sg + 4] == chunk.sum())

    def test_broadcast_from_lane(self, queue):
        x = np.arange(8, dtype=np.float64)
        out = np.zeros(8)

        def kernel(item, slm, x, out):
            out[item.global_id] = yield item.broadcast_over_sub_group(
                x[item.global_id], 2
            )

        _run(queue, NDRange(8, 8, 4), kernel, x, out)
        assert np.all(out[:4] == 2.0)
        assert np.all(out[4:] == 6.0)

    def test_shift_left_out_of_range_keeps_own_value(self, queue):
        x = np.arange(4, dtype=np.float64)
        out = np.zeros(4)

        def kernel(item, slm, x, out):
            out[item.global_id] = yield item.shift_sub_group_left(x[item.global_id], 2)

        _run(queue, NDRange(4, 4, 4), kernel, x, out)
        assert list(out) == [2.0, 3.0, 2.0, 3.0]

    def test_xor_permute(self, queue):
        x = np.arange(4, dtype=np.float64)
        out = np.zeros(4)

        def kernel(item, slm, x, out):
            out[item.global_id] = yield item.permute_sub_group_xor(x[item.global_id], 1)

        _run(queue, NDRange(4, 4, 4), kernel, x, out)
        assert list(out) == [1.0, 0.0, 3.0, 2.0]


class TestScansAndVotes:
    def test_inclusive_scan(self, queue):
        x = np.ones(8)
        out = np.zeros(8)

        def kernel(item, slm, x, out):
            out[item.global_id] = yield item.inclusive_scan_over_group(
                x[item.global_id], "sum"
            )

        _run(queue, NDRange(8, 8, 8), kernel, x, out)
        assert list(out) == list(np.arange(1.0, 9.0))

    def test_exclusive_scan(self, queue):
        x = np.ones(8)
        out = np.zeros(8)

        def kernel(item, slm, x, out):
            out[item.global_id] = yield item.exclusive_scan_over_group(
                x[item.global_id], "sum"
            )

        _run(queue, NDRange(8, 8, 8), kernel, x, out)
        assert list(out) == list(np.arange(0.0, 8.0))

    def test_any_and_all_of_group(self, queue):
        out = np.zeros((2, 8))

        def kernel(item, slm, out):
            a = yield item.any_of_group(item.local_id == 3)
            b = yield item.all_of_group(item.local_id < 100)
            out[0, item.global_id] = float(a)
            out[1, item.global_id] = float(b)

        _run(queue, NDRange(8, 8, 8), kernel, out)
        assert np.all(out == 1.0)


def _evaluate(kind: str, scope: str, params: tuple, values: list) -> object:
    """One scope of ``len(values)`` lanes (one sub-group at sub-group scope)."""
    op = SyncOp(kind, scope, None, params)
    return evaluate_collective(op, values, len(values), len(values))


class TestEvaluateCollectiveProperties:
    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(
            st.floats(-100, 100, allow_nan=False), min_size=1, max_size=16
        )
    )
    def test_reduce_sum_matches_numpy(self, values):
        result = _evaluate("reduce", GROUP, ("sum",), values)
        # a uniform result comes back as one Python scalar, in NumPy's order
        assert type(result) is float
        assert result == np.add.reduce(np.asarray(values))

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=12),
        data=st.data(),
    )
    def test_inclusive_scan_matches_cumsum(self, values, data):
        result = _evaluate("inclusive_scan", GROUP, ("sum",), values)
        np.testing.assert_array_equal(result, np.cumsum(values))

    @settings(max_examples=50, deadline=None)
    @given(
        values=st.lists(st.floats(-10, 10, allow_nan=False), min_size=2, max_size=8),
        delta=st.integers(1, 4),
    )
    def test_shuffle_down_semantics(self, values, delta):
        result = _evaluate("shuffle", SUB_GROUP, ("down", delta), values)
        for lane in range(len(values)):
            expected = values[lane + delta] if lane + delta < len(values) else values[lane]
            assert result[lane] == expected

    def test_broadcast_missing_lane_raises(self):
        with pytest.raises(ValueError, match="not a member"):
            _evaluate("broadcast", SUB_GROUP, (9,), [1.0, 2.0, 3.0])


@pytest.fixture(params=["faithful", "wide"])
def either_queue(request):
    """The faithful interpreter and the lockstep backend, one run each."""
    return {"faithful": Queue, "wide": WideQueue}[request.param](cpu_device())


class TestOneSemanticsOnBothExecutors:
    """Edge cases where the two executors used to disagree."""

    @pytest.mark.parametrize("op", ["max", "min"])
    def test_nan_propagates_through_max_and_min(self, either_queue, op):
        x = np.array([1.0, np.nan, 2.0, 0.5])
        out = np.zeros(4)

        def kernel(item, slm, x, out):
            out[item.global_id] = yield item.reduce_over_group(x[item.global_id], op)

        _run(either_queue, NDRange(4, 4, 4), kernel, x, out)
        assert np.isnan(out).all()

    @pytest.mark.parametrize("scope", [GROUP, SUB_GROUP])
    @pytest.mark.parametrize("src", [-1, 4, 9])
    def test_broadcast_from_a_lane_outside_the_scope_raises(
        self, either_queue, scope, src
    ):
        x = np.arange(4, dtype=np.float64)
        out = np.zeros(4)

        def kernel(item, slm, x, out):
            value = x[item.global_id]
            if scope == GROUP:
                out[item.global_id] = yield item.broadcast_over_group(value, src)
            else:
                out[item.global_id] = yield item.broadcast_over_sub_group(value, src)

        with pytest.raises(ValueError, match=f"lane {src} is not a member"):
            _run(either_queue, NDRange(4, 4, 4), kernel, x, out)

    @pytest.mark.parametrize(
        "op, first", [("sum", 0), ("max", np.iinfo(np.int64).min)], ids=["sum", "max"]
    )
    def test_int_exclusive_scan_keeps_the_element_type(self, either_queue, op, first):
        x = np.array([3, 1, 4, 1, 5, 9, 2, 6], dtype=np.int64)
        out = np.zeros(8, dtype=np.int64)
        kinds: list[str] = []

        def kernel(item, slm, x, out, kinds):
            result = yield item.exclusive_scan_over_group(x[item.global_id], op)
            kinds.append(np.asarray(result).dtype.kind)
            out[item.global_id] = result

        _run(either_queue, NDRange(8, 8, 8), kernel, x, out, kinds)
        accumulate = np.add.accumulate if op == "sum" else np.maximum.accumulate
        np.testing.assert_array_equal(out, [first, *accumulate(x)[:-1]])
        assert set(kinds) == {"i"}

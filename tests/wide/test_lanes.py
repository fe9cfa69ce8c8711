"""Unit tests of the lane-axis data model (repro.wide.lanes)."""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from repro.wide import lanes
from repro.wide.lanes import (
    LaneIndex,
    LaneMask,
    WideArray,
    lane_array,
    wide_float,
    wide_int,
    wide_range,
)


class TestLaneMask:
    def test_lane_comparisons_return_truthy_masks(self):
        lid = lane_array([0, 1, 2, 3])
        mask = lid == 0
        assert isinstance(mask, LaneMask)
        assert bool(mask)  # uniform-guard convention: the block executes
        np.testing.assert_array_equal(
            np.asarray(mask), [True, False, False, False]
        )

    def test_all_comparison_operators_mask(self):
        lid = lane_array([0, 1, 2, 3])
        for op, expected in [
            (lid != 0, [False, True, True, True]),
            (lid < 2, [True, True, False, False]),
            (lid <= 1, [True, True, False, False]),
            (lid > 2, [False, False, False, True]),
            (lid >= 2, [False, False, True, True]),
        ]:
            assert isinstance(op, LaneMask)
            assert bool(op)
            np.testing.assert_array_equal(np.asarray(op), expected)

    def test_arithmetic_stays_plain_ndarray_semantics(self):
        lid = lane_array([0, 1, 2, 3])
        np.testing.assert_array_equal(np.asarray(lid + 4), [4, 5, 6, 7])
        np.testing.assert_array_equal(np.asarray(lid % 2), [0, 1, 0, 1])


class TestWideRange:
    def test_scalar_arguments_fall_through_to_builtin_range(self):
        assert wide_range(5) == range(5)
        assert wide_range(2, 9) == range(2, 9)
        assert wide_range(1, 10, 3) == range(1, 10, 3)

    def test_strided_loop_over_lane_start(self):
        # the kernels' `for row in range(lid, n, wg)` pattern
        lid = lane_array([0, 1, 2, 3])
        rounds = list(wide_range(lid, 10, 4))
        assert len(rounds) == 3
        np.testing.assert_array_equal(rounds[0].rows, [0, 1, 2, 3])
        assert rounds[0].mask.all()
        np.testing.assert_array_equal(rounds[1].rows, [4, 5, 6, 7])
        assert rounds[1].mask.all()
        np.testing.assert_array_equal(rounds[2].rows, [8, 9, 10, 11])
        np.testing.assert_array_equal(rounds[2].mask, [True, True, False, False])

    def test_ragged_csr_style_bounds(self):
        # the kernels' `range(int(row_ptrs[row]), int(row_ptrs[row + 1]))`
        start = np.array([0, 3, 3, 7])
        stop = np.array([3, 3, 7, 9])
        rounds = list(wide_range(start, stop))
        assert len(rounds) == 4  # longest row has 4 nonzeros
        np.testing.assert_array_equal(
            rounds[0].mask, [True, False, True, True]
        )
        np.testing.assert_array_equal(
            rounds[2].mask, [True, False, True, False]
        )
        np.testing.assert_array_equal(rounds[0].rows, [0, 3, 3, 7])

    def test_zero_trip_loop_yields_nothing(self):
        rounds = list(wide_range(np.array([5, 5]), np.array([5, 5])))
        assert rounds == []

    def test_non_positive_step_rejected(self):
        with pytest.raises(ValueError):
            wide_range(np.array([0, 1]), 10, 0)
        with pytest.raises(ValueError):
            wide_range(np.array([0, 1]), 10, -1)


def _reference_rounds(start, stop, step=1):
    """The rounds as built before memoization: broadcast bounds, one mask per round."""
    start, stop = np.broadcast_arrays(
        np.asarray(start, dtype=np.int64), np.asarray(stop, dtype=np.int64)
    )
    trips = np.maximum(0, -(-(stop - start) // step))
    return [
        (start + t * step, trips > t) for t in range(int(trips.max(initial=0)))
    ]


def _assert_rounds_equal(rounds, expected):
    rounds = list(rounds)
    assert len(rounds) == len(expected)
    for index, (rows, mask) in zip(rounds, expected):
        assert index.rows.shape == rows.shape
        np.testing.assert_array_equal(index.rows, rows)
        np.testing.assert_array_equal(index.mask, mask)
        assert index.all_active == bool(mask.all())


class TestWideRangeMemo:
    """The round table: loops re-entered with equal bounds share one plan."""

    def test_equal_bounds_return_the_same_rounds(self):
        lid = lane_array([0, 1, 2, 3])
        assert wide_range(lid, 10, 4) is wide_range(lid, 10, 4)
        # fresh but equal arrays, as the SpMV's gathered row pointers are
        assert wide_range(np.array([0, 3]), np.array([3, 5])) is wide_range(
            np.array([0, 3]), np.array([3, 5])
        )
        assert wide_range(lid, 10, 4) is not wide_range(lid, 10, 2)

    @pytest.mark.parametrize(
        "start, stop, step",
        [
            (2, np.array([5, 2, 9, 0]), 1),  # scalar start, array stop
            (lane_array([0, 1, 2, 3]), 10, 4),  # array start, scalar stop
            # `start + lane` with an array end, as in spmv_csr_subgroup_rows
            (
                np.array([0, 0, 0, 0, 5, 5, 5, 5]) + lane_array([0, 1, 2, 3] * 2),
                np.array([5, 5, 5, 5, 6, 6, 6, 6]),
                4,
            ),
            (np.array([5, 5, 7]), np.array([5, 1, 7]), 1),  # all-zero trips
        ],
    )
    def test_rounds_match_the_unmemoized_semantics(self, start, stop, step):
        _assert_rounds_equal(
            wide_range(start, stop, step), _reference_rounds(start, stop, step)
        )

    def test_rounds_can_be_iterated_again(self):
        rounds = wide_range(np.array([0, 2]), np.array([3, 3]))
        first = [r.rows.tolist() for r in rounds]
        assert first == [[0, 2], [1, 3], [2, 4]]
        assert [r.rows.tolist() for r in rounds] == first

    def test_zero_d_and_one_element_bounds_get_separate_entries(self):
        # equal bytes, different broadcasting: 0-d rows against 1-lane rows
        lanes._ROUNDS.clear()
        scalar = wide_range(np.array(3))
        single = wide_range(np.array([3]))
        assert len(lanes._ROUNDS) == 2
        assert scalar[0].rows.shape == ()
        assert single[0].rows.shape == (1,)

    def test_memoized_rounds_are_read_only(self):
        rounds = wide_range(np.array([0, 1, 2]), np.array([2, 2, 3]))
        full, ragged = rounds
        assert full.all_active and not ragged.all_active
        for index in rounds:
            with pytest.raises(ValueError):
                index.rows[0] = 7
            with pytest.raises(ValueError):
                index.mask[0] = False

    def test_table_stays_bounded_and_correct(self):
        lanes._ROUNDS.clear()
        lid = lane_array(np.arange(8))
        for n in range(1, 3 * lanes._ROUNDS_MAX):
            rounds = wide_range(lid, n, 8)
            assert len(lanes._ROUNDS) <= lanes._ROUNDS_MAX
            _assert_rounds_equal(rounds, _reference_rounds(lid, n, 8))

    def test_non_positive_step_rejected_after_a_positive_one(self):
        bounds = (np.array([0, 1]), 10)
        wide_range(*bounds, 1)
        with pytest.raises(ValueError):
            wide_range(*bounds, 0)

    def test_threads_racing_fills_and_clears_get_correct_rounds(self):
        # serve workers share the table; a racing clear, a duplicate
        # insert or a racing first gather only costs a recompute
        lid = lane_array(np.arange(8))
        data = np.arange(1.0, 400.0)
        errors = []

        def worker(offset):
            try:
                for n in range(1, 2 * lanes._ROUNDS_MAX):
                    rounds = wide_range(lid, n + offset, 8)
                    expected = _reference_rounds(lid, n + offset, 8)
                    _assert_rounds_equal(rounds, expected)
                    for index, (rows, mask) in zip(rounds, expected):
                        np.testing.assert_array_equal(
                            WideArray(data)[index], np.where(mask, data[rows * mask], 0.0)
                        )
            except Exception as exc:  # noqa: BLE001 - re-raised on the main thread
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # the size check and the insert are two steps: each racing thread
        # can add one entry past the bound until the next miss clears it
        assert len(lanes._ROUNDS) <= lanes._ROUNDS_MAX + len(threads)


class TestLaneIndex:
    def test_integer_offsets_preserve_mask(self):
        idx = LaneIndex([1, 2, 3], [True, False, True])
        shifted = idx + 1
        np.testing.assert_array_equal(shifted.rows, [2, 3, 4])
        np.testing.assert_array_equal(shifted.mask, idx.mask)
        np.testing.assert_array_equal((1 + idx).rows, [2, 3, 4])
        np.testing.assert_array_equal((idx - 1).rows, [0, 1, 2])


class TestWideArray:
    def test_masked_gather_reads_zero_on_inactive_lanes(self):
        data = WideArray(np.array([10.0, 20.0, 30.0, 40.0]))
        idx = LaneIndex([0, 2, 99, 3], [True, True, False, True])
        np.testing.assert_array_equal(data[idx], [10.0, 30.0, 0.0, 40.0])

    def test_gathers_of_one_round_share_its_masked_rows(self):
        # the SpMV's values[pos] and col_idxs[pos] gathers of one round
        idx = LaneIndex([0, 2, 99, 3], [True, True, False, True])
        assert idx.gather_rows is idx.gather_rows
        np.testing.assert_array_equal(idx.gather_rows, [0, 2, 0, 3])
        cols = WideArray(np.array([7, 8, 9, 6]))
        np.testing.assert_array_equal(cols[idx], [7, 9, 0, 6])

    def test_masked_scatter_skips_inactive_lanes(self):
        data = np.zeros(4)
        wide = WideArray(data)
        idx = LaneIndex([0, 1, 2, 3], [True, False, True, False])
        wide[idx] = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(data, [1.0, 0.0, 3.0, 0.0])

    def test_scalar_scatter_to_masked_lanes(self):
        data = np.zeros(4)
        WideArray(data)[LaneIndex([1, 2], [True, False])] = 7.0
        np.testing.assert_array_equal(data, [0.0, 7.0, 0.0, 0.0])

    def test_leading_batch_index_with_trailing_lane_index(self):
        # the kernels' `x_out[sysid, row] = ...` pattern
        data = np.zeros((2, 4))
        wide = WideArray(data)
        idx = LaneIndex([0, 1, 2, 3], [True, True, True, False])
        wide[1, idx] = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(data[1], [1.0, 2.0, 3.0, 0.0])
        np.testing.assert_array_equal(data[0], 0.0)
        np.testing.assert_array_equal(wide[1, idx], [1.0, 2.0, 3.0, 0.0])

    def test_integer_indexing_returns_wrapped_subarrays(self):
        wide = WideArray(np.arange(12.0).reshape(3, 4))
        row = wide[1]
        assert isinstance(row, WideArray)
        np.testing.assert_array_equal(np.asarray(row), [4.0, 5.0, 6.0, 7.0])
        assert wide[1][2] == 6.0

    def test_raw_integer_array_key_is_plain_fancy_indexing(self):
        # the SpMV inner loop's `x[int(col_idxs[pos])]` gather
        wide = WideArray(np.array([5.0, 6.0, 7.0]))
        np.testing.assert_array_equal(
            wide[np.array([2, 0, 1])], [7.0, 5.0, 6.0]
        )

    def test_ndarray_facade(self):
        wide = WideArray(np.zeros((3, 4)))
        assert wide.shape == (3, 4)
        assert wide.ndim == 2
        assert len(wide) == 3
        assert wide.dtype == np.float64
        assert np.asarray(wide).shape == (3, 4)


class TestScalarization:
    def test_wide_float_casts_arrays_and_scalars(self):
        out = wide_float(np.array([1, 2], dtype=np.int64))
        assert out.dtype == np.float64
        single = wide_float(np.array([1.5], dtype=np.float32))
        assert single.dtype == np.float64
        assert wide_float(3) == 3.0
        assert isinstance(wide_float(np.float32(2.5)), float)

    def test_wide_int_casts_arrays_and_scalars(self):
        out = wide_int(np.array([1.9, 2.1]))
        assert out.dtype == np.int64
        np.testing.assert_array_equal(out, [1, 2])
        assert wide_int(3.7) == 3

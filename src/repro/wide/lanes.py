"""The lane axis: array types that let unmodified kernels run in lockstep.

The wide backend executes one work-group with a *single* Python
generator instead of one generator per work-item. Every per-work-item
scalar of the faithful interpreter becomes a length-``work_group_size``
NumPy array — the *lane axis* — and the kernel sources in
:mod:`repro.kernels` run over it unchanged because the three builtins
they use for control flow and scalarization are shadowed by the lowering
pass (:mod:`repro.wide.lower`):

* ``range`` → :func:`wide_range` — a strided loop whose start/stop/step
  involve lane arrays becomes a sequence of lockstep *rounds*; each round
  yields a :class:`LaneIndex` carrying the per-lane row and an activity
  mask (ragged trip counts are padded to the longest lane). The rounds
  are planned once per loop and shared: loops over the read-only id
  vectors of :func:`lane_ids` find theirs by the vector's identity.
* ``float``/``int`` → :func:`wide_float`/:func:`wide_int` — the faithful
  per-item scalarizations become dtype casts over the lane axis.

:class:`WideArray` wraps every kernel argument and SLM vector: indexing
with a :class:`LaneIndex` is a masked gather (inactive lanes read as 0,
which is sound because every in-kernel accumulation is a sum whose
masked terms multiply to zero), assignment is a masked scatter (inactive
lanes never write).

Comparisons on :class:`LaneArray` ids (``lid == 0``, ``lane == 0``)
return a :class:`LaneMask`, which is *truthy*: the guarded body executes
for all lanes. This is sound for the SYCL-style kernels' single-writer
guards because every guarded write is either a plain scalar store
(``out_iters[sysid] = iters``) or a scatter whose value is uniform
across the lanes that share a target element (``y[row] = total`` after a
sub-group reduce) — see ``docs/wide_backend.md`` for the full contract.
"""

from __future__ import annotations

import builtins
from typing import Any

import numpy as np

__all__ = [
    "LaneArray",
    "LaneIndex",
    "LaneMask",
    "WideArray",
    "wide_float",
    "wide_int",
    "wide_range",
]


class LaneMask(np.ndarray):
    """Boolean lane vector produced by comparing lane ids.

    Truthiness is ``True`` regardless of content so that lane-guarded
    blocks (``if lane == 0:``) execute in lockstep; the guard's masking
    effect is realized by the write semantics, not by skipping the block.
    """

    def __bool__(self) -> bool:  # noqa: D105 - uniform-guard convention
        return True


class LaneArray(np.ndarray):
    """A per-lane id vector (``local_id``, ``lane``, ``sub_group_id``).

    Behaves like a plain integer ndarray except that comparisons return
    :class:`LaneMask` so id-based guards stay executable under lockstep.
    """

    def _mask(self, result: Any) -> Any:
        if isinstance(result, np.ndarray):
            return np.asarray(result).view(LaneMask)
        return result

    def __eq__(self, other):  # noqa: D105
        return self._mask(np.ndarray.__eq__(self, other))

    def __ne__(self, other):  # noqa: D105
        return self._mask(np.ndarray.__ne__(self, other))

    def __lt__(self, other):  # noqa: D105
        return self._mask(np.ndarray.__lt__(self, other))

    def __le__(self, other):  # noqa: D105
        return self._mask(np.ndarray.__le__(self, other))

    def __gt__(self, other):  # noqa: D105
        return self._mask(np.ndarray.__gt__(self, other))

    def __ge__(self, other):  # noqa: D105
        return self._mask(np.ndarray.__ge__(self, other))

    __hash__ = None


def lane_array(values: Any) -> LaneArray:
    """Build a :class:`LaneArray` from any integer sequence."""
    return np.asarray(values, dtype=np.int64).view(LaneArray)


#: ``(local_id, sub_group_id, lane)`` per (work-group, sub-group) geometry.
_LANE_IDS: dict[tuple[int, int], tuple[LaneArray, LaneArray, LaneArray]] = {}
#: ``id()`` -> vector for every vector :func:`lane_ids` ever built. The
#: references keep them alive, so no other object can take their ids.
_SHARED_IDS: dict[int, LaneArray] = {}


def lane_ids(work_group_size: int, sub_group_size: int) -> tuple[LaneArray, ...]:
    """The shared ``(local_id, sub_group_id, lane)`` vectors of one geometry.

    Every work-group of every launch with this geometry gets the same
    three objects. They are read-only (a kernel that writes one raises
    ``ValueError``) and never evicted, which is what lets
    :func:`wide_range` key the loops over them by identity.
    """
    ids = _LANE_IDS.get((work_group_size, sub_group_size))
    if ids is None:
        lids = np.arange(work_group_size)
        ids = tuple(
            lane_array(v) for v in (lids, lids // sub_group_size, lids % sub_group_size)
        )
        for vector in ids:
            vector.flags.writeable = False
            _SHARED_IDS[id(vector)] = vector
        # a racing builder's vectors stay registered and alive, merely unused
        ids = _LANE_IDS.setdefault((work_group_size, sub_group_size), ids)
    return ids


class LaneIndex:
    """One lockstep round of a strided loop: per-lane rows + activity mask.

    Produced by :func:`wide_range`; consumed by :class:`WideArray` as a
    masked gather/scatter key. Integer offsets (``row + 1`` in the CSR
    row-pointer lookups) shift the rows and keep the mask.
    """

    __slots__ = ("rows", "mask", "_all_active", "_gather_rows")

    def __init__(self, rows: Any, mask: Any, all_active: bool | None = None) -> None:
        self.rows = np.asarray(rows, dtype=np.int64)
        self.mask = np.asarray(mask, dtype=bool)
        self._all_active = all_active
        self._gather_rows = None

    @property
    def all_active(self) -> bool:
        """Whether every lane is active (cached: the mask is immutable)."""
        if self._all_active is None:
            self._all_active = bool(self.mask.all())
        return self._all_active

    @property
    def gather_rows(self) -> np.ndarray:
        """The rows with inactive lanes pointed at 0 (cached, like ``all_active``)."""
        if self._gather_rows is None:
            self._gather_rows = np.where(self.mask, self.rows, 0)
        return self._gather_rows

    def __add__(self, other: int) -> "LaneIndex":
        return LaneIndex(self.rows + int(other), self.mask, self._all_active)

    __radd__ = __add__

    def __sub__(self, other: int) -> "LaneIndex":
        return LaneIndex(self.rows - int(other), self.mask, self._all_active)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LaneIndex(rows={self.rows.tolist()}, mask={self.mask.tolist()})"


def _is_wide(value: Any) -> bool:
    return isinstance(value, (np.ndarray, LaneIndex))


#: Memoized rounds of every lane-axis loop: keyed by the identity of a
#: shared id vector (``range(lid, n, wg)``) or else by its bounds' bytes.
_ROUNDS: dict[tuple, tuple[LaneIndex, ...]] = {}
_ROUNDS_MAX = 128


def wide_range(*args: Any) -> Any:
    """``range`` over possibly-per-lane bounds: lockstep masked rounds.

    With plain integer arguments this is the builtin ``range`` (the ELL
    slot loop must stay an ordinary scalar loop). When start or stop
    carry a lane axis, the loop runs ``max`` trip-count rounds; each
    round is a :class:`LaneIndex` whose mask disables the lanes that
    already exhausted their own trip count — the wide equivalent of the
    faithful interpreter's per-item loop bounds.

    Kernels re-enter the same loops every iteration of every work-group,
    so the rounds are built once per distinct bounds and shared. A loop
    from a shared id vector of :func:`lane_ids` to an integer stop is
    keyed ``(id(start), stop, step)``: those vectors never change and
    never die, so their ids are never reused. Other bounds (the SpMV's
    gathered row pointers) are keyed by value, so fresh but equal bounds
    hit. The rounds are read-only, and the table is emptied whenever it
    reaches ``_ROUNDS_MAX``.
    """
    if len(args) == 3:
        start, stop, step = args
        if id(start) in _SHARED_IDS and type(stop) is int and type(step) is int:
            key = (id(start), stop, step)
            rounds = _ROUNDS.get(key)
            return _plan(key, start, stop, step) if rounds is None else rounds
    if not any(isinstance(a, np.ndarray) for a in args):
        return builtins.range(*args)
    if len(args) == 1:
        start, stop, step = 0, args[0], 1
    elif len(args) == 2:
        start, stop = args
        step = 1
    else:
        start, stop, step = args
    step = int(np.asarray(step))
    start = np.asarray(start, dtype=np.int64)
    stop = np.asarray(stop, dtype=np.int64)
    # shapes too: a 0-d and a 1-element bound share bytes, not broadcasting
    key = (start.shape, start.tobytes(), stop.shape, stop.tobytes(), step)
    rounds = _ROUNDS.get(key)
    return _plan(key, start, stop, step) if rounds is None else rounds


def _plan(key: tuple, start: Any, stop: Any, step: int) -> tuple[LaneIndex, ...]:
    """Build one loop's read-only rounds and enter them in the table under ``key``."""
    if step <= 0:
        raise ValueError(f"wide_range requires a positive step, got {step}")
    start = np.asarray(start, dtype=np.int64)
    trips = np.maximum(0, -(-(np.asarray(stop, dtype=np.int64) - start) // step))
    if start.shape != trips.shape:
        start = np.broadcast_to(start, trips.shape)
    # Rounds below every lane's trip count are fully active: share one
    # mask and skip the per-access ``mask.all()`` re-check downstream.
    uniform = int(trips.min(initial=0))
    full = np.ones(trips.shape, dtype=bool)
    built = []
    for t in range(int(trips.max(initial=0))):
        if t < uniform:
            index = LaneIndex(start + t * step, full, True)
        else:
            index = LaneIndex(start + t * step, trips > t)
        index.rows.flags.writeable = index.mask.flags.writeable = False
        built.append(index)
    rounds = tuple(built)
    if len(_ROUNDS) >= _ROUNDS_MAX:
        _ROUNDS.clear()  # atomic under the GIL, unlike evicting one entry
    _ROUNDS[key] = rounds
    return rounds


def wide_float(value: Any) -> Any:
    """``float`` over the lane axis: cast arrays to float64, scalars to float.

    Mirrors the faithful kernels' per-item ``float(...)`` upcast (single
    precision operands promote to float64 arithmetic inside the kernel).
    """
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=np.float64)
    return float(value)


def wide_int(value: Any) -> Any:
    """``int`` over the lane axis: cast arrays to int64, scalars to int."""
    if isinstance(value, np.ndarray):
        return np.asarray(value, dtype=np.int64)
    return int(value)


def _gather(data: np.ndarray, index: LaneIndex) -> np.ndarray:
    """Masked gather: inactive lanes read as 0 (their terms vanish in sums)."""
    if index.all_active:
        return data[index.rows]
    out = data[index.gather_rows]
    return np.where(index.mask, out, out.dtype.type(0))


def _scatter(data: np.ndarray, index: LaneIndex, value: Any) -> None:
    """Masked scatter: only active lanes write.

    Duplicate targets (all lanes of a sub-group storing the same reduced
    total to their shared row) are benign because the value is uniform
    across the duplicates — NumPy keeps one of them.
    """
    mask = index.mask
    if isinstance(value, np.ndarray) and value.shape == mask.shape:
        if index.all_active:
            data[index.rows] = value
        else:
            data[index.rows[mask]] = value[mask]
    else:
        if index.all_active:
            data[index.rows] = value
        else:
            data[index.rows[mask]] = value


class WideArray:
    """Lane-aware view over one kernel argument or SLM vector.

    Plain integer indexing behaves as usual (sub-arrays come back wrapped
    so chained indexing stays lane-aware); :class:`LaneIndex` keys —
    standalone or as the trailing element of a tuple key — perform the
    masked gather/scatter described in the module docstring; raw integer
    arrays (the column gathers of the SpMV inner loop) fancy-index
    directly.
    """

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray) -> None:
        self.data = np.asarray(data)

    # -- ndarray façade -----------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self) -> np.dtype:
        return self.data.dtype

    @property
    def ndim(self) -> int:
        return self.data.ndim

    def __len__(self) -> int:
        return len(self.data)

    def __array__(self, dtype=None) -> np.ndarray:
        return np.asarray(self.data, dtype=dtype)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WideArray({self.data!r})"

    # -- lane-aware indexing ------------------------------------------------

    def _resolve(self, key: Any) -> tuple[np.ndarray, Any]:
        """Split a key into (target sub-array, final index)."""
        if isinstance(key, tuple):
            lead, last = key[:-1], key[-1]
            if isinstance(last, LaneIndex):
                base = self.data[lead] if lead else self.data
                return base, last
            return self.data, key
        return self.data, key

    def __getitem__(self, key: Any) -> Any:
        # the keys the kernels pass, by exact type, before the general path
        kind = type(key)
        if kind is LaneIndex:
            return _gather(self.data, key)
        if kind is tuple and len(key) == 2 and type(key[0]) is int and type(key[1]) is LaneIndex:
            return _gather(self.data[key[0]], key[1])
        if kind is np.ndarray:
            return self.data[key]
        base, final = self._resolve(key)
        if isinstance(final, LaneIndex):
            return _gather(base, final)
        if isinstance(final, np.ndarray):
            return base[np.asarray(final)]
        value = base[final]
        if isinstance(value, np.ndarray):
            return WideArray(value)
        return value

    def __setitem__(self, key: Any, value: Any) -> None:
        kind = type(key)
        if kind is LaneIndex:
            _scatter(self.data, key, value)
            return
        if kind is tuple and len(key) == 2 and type(key[0]) is int and type(key[1]) is LaneIndex:
            _scatter(self.data[key[0]], key[1], value)
            return
        if kind is np.ndarray:
            self.data[key] = value
            return
        base, final = self._resolve(key)
        if isinstance(final, LaneIndex):
            _scatter(base, final, value)
        elif isinstance(final, np.ndarray):
            base[np.asarray(final)] = value
        else:
            base[final] = value

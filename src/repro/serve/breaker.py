"""A circuit breaker over the service's fallback path.

The direct-LU fallback is the graceful-degradation valve: one
pathological system gets retried alone instead of failing its co-batched
neighbours. It is also the *expensive* path — a dense factorization per
request. Under a fallback **storm** (a poisoned traffic class, a broken
plan, injected chaos) every flush degenerates into per-request LU solves
and the service amplifies its own overload.

:class:`CircuitBreaker` watches the recent outcome window and sheds that
amplification: when the bad fraction (fallbacks + failures) over the last
``window`` outcomes crosses ``threshold`` (with at least ``min_events``
observed), the breaker *opens* and the service fails degraded work fast
with :class:`~repro.exceptions.CircuitOpenError` instead of retrying it.
After ``cooldown_s`` the breaker goes *half-open* and admits probes; the
first healthy outcome closes it, a bad one re-opens it.

The clock is injectable so tests drive the cooldown deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import Callable, Iterable

__all__ = ["CLOSED", "OPEN", "HALF_OPEN", "CircuitBreaker"]

#: Breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


class CircuitBreaker:
    """Sliding-window failure-rate breaker with a half-open probe."""

    def __init__(
        self,
        window: int = 64,
        min_events: int = 32,
        threshold: float = 0.5,
        cooldown_s: float = 2.0,
        clock: Callable[[], float] = time.monotonic,
        on_open: Callable[["CircuitBreaker"], None] | None = None,
        on_close: Callable[["CircuitBreaker"], None] | None = None,
    ) -> None:
        if window <= 0:
            raise ValueError(f"window must be positive, got {window}")
        if not 0 < min_events <= window:
            raise ValueError(
                f"min_events must be in [1, window={window}], got {min_events}"
            )
        if not 0.0 < threshold <= 1.0:
            raise ValueError(f"threshold must be in (0, 1], got {threshold}")
        if cooldown_s < 0:
            raise ValueError(f"cooldown_s must be non-negative, got {cooldown_s}")
        self.window = window
        self.min_events = min_events
        self.threshold = threshold
        self.cooldown_s = cooldown_s
        self._clock = clock
        self._on_open = on_open
        self._on_close = on_close
        self._outcomes: deque[bool] = deque(maxlen=window)
        self._bad = 0  # bad outcomes in the window, kept as they slide
        self._state = CLOSED
        self._opened_at = 0.0
        self._opens = 0
        self._closes = 0
        self._lock = threading.Lock()

    # -- observation -----------------------------------------------------------

    @property
    def state(self) -> str:
        """Current state, promoting ``open`` → ``half_open`` past cooldown."""
        with self._lock:
            self._maybe_half_open()
            return self._state

    @property
    def opens(self) -> int:
        """How many times the breaker has tripped open."""
        with self._lock:
            return self._opens

    @property
    def closes(self) -> int:
        """How many times the breaker has recovered closed."""
        with self._lock:
            return self._closes

    def bad_fraction(self) -> float:
        """Bad share of the current outcome window (0.0 when empty)."""
        with self._lock:
            if not self._outcomes:
                return 0.0
            return self._bad / len(self._outcomes)

    # -- the protocol ----------------------------------------------------------

    def allow_degraded(self) -> bool:
        """May the expensive degraded path (per-request fallback) run now?

        ``True`` while closed or half-open (the probe); ``False`` while
        open — the caller sheds the work fast instead.
        """
        with self._lock:
            self._maybe_half_open()
            return self._state != OPEN

    def record(self, bad: bool) -> None:
        """Fold one real outcome in (fast-fail sheds are *not* outcomes).

        ``bad`` is a fallback-used or failed completion. In ``half_open``
        a single good outcome closes the breaker, a bad one re-opens it
        and restarts the cooldown.
        """
        self.record_many((bad,))

    def record_many(self, outcomes: Iterable[bool]) -> None:
        """Fold several outcomes in, in order, under one lock acquisition.

        Leaves the same state, window and counts as one :meth:`record`
        per outcome. The open/close callbacks fire in the same order, but
        after the last outcome is folded, so they read the final state.
        """
        fired: list[Callable[["CircuitBreaker"], None] | None] = []
        with self._lock:
            for bad in outcomes:
                bad = bool(bad)
                self._maybe_half_open()
                if len(self._outcomes) == self.window:
                    self._bad -= self._outcomes[0]  # about to slide out
                self._outcomes.append(bad)
                self._bad += bad
                if self._state == HALF_OPEN:
                    if bad:
                        self._trip()
                        fired.append(self._on_open)
                    else:
                        self._state = CLOSED
                        self._closes += 1
                        self._outcomes.clear()
                        self._bad = 0
                        fired.append(self._on_close)
                elif self._state == CLOSED:
                    if (
                        len(self._outcomes) >= self.min_events
                        and self._bad / len(self._outcomes) >= self.threshold
                    ):
                        self._trip()
                        fired.append(self._on_open)
        # callbacks run outside the lock: they emit events / take other locks
        for callback in fired:
            if callback is not None:
                callback(self)

    # -- internals (lock held) -------------------------------------------------

    def _trip(self) -> None:
        self._state = OPEN
        self._opened_at = self._clock()
        self._opens += 1

    def _maybe_half_open(self) -> None:
        if self._state == OPEN and self._clock() - self._opened_at >= self.cooldown_s:
            self._state = HALF_OPEN

    def __repr__(self) -> str:
        return (
            f"CircuitBreaker(state={self.state!r}, opens={self.opens}, "
            f"bad_fraction={self.bad_fraction():.2f})"
        )

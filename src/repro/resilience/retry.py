"""Retry budgets and the circuit breaker guarding the parallel path.

Two small, deliberately dependency-free machines:

:class:`RetryPolicy`
    How many times to re-attempt a failed shard and how long to wait
    between attempts: capped exponential backoff with *deterministic*
    jitter (seeded by ``(salt, attempt)``, so two shards never thunder
    in lockstep yet every run is exactly reproducible). The policy is a
    budget, not a loop — the parallel engine owns the loop and also
    charges every sleep against its wall-clock deadline.

:class:`CircuitBreaker`
    The classic three-state breaker, guarding the parallel path: after
    ``failure_threshold`` *consecutive* whole-run fallbacks the breaker
    opens and the caller serves serially for ``cooldown_seconds``; the
    first call after the cooldown is a half-open trial whose outcome
    closes or re-opens the circuit. The clock is injectable so tests
    drive transitions without sleeping.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ResilienceError

#: Circuit breaker states.
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"


@dataclass(frozen=True)
class RetryPolicy:
    """Attempt and backoff budget for retrying one failed unit of work.

    ``max_attempts`` counts the first try: ``max_attempts=1`` disables
    retries, ``3`` means one try plus up to two retries. Delay before
    retry ``k`` (after ``k`` failures) is ``base * 2**(k-1)`` capped at
    ``max_delay_seconds``, shrunk by up to ``jitter_fraction`` by a
    deterministic per-``(salt, attempt)`` draw.
    """

    max_attempts: int = 3
    base_delay_seconds: float = 0.05
    max_delay_seconds: float = 2.0
    jitter_fraction: float = 0.25

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ResilienceError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_delay_seconds < 0 or self.max_delay_seconds < 0:
            raise ResilienceError("backoff delays must be >= 0")
        if not 0.0 <= self.jitter_fraction <= 1.0:
            raise ResilienceError(
                f"jitter_fraction must be in [0, 1], got {self.jitter_fraction}"
            )

    def backoff_delay(self, failures: int, salt: int = 0) -> float:
        """Seconds to wait after the ``failures``-th consecutive failure.

        Deterministic: the jitter draw is seeded by ``(salt, failures)``
        alone, so the same shard retrying the same attempt always waits
        the same time, while different shards (different salts) spread
        out.
        """
        if failures < 1:
            raise ResilienceError(f"failures must be >= 1, got {failures}")
        raw = min(
            self.max_delay_seconds,
            self.base_delay_seconds * (2.0 ** (failures - 1)),
        )
        if raw == 0.0 or self.jitter_fraction == 0.0:
            return raw
        draw = random.Random(f"repro-retry:{salt}:{failures}").random()
        return raw * (1.0 - self.jitter_fraction * draw)

    def retries_remaining(self, attempts: int) -> int:
        """How many more attempts the budget allows after ``attempts``."""
        return max(0, self.max_attempts - attempts)


class CircuitBreaker:
    """Trip the parallel path to serial after consecutive whole-run failures.

    Thread-safe; one breaker is shared by every iteration of a
    :class:`~repro.core.session.MiningSession` (or every run of an
    engine), which is exactly what makes it useful: a systemic problem
    — a poisoned worker pool, an overloaded host — stops being
    rediscovered by every request at full retry cost.
    """

    def __init__(
        self,
        failure_threshold: int = 3,
        cooldown_seconds: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ResilienceError(
                f"failure_threshold must be >= 1, got {failure_threshold}"
            )
        if cooldown_seconds < 0:
            raise ResilienceError(
                f"cooldown_seconds must be >= 0, got {cooldown_seconds}"
            )
        self.failure_threshold = failure_threshold
        self.cooldown_seconds = cooldown_seconds
        self._clock = clock
        self._lock = threading.Lock()
        self._state = CLOSED
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self.trips = 0

    @property
    def state(self) -> str:
        """``closed`` | ``open`` | ``half_open`` (cooldown-aware)."""
        with self._lock:
            self._refresh_locked()
            return self._state

    def allow(self) -> bool:
        """Whether the guarded (parallel) path may be attempted now."""
        with self._lock:
            self._refresh_locked()
            return self._state != OPEN

    def record_success(self) -> None:
        """A guarded run completed without falling back."""
        with self._lock:
            self._consecutive_failures = 0
            self._state = CLOSED

    def record_failure(self) -> None:
        """A guarded run fell back; maybe trip the circuit."""
        with self._lock:
            self._refresh_locked()
            self._consecutive_failures += 1
            should_open = (
                self._state == HALF_OPEN
                or self._consecutive_failures >= self.failure_threshold
            )
            if should_open and self._state != OPEN:
                self._state = OPEN
                self._opened_at = self._clock()
                self.trips += 1

    def snapshot(self) -> dict[str, object]:
        """State, trip count and consecutive-failure count, for stats."""
        with self._lock:
            self._refresh_locked()
            return {
                "state": self._state,
                "trips": self.trips,
                "consecutive_failures": self._consecutive_failures,
            }

    def _refresh_locked(self) -> None:
        if self._state == OPEN and (
            self._clock() - self._opened_at >= self.cooldown_seconds
        ):
            self._state = HALF_OPEN

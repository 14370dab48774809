"""Bounded, deterministic quantile estimation for long-running services.

A service that records every latency in a plain list grows without limit
— after a few million requests the "statistics" are the memory leak.
:class:`LatencyReservoir` is the standard fix: Vitter's Algorithm R
reservoir sampling over a fixed-size buffer, so memory is ``O(capacity)``
forever while every observation ever recorded had an equal chance of
being in the sample. Quantiles read off the sorted sample.

Two deliberate properties:

* **Deterministic.** The replacement RNG is seeded with a constant at
  construction, so the same observation sequence always yields the same
  sample — service stats stay reproducible, which the benchmark
  acceptance gates rely on.
* **Exact until full.** While fewer than :data:`RESERVOIR_CAPACITY`
  values have been recorded the sample *is* the population, so small
  test workloads see exact quantiles and nothing changes for existing
  callers.
"""

from __future__ import annotations

import random

#: Sample size: large enough that p99 over the sample tracks the
#: population p99 closely, small enough to be memory-irrelevant.
RESERVOIR_CAPACITY = 2048


class LatencyReservoir:
    """A fixed-size uniform sample of a value stream, with quantiles.

    Not thread-safe — callers that share one (``ServiceStats``, the
    gateway's per-class histograms) hold their own lock around
    :meth:`add` / :meth:`quantile`, exactly as they did for the
    unbounded list this replaces.
    """

    def __init__(self) -> None:
        self.count = 0  # observations ever recorded, not just retained
        self._sample: list[float] = []
        # Seeded alike so two reservoirs fed the same stream retain the
        # same sample.
        self._rng = random.Random(RESERVOIR_CAPACITY * 0x5EED + 1)

    def add(self, value: float) -> None:
        """Record one observation (kept with probability capacity/count)."""
        self.count += 1
        if len(self._sample) < RESERVOIR_CAPACITY:
            self._sample.append(value)
            return
        slot = self._rng.randrange(self.count)
        if slot < RESERVOIR_CAPACITY:
            self._sample[slot] = value

    def quantile(self, q: float) -> float:
        """The q-quantile (0 < q <= 1) of the sample (0.0 when empty).

        Uses the same nearest-rank convention the service's quantiles
        always used: the element at ``round(q * n) - 1`` of the sorted
        sample, clamped to its bounds.
        """
        if not self._sample:
            return 0.0
        ordered = sorted(self._sample)
        index = max(0, min(len(ordered) - 1, round(q * len(ordered)) - 1))
        return ordered[index]

    def __len__(self) -> int:
        """Values currently retained (== count until the buffer fills)."""
        return len(self._sample)

    def values(self) -> list[float]:
        """A copy of the retained sample (unsorted, arrival-biased order)."""
        return list(self._sample)

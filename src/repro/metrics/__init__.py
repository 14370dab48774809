"""Machine-independent cost accounting for experiments."""

from repro.metrics.counters import CostCounters
from repro.metrics.reservoir import RESERVOIR_CAPACITY, LatencyReservoir

__all__ = ["CostCounters", "RESERVOIR_CAPACITY", "LatencyReservoir"]

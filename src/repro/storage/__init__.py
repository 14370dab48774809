"""Simulated disk, memory estimation and memory-limited mining drivers."""

from repro.storage.disk import (
    SimulatedDisk,
    cgroups_byte_size,
    transactions_byte_size,
)
from repro.storage.memory import (
    estimate_hstruct_bytes,
    estimate_rpstruct_bytes,
    estimate_transactions_bytes,
    megabytes,
)
from repro.storage.projection import (
    mine_hmine_with_memory_budget,
    mine_rp_with_memory_budget,
)

__all__ = [
    "SimulatedDisk",
    "cgroups_byte_size",
    "estimate_hstruct_bytes",
    "estimate_rpstruct_bytes",
    "estimate_transactions_bytes",
    "megabytes",
    "mine_hmine_with_memory_budget",
    "mine_rp_with_memory_budget",
    "transactions_byte_size",
]

"""Tests for the simulated disk."""

from __future__ import annotations

import pytest

from repro.core.groups import Group
from repro.errors import StorageError
from repro.metrics.counters import CostCounters
from repro.storage.disk import (
    BYTES_PER_SECOND,
    ITEM_BYTES,
    RECORD_OVERHEAD_BYTES,
    SEEK_SECONDS,
    SimulatedDisk,
    cgroups_byte_size,
    transactions_byte_size,
)


class TestByteSizing:
    def test_transactions(self):
        size = transactions_byte_size([(1, 2, 3), (4,)])
        assert size == 4 * ITEM_BYTES + 2 * RECORD_OVERHEAD_BYTES

    def test_cgroups_store_pattern_once(self):
        grouped = cgroups_byte_size([Group((1, 2), 3, ((3,), (4,), ()))])
        # Pattern(2 items) + 2 record headers + tails: (1+1 items + 2
        # headers) + one empty tail header.
        flat = transactions_byte_size([(1, 2, 3), (1, 2, 4), (1, 2)])
        assert grouped < flat


class TestSimulatedDisk:
    def test_write_read_roundtrip(self):
        disk = SimulatedDisk()
        disk.write("k", [1, 2, 3], 12)
        assert disk.read("k") == [1, 2, 3]
        assert "k" in disk

    def test_read_missing_raises(self):
        with pytest.raises(StorageError, match="no object"):
            SimulatedDisk().read("ghost")

    def test_negative_size_rejected(self):
        with pytest.raises(StorageError, match="negative"):
            SimulatedDisk().write("k", None, -1)

    def test_io_accounting(self):
        counters = CostCounters()
        disk = SimulatedDisk(counters=counters)
        disk.write("a", "x", 100)
        disk.write("b", "y", 50)
        disk.read("a")
        assert counters.bytes_written == 150
        assert counters.bytes_read == 100
        assert counters.disk_writes == 2
        assert counters.disk_reads == 1
        assert disk.total_bytes_written == 150
        assert disk.total_bytes_read == 100

    def test_simulated_time_uses_model(self):
        disk = SimulatedDisk()
        disk.write("k", "x", 200)
        disk.read("k")
        assert disk.simulated_seconds == pytest.approx(
            2 * (SEEK_SECONDS + 200 / BYTES_PER_SECOND)
        )

    def test_delete_frees_without_io(self):
        disk = SimulatedDisk()
        disk.write("k", "x", 10)
        assert disk.stored_bytes() == 10
        disk.delete("k")
        assert disk.stored_bytes() == 0
        assert "k" not in disk
        assert disk.total_bytes_read == 0

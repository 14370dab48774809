"""A simulated disk with I/O accounting.

The paper's Section 5.3 enforces 4/8 MB memory limits on a 2004 PC and
measures the cost of projecting databases to secondary storage. We have
neither the machine nor a reason to hit a real filesystem, so this module
models the part that matters: *how many bytes move*. Objects are kept in
memory; every write and read charges byte and operation counters (into a
:class:`~repro.metrics.counters.CostCounters`) plus a simple seek+transfer
time model that experiments can report.
"""

from __future__ import annotations

from repro.core.groups import ITEM_BYTES, RECORD_OVERHEAD_BYTES
from repro.errors import StorageError
from repro.metrics.counters import CostCounters

__all__ = [
    "BYTES_PER_SECOND",
    "CONDENSED_HEADER_BYTES",
    "ITEM_BYTES",
    "RECORD_OVERHEAD_BYTES",
    "SEEK_SECONDS",
    "SimulatedDisk",
    "cgroups_byte_size",
    "patterns_byte_size",
    "transactions_byte_size",
    "transfer_time",
]

#: The timing model: a seek per operation plus a linear transfer.
SEEK_SECONDS = 0.005
BYTES_PER_SECOND = 40_000_000.0


def transfer_time(total_bytes: int, operations: int) -> float:
    """Modelled seconds to move ``total_bytes`` in ``operations`` I/Os."""
    return operations * SEEK_SECONDS + total_bytes / BYTES_PER_SECOND


def transactions_byte_size(transactions: list[tuple[int, ...]]) -> int:
    """Modelled on-disk size of a list of plain transactions."""
    return sum(
        len(tx) * ITEM_BYTES + RECORD_OVERHEAD_BYTES for tx in transactions
    )


#: Fixed charge for a condensed set's metadata (representation tag,
#: threshold, transaction count / rule depth) — one record's worth of
#: framing, mirroring the header lines in the on-disk format.
CONDENSED_HEADER_BYTES = 3 * ITEM_BYTES + RECORD_OVERHEAD_BYTES


def patterns_byte_size(patterns) -> int:
    """Modelled on-disk size of a pattern set, full or condensed.

    Each *stored row* charges its items plus a support count and
    per-record framing — the same int-based model as raw transactions,
    which is what the pattern warehouse charges against its byte budget.
    For a :class:`~repro.data.patterns.CondensedPatternSet` the stored
    rows are the condensed entries (``items()`` iterates entries, never
    the expansion), plus a fixed metadata-header charge — so the LRU
    budget reflects the real cost of a condensed entry, not the size of
    the full set it can reconstruct.
    """
    from repro.data.patterns import CondensedPatternSet

    # Iterating either set yields its stored rows' patterns.
    total = ITEM_BYTES * sum(map(len, patterns)) + len(patterns) * (
        ITEM_BYTES + RECORD_OVERHEAD_BYTES
    )
    if (
        isinstance(patterns, CondensedPatternSet)
        and patterns.representation != "full"
    ):
        total += CONDENSED_HEADER_BYTES
    return total


def cgroups_byte_size(groups) -> int:
    """Modelled on-disk size of a compressed (projected) database.

    Each group stores its pattern once plus a count, then its tails —
    the canonical model now lives on
    :attr:`repro.core.groups.Group.byte_size` (memoized per group); this
    helper just sums it over a (projected) group list.
    """
    return sum(group.byte_size for group in groups)


class SimulatedDisk:
    """Keyed object store that charges simulated I/O.

    ``write``/``read`` take an explicit byte size (computed by the caller
    with the helpers above) so the accounting matches the representation
    actually being "stored", not Python object overhead.
    """

    def __init__(self, counters: CostCounters | None = None) -> None:
        self.counters = counters
        self._store: dict[str, object] = {}
        self._sizes: dict[str, int] = {}
        self.simulated_seconds = 0.0
        self.total_bytes_written = 0
        self.total_bytes_read = 0
        self.write_ops = 0
        self.read_ops = 0
        self.peak_stored_bytes = 0

    def write(self, key: str, payload: object, byte_size: int) -> None:
        """Store ``payload`` under ``key``, charging ``byte_size`` bytes."""
        if byte_size < 0:
            raise StorageError(f"negative byte size {byte_size} for {key!r}")
        self._store[key] = payload
        self._sizes[key] = byte_size
        self.simulated_seconds += transfer_time(byte_size, 1)
        self.total_bytes_written += byte_size
        self.write_ops += 1
        self.peak_stored_bytes = max(self.peak_stored_bytes, self.stored_bytes())
        if self.counters is not None:
            self.counters.disk_writes += 1
            self.counters.bytes_written += byte_size

    def read(self, key: str) -> object:
        """Fetch ``payload`` for ``key``, charging its stored size."""
        try:
            payload = self._store[key]
        except KeyError:
            raise StorageError(f"no object stored under {key!r}") from None
        byte_size = self._sizes[key]
        self.simulated_seconds += transfer_time(byte_size, 1)
        self.total_bytes_read += byte_size
        self.read_ops += 1
        if self.counters is not None:
            self.counters.disk_reads += 1
            self.counters.bytes_read += byte_size
        return payload

    def delete(self, key: str) -> None:
        """Drop a stored object (no I/O charge — it models a free)."""
        self._store.pop(key, None)
        self._sizes.pop(key, None)

    def stored_bytes(self) -> int:
        """Total bytes currently resident on the simulated disk."""
        return sum(self._sizes.values())

    def __contains__(self, key: str) -> bool:
        return key in self._store

"""The one group representation shared by every phase of recycling.

The seed carried two parallel group types: ``Group`` (compression output,
with tids and full tails) and ``CGroup`` (the Phase 2 mining row, with a
count and only the non-empty tails). Every recycling miner then owned a
private conversion from either. This module
collapses all of that into a single :class:`Group` dataclass and a
:class:`GroupedDatabase` container that every layer — compression, the
shared mining kernel in :mod:`repro.storage.projection`, the planner, the
service and the benchmarks — consumes directly.

A :class:`Group` is *(pattern, count, tails, tids, mask)*:

``pattern``
    The group head, the items implied in every member tuple (sorted item
    ids; empty for the residual group of unmatched tuples).
``count``
    The number of member tuples (``X.C`` restricted to the group). For a
    projected group this can exceed ``len(tails)`` — members whose tail
    projected away entirely still assert the pattern.
``tails``
    Each member's outlying items. Freshly compressed (root) groups keep
    tails parallel to ``tids`` including empty ones, so decompression and
    the Table 2 bookkeeping work; projected groups keep only non-empty
    tails (see :meth:`compact`).
``tids``
    The member transaction ids, parallel to ``tails`` (root groups only).
``mask``
    The member *position* bitmap over the original database — bit ``p``
    set when the transaction at position ``p`` belongs to the group. This
    is what lets the bitset kernel count an item inside a group with one
    big-int ``&`` + ``bit_count()`` against the shared
    :class:`~repro.data.encoded.EncodedDatabase` (``0`` when unknown,
    e.g. for hand-built or projected groups).

The byte-size model lives here (memoized per group) and is the single
source of truth for :func:`repro.storage.disk.cgroups_byte_size` and the
warehouse's ``patterns_byte_size`` — same int-per-item accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import DataError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.encoded import EncodedDatabase
    from repro.data.transactions import TransactionDatabase

#: Bytes per stored item id (a 2004-era 32-bit int). Re-exported by
#: :mod:`repro.storage.disk`, which historically defined it.
ITEM_BYTES = 4
#: Bytes of per-record framing (tuple length header).
RECORD_OVERHEAD_BYTES = 4


@dataclass(frozen=True)
class Group:
    """One group of a (possibly projected) compressed database.

    Positionally compatible with both legacy types: the old ``CGroup``
    constructor ``(pattern, count, tails)`` works unchanged, and root
    groups additionally carry ``tids`` and ``mask``.
    """

    pattern: tuple[int, ...]
    count: int
    tails: tuple[tuple[int, ...], ...]
    tids: tuple[int, ...] = ()
    mask: int = field(default=0)

    def stored_items(self) -> int:
        """Item slots this group occupies: pattern once + every tail."""
        return len(self.pattern) + sum(len(tail) for tail in self.tails)

    @cached_property
    def byte_size(self) -> int:
        """Modelled on-disk size: pattern + count header, then tails."""
        total = len(self.pattern) * ITEM_BYTES + 2 * RECORD_OVERHEAD_BYTES
        for tail in self.tails:
            total += len(tail) * ITEM_BYTES + RECORD_OVERHEAD_BYTES
        return total

    @cached_property
    def pattern_set(self) -> frozenset[int]:
        """The head as a set, for O(1) membership in the kernels."""
        return frozenset(self.pattern)

    def compact(self) -> "Group":
        """The mining view of this group: non-empty tails only, no tids.

        ``count`` and ``mask`` are preserved — a member whose tail is
        empty still asserts the pattern (and its mask bit).
        """
        if self.tails and not all(self.tails):
            return Group(
                self.pattern,
                self.count,
                tuple(tail for tail in self.tails if tail),
                mask=self.mask,
            )
        if self.tids:
            return Group(self.pattern, self.count, self.tails, mask=self.mask)
        return self

    def item_bitmap(self, enc: "EncodedDatabase", item: int) -> int:
        """Member-position bitmap of the members containing ``item``.

        Pattern items own the whole group (the paper's group-count
        saving); tail items narrow :attr:`mask` through the shared
        encoded database's vertical bitmaps.
        """
        if item in self.pattern_set:
            return self.mask
        return enc.bitmap_for_item(item) & self.mask


class GroupedDatabase:
    """A database in group representation: the unit Phase 2 mines.

    Iterating yields :class:`Group` objects, non-empty-pattern groups
    first (largest first) and the residual group (pattern ``()``) last
    when present.  When built from a source
    :class:`~repro.data.transactions.TransactionDatabase` the instance
    also carries the shared encoded view, which is what the bitset
    mining engine keys on (:attr:`supports_bitset`).
    """

    def __init__(
        self,
        groups: Iterable[Group],
        original: "TransactionDatabase | None" = None,
    ) -> None:
        self._groups = tuple(groups)
        self._original = original
        self._original_size = original.total_items() if original is not None else None
        self._original_count = len(original) if original is not None else None

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_database(cls, db: "TransactionDatabase") -> "GroupedDatabase":
        """Wrap an uncompressed database as one all-residual group.

        Mining this must equal plain mining — the degenerate recycling
        case (the replacement for the old ``database_to_cgroups``).
        """
        groups = []
        if len(db):
            groups.append(
                Group(
                    pattern=(),
                    count=len(db),
                    tails=tuple(db),
                    tids=tuple(db.tids),
                    mask=db.encoded().universe,
                )
            )
        return cls(groups, original=db)

    @classmethod
    def from_groups(cls, groups: Iterable[Group]) -> "GroupedDatabase":
        """Wrap bare (e.g. hand-built or projected) groups, no original."""
        return cls(groups, original=None)

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __iter__(self) -> Iterator[Group]:
        return iter(self._groups)

    def __len__(self) -> int:
        return len(self._groups)

    @property
    def groups(self) -> tuple[Group, ...]:
        return self._groups

    @property
    def original(self) -> "TransactionDatabase | None":
        """The database that was compressed (``None`` for bare groups)."""
        return self._original

    def encoded(self) -> "EncodedDatabase | None":
        """The shared encoded view of the original database, if any."""
        if self._original is None:
            return None
        return self._original.encoded()

    @cached_property
    def supports_bitset(self) -> bool:
        """Whether the bitset kernel can mine this database.

        Requires the original's encoded view plus a full member mask on
        every group (``bit_count() == count`` — the invariant
        :func:`repro.core.compression.compress` maintains).
        """
        if self._original is None:
            return False
        return all(g.mask.bit_count() == g.count for g in self._groups)

    @cached_property
    def _mining_groups(self) -> tuple[Group, ...]:
        return tuple(g.compact() for g in self._groups)

    def mining_groups(self) -> tuple[Group, ...]:
        """The compacted groups the Phase 2 kernels consume."""
        return self._mining_groups

    # ------------------------------------------------------------------
    # size model
    # ------------------------------------------------------------------
    @property
    def original_tuple_count(self) -> int:
        """Tuple count of the database that was compressed."""
        if self._original_count is not None:
            return self._original_count
        return self.tuple_count()

    def tuple_count(self) -> int:
        """Total tuples across groups (must equal the original count)."""
        return sum(group.count for group in self._groups)

    def grouped_tuple_count(self) -> int:
        """Tuples actually covered by a non-empty pattern."""
        return sum(g.count for g in self._groups if g.pattern)

    def size(self) -> int:
        """Stored item slots S_c (patterns stored once, plus all tails)."""
        return sum(group.stored_items() for group in self._groups)

    def original_size(self) -> int:
        """Item occurrences S_o of the uncompressed database.

        Falls back to the expanded group size when no original database
        is attached (every member re-pays its pattern items).
        """
        if self._original_size is not None:
            return self._original_size
        return sum(
            g.count * len(g.pattern) + sum(len(tail) for tail in g.tails)
            for g in self._groups
        )

    @cached_property
    def byte_size(self) -> int:
        """Modelled on-disk bytes, memoized (the sum of group sizes)."""
        return sum(group.byte_size for group in self._groups)

    def compression_ratio(self) -> float:
        """``R = S_c / S_o`` (Section 5.1); smaller is better.

        Defined as 1.0 for an empty database — nothing was stored and
        nothing could be saved, so compression neither helped nor hurt
        (and there is no division by zero).
        """
        original = self.original_size()
        if original == 0:
            return 1.0
        return self.size() / original

    # ------------------------------------------------------------------
    # reconstruction
    # ------------------------------------------------------------------
    def decompress(self) -> "TransactionDatabase":
        """Reconstruct the original database (tuples in tid order)."""
        from repro.data.transactions import TransactionDatabase

        rows: list[tuple[int, tuple[int, ...]]] = []
        for group in self._groups:
            if len(group.tids) != len(group.tails):
                raise DataError(
                    "cannot decompress a projected group (tids were dropped)"
                )
            for tid, tail in zip(group.tids, group.tails):
                rows.append((tid, tuple(group.pattern) + tail))
        rows.sort()
        return TransactionDatabase(
            [items for _tid, items in rows], tids=[tid for tid, _items in rows]
        )


def to_grouped(source: object) -> GroupedDatabase:
    """Coerce any legacy Phase 2 source into a :class:`GroupedDatabase`.

    Accepts a :class:`GroupedDatabase` (returned as-is), a
    :class:`~repro.data.transactions.TransactionDatabase` (wrapped as one
    residual group) or a bare iterable of :class:`Group` rows (the old
    ``list[CGroup]`` calling convention). This is the single conversion
    point that replaced the per-miner ``isinstance`` unions.
    """
    from repro.data.transactions import TransactionDatabase

    if isinstance(source, GroupedDatabase):
        return source
    if isinstance(source, TransactionDatabase):
        return GroupedDatabase.from_database(source)
    if isinstance(source, Group):
        return GroupedDatabase.from_groups((source,))
    try:
        groups = tuple(source)  # type: ignore[call-overload]
    except TypeError:
        raise DataError(
            f"cannot interpret {type(source).__name__} as a grouped database"
        ) from None
    for group in groups:
        if not isinstance(group, Group):
            raise DataError(
                f"expected Group rows, got {type(group).__name__}"
            )
    return GroupedDatabase.from_groups(groups)

"""The unified group representation (repro.core.groups).

Covers the Group dataclass (legacy positional compatibility, the byte
size model, compaction), the GroupedDatabase container (constructors,
size model, bitset eligibility, decompression) and the to_grouped
coercion point, plus the absence of the retired CGroup-era shims. The
empty/all-residual edge cases pinned here are
regression tests: compression_ratio must be 1.0 (not ZeroDivisionError)
for an empty database, and an all-residual compression must round-trip.
"""

from __future__ import annotations

import pytest

from repro.core.compression import compress
from repro.core.groups import (
    ITEM_BYTES,
    RECORD_OVERHEAD_BYTES,
    Group,
    GroupedDatabase,
    to_grouped,
)
from repro.data.transactions import TransactionDatabase
from repro.errors import DataError
from repro.mining.patterns import PatternSet


class TestGroup:
    def test_legacy_positional_construction(self):
        """The old CGroup calling convention (pattern, count, tails)."""
        group = Group((1, 2), 3, ((4,), (5, 6)))
        assert group.pattern == (1, 2)
        assert group.count == 3
        assert group.tails == ((4,), (5, 6))
        assert group.tids == ()
        assert group.mask == 0

    def test_equality_ignores_nothing(self):
        assert Group((1,), 2, ()) == Group((1,), 2, ())
        assert Group((1,), 2, (), mask=0b11) != Group((1,), 2, ())

    def test_stored_items(self):
        group = Group((1, 2), 3, ((4,), (), (5, 6)))
        assert group.stored_items() == 2 + 3

    def test_byte_size_model(self):
        """pattern items + (pattern, count) headers + per-tail framing."""
        group = Group((1, 2), 3, ((4,), (), (5, 6)))
        expected = (
            2 * ITEM_BYTES
            + 2 * RECORD_OVERHEAD_BYTES
            + (1 * ITEM_BYTES + RECORD_OVERHEAD_BYTES)
            + (0 * ITEM_BYTES + RECORD_OVERHEAD_BYTES)
            + (2 * ITEM_BYTES + RECORD_OVERHEAD_BYTES)
        )
        assert group.byte_size == expected

    def test_compact_drops_empty_tails_and_tids_keeps_count_and_mask(self):
        group = Group((1,), 3, ((2,), (), (3,)), tids=(10, 20, 30), mask=0b111)
        compacted = group.compact()
        assert compacted.tails == ((2,), (3,))
        assert compacted.count == 3  # the empty-tail member still counts
        assert compacted.mask == 0b111
        assert compacted.tids == ()

    def test_compact_is_identity_when_already_compact(self):
        group = Group((1,), 2, ((2,), (3,)))
        assert group.compact() is group

    def test_item_bitmap(self):
        db = TransactionDatabase([[1, 2], [1, 3], [2, 3]])
        enc = db.encoded()
        group = Group((1,), 2, ((2,), (3,)), mask=0b011)
        # Pattern item: the whole group's mask.
        assert group.item_bitmap(enc, 1) == 0b011
        # Tail item: narrowed by the item's vertical bitmap.
        assert group.item_bitmap(enc, 3) == enc.bitmap_for_item(3) & 0b011
        # Absent item: empty.
        assert group.item_bitmap(enc, 99) == 0


class TestGroupedDatabase:
    def test_from_database_single_residual_group(self, tiny_db):
        grouped = GroupedDatabase.from_database(tiny_db)
        assert len(grouped) == 1
        (residual,) = grouped
        assert residual.pattern == ()
        assert residual.count == len(tiny_db)
        assert residual.mask == tiny_db.encoded().universe
        assert grouped.supports_bitset

    def test_from_empty_database(self):
        empty = TransactionDatabase([])
        grouped = GroupedDatabase.from_database(empty)
        assert len(grouped) == 0
        assert grouped.tuple_count() == 0
        assert grouped.size() == 0
        assert grouped.compression_ratio() == 1.0  # no ZeroDivisionError
        assert grouped.decompress() == empty

    def test_empty_bare_groups_ratio_is_one(self):
        assert GroupedDatabase.from_groups(()).compression_ratio() == 1.0

    def test_size_model_against_paper_example(self, paper_db, paper_old_patterns):
        compressed = compress(paper_db, paper_old_patterns, "mcp").compressed
        assert compressed.tuple_count() == len(paper_db)
        assert compressed.original_size() == paper_db.total_items()
        assert compressed.size() <= compressed.original_size()
        ratio = compressed.compression_ratio()
        assert 0 < ratio < 1
        assert compressed.byte_size == sum(g.byte_size for g in compressed.groups)

    def test_all_residual_compression(self):
        """Ghost patterns claim nothing: everything lands in the residual
        group and the ratio is exactly 1 (nothing saved, nothing added)."""
        db = TransactionDatabase([[1, 2], [2, 3]])
        ghost = PatternSet({frozenset({8, 9}): 2})
        compressed = compress(db, ghost, "mcp").compressed
        assert [g.pattern for g in compressed.groups] == [()]
        assert compressed.compression_ratio() == 1.0
        assert compressed.decompress() == db

    def test_decompress_round_trips(self, paper_db, paper_old_patterns):
        for strategy in ("mcp", "mlp"):
            compressed = compress(paper_db, paper_old_patterns, strategy).compressed
            assert compressed.decompress() == paper_db

    def test_decompress_rejects_projected_groups(self):
        projected = GroupedDatabase.from_groups([Group((1,), 2, ((2,),))])
        with pytest.raises(DataError):
            projected.decompress()

    def test_bare_groups_do_not_support_bitset(self):
        grouped = GroupedDatabase.from_groups([Group((1,), 2, ((2,), (3,)))])
        assert not grouped.supports_bitset
        assert grouped.encoded() is None

    def test_partial_masks_disable_bitset(self, paper_db, paper_old_patterns):
        compressed = compress(paper_db, paper_old_patterns, "mcp").compressed
        assert compressed.supports_bitset
        stripped = GroupedDatabase(
            [
                Group(g.pattern, g.count, g.tails, g.tids, mask=0)
                for g in compressed.groups
            ],
            compressed.original,
        )
        assert not stripped.supports_bitset

    def test_mining_groups_are_compacted(self, paper_db, paper_old_patterns):
        compressed = compress(paper_db, paper_old_patterns, "mcp").compressed
        for group in compressed.mining_groups():
            assert all(group.tails)
            assert group.tids == ()
            assert group.mask.bit_count() == group.count


class TestToGrouped:
    def test_grouped_database_passes_through(self, tiny_db):
        grouped = GroupedDatabase.from_database(tiny_db)
        assert to_grouped(grouped) is grouped

    def test_transaction_database_wraps(self, tiny_db):
        grouped = to_grouped(tiny_db)
        assert isinstance(grouped, GroupedDatabase)
        assert grouped.tuple_count() == len(tiny_db)

    def test_single_group_and_group_list(self):
        group = Group((1,), 2, ((2,), (3,)))
        assert to_grouped(group).groups == (group,)
        assert to_grouped([group, group]).groups == (group, group)

    def test_rejects_non_groups(self):
        with pytest.raises(DataError):
            to_grouped(42)
        with pytest.raises(DataError):
            to_grouped([("not", "a", "group")])


class TestRetiredShims:
    """The CGroup-era compatibility shims are gone, not just deprecated."""

    def test_retired_names_are_absent(self):
        import repro.core

        with pytest.raises(ModuleNotFoundError):
            import repro.core.naive  # noqa: F401
        for name in ("CGroup", "compressed_to_cgroups", "database_to_cgroups"):
            with pytest.raises(AttributeError):
                getattr(repro.core, name)
            assert name not in repro.core.__all__

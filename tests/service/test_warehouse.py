"""Tests for the pattern warehouse (keys, lookup preference, LRU budget)."""

from __future__ import annotations

import pytest

from repro.data.transactions import TransactionDatabase
from repro.errors import StorageError
from repro.mining.hmine import mine_hmine
from repro.mining.patterns import PatternSet
from repro.service.warehouse import PatternWarehouse
from repro.storage.disk import patterns_byte_size


@pytest.fixture
def db():
    return TransactionDatabase(
        [[1, 2, 3], [1, 2, 3], [1, 2], [2, 3], [1, 3], [1, 2, 3, 4]] * 3
    )


def _sets(db, supports):
    return {s: mine_hmine(db, s) for s in supports}


class TestPutGet:
    def test_round_trip(self, db):
        warehouse = PatternWarehouse()
        patterns = mine_hmine(db, 6)
        assert warehouse.put(db.fingerprint(), 6, patterns)
        assert warehouse.get(db.fingerprint(), 6) == patterns
        assert warehouse.get(db.fingerprint(), 7) is None
        assert warehouse.get("other", 6) is None

    def test_replacing_an_entry_does_not_double_charge(self, db):
        warehouse = PatternWarehouse()
        patterns = mine_hmine(db, 6)
        warehouse.put(db.fingerprint(), 6, patterns)
        warehouse.put(db.fingerprint(), 6, patterns)
        assert len(warehouse) == 1
        # The charge is the *condensed* entry's size, once.
        stored = warehouse.get_condensed(db.fingerprint(), 6)
        assert warehouse.stored_bytes() == patterns_byte_size(stored)

    def test_fingerprint_is_content_addressed(self, db):
        """An equal database built separately shares warehouse entries."""
        twin = TransactionDatabase(list(db.transactions))
        warehouse = PatternWarehouse()
        warehouse.put(db.fingerprint(), 6, mine_hmine(db, 6))
        assert warehouse.get(twin.fingerprint(), 6) == mine_hmine(db, 6)

    def test_zero_budget_rejected(self):
        with pytest.raises(StorageError, match="positive"):
            PatternWarehouse(byte_budget=0)


class TestBestFeedstock:
    def test_exact_hit(self, db):
        warehouse = PatternWarehouse()
        sets = _sets(db, (6, 9, 12))
        for support, patterns in sets.items():
            warehouse.put(db.fingerprint(), support, patterns)
        hit = warehouse.best_feedstock(db.fingerprint(), 9)
        assert hit is not None and hit.distance == 0
        assert hit.absolute_support == 9
        assert hit.patterns == sets[9]

    def test_prefers_largest_superset_below(self, db):
        """Stored 6 and 9, requested 10: filter the 9-set (smallest superset)."""
        warehouse = PatternWarehouse()
        sets = _sets(db, (6, 9))
        for support, patterns in sets.items():
            warehouse.put(db.fingerprint(), support, patterns)
        hit = warehouse.best_feedstock(db.fingerprint(), 10)
        assert hit is not None
        assert hit.absolute_support == 9
        # Filtering the hit yields exactly the answer at the requested support.
        assert hit.patterns.filter_min_support(10) == mine_hmine(db, 10)

    def test_subsets_above_are_a_miss(self, db):
        """Stored 9 and 15, requested 6: both are subsets of the answer,
        which the service mines cold, so neither is feedstock."""
        warehouse = PatternWarehouse()
        for support, patterns in _sets(db, (9, 15)).items():
            warehouse.put(db.fingerprint(), support, patterns)
        assert warehouse.best_feedstock(db.fingerprint(), 6) is None
        assert warehouse.best_feedstock(db.fingerprint(), 12).absolute_support == 9

    def test_miss(self, db):
        warehouse = PatternWarehouse()
        warehouse.put("somebody-else", 5, mine_hmine(db, 5))
        assert warehouse.best_feedstock(db.fingerprint(), 5) is None


class TestByteBudget:
    # These budgets are sized from full-set byte counts, so they pin the
    # LRU mechanics with representation="full"; condensed-size accounting
    # has its own budget tests in test_warehouse_condensed.py.
    def test_budget_never_exceeded_and_lru_evicts_first(self, db):
        sets = _sets(db, (4, 6, 9, 12))
        sizes = {s: patterns_byte_size(p) for s, p in sets.items()}
        budget = sizes[4] + sizes[6] + 1  # room for the two biggest, not all
        warehouse = PatternWarehouse(byte_budget=budget, representation="full")
        for support in (12, 9, 6, 4):
            assert warehouse.put(db.fingerprint(), support, sets[support])
            assert warehouse.stored_bytes() <= budget
        assert warehouse.evictions > 0
        # The most recently stored entry must have survived.
        assert (db.fingerprint(), 4) in warehouse

    def test_touch_order_protects_recently_used_entries(self, db):
        sets = _sets(db, (4, 6, 9))
        warehouse = PatternWarehouse()
        for support in (9, 6, 4):
            warehouse.put(db.fingerprint(), support, sets[support])
        warehouse.get(db.fingerprint(), 9)  # touch the oldest
        keys = warehouse.keys()
        assert keys[-1] == (db.fingerprint(), 9)
        assert keys[0] == (db.fingerprint(), 6)

    def test_oversized_entry_rejected_outright(self, db):
        patterns = mine_hmine(db, 4)
        warehouse = PatternWarehouse(
            byte_budget=patterns_byte_size(patterns) - 1, representation="full"
        )
        assert not warehouse.put(db.fingerprint(), 4, patterns)
        assert len(warehouse) == 0
        assert warehouse.rejections == 1

    def test_empty_pattern_set_storable(self, db):
        warehouse = PatternWarehouse(byte_budget=1000)
        assert warehouse.put(db.fingerprint(), 99, PatternSet())
        assert warehouse.get(db.fingerprint(), 99) == PatternSet()


class TestDiskBacking:
    def test_persists_across_instances(self, db, tmp_path):
        sets = _sets(db, (6, 9))
        first = PatternWarehouse(directory=tmp_path)
        for support, patterns in sets.items():
            first.put(db.fingerprint(), support, patterns)

        reborn = PatternWarehouse(directory=tmp_path)
        assert len(reborn) == 2
        assert reborn.get(db.fingerprint(), 6) == sets[6]
        hit = reborn.best_feedstock(db.fingerprint(), 7)
        assert hit is not None and hit.absolute_support == 6

    def test_eviction_removes_files(self, db, tmp_path):
        sets = _sets(db, (4, 6))
        budget = patterns_byte_size(sets[4]) + 1
        warehouse = PatternWarehouse(
            byte_budget=budget, directory=tmp_path, representation="full"
        )
        warehouse.put(db.fingerprint(), 6, sets[6])
        warehouse.put(db.fingerprint(), 4, sets[4])  # evicts the 6-entry
        remaining = list(tmp_path.glob("*.patterns"))
        assert len(remaining) == 1
        assert remaining[0].name.endswith("-4.patterns")

    def test_reload_respects_budget(self, db, tmp_path):
        sets = _sets(db, (4, 6, 9))
        unbounded = PatternWarehouse(directory=tmp_path)
        for support, patterns in sets.items():
            unbounded.put(db.fingerprint(), support, patterns)

        budget = patterns_byte_size(sets[9]) + patterns_byte_size(sets[6])
        bounded = PatternWarehouse(
            byte_budget=budget, directory=tmp_path, representation="full"
        )
        assert bounded.stored_bytes() <= budget
        assert len(bounded) < 3

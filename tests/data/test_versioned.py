"""Tests for versioned database chains (deltas, lineage, fingerprints)."""

from __future__ import annotations

import pytest

from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.errors import DataError


@pytest.fixture
def db():
    return TransactionDatabase([[1, 2, 3], [2, 3], [1, 3], [4, 5], [1, 2]])


class TestDatabaseDelta:
    def test_appends_normalized_like_transactions(self):
        delta = DatabaseDelta.append([[3, 1, 2, 2], [5, 4]])
        assert delta.appends == ((1, 2, 3), (4, 5))
        assert delta.is_insert_only and not delta.is_empty
        assert delta.size == 2

    def test_duplicate_appended_rows_are_kept(self):
        # Two identical transactions are two rows — dedup would corrupt
        # every support count downstream.
        delta = DatabaseDelta.append([[1, 2], [1, 2]])
        assert delta.appends == ((1, 2), (1, 2))

    def test_bad_items_and_tids_rejected(self):
        with pytest.raises(DataError, match="bad items"):
            DatabaseDelta.append([[-1, 2]])
        with pytest.raises(DataError, match="non-negative"):
            DatabaseDelta.delete([-3])

    def test_apply_deletes_then_appends_preserving_tids(self, db):
        delta = DatabaseDelta(appends=((7, 8),), deletes=frozenset({1, 3}))
        new_db = delta.apply(db)
        assert new_db.tids == (0, 2, 4, 5)
        assert new_db.transactions == ((1, 2, 3), (1, 3), (1, 2), (7, 8))

    def test_apply_unknown_tid_is_an_error(self, db):
        with pytest.raises(DataError, match="unknown tids"):
            DatabaseDelta.delete([99]).apply(db)

    @pytest.mark.parametrize("next_tid", [0, 4, -3, True, 5.0, "5"])
    def test_apply_rejects_a_next_tid_that_could_collide(self, db, next_tid):
        # db's tids are 0..4: any next_tid at or below 4 would hand an
        # appended row a tid that is already taken (or a negative one).
        with pytest.raises(DataError, match="next_tid"):
            DatabaseDelta.append([[5]]).apply(db, next_tid=next_tid)

    def test_apply_to_empty_database_rejects_negative_next_tid(self):
        with pytest.raises(DataError, match="next_tid"):
            DatabaseDelta.append([[5]]).apply(TransactionDatabase([]), next_tid=-3)
        grown = DatabaseDelta.append([[5]]).apply(TransactionDatabase([]), next_tid=0)
        assert grown.tids == (0,)

    def test_apply_deletes_exactly_one_row_per_tid(self, db):
        shrunk = DatabaseDelta.delete([0, 4]).apply(db)
        assert shrunk.tids == (1, 2, 3)
        with pytest.raises(DataError, match="unknown tids \\[4, 7\\]"):
            DatabaseDelta.delete([1, 4, 7]).apply(shrunk)

    def test_delta_fingerprint_distinguishes_adds_from_deletes(self):
        append = DatabaseDelta.append([[1]])
        delete = DatabaseDelta.delete([1])
        assert append.delta_fingerprint() != delete.delta_fingerprint()
        assert (
            DatabaseDelta.append([[1]]).delta_fingerprint()
            == append.delta_fingerprint()
        )


class TestVersionedChain:
    def test_chain_links_fingerprints(self, db):
        v0 = VersionedDatabase.initial(db)
        delta = DatabaseDelta.append([[6, 7]])
        v1 = v0.apply(delta)
        assert v1.version == 1
        assert v1.parent.fingerprint() == v0.fingerprint()
        assert v1.delta_fingerprint == delta.delta_fingerprint()
        assert v0.parent is None and v0.delta_fingerprint is None
        assert v1.chain() == (v1, v0)

    def test_lineage_accumulates_delta_distance(self, db):
        v0 = VersionedDatabase.initial(db)
        v1 = v0.apply(DatabaseDelta.append([[6], [7]]))
        v2 = v1.apply(DatabaseDelta.delete([0]))
        lineage = v2.lineage()
        assert lineage == (
            (v2.fingerprint(), 0),
            (v1.fingerprint(), 1),
            (v0.fingerprint(), 3),
        )
        assert v2.ancestor(v0.fingerprint()) is v0
        assert v2.ancestor("nope") is None

    def test_deleted_tids_are_never_reused(self, db):
        v1 = VersionedDatabase.initial(db).apply(DatabaseDelta.delete([4]))
        v2 = v1.apply(DatabaseDelta.append([[9]]))
        # tid 4 was retired with its transaction; the append gets 5.
        assert v2.db.tids == (0, 1, 2, 3, 5)
        assert v2.db.transactions[-1] == (9,)

    def test_delete_then_append_equals_the_combined_delta(self):
        """Two hops keep every surviving tid and land exactly where one
        combined delta does: same rows, same tids, same fingerprint."""
        base = TransactionDatabase([[1], [2], [3], [4]])
        shrunk = DatabaseDelta.delete([1]).apply(base)
        two_hops = DatabaseDelta.append([[5]]).apply(shrunk)
        combined = DatabaseDelta(appends=[[5]], deletes=[1]).apply(base)
        assert two_hops.tids == combined.tids == (0, 2, 3, 4)
        assert two_hops.transactions == combined.transactions
        assert two_hops.fingerprint() == combined.fingerprint()
        # Renumbering the survivors would be a different database.
        renumbered = TransactionDatabase(two_hops.transactions)
        assert renumbered.tids == (0, 1, 2, 3)
        assert renumbered.fingerprint() != two_hops.fingerprint()

    def test_delta_from_reconstructs_multi_hop_change(self, db):
        v0 = VersionedDatabase.initial(db)
        v1 = v0.apply(DatabaseDelta(appends=((8, 9),), deletes=frozenset({0})))
        v2 = v1.apply(DatabaseDelta.append([[6, 7]]))
        recon = v2.delta_from(v0)
        assert recon.deletes == frozenset({0})
        assert sorted(recon.appends) == [(6, 7), (8, 9)]
        assert recon.apply(v0.db, next_tid=5) == v2.db


class TestFingerprintCacheSemantics:
    """Satellite: the fingerprint contract versioning leans on."""

    def test_fingerprint_is_computed_once_and_stable(self, db):
        first = db.fingerprint()
        assert db.fingerprint() is first  # cached, not recomputed

    def test_equal_content_equal_fingerprint_across_construction_paths(self, db):
        """A database grown through a delta chain fingerprints the same
        as one built directly from the final content — the property that
        lets warehouse entries transfer between tenants that arrived at
        the same data differently."""
        grown = DatabaseDelta.append([[6, 7], [8]]).apply(db)
        direct = TransactionDatabase(
            [[1, 2, 3], [2, 3], [1, 3], [4, 5], [1, 2], [6, 7], [8]]
        )
        assert grown == direct
        assert grown.fingerprint() == direct.fingerprint()

    def test_same_rows_different_tids_fingerprint_differently(self, db):
        """Post-delete tids are part of the identity: the same surviving
        rows under renumbered tids are a *different* cache key, because
        a stored delta's tid references would no longer resolve."""
        survivor = DatabaseDelta.delete([0]).apply(db)
        renumbered = TransactionDatabase(survivor.transactions)
        assert survivor.transactions == renumbered.transactions
        assert survivor.fingerprint() != renumbered.fingerprint()

    def test_chain_versions_have_distinct_fingerprints(self, db):
        v0 = VersionedDatabase.initial(db)
        v1 = v0.apply(DatabaseDelta.append([[9]]))
        v2 = v1.apply(DatabaseDelta.delete([v1.db.tids[-1]]))
        fingerprints = {v.fingerprint() for v in (v0, v1, v2)}
        assert len(fingerprints) == 2  # v2 restored v0's exact content...
        assert v2.fingerprint() == v0.fingerprint()  # ...and its tids

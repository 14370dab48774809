"""Sharding unit tests: atomic groups, scaling soundness, stable shards."""

from __future__ import annotations

import pickle

import pytest

from repro.core.compression import compress
from repro.core.groups import GroupedDatabase
from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.mining.bruteforce import mine_bruteforce
from repro.parallel import Shard, ShardPlanner, scale_local_support


def small_db() -> TransactionDatabase:
    return TransactionDatabase(
        [
            [1, 2, 3],
            [1, 2, 4],
            [1, 2],
            [3, 4],
            [3, 4, 5],
            [5, 6],
            [1, 5, 6],
            [2, 3, 4],
        ]
    )


def compressed(db: TransactionDatabase) -> GroupedDatabase:
    patterns = mine_bruteforce(db, 3)
    return compress(db, patterns, "mcp").compressed


class TestScaleLocalSupport:
    def test_even_split_divides_exactly(self):
        assert scale_local_support(10, 50, 100) == 5

    def test_rounds_up(self):
        # ceil(10 * 33 / 100) = ceil(3.3) = 4: a pattern meeting global
        # support must reach at least that count in some shard.
        assert scale_local_support(10, 33, 100) == 4

    def test_never_below_one(self):
        assert scale_local_support(1, 1, 1000) == 1

    def test_single_shard_is_identity(self):
        assert scale_local_support(7, 100, 100) == 7

    def test_pigeonhole_soundness(self):
        # If every shard missed its scaled threshold, the summed counts
        # would fall below the global threshold — exhaustively check the
        # contrapositive on small splits.
        total, global_support = 20, 6
        for a in range(1, total):
            b = total - a
            ta = scale_local_support(global_support, a, total)
            tb = scale_local_support(global_support, b, total)
            assert (ta - 1) + (tb - 1) < global_support

    def test_rejects_nonpositive_support(self):
        with pytest.raises(MiningError):
            scale_local_support(0, 10, 100)


class TestShardPlanner:
    def test_pattern_groups_are_never_split(self):
        grouped = compressed(small_db())
        plan = ShardPlanner(3).plan(grouped)
        for group in grouped.groups:
            if not group.pattern:
                continue
            owners = [
                shard
                for shard in plan.shards
                if any(g.pattern == group.pattern for g in shard.groups)
            ]
            assert len(owners) == 1, f"group {group.pattern} split across shards"

    def test_shards_partition_the_tuples(self):
        grouped = compressed(small_db())
        plan = ShardPlanner(3).plan(grouped)
        assert sum(s.tuple_count for s in plan.shards) == grouped.tuple_count()
        all_tids = sorted(
            tid for shard in plan.shards for g in shard.groups for tid in g.tids
        )
        assert all_tids == sorted(small_db().tids)

    def test_deterministic(self):
        grouped = compressed(small_db())
        a = ShardPlanner(3).plan(grouped)
        b = ShardPlanner(3).plan(grouped)
        assert [s.fingerprint() for s in a.shards] == [
            s.fingerprint() for s in b.shards
        ]

    def test_residual_only_database_still_shards(self):
        db = small_db()
        plan = ShardPlanner(4).plan(GroupedDatabase.from_database(db))
        assert plan.effective_jobs == 4
        assert sum(s.tuple_count for s in plan.shards) == len(db)

    def test_empty_shards_are_dropped(self):
        db = TransactionDatabase([[1, 2], [1, 3]])
        plan = ShardPlanner(8).plan(GroupedDatabase.from_database(db))
        assert plan.effective_jobs == 2
        assert all(s.tuple_count > 0 for s in plan.shards)

    def test_jobs_must_be_positive(self):
        with pytest.raises(MiningError):
            ShardPlanner(0)


class TestShard:
    def test_database_preserves_rows(self):
        grouped = compressed(small_db())
        plan = ShardPlanner(2).plan(grouped)
        merged = sorted(
            (tid, tuple(tx))
            for shard in plan.shards
            for tid, tx in zip(shard.database().tids, shard.database())
        )
        db = small_db()
        assert merged == sorted((tid, tuple(tx)) for tid, tx in zip(db.tids, db))

    def test_grouped_view_supports_bitset(self):
        grouped = compressed(small_db())
        for shard in ShardPlanner(2).plan(grouped).shards:
            local = shard.grouped()
            assert local.supports_bitset
            assert local.tuple_count() == shard.tuple_count

    def test_pickle_round_trip_drops_caches(self):
        grouped = compressed(small_db())
        shard = ShardPlanner(2).plan(grouped).shards[0]
        before = shard.fingerprint()  # materializes the lazy database
        clone = pickle.loads(pickle.dumps(shard))
        assert clone._database is None  # rebuilt on demand, not shipped
        assert clone.fingerprint() == before
        assert clone.grouped().supports_bitset

    def test_fingerprint_is_content_addressed(self):
        grouped = compressed(small_db())
        plan = ShardPlanner(2).plan(grouped)
        fingerprints = {s.fingerprint() for s in plan.shards}
        assert len(fingerprints) == len(plan.shards)
        rebuilt = Shard(99, plan.shards[0].groups)
        assert rebuilt.fingerprint() == plan.shards[0].fingerprint()

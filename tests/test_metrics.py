"""Tests for the cost-counter accounting."""

from __future__ import annotations

from repro.metrics.counters import CostCounters


class TestCounters:
    def test_add_standard_field(self):
        counters = CostCounters()
        counters.add("item_visits", 5)
        counters.add("item_visits")
        assert counters.item_visits == 6

    def test_add_extra_field(self):
        counters = CostCounters()
        counters.add("tidset_intersections", 3)
        assert counters.as_dict()["tidset_intersections"] == 3

    def test_add_method_name_goes_to_extra_not_clobbering(self):
        """Regression: add("merge") used to overwrite the bound method
        because hasattr() is true for methods."""
        counters = CostCounters()
        counters.add("merge", 2)
        counters.add("add")
        assert callable(counters.merge)
        assert callable(counters.add)
        assert counters.as_dict()["merge"] == 2
        assert counters.as_dict()["add"] == 1
        # The instance still merges correctly afterwards.
        other = CostCounters(item_visits=1)
        counters.merge(other)
        assert counters.item_visits == 1

    def test_add_private_extra_name_is_safe(self):
        counters = CostCounters()
        counters.add("_extra", 3)
        assert counters.as_dict()["_extra"] == 3
        assert isinstance(counters._extra, dict)

    def test_merge(self):
        a = CostCounters(item_visits=3)
        a.add("custom", 1)
        b = CostCounters(item_visits=4, disk_reads=2)
        b.add("custom", 5)
        a.merge(b)
        assert a.item_visits == 7
        assert a.disk_reads == 2
        assert a.as_dict()["custom"] == 6

    def test_totals(self):
        counters = CostCounters(
            item_visits=10, tuple_scans=5, projections=1,
            bytes_read=100, bytes_written=50,
        )
        assert counters.total_work() == 16

    def test_total_work_charges_the_vertical_and_matrix_kernels(self):
        """Eclat's intersections and TreeProjection's matrix updates are
        work; other extras (group counts, I/O, service tallies) are not."""
        counters = CostCounters(item_visits=10, tuple_scans=5, projections=1)
        counters.add("tidset_intersections", 7)
        counters.add("matrix_updates", 3)
        counters.add("parallel_fallbacks", 100)
        assert counters.total_work() == 26

    def test_eclat_bitset_search_is_visible_in_total_work(self):
        """A cold eclat-bitset mine costs more than its one database scan,
        and more at a lower support."""
        from repro.data.synthetic import QuestParams, quest_database
        from repro.mining.registry import get_miner

        db = quest_database(
            QuestParams(n_transactions=80, n_items=20, avg_transaction_length=5),
            seed=1,
        )
        scan = len(db) + db.total_items()
        works = []
        for support in (20, 5):
            counters = CostCounters()
            get_miner("eclat-bitset").mine(db, support, counters)
            works.append(counters.total_work())
        assert scan < works[0] < works[1]

    def test_as_dict_includes_all_standard_fields(self):
        keys = CostCounters().as_dict()
        for name in (
            "item_visits", "tuple_scans", "group_counts", "projections",
            "single_group_enumerations", "patterns_emitted",
            "containment_checks", "disk_reads", "disk_writes",
            "bytes_read", "bytes_written",
        ):
            assert name in keys

"""Condensed warehouse entries: accounting, back-compat, migration, audits.

Five concerns, one per class:

* **Byte accounting** (the LRU regression tests): entries rest full, and
  the budget charges an entry in the form it is held — a condensed
  entry its entries plus the fixed metadata header, never the size of
  the full set it reconstructs.
* **The pressure rule**: an entry is condensed only when the budget
  needs the room (it alone exceeds the budget, or it would otherwise be
  evicted), a condensation that does not shrink it is not kept, a hit
  promotes a condensed entry back to full when that fits, and none of
  it re-writes an entry file.
* **Back-compat**: pre-condensation full-set ``.patterns`` files (with
  and without the ``# sha256=`` integrity header) still load, unchanged
  on disk, and :meth:`PatternWarehouse.migrate` (``repro warehouse
  migrate``) re-writes them condensed; corrupt condensed files are
  quarantined exactly like corrupt full-set files, and so is a file of
  the retired ``ndi`` representation, for its unknown ``# repr=``.
* **Audits**: ``verify_entry`` still runs its checks against the exact
  expansion of a condensed entry.
* **The kernel's tie-free verdict**: a set ``mine_eclat_bitset`` proved
  tie-free is never condensed to closed (rejected or evicted without
  one), while flag-less sets condense as before, and
  ``futile_condensations`` counts the condensations thrown away.
"""

from __future__ import annotations

import pytest

from repro.data.io import (
    read_warehouse_entry,
    warehouse_entry_text,
    write_patterns_with_support,
    write_warehouse_entry,
)
from repro.data.patterns import REPRESENTATIONS, CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.mining.eclat import mine_eclat_bitset
from repro.mining.hmine import mine_hmine
from repro.resilience import REASON_FEEDSTOCK_QUARANTINED
from repro.service import MineRequest, MiningService
from repro.service.warehouse import PatternWarehouse
from repro.storage.disk import (
    CONDENSED_HEADER_BYTES,
    ITEM_BYTES,
    RECORD_OVERHEAD_BYTES,
    patterns_byte_size,
)


#: Entry files of ``db`` at support 4 exactly as the writer that still
#: had the ``ndi`` (non-derivable itemsets) representation rendered
#: them: ``ndi`` carried a ``# ndi_depth=`` header, and every form
#: carried ``# n_transactions=``.
PRE_RETIREMENT_ENTRIES = {
    "ndi": (
        "# absolute_support=4\n# repr=ndi\n# n_transactions=8\n"
        "# ndi_depth=2\n# sha256=bd684ebc6032e323088ce167415e536e"
        "6e7bc8243dd45aee9e6090252e7283f0\n"
        "3 : 4\n3 4 : 4\n4 : 4\n1 : 8\n2 : 8\n"
    ),
    "closed": (
        "# absolute_support=4\n# repr=closed\n# n_transactions=8\n"
        "# sha256=96e5baa890ffeda6c82b50bb68225de005e1fa9ab87e445a6762e4c"
        "e5400c0b8\n1 2 3 4 : 4\n1 2 : 8\n"
    ),
    "full": (
        "# absolute_support=4\n# repr=full\n# n_transactions=8\n"
        "# sha256=eee2efeb33b6407134c0a52befefd2bbbd970c7da35803382596e48"
        "ced5e652c\n3 : 4\n3 4 : 4\n1 3 4 : 4\n1 2 3 4 : 4\n"
        "2 3 4 : 4\n1 3 : 4\n1 2 3 : 4\n2 3 : 4\n4 : 4\n1 4 : 4\n"
        "1 2 4 : 4\n2 4 : 4\n1 : 8\n1 2 : 8\n2 : 8\n"
    ),
}


@pytest.fixture
def db():
    # Perfectly correlated items: closure collapses the frequent set
    # (15 patterns at support 4) to two closed entries.
    return TransactionDatabase([[1, 2, 3, 4]] * 4 + [[1, 2]] * 4)


@pytest.fixture
def full(db):
    return mine_hmine(db, 4)


def held_representation(warehouse, fingerprint, support):
    """The representation ``describe_entries`` lists for one entry."""
    (row,) = [
        row
        for row in warehouse.describe_entries()
        if (row["fingerprint"], row["absolute_support"]) == (fingerprint, support)
    ]
    return row["representation"]


def condensed_size(db, full, representation):
    return patterns_byte_size(
        CondensedPatternSet.condense(
            full, 4, representation, n_transactions=len(db)
        )
    )


def pressed(db, full, representation, **kwargs):
    """A warehouse whose budget holds ``full`` only condensed, with
    ``full`` put (so the put condenses it)."""
    warehouse = PatternWarehouse(
        byte_budget=condensed_size(db, full, representation),
        representation=representation,
        **kwargs,
    )
    assert warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
    return warehouse


class TestByteAccounting:
    def test_condensed_size_is_entries_plus_header(self, db, full):
        condensed = CondensedPatternSet.condense(
            full, 4, "closed", n_transactions=len(db)
        )
        expected = CONDENSED_HEADER_BYTES + sum(
            len(items) * ITEM_BYTES + ITEM_BYTES + RECORD_OVERHEAD_BYTES
            for items, _ in condensed.items()
        )
        assert patterns_byte_size(condensed) == expected

    def test_full_representation_accounting_unchanged(self, db, full):
        """A full-representation condensed set charges exactly what the
        plain pattern set does — no header surcharge — so pre-existing
        budget arithmetic keeps holding."""
        condensed = CondensedPatternSet.condense(
            full, 4, "full", n_transactions=len(db)
        )
        assert patterns_byte_size(condensed) == patterns_byte_size(full)

    def test_budget_charges_condensed_not_full_size(self, db, full):
        condensed_size = patterns_byte_size(
            CondensedPatternSet.condense(full, 4, "closed", n_transactions=len(db))
        )
        assert condensed_size < patterns_byte_size(full)
        # A budget below the full size but above the condensed size
        # accepts the entry condensed — proof the charge is the cost of
        # the form held.
        warehouse = PatternWarehouse(byte_budget=condensed_size)
        assert warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        assert warehouse.stored_bytes() == condensed_size
        assert warehouse.get(db.fingerprint(), 4) == full
        assert warehouse.stats()["resident_bytes"] == condensed_size

    def test_unbudgeted_entries_rest_full(self, db, full):
        warehouse = PatternWarehouse()
        warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        stats = warehouse.stats()
        assert stats["stored_bytes"] == stats["full_bytes"] == patterns_byte_size(full)
        assert stats["resident_bytes"] == stats["stored_bytes"]
        assert stats["condensed_entries"] == 0
        assert stats["pressure_condensations"] == 0
        assert warehouse.condensation_ratio() == 1.0

    def test_stats_report_both_sizes(self, db, full):
        warehouse = pressed(db, full, "closed")
        stats = warehouse.stats()
        assert stats["full_bytes"] == patterns_byte_size(full)
        assert stats["stored_bytes"] < stats["full_bytes"]
        assert stats["condensed_entries"] == 1
        assert stats["pressure_condensations"] == 1
        assert warehouse.condensation_ratio() == (
            stats["full_bytes"] / stats["stored_bytes"]
        )


class TestPressureRule:
    @pytest.fixture
    def other(self):
        """A second database whose entry rides beside ``db``'s."""
        other = TransactionDatabase([[5, 6]] * 4 + [[5]] * 4)
        return other, mine_hmine(other, 4)

    def test_lru_victim_is_condensed_instead_of_evicted(
        self, tmp_path, db, full, other
    ):
        other_db, other_full = other
        budget = patterns_byte_size(full)
        fits = condensed_size(db, full, "closed") + patterns_byte_size(other_full)
        assert fits <= budget
        warehouse = PatternWarehouse(byte_budget=budget, directory=tmp_path)
        writes = []
        store_write = warehouse._store.write_entry
        warehouse._store.write_entry = lambda *a, **k: (
            writes.append(a[:2]), store_write(*a, **k)
        )
        warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        assert warehouse.stats()["condensed_entries"] == 0  # fits: rests full
        warehouse.put(other_db.fingerprint(), 4, other_full)
        stats = warehouse.stats()
        assert (stats["evictions"], stats["pressure_condensations"]) == (0, 1)
        assert stats["resident_bytes"] == stats["stored_bytes"] <= budget
        assert held_representation(warehouse, db.fingerprint(), 4) == "closed"
        # Condensing in memory re-wrote no file: one write per put.
        assert len(writes) == 2
        path = tmp_path / f"{db.fingerprint()}-4.patterns"
        assert read_warehouse_entry(path)[0].representation == "full"
        assert warehouse.get(db.fingerprint(), 4) == full

    @pytest.fixture
    def chain(self):
        """A set whose every pattern is closed: condensing it only adds
        the header."""
        chain = TransactionDatabase([[1, 2]] * 3 + [[1]] * 2 + [[2]])
        patterns = mine_hmine(chain, 1)
        closed_size = patterns_byte_size(
            CondensedPatternSet.condense(patterns, 1, "closed")
        )
        assert closed_size > patterns_byte_size(patterns)
        return chain, patterns

    def test_entry_that_does_not_shrink_is_tried_once(
        self, monkeypatch, db, full, chain
    ):
        chain_db, chain_set = chain
        warehouse = PatternWarehouse(byte_budget=patterns_byte_size(full))
        warehouse.put(chain_db.fingerprint(), 1, chain_set)
        warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        # The older chain entry was tried first and kept full; the new
        # entry's condensation restored the budget, so nothing left.
        stats = warehouse.stats()
        assert (stats["evictions"], stats["pressure_condensations"]) == (0, 1)
        assert held_representation(warehouse, chain_db.fingerprint(), 1) == "full"
        calls = []
        closed_entries = CondensedPatternSet._closed_entries

        def counted(patterns):
            calls.append(patterns)
            return closed_entries(patterns)

        monkeypatch.setattr(
            CondensedPatternSet, "_closed_entries", staticmethod(counted)
        )
        warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        assert calls == [full]  # the chain entry is not condensed twice
        assert warehouse.stats()["evictions"] == 0

    def test_eviction_when_condensing_is_not_enough(self, db, full, chain):
        chain_db, chain_set = chain
        budget = condensed_size(db, full, "closed")
        assert patterns_byte_size(chain_set) <= budget
        warehouse = PatternWarehouse(byte_budget=budget)
        warehouse.put(chain_db.fingerprint(), 1, chain_set)
        assert warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        stats = warehouse.stats()
        assert (stats["evictions"], stats["pressure_condensations"]) == (1, 1)
        assert warehouse.keys() == [(db.fingerprint(), 4)]
        assert stats["resident_bytes"] == budget

    def test_entry_that_does_not_shrink_enough_is_rejected(self, db, full):
        budget = condensed_size(db, full, "closed") - 1
        warehouse = PatternWarehouse(byte_budget=budget)
        assert not warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        assert (len(warehouse), warehouse.rejections) == (0, 1)

    def test_full_warehouse_never_condenses(self, db, full):
        warehouse = PatternWarehouse(
            byte_budget=patterns_byte_size(full) - 1, representation="full"
        )
        assert not warehouse.put(db.fingerprint(), 4, full)
        assert warehouse.stats()["pressure_condensations"] == 0

    def test_hit_promotes_when_the_full_form_fits(self, db, full):
        other_db = TransactionDatabase([[5, 6, 7]] * 4 + [[5]] * 4)
        other_full = mine_hmine(other_db, 4)
        other_closed = CondensedPatternSet.condense(other_full, 4, "closed")
        budget = patterns_byte_size(full) + patterns_byte_size(other_closed)
        warehouse = PatternWarehouse(byte_budget=budget)
        warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        warehouse.put(other_db.fingerprint(), 4, other_full)
        assert warehouse.stats()["condensed_entries"] == 1
        # No room while the other entry is held full: served, not promoted.
        assert warehouse.get(db.fingerprint(), 4) == full
        assert warehouse.stats()["promotions"] == 0
        # Put again pre-condensed, the other entry makes the room.
        warehouse.put(other_db.fingerprint(), 4, other_closed)
        assert warehouse.best_feedstock(db.fingerprint(), 4).patterns == full
        stats = warehouse.stats()
        assert (stats["promotions"], stats["condensed_entries"]) == (1, 1)
        assert stats["resident_bytes"] == budget

    def test_reload_condenses_a_file_larger_than_the_budget(
        self, tmp_path, db, full
    ):
        PatternWarehouse(directory=tmp_path).put(
            db.fingerprint(), 4, full, n_transactions=len(db)
        )
        (path,) = tmp_path.glob("*.patterns")
        before = path.read_bytes()
        size = condensed_size(db, full, "closed")
        reborn = PatternWarehouse(byte_budget=size, directory=tmp_path)
        stats = reborn.stats()
        assert (stats["entries"], stats["stored_bytes"]) == (1, size)
        assert stats["pressure_condensations"] == 1
        assert reborn.get(db.fingerprint(), 4) == full
        assert path.read_bytes() == before
        too_small = PatternWarehouse(byte_budget=size - 1, directory=tmp_path)
        assert (len(too_small), too_small.rejections) == (0, 1)


class TestBackCompat:
    def _legacy_file(self, tmp_path, db, full, *, checksum: bool):
        path = tmp_path / f"{db.fingerprint()}-4.patterns"
        if checksum:
            write_patterns_with_support(full, path, 4)
        else:
            lines = ["# absolute_support=4"]
            lines += [
                " ".join(str(i) for i in sorted(items)) + f" : {support}"
                for items, support in sorted(
                    full.items(), key=lambda kv: sorted(kv[0])
                )
            ]
            path.write_text("\n".join(lines) + "\n")
        return path

    @pytest.mark.parametrize("checksum", [True, False])
    def test_legacy_full_set_files_load(self, tmp_path, db, full, checksum):
        self._legacy_file(tmp_path, db, full, checksum=checksum)
        warehouse = PatternWarehouse(directory=tmp_path)
        assert warehouse.quarantined == []
        assert warehouse.get(db.fingerprint(), 4) == full

    def test_migrate_rewrites_legacy_file_condensed(self, tmp_path, db, full):
        path = self._legacy_file(tmp_path, db, full, checksum=True)
        warehouse = PatternWarehouse(directory=tmp_path, representation="closed")
        assert warehouse.migrate() == 1
        condensed, full_bytes = read_warehouse_entry(path)
        assert condensed.representation == "closed"
        assert full_bytes == patterns_byte_size(full)
        assert condensed.expand() == full
        assert warehouse.stored_bytes() == patterns_byte_size(condensed)
        assert warehouse.get(db.fingerprint(), 4) == full
        # The second run finds the file already condensed: no rewrite.
        again = PatternWarehouse(directory=tmp_path, representation="closed")
        assert again.migrate() == 0
        assert again.get(db.fingerprint(), 4) == full

    def test_load_preserves_legacy_files(self, tmp_path, db, full):
        path = self._legacy_file(tmp_path, db, full, checksum=True)
        before = path.read_text()
        warehouse = PatternWarehouse(directory=tmp_path, representation="closed")
        assert path.read_text() == before
        assert held_representation(warehouse, db.fingerprint(), 4) == "full"
        assert warehouse.get(db.fingerprint(), 4) == full

    @pytest.mark.parametrize("representation", ["full", "closed"])
    def test_pre_retirement_files_load_unchanged(
        self, tmp_path, db, full, representation
    ):
        """``full`` and ``closed`` files written beside ``ndi`` ones,
        ``# n_transactions=`` header included, load as the same entries,
        and today's writer renders them byte for byte."""
        text = PRE_RETIREMENT_ENTRIES[representation]
        path = tmp_path / f"{db.fingerprint()}-4.patterns"
        path.write_text(text)
        expected = CondensedPatternSet.condense(
            full, 4, representation, n_transactions=len(db)
        )
        assert read_warehouse_entry(path) == (expected, None)
        assert warehouse_entry_text(expected) == text
        warehouse = PatternWarehouse(directory=tmp_path)
        assert warehouse.quarantined == []
        assert held_representation(warehouse, db.fingerprint(), 4) == representation
        assert warehouse.get(db.fingerprint(), 4) == full

    def test_ndi_file_is_quarantined_and_the_rest_served(self, tmp_path, db, full):
        """An ``ndi`` file is rejected at its ``# repr=`` line; every other
        entry still loads, and a miss on its key names the quarantine."""
        name = f"{db.fingerprint()}-4.patterns"
        (tmp_path / name).write_text(PRE_RETIREMENT_ENTRIES["ndi"])
        above = mine_hmine(db, 5)
        write_warehouse_entry(
            CondensedPatternSet.condense(above, 5, "full", n_transactions=len(db)),
            tmp_path / f"{db.fingerprint()}-5.patterns",
        )
        other = TransactionDatabase([[5, 6, 7]] * 4 + [[5, 6]] * 4)
        other_full = mine_hmine(other, 4)
        write_warehouse_entry(
            CondensedPatternSet.condense(
                other_full, 4, "closed", n_transactions=len(other)
            ),
            tmp_path / f"{other.fingerprint()}-4.patterns",
        )
        warehouse = PatternWarehouse(directory=tmp_path)
        ((quarantined, reason),) = warehouse.quarantined
        assert quarantined == name
        assert reason.endswith("unknown representation 'ndi'")
        assert (tmp_path / "quarantine" / name).exists()
        assert sorted(warehouse.keys()) == sorted(
            [(db.fingerprint(), 5), (other.fingerprint(), 4)]
        )
        assert warehouse.get(db.fingerprint(), 5) == above
        assert warehouse.get(other.fingerprint(), 4) == other_full
        with MiningService(warehouse=warehouse, max_workers=1) as service:
            response = service.execute(MineRequest(db=db, support=4))
        assert response.path == "mine"
        assert response.degradation.reasons() == [
            f"feedstock→mine: {REASON_FEEDSTOCK_QUARANTINED}"
        ]
        assert response.patterns == full

    def test_corrupt_condensed_file_quarantined(self, tmp_path, db, full):
        condensed = CondensedPatternSet.condense(
            full, 4, "closed", n_transactions=len(db)
        )
        path = tmp_path / f"{db.fingerprint()}-4.patterns"
        write_warehouse_entry(condensed, path)
        text = path.read_text()
        path.write_text(text.replace(" 8\n", " 7\n", 1))  # flip one support
        warehouse = PatternWarehouse(directory=tmp_path)
        assert len(warehouse) == 0
        assert len(warehouse.quarantined) == 1
        assert (tmp_path / "quarantine" / path.name).exists()

    def test_truncated_condensed_file_quarantined(self, tmp_path, db, full):
        condensed = CondensedPatternSet.condense(
            full, 4, "closed", n_transactions=len(db)
        )
        path = tmp_path / f"{db.fingerprint()}-4.patterns"
        write_warehouse_entry(condensed, path)
        path.write_text(path.read_text()[:60])
        warehouse = PatternWarehouse(directory=tmp_path)
        assert len(warehouse) == 0
        assert len(warehouse.quarantined) == 1


class TestRoundTrips:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_disk_round_trip_preserves_representation(
        self, tmp_path, db, full, representation
    ):
        """The file holds the form the put held: condensed when the
        budget forced it, full otherwise — and a reload keeps it."""
        pressed(db, full, representation, directory=tmp_path)
        (path,) = tmp_path.glob("*.patterns")
        assert read_warehouse_entry(path)[0].representation == representation
        reborn = PatternWarehouse(
            directory=tmp_path, representation=representation
        )
        assert held_representation(reborn, db.fingerprint(), 4) == representation
        assert reborn.get(db.fingerprint(), 4) == full
        # Unbudgeted, the first get promoted the entry in memory only.
        assert reborn.stats()["promotions"] == (representation != "full")
        assert read_warehouse_entry(path)[0].representation == representation

    def test_unbudgeted_put_writes_full(self, tmp_path, db, full):
        warehouse = PatternWarehouse(directory=tmp_path)
        warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        (path,) = tmp_path.glob("*.patterns")
        stored, full_bytes = read_warehouse_entry(path)
        assert stored.representation == "full"
        assert stored.n_transactions == len(db)
        assert full_bytes == patterns_byte_size(full)

    def test_best_feedstock_serves_condensed(self, db, full):
        warehouse = pressed(db, full, "closed")
        hit = warehouse.best_feedstock(db.fingerprint(), 5)
        assert isinstance(hit.feedstock, CondensedPatternSet)
        assert hit.feedstock.representation == "closed"
        assert hit.patterns == full  # the property expands on demand
        stats = warehouse.stats()
        assert stats["resident_bytes"] == stats["stored_bytes"]

    def test_describe_entries_reports_condensation(self, db, full):
        """One entry condensed under pressure, one held full: the rows
        show each in the form it is held."""
        small = mine_hmine(db, 8)
        warehouse = PatternWarehouse(
            byte_budget=condensed_size(db, full, "closed")
            + patterns_byte_size(small)
        )
        warehouse.put(db.fingerprint(), 8, small, n_transactions=len(db))
        warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        rows = {row["absolute_support"]: row for row in warehouse.describe_entries()}
        assert rows[4]["representation"] == "closed"
        assert rows[4]["entries"] == 2
        assert rows[4]["expanded"] == len(full)
        assert rows[4]["condensation_ratio"] > 1.0
        assert rows[8]["representation"] == "full"
        assert rows[8]["condensation_ratio"] == 1.0
        assert warehouse.stats()["condensed_entries"] == 1


class TestAudits:
    @pytest.mark.parametrize("representation", REPRESENTATIONS)
    def test_genuine_entries_audit_clean(self, db, full, representation):
        warehouse = pressed(db, full, representation)
        report = warehouse.verify_entry(db.fingerprint(), 4)
        assert report.ok, report.violations
        assert report.representation == representation
        assert report.checks > 0
        # The audit's expansion is not kept on the held entry.
        stats = warehouse.stats()
        assert stats["resident_bytes"] == stats["stored_bytes"]


class TestTieFreeVerdict:
    @pytest.fixture
    def tie_free(self):
        """A set with no closed ties: its closed form only adds the header."""
        chain = TransactionDatabase([[1, 2]] * 3 + [[1]] * 2 + [[2]])
        patterns = mine_eclat_bitset(chain, 1)
        assert patterns.tie_free
        return chain, patterns

    @pytest.fixture
    def condensations(self, monkeypatch):
        """Every closed condensation computed."""
        calls = []
        closed_entries = CondensedPatternSet._closed_entries

        def counted_closed(patterns):
            calls.append("closed")
            return closed_entries(patterns)

        monkeypatch.setattr(
            CondensedPatternSet, "_closed_entries", staticmethod(counted_closed)
        )
        return calls

    def test_oversized_tie_free_set_is_rejected_uncondensed(
        self, tie_free, condensations
    ):
        chain, patterns = tie_free
        warehouse = PatternWarehouse(byte_budget=patterns_byte_size(patterns) - 1)
        assert not warehouse.put(chain.fingerprint(), 1, patterns)
        assert condensations == []
        stats = warehouse.stats()
        assert (stats["rejections"], stats["futile_condensations"]) == (1, 0)

    def test_tie_free_entry_is_evicted_uncondensed(self, tie_free, condensations):
        chain, patterns = tie_free
        twin = TransactionDatabase([[3, 4]] * 3 + [[3]] * 2 + [[4]])
        twin_patterns = mine_eclat_bitset(twin, 1)
        assert twin_patterns.tie_free
        warehouse = PatternWarehouse(byte_budget=patterns_byte_size(patterns))
        assert warehouse.put(chain.fingerprint(), 1, patterns)
        assert warehouse.put(twin.fingerprint(), 1, twin_patterns)
        assert condensations == []
        assert warehouse.keys() == [(twin.fingerprint(), 1)]
        stats = warehouse.stats()
        assert (stats["evictions"], stats["futile_condensations"]) == (1, 0)

    @pytest.mark.parametrize("form", ["filtered", "condensed"])
    def test_flagless_sets_are_condensed_as_before(
        self, tie_free, condensations, form
    ):
        """A filtered copy and a pre-condensed put carry no verdict, so
        the warehouse tries (and throws away) the closed condensation."""
        chain, patterns = tie_free
        if form == "filtered":
            put = patterns.filter_min_support(1)
            assert not put.tie_free
        else:
            put = CondensedPatternSet.condense(patterns, 1, "full")
        warehouse = PatternWarehouse(byte_budget=patterns_byte_size(patterns) - 1)
        assert not warehouse.put(chain.fingerprint(), 1, put)
        assert condensations == ["closed"]
        stats = warehouse.stats()
        assert (stats["rejections"], stats["futile_condensations"]) == (1, 1)

    @pytest.mark.parametrize("verdict", [False, True])
    def test_futile_condensations_are_counted(self, db, full, tie_free, verdict):
        """Flag-less, the budget throws away three condensations: the
        dense set's shrinks but not enough to fit, and two tie-free
        entries' do not shrink at all. With the verdict only the first
        is computed."""
        chain, patterns = tie_free
        twin = TransactionDatabase([[3, 4]] * 3 + [[3]] * 2 + [[4]])
        twin_patterns = mine_eclat_bitset(twin, 1)
        if not verdict:
            patterns = patterns.filter_min_support(1)
            twin_patterns = twin_patterns.filter_min_support(1)
        warehouse = PatternWarehouse(byte_budget=condensed_size(db, full, "closed") - 1)
        assert warehouse.put(chain.fingerprint(), 1, patterns)
        assert not warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        assert warehouse.put(twin.fingerprint(), 1, twin_patterns)
        assert warehouse.keys() == [(twin.fingerprint(), 1)]
        stats = warehouse.stats()
        assert (stats["rejections"], stats["evictions"]) == (1, 1)
        assert stats["pressure_condensations"] == 0
        assert stats["futile_condensations"] == (1 if verdict else 3)

    def test_service_snapshot_reports_futile_condensations(self, db, full, tie_free):
        """The dense answer is condensed and kept; the tie-free answer
        then evicts it without a condensation of its own."""
        chain, _ = tie_free
        warehouse = PatternWarehouse(byte_budget=condensed_size(db, full, "closed"))
        with MiningService(warehouse=warehouse, max_workers=1) as service:
            assert service.execute(MineRequest(db=db, support=4)).patterns == full
            service.execute(MineRequest(db=chain, support=1))
            snapshot = service.stats.snapshot()
        assert warehouse.keys() == [(chain.fingerprint(), 1)]
        assert snapshot["warehouse_pressure_condensations"] == 1
        assert snapshot["warehouse_futile_condensations"] == 0

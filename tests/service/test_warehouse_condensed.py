"""Condensed warehouse entries: accounting, back-compat, migration, audits.

Four concerns, one per class:

* **Byte accounting** (the LRU regression tests): the budget charges the
  condensed entry's modelled size — entries plus the fixed metadata
  header — never the size of the full set it reconstructs.
* **Back-compat**: pre-condensation full-set ``.patterns`` files (with
  and without the ``# sha256=`` integrity header) still load, unchanged
  on disk, and :meth:`PatternWarehouse.migrate` (``repro warehouse
  migrate``) re-writes them condensed, falling back from ndi to closed
  for header-less transaction counts; corrupt condensed files are
  quarantined exactly like corrupt full-set files.
* **Audits**: ``verify_entry`` still runs its checks against the exact
  expansion of a condensed entry.
"""

from __future__ import annotations

import pytest

from repro.data.io import (
    read_warehouse_entry,
    write_patterns_with_support,
    write_warehouse_entry,
)
from repro.data.patterns import CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.mining.hmine import mine_hmine
from repro.service.warehouse import PatternWarehouse
from repro.storage.disk import (
    CONDENSED_HEADER_BYTES,
    ITEM_BYTES,
    RECORD_OVERHEAD_BYTES,
    patterns_byte_size,
)


@pytest.fixture
def db():
    # Perfectly correlated items: closure collapses the frequent set
    # (15 patterns at support 4) to two closed entries.
    return TransactionDatabase([[1, 2, 3, 4]] * 4 + [[1, 2]] * 4)


@pytest.fixture
def full(db):
    return mine_hmine(db, 4)


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
        # accepts the entry — proof the charge is the condensed cost.
        warehouse = PatternWarehouse(byte_budget=condensed_size)
        assert warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        assert warehouse.stored_bytes() == condensed_size
        assert warehouse.get(db.fingerprint(), 4) == full

    def test_stats_report_both_sizes(self, db, full):
        warehouse = PatternWarehouse()
        warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        stats = warehouse.stats()
        assert stats["full_bytes"] == patterns_byte_size(full)
        assert stats["stored_bytes"] < stats["full_bytes"]
        assert warehouse.condensation_ratio() == (
            stats["full_bytes"] / stats["stored_bytes"]
        )


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
        assert warehouse.get_condensed(db.fingerprint(), 4).representation == "full"
        assert warehouse.get(db.fingerprint(), 4) == full

    def test_legacy_file_in_ndi_warehouse_falls_back_to_closed(
        self, tmp_path, db, full
    ):
        """A legacy file has no transaction count, and the NDI deduction
        rules need supp({}) = |D| — so the migration lands on closed."""
        path = self._legacy_file(tmp_path, db, full, checksum=True)
        warehouse = PatternWarehouse(directory=tmp_path, representation="ndi")
        assert warehouse.migrate() == 1
        condensed, _ = read_warehouse_entry(path)
        assert condensed.representation == "closed"
        assert warehouse.get(db.fingerprint(), 4) == full

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
    @pytest.mark.parametrize("representation", ["full", "closed", "ndi"])
    def test_disk_round_trip_preserves_representation(
        self, tmp_path, db, full, representation
    ):
        warehouse = PatternWarehouse(
            directory=tmp_path, representation=representation
        )
        warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        reborn = PatternWarehouse(
            directory=tmp_path, representation=representation
        )
        stored = reborn.get_condensed(db.fingerprint(), 4)
        assert stored.representation == representation
        assert reborn.get(db.fingerprint(), 4) == full

    def test_best_feedstock_serves_condensed(self, db, full):
        warehouse = PatternWarehouse()
        warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        hit = warehouse.best_feedstock(db.fingerprint(), 5)
        assert isinstance(hit.feedstock, CondensedPatternSet)
        assert hit.patterns == full  # the property expands on demand

    def test_describe_entries_reports_condensation(self, db, full):
        warehouse = PatternWarehouse()
        warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        (row,) = warehouse.describe_entries()
        assert row["representation"] == "closed"
        assert row["entries"] == 2
        assert row["expanded"] == len(full)
        assert row["condensation_ratio"] > 1.0


class TestAudits:
    @pytest.mark.parametrize("representation", ["full", "closed", "ndi"])
    def test_genuine_entries_audit_clean(self, db, full, representation):
        warehouse = PatternWarehouse(representation=representation)
        warehouse.put(db.fingerprint(), 4, full, n_transactions=len(db))
        report = warehouse.verify_entry(db.fingerprint(), 4)
        assert report.ok, report.violations
        assert report.representation == representation
        assert report.checks > 0

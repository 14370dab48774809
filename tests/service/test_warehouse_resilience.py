"""Warehouse hardening: quarantine, checksums, memory-only degradation,
and the re-mining-free integrity audit."""

from __future__ import annotations

import pytest

from repro.data.io import (
    read_patterns_with_support,
    write_patterns_with_support,
)
from repro.data.synthetic import QuestParams, quest_database
from repro.errors import StorageError
from repro.mining.hmine import mine_hmine
from repro.mining.patterns import PatternSet
from repro.service import PatternWarehouse
from repro.durability.store import QUARANTINE_DIR
from repro.resilience import WAREHOUSE_READ, WAREHOUSE_WRITE, FaultInjector


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=120, n_items=30, avg_transaction_length=6),
        seed=5,
    )


def populate(directory, db, supports=(12, 8)) -> str:
    """Fill a disk-backed warehouse; returns the database fingerprint."""
    warehouse = PatternWarehouse(directory=directory)
    fingerprint = db.fingerprint()
    for support in supports:
        warehouse.put(fingerprint, support, mine_hmine(db, support))
    return fingerprint


class TestQuarantine:
    def test_garbage_file_is_quarantined_not_fatal(self, db, tmp_path):
        """Satellite: a truncated/garbage .patterns file dropped into the
        directory must not crash construction."""
        fingerprint = populate(tmp_path, db)
        (tmp_path / f"{fingerprint}-999.patterns").write_text(
            "\x00\x01 garbage not a header\n"
        )
        warehouse = PatternWarehouse(directory=tmp_path)
        assert len(warehouse) == 2  # both healthy entries served
        assert [name for name, _ in warehouse.quarantined] == [
            f"{fingerprint}-999.patterns"
        ]
        assert warehouse.has_quarantined(fingerprint)
        # The bad file was moved aside, not deleted and not rescanned.
        assert (tmp_path / QUARANTINE_DIR / f"{fingerprint}-999.patterns").exists()
        assert not (tmp_path / f"{fingerprint}-999.patterns").exists()

    def test_three_corrupt_files_exactly_three_quarantined(self, db, tmp_path):
        """Acceptance: a directory seeded with 3 corrupt files loads with
        exactly those 3 quarantined and every healthy entry served."""
        fingerprint = populate(tmp_path, db, supports=(15, 10, 6))
        corrupt = {
            f"{fingerprint}-777.patterns": "no header at all\n",
            f"{fingerprint}-778.patterns": "# absolute_support=notanint\n1 2 : 3\n",
            # Valid header, checksum of a different body (tampering).
            f"{fingerprint}-779.patterns": (
                "# absolute_support=779\n# sha256=" + "0" * 64 + "\n1 2 : 900\n"
            ),
        }
        for name, text in corrupt.items():
            (tmp_path / name).write_text(text)
        warehouse = PatternWarehouse(directory=tmp_path)
        assert len(warehouse) == 3
        assert sorted(name for name, _ in warehouse.quarantined) == sorted(corrupt)
        assert warehouse.stats()["quarantined"] == 3
        for support in (15, 10, 6):
            hit = warehouse.best_feedstock(fingerprint, support)
            assert hit is not None and hit.absolute_support == support
            assert hit.patterns == mine_hmine(db, support)

    def test_truncated_checksummed_file_is_quarantined(self, db, tmp_path):
        fingerprint = populate(tmp_path, db, supports=(8,))
        path = tmp_path / f"{fingerprint}-8.patterns"
        text = path.read_text()
        path.write_text(text[: len(text) // 2])  # torn write / bit rot
        warehouse = PatternWarehouse(directory=tmp_path)
        assert len(warehouse) == 0
        assert len(warehouse.quarantined) == 1
        assert "checksum" in warehouse.quarantined[0][1]

    def test_filename_header_disagreement_is_quarantined(self, db, tmp_path):
        patterns = mine_hmine(db, 10)
        write_patterns_with_support(
            patterns, tmp_path / f"{db.fingerprint()}-99.patterns", 10
        )
        warehouse = PatternWarehouse(directory=tmp_path)
        assert len(warehouse) == 0
        assert "disagrees" in warehouse.quarantined[0][1]

    def test_injected_read_fault_quarantines_that_file_only(self, db, tmp_path):
        fingerprint = populate(tmp_path, db, supports=(12, 8))
        faults = FaultInjector().inject(WAREHOUSE_READ, on_calls=(1,))
        warehouse = PatternWarehouse(directory=tmp_path, fault_injector=faults)
        assert len(warehouse) == 1
        assert len(warehouse.quarantined) == 1
        assert warehouse.has_quarantined(fingerprint)


class TestBackCompat:
    def test_pre_checksum_file_still_loads(self, db, tmp_path):
        """Old headerless-checksum files (support header only) written by
        earlier versions must keep working unverified."""
        patterns = mine_hmine(db, 10)
        path = tmp_path / f"{db.fingerprint()}-10.patterns"
        body = "".join(
            " ".join(str(i) for i in sorted(items)) + f" : {support}\n"
            for items, support in sorted(
                patterns.items(), key=lambda kv: tuple(sorted(kv[0]))
            )
        )
        path.write_text(f"# absolute_support=10\n{body}")
        loaded, support = read_patterns_with_support(path)
        assert support == 10 and loaded == patterns
        warehouse = PatternWarehouse(directory=tmp_path)
        assert len(warehouse) == 1 and not warehouse.quarantined


class TestWriteDegradation:
    def test_write_fault_degrades_to_memory_only(self, db, tmp_path):
        faults = FaultInjector().inject(WAREHOUSE_WRITE, on_calls=(1,))
        warehouse = PatternWarehouse(directory=tmp_path, fault_injector=faults)
        fingerprint = db.fingerprint()
        assert warehouse.put(fingerprint, 10, mine_hmine(db, 10))
        assert warehouse.memory_only_reason is not None
        assert warehouse.stats()["memory_only"] == 1
        # The in-memory entry survives and keeps serving.
        assert warehouse.get(fingerprint, 10) == mine_hmine(db, 10)
        # Later puts stay memory-only: no file ever appears.
        warehouse.put(fingerprint, 6, mine_hmine(db, 6))
        assert not list(tmp_path.glob("*.patterns"))

    def test_read_fault_on_feedstock_lookup_propagates(self, db):
        faults = FaultInjector().inject(WAREHOUSE_READ, on_calls=(1,))
        warehouse = PatternWarehouse(fault_injector=faults)
        fingerprint = db.fingerprint()
        warehouse.put(fingerprint, 10, mine_hmine(db, 10))
        from repro.errors import InjectedFaultError

        with pytest.raises(InjectedFaultError):
            warehouse.best_feedstock(fingerprint, 10)
        # Next lookup (call 2) is healthy.
        assert warehouse.best_feedstock(fingerprint, 10) is not None


class TestIntegrityAudit:
    # The hand-corrupted audits store with representation="full":
    # condensing on put assumes a genuine full set and would
    # normalize the planted inconsistencies away. Condensed-entry
    # audits live in test_warehouse_condensed.py.

    def test_genuine_full_set_passes(self, db):
        warehouse = PatternWarehouse()
        fingerprint = db.fingerprint()
        warehouse.put(fingerprint, 8, mine_hmine(db, 8))
        report = warehouse.verify_entry(fingerprint, 8)
        assert report.ok and report.checks > 0

    def test_missing_entry_raises(self):
        with pytest.raises(StorageError, match="no entry"):
            PatternWarehouse().verify_entry("nope", 5)

    def test_below_threshold_support_detected(self):
        warehouse = PatternWarehouse(representation="full")
        bad = PatternSet()
        bad.add({1}, 3)  # below the claimed threshold of 5
        warehouse.put("fp", 5, bad)
        report = warehouse.verify_entry("fp", 5)
        assert not report.ok
        assert any("below the entry threshold" in v for v in report.violations)

    def test_missing_subset_detected(self):
        warehouse = PatternWarehouse(representation="full")
        bad = PatternSet()
        bad.add({1}, 9)
        bad.add({1, 2}, 7)  # {2} missing → not downward closed
        warehouse.put("fp", 5, bad)
        report = warehouse.verify_entry("fp", 5)
        assert any("missing" in v for v in report.violations)

    def test_anti_monotonicity_violation_detected(self):
        warehouse = PatternWarehouse(representation="full")
        bad = PatternSet()
        bad.add({1}, 6)
        bad.add({2}, 9)
        bad.add({1, 2}, 8)  # superset exceeds subset {1}
        warehouse.put("fp", 5, bad)
        report = warehouse.verify_entry("fp", 5)
        assert any("anti-monotonicity" in v for v in report.violations)

    def test_derivability_lower_bound_violation_detected(self):
        # supp(abc) must be >= supp(ab) + supp(ac) - supp(a) = 9+9-10 = 8,
        # but claims 5 — internally inconsistent even though every pair
        # is individually monotone.
        warehouse = PatternWarehouse(representation="full")
        bad = PatternSet()
        for items, support in (
            ({1}, 10), ({2}, 10), ({3}, 10),
            ({1, 2}, 9), ({1, 3}, 9), ({2, 3}, 5),
            ({1, 2, 3}, 5),
        ):
            bad.add(items, support)
        warehouse.put("fp", 5, bad)
        report = warehouse.verify_entry("fp", 5)
        assert any("derivability" in v for v in report.violations)

    def test_drop_entry_removes_entry_and_file(self, db, tmp_path):
        warehouse = PatternWarehouse(directory=tmp_path)
        fingerprint = db.fingerprint()
        warehouse.put(fingerprint, 10, mine_hmine(db, 10))
        path = tmp_path / f"{fingerprint}-10.patterns"
        assert path.exists()
        assert warehouse.drop_entry(fingerprint, 10)
        assert not path.exists()
        assert warehouse.get(fingerprint, 10) is None
        assert not warehouse.drop_entry(fingerprint, 10)

"""Kill-mid-migration chaos: ``repro warehouse migrate`` dying at any
persistence fault point leaves every entry file in its old or its new
form, never torn.

:meth:`PatternWarehouse.migrate` re-writes legacy full-set files through
:meth:`DurableStore.write_entry`, so each rewrite goes through the
atomic writer and its ``persist.write`` / ``persist.rename``
fault points. The harness arms one point at the k-th call, lets the
migration die there, abandons the process, recovers the directory cold
and checks: every file is byte-identical to its legacy or its migrated
form, recovery quarantines nothing, every served set equals a scratch
mine, and a second migration finishes the job.
"""

from __future__ import annotations

import os

import pytest

from repro.data.io import write_patterns_with_support
from repro.data.synthetic import QuestParams, quest_database
from repro.durability import DurableStore
from repro.errors import InjectedFaultError
from repro.mining.hmine import mine_hmine
from repro.resilience import PERSIST_RENAME, PERSIST_WRITE, FaultInjector
from repro.service import PatternWarehouse

SEED = int(os.environ.get("CHAOS_SEED", "0"))
SUPPORTS = (6, 9, 12)

#: Each entry rewrite passes persist.write (its temp file) and
#: persist.rename once, so offsets 1-3 land a kill in every window of
#: all three rewrites; later offsets let the migration finish.
OFFSETS = range(1, 3 * len(SUPPORTS) + 1)


def write_legacy_directory(directory, db) -> dict[str, bytes]:
    """Pre-condensation full-set entry files; returns name -> bytes."""
    directory.mkdir()
    files = {}
    for support in SUPPORTS:
        path = directory / f"{db.fingerprint()}-{support}.patterns"
        write_patterns_with_support(mine_hmine(db, support), path, support)
        files[path.name] = path.read_bytes()
    return files


def entry_files(directory) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted(directory.glob("*.patterns"))
    }


@pytest.mark.parametrize("point", (PERSIST_WRITE, PERSIST_RENAME))
def test_migrate_killed_at_every_offset_leaves_old_or_new_files(point, tmp_path):
    db = quest_database(
        QuestParams(n_transactions=60, n_items=20, avg_transaction_length=5),
        seed=SEED,
    )
    expected = {support: mine_hmine(db, support) for support in SUPPORTS}

    clean_dir = tmp_path / "clean"
    old = write_legacy_directory(clean_dir, db)
    assert PatternWarehouse(directory=clean_dir).migrate() == len(SUPPORTS)
    new = entry_files(clean_dir)
    assert new.keys() == old.keys()
    assert all(new[name] != old[name] for name in old)

    killed = 0
    for offset in OFFSETS:
        crash_dir = tmp_path / f"{point.replace('.', '-')}-{offset}"
        write_legacy_directory(crash_dir, db)
        faults = FaultInjector(seed=SEED).inject(point, on_calls=(offset,))
        dying = PatternWarehouse(directory=crash_dir, fault_injector=faults)
        try:
            dying.migrate()
        except InjectedFaultError:
            killed += 1
        del dying  # the process is dead; only the directory survives

        assert DurableStore(crash_dir).recover().quarantined == []
        where = f"point={point} offset={offset} seed={SEED}"
        survived = entry_files(crash_dir)
        assert survived.keys() == old.keys(), where
        for name, data in survived.items():
            assert data in (old[name], new[name]), f"{where}: {name} torn"
        reopened = PatternWarehouse(directory=crash_dir)
        assert reopened.quarantined == [], where
        for support in SUPPORTS:
            served = reopened.get(db.fingerprint(), support)
            assert served == expected[support], f"{where} support={support}"
        # Running the verb again finishes the interrupted migration.
        reopened.migrate()
        assert entry_files(crash_dir) == new, where

    assert killed > 0, f"no kill fired for {point} at any offset"

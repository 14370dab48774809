"""Kill-mid-write chaos: a crash at any persistence fault point leaves
old state or new state, never torn — and roll-forward converges.

The CI ``restart`` leg runs this module across a matrix of
``CHAOS_SEED`` × ``CHAOS_PERSIST_POINT`` (persist.write |
persist.rename). Locally, with neither variable set, every point runs
under seed 0.

The harness drives a :class:`DurableStore` workload with a fault armed
to fire on the k-th pass through the chosen point — the injected
``persist.write`` genuinely writes *half* the payload first, so torn
files are real, not simulated. The killed process is then abandoned
(no graceful in-process degradation is allowed to mask the crash), a
fresh store recovers the directory, the interrupted workload is
replayed from the killed step, and the final directory must be
byte-for-byte equivalent to the never-interrupted run: same entries,
same chain records, same restored version chain.
"""

from __future__ import annotations

import os

import pytest

from repro.data.io import read_warehouse_entry
from repro.data.patterns import CondensedPatternSet
from repro.data.synthetic import QuestParams, quest_database
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.durability import DurableStore
from repro.mining.hmine import mine_hmine
from repro.errors import InjectedFaultError
from repro.resilience import PERSIST_FAULT_POINTS, FaultInjector

SEED = int(os.environ.get("CHAOS_SEED", "0"))
_selected = os.environ.get("CHAOS_PERSIST_POINT")
ACTIVE_POINTS = (
    (_selected,) if _selected in PERSIST_FAULT_POINTS else PERSIST_FAULT_POINTS
)

#: Fault-call offsets per point. Each point fires once per atomic write
#: (two entry files, two chain files), so offsets 1-4 land the kill in
#: every window the workload passes through; the entry unlink passes no
#: fault point. Later offsets never fire and run the workload through
#: uninterrupted, which must converge too.
OFFSETS = range(1, 15)


def build_world(seed: int):
    db = quest_database(
        QuestParams(n_transactions=60, n_items=20, avg_transaction_length=5),
        seed=seed,
    )
    v0 = VersionedDatabase(db)
    v1 = v0.apply(DatabaseDelta(appends=((1, 2, 3), (2, 4))))
    v2 = v1.apply(DatabaseDelta(deletes=frozenset({0})))
    return db, v0, v1, v2


def workload_steps(db, v0, v1, v2):
    """The durable mutations one pre-crash service generation performs.

    Each step is idempotent, so replaying the killed step after recovery
    is exactly what a restarted service would do.
    """
    condensed = CondensedPatternSet.condense(mine_hmine(db, 6), 6, "closed")
    stale = CondensedPatternSet.condense(mine_hmine(db, 12), 12, "closed")

    return [
        lambda s: s.write_entry(v0.fingerprint(), 6, condensed),
        lambda s: s.write_entry(v0.fingerprint(), 12, stale),
        lambda s: s.record_link(v1),
        lambda s: s.record_link(v2),
        lambda s: s.remove_entry(v0.fingerprint(), 12),
    ]


def final_state(directory, store, v2):
    """Everything observable about a recovered directory, comparable."""
    entries = {}
    for path in sorted(directory.glob("*.patterns")):
        condensed, _full = read_warehouse_entry(path)
        entries[path.name] = condensed.as_dict()
    restored = store.restore_version(v2.db)
    return {
        "entries": entries,
        "chains": store.chain_records(),
        "restored": restored.fingerprint() if restored is not None else None,
        "depth": _depth(restored),
    }


def _depth(version):
    depth = 0
    while version is not None:
        depth += 1
        version = version.parent
    return depth


@pytest.mark.parametrize("point", ACTIVE_POINTS)
def test_kill_at_every_offset_recovers_to_the_uninterrupted_state(
    point, tmp_path
):
    db, v0, v1, v2 = build_world(SEED)

    # The never-interrupted run is the ground truth.
    clean_dir = tmp_path / "clean"
    clean = DurableStore(clean_dir)
    for step in workload_steps(db, v0, v1, v2):
        step(clean)
    expected = final_state(clean_dir, clean, v2)
    assert expected["restored"] == v2.fingerprint()
    assert expected["depth"] == 3

    killed_at = 0
    for offset in OFFSETS:
        crash_dir = tmp_path / f"{point.replace('.', '-')}-{offset}"
        faults = FaultInjector(seed=SEED).inject(point, on_calls=(offset,))
        dying = DurableStore(crash_dir, faults)
        steps = workload_steps(db, v0, v1, v2)
        survivor_index = len(steps)
        for index, step in enumerate(steps):
            try:
                step(dying)
            except InjectedFaultError:
                survivor_index = index
                killed_at += 1
                break
        del dying  # the process is dead; only the directory survives

        recovered = DurableStore(crash_dir)
        recovered.recover()
        # Torn-or-old-or-new: every surviving file must parse — recovery
        # quarantines nothing in this workload because atomic writes
        # never leave a half-written target.
        assert recovered.recover(apply=False).quarantined == []
        # Roll the interrupted generation forward, as a restart would.
        for step in workload_steps(db, v0, v1, v2)[survivor_index:]:
            step(recovered)
        assert final_state(crash_dir, recovered, v2) == expected, (
            f"point={point} offset={offset} seed={SEED} "
            f"killed at step {survivor_index}"
        )

    # The matrix leg is vacuous if no offset ever fired the fault.
    assert killed_at > 0, f"no kill fired for {point} at any offset"

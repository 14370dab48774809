"""Seeded chaos runs: whatever faults fire, a returned answer is exact.

The CI ``chaos`` job runs this module across a fixed seed matrix
(``CHAOS_SEED`` ∈ 0..4) and one fault profile per matrix leg
(``CHAOS_PROFILE`` ∈ crash | slow | corrupt). Locally, with neither
variable set, every profile runs once under seed 0 — the same code path,
one leg of the matrix.

The ``crash`` and ``slow`` profiles arm ``update.patch``, the only
compute-side fault point: it fires in the update leg, where a crashed
patch re-mines cold and a slow one just runs later. The ``corrupt``
profile arms the warehouse read and write points, which every leg
meets. The service and gateway legs keep their ``jobs=2`` requests,
which the service serves in-process.

The invariant under test is the resilience layer's contract: faults may
change *how* a request is served (a clean re-mine, quarantine, a miss
instead of a hit) — recorded on the degradation ladder — but never
*what* is returned. Every response is compared pattern-for-pattern
against the fault-free serial answer.
"""

from __future__ import annotations

import os

import pytest

from repro.data.io import write_patterns_with_support
from repro.data.synthetic import QuestParams, quest_database
from repro.mining.hmine import mine_hmine
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.resilience import (
    UPDATE_PATCH,
    WAREHOUSE_READ,
    WAREHOUSE_WRITE,
    FaultInjector,
)
from repro.service import MineRequest, MiningService, PatternWarehouse

SEED = int(os.environ.get("CHAOS_SEED", "0"))
PROFILES = ("crash", "slow", "corrupt")
_selected = os.environ.get("CHAOS_PROFILE")
ACTIVE_PROFILES = (_selected,) if _selected in PROFILES else PROFILES

#: Requests replayed under every profile: two tenants relaxing support,
#: so the workload crosses mine → filter.
SUPPORTS = (14, 14, 9, 6)


def chaos_injector(profile: str) -> FaultInjector:
    injector = FaultInjector(seed=SEED)
    if profile == "crash":
        injector.inject(UPDATE_PATCH, probability=0.4)
    elif profile == "slow":
        injector.inject(UPDATE_PATCH, probability=0.5, delay_seconds=0.08)
    elif profile == "corrupt":
        injector.inject(WAREHOUSE_READ, probability=0.4)
        injector.inject(WAREHOUSE_WRITE, probability=0.4)
    else:  # pragma: no cover - guarded by ACTIVE_PROFILES
        raise AssertionError(profile)
    return injector


@pytest.mark.parametrize("profile", ACTIVE_PROFILES)
def test_chaos_run_returns_only_exact_answers(profile, tmp_path):
    db = quest_database(
        QuestParams(n_transactions=100, n_items=30, avg_transaction_length=6),
        seed=SEED,
    )
    expected = {support: mine_hmine(db, support) for support in set(SUPPORTS)}
    faults = chaos_injector(profile)

    warehouse = PatternWarehouse(directory=tmp_path, fault_injector=faults)
    with MiningService(warehouse=warehouse, fault_injector=faults) as service:
        for support in SUPPORTS:
            response = service.execute(
                MineRequest(db=db, support=support, jobs=2)
            )
            # The one non-negotiable: a returned answer is the exact
            # fault-free answer, whatever path produced it.
            assert response.patterns == expected[support], (
                f"profile={profile} seed={SEED} support={support} "
                f"served via {response.path} "
                f"(degradation: {response.degradation.describe() or 'none'})"
            )
        snapshot = service.stats.snapshot()
        assert snapshot["requests"] == len(SUPPORTS)


@pytest.mark.parametrize("profile", ACTIVE_PROFILES)
def test_chaos_gateway_batches_survive_faults(profile, tmp_path):
    """The gateway leg: faults firing under a non-empty queue must not
    bend batched serving — every served response still matches the
    fault-free serial answer, and nothing is silently dropped."""
    from repro.gateway import MiningGateway

    db = quest_database(
        QuestParams(n_transactions=100, n_items=30, avg_transaction_length=6),
        seed=SEED,
    )
    expected = {support: mine_hmine(db, support) for support in set(SUPPORTS)}
    faults = chaos_injector(profile)
    warehouse = PatternWarehouse(directory=tmp_path, fault_injector=faults)
    with MiningService(warehouse=warehouse, fault_injector=faults) as service:
        gateway = MiningGateway(service, start=False)
        # The whole ladder queues before anything dispatches, so faults
        # hit the shared batched computation, not isolated requests.
        futures = [
            gateway.submit(MineRequest(db=db, support=support, jobs=2))
            for support in SUPPORTS
        ]
        gateway.drain()
        for future, support in zip(futures, SUPPORTS):
            response = future.result()
            assert response.status == "served"
            assert response.patterns == expected[support], (
                f"profile={profile} seed={SEED} support={support} "
                f"batched={response.batched} "
                f"(degradation: "
                f"{response.degradation.describe() or 'none'})"
            )
        assert gateway.stats.served == len(SUPPORTS)
        gateway.close()


@pytest.mark.parametrize("profile", ACTIVE_PROFILES)
def test_chaos_update_path_degrades_to_clean_remine(profile, tmp_path):
    """The update leg: faults firing mid-patch must never surface a
    half-patched pattern set. Whatever the profile breaks — the patch
    itself (``update.patch`` crash), the ancestor lookup (warehouse-read
    corruption), or just latency (slow) — the served answer equals the
    fault-free scratch mine of the *post-update* database, and a crashed
    patch leaves its structured reason in the service stats."""
    db = quest_database(
        QuestParams(n_transactions=80, n_items=25, avg_transaction_length=5),
        seed=SEED,
    )
    v0 = VersionedDatabase.initial(db)
    # An insert-only delta, so the service patches with FUP (a delta
    # with deletions would mine cold and never reach the patch).
    delta = DatabaseDelta.append(db.transactions[:6])
    v1 = v0.apply(delta)
    expected = mine_hmine(v1.db, 10)
    faults = chaos_injector(profile)
    # Mid-update faults on every profile: crash kills the patch itself,
    # slow stretches it, corrupt (warehouse-read) starves it upstream.
    if profile == "crash":
        faults.inject(UPDATE_PATCH, probability=1.0)
    elif profile == "slow":
        faults.inject(UPDATE_PATCH, probability=1.0, delay_seconds=0.01)
    warehouse = PatternWarehouse(directory=tmp_path, fault_injector=faults)
    with MiningService(warehouse=warehouse, fault_injector=faults) as service:
        service.execute(MineRequest(db=db, support=10, version=v0))
        response = service.execute(MineRequest(db=v1.db, support=10, version=v1))
        assert response.patterns == expected, (
            f"profile={profile} seed={SEED} served via {response.path} "
            f"(degradation: {response.degradation.describe() or 'none'})"
        )
        if profile == "crash" and response.path == "update":
            # The patch crashed under the injector; the fallback must be
            # on the record, not silent.
            summary = service.stats.degradation_summary()
            assert any("update_failed" in label for label in summary), summary


@pytest.mark.parametrize("profile", ACTIVE_PROFILES)
def test_chaos_reload_after_corruption_serves_survivors(profile, tmp_path):
    """A warehouse directory that survived a chaos run (possibly with
    files corrupted on disk) reloads, quarantining instead of failing."""
    db = quest_database(
        QuestParams(n_transactions=80, n_items=25, avg_transaction_length=5),
        seed=SEED,
    )
    fingerprint = db.fingerprint()
    for support in (12, 8):
        write_patterns_with_support(
            mine_hmine(db, support),
            tmp_path / f"{fingerprint}-{support}.patterns",
            support,
        )
    if profile == "corrupt":
        bad = tmp_path / f"{fingerprint}-8.patterns"
        bad.write_text(bad.read_text()[:50])
    warehouse = PatternWarehouse(directory=tmp_path)
    healthy = 1 if profile == "corrupt" else 2
    assert len(warehouse) == healthy
    hit = warehouse.best_feedstock(fingerprint, 12)
    assert hit is not None
    assert hit.patterns == mine_hmine(db, 12)

"""Seeded chaos runs: whatever faults fire, a returned answer is exact.

The CI ``chaos`` job runs this module across a fixed seed matrix
(``CHAOS_SEED`` ∈ 0..4) and one fault profile per matrix leg
(``CHAOS_PROFILE`` ∈ crash | slow | corrupt). Locally, with neither
variable set, every profile runs once under seed 0 — the same code path,
one leg of the matrix.

The service serves every request in-process, so the shard faults of the
``crash`` and ``slow`` profiles fire in the engine leg, which replays the
same support ladder through ``execute_plan`` on a two-job
:class:`~repro.parallel.ParallelEngine`. The service and gateway legs
keep their ``jobs=2`` requests and meet the warehouse faults.

The invariant under test is the resilience layer's contract: faults may
change *how* a request is served (retries, serial fallback, quarantine,
a miss instead of a hit) — recorded on the degradation ladder — but
never *what* is returned. Every response is compared pattern-for-pattern
against the fault-free serial answer.
"""

from __future__ import annotations

import os

import pytest

from repro.core.planner import execute_plan, plan_support_path
from repro.data.io import write_patterns_with_support
from repro.data.synthetic import QuestParams, quest_database
from repro.mining.hmine import mine_hmine
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.parallel import ParallelEngine
from repro.resilience import (
    SHARD_CRASH,
    SHARD_SLOW,
    UPDATE_PATCH,
    WAREHOUSE_READ,
    WAREHOUSE_WRITE,
    FaultInjector,
    ResilienceConfig,
    RetryPolicy,
)
from repro.service import MineRequest, MiningService, PatternWarehouse

SEED = int(os.environ.get("CHAOS_SEED", "0"))
PROFILES = ("crash", "slow", "corrupt")
_selected = os.environ.get("CHAOS_PROFILE")
ACTIVE_PROFILES = (_selected,) if _selected in PROFILES else PROFILES

#: Requests replayed under every profile: two tenants relaxing support,
#: so the workload crosses the mine → filter → recycle trichotomy.
SUPPORTS = (14, 14, 9, 6)


def chaos_injector(profile: str) -> FaultInjector:
    injector = FaultInjector(seed=SEED)
    if profile == "crash":
        injector.inject(SHARD_CRASH, probability=0.4)
    elif profile == "slow":
        # Some shard attempts sleep past the engine deadline below.
        injector.inject(SHARD_SLOW, probability=0.5, delay_seconds=0.08)
    elif profile == "corrupt":
        injector.inject(WAREHOUSE_READ, probability=0.4)
        injector.inject(WAREHOUSE_WRITE, probability=0.4)
    else:  # pragma: no cover - guarded by ACTIVE_PROFILES
        raise AssertionError(profile)
    return injector


def chaos_retry() -> RetryPolicy:
    return RetryPolicy(
        max_attempts=3,
        base_delay_seconds=0.001,
        max_delay_seconds=0.01,
        jitter_fraction=0.25,
    )


@pytest.mark.parametrize("profile", ACTIVE_PROFILES)
def test_chaos_engine_ladder_returns_only_exact_answers(profile):
    """The engine leg: the ladder's mine and recycles fan out over two
    shards while the profile crashes or stalls them; retries, deadline
    fallbacks and serial answers must all equal the fault-free set."""
    db = quest_database(
        QuestParams(n_transactions=100, n_items=30, avg_transaction_length=6),
        seed=SEED,
    )
    expected = {support: mine_hmine(db, support) for support in set(SUPPORTS)}
    faults = chaos_injector(profile)
    retry = chaos_retry()
    engine = ParallelEngine(
        2,
        executor="inline",
        timeout_seconds=0.05 if profile == "slow" else None,
        retry_policy=retry,
        fault_injector=faults,
    )
    resilience = ResilienceConfig(retry=retry, faults=faults)
    feedstock = feedstock_support = None
    for support in SUPPORTS:
        plan = plan_support_path(support, feedstock, feedstock_support)
        patterns = execute_plan(
            plan, db, support, resilience=resilience, engine=engine
        )
        assert patterns == expected[support], (
            f"profile={profile} seed={SEED} support={support} "
            f"served via {plan.path}"
        )
        feedstock, feedstock_support = patterns, support


@pytest.mark.parametrize("profile", ACTIVE_PROFILES)
def test_chaos_run_returns_only_exact_answers(profile, tmp_path):
    db = quest_database(
        QuestParams(n_transactions=100, n_items=30, avg_transaction_length=6),
        seed=SEED,
    )
    expected = {support: mine_hmine(db, support) for support in set(SUPPORTS)}
    faults = chaos_injector(profile)
    retry = chaos_retry()

    warehouse = PatternWarehouse(directory=tmp_path, fault_injector=faults)
    with MiningService(
        warehouse=warehouse,
        resilience=ResilienceConfig(retry=retry, faults=faults),
    ) as service:
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
    retry = chaos_retry()
    warehouse = PatternWarehouse(directory=tmp_path, fault_injector=faults)
    with MiningService(
        warehouse=warehouse,
        resilience=ResilienceConfig(retry=retry, faults=faults),
    ) as service:
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
    # A mixed delta, so the planner picks the recycling patch engine.
    delta = DatabaseDelta(
        appends=db.transactions[:6], deletes=frozenset(db.tids[:3])
    )
    v1 = v0.apply(delta)
    expected = mine_hmine(v1.db, 10)
    faults = chaos_injector(profile)
    # Mid-update faults on every profile: crash kills the patch itself,
    # slow stretches it, corrupt (warehouse-read) starves it upstream.
    if profile == "crash":
        faults.inject(UPDATE_PATCH, probability=1.0)
    elif profile == "slow":
        faults.inject(UPDATE_PATCH, probability=1.0, delay_seconds=0.01)
    retry = chaos_retry()
    warehouse = PatternWarehouse(directory=tmp_path, fault_injector=faults)
    with MiningService(
        warehouse=warehouse,
        resilience=ResilienceConfig(retry=retry, faults=faults),
    ) as service:
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

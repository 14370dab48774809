"""The serving stack runs the planner's serving kernel on every path.

Cold mines run ``eclat-bitset`` and recycles run the grouped bitset
kernel. The registry's H-Mine baseline and Recycle-HM specs are patched
to raise, so any serving path that still resolves to them (a default
left behind, a shard planning locally, a serial fallback) fails loudly;
every answer must still equal a scratch FP-growth mine.
"""

from __future__ import annotations

import dataclasses
import functools

import pytest

from repro.core.planner import SERVING_BASELINE, SERVING_RECYCLING
from repro.data.synthetic import QuestParams, quest_database
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.mining import registry
from repro.mining.fptree import mine_fpgrowth
from repro.parallel import ParallelEngine
from repro.parallel.sharding import ShardPlanner
from repro.resilience import SHARD_CRASH, FaultInjector, RetryPolicy
from repro.service import MineRequest, MiningService, PatternWarehouse


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=140, n_items=30, avg_transaction_length=6),
        seed=8,
    )


@pytest.fixture
def kernel_calls(monkeypatch):
    """Refuse H-Mine / Recycle-HM; count the serving pair's calls."""
    calls = {SERVING_BASELINE: 0, SERVING_RECYCLING: 0}

    def refuse(*_args, **_kwargs):
        raise AssertionError("the serving stack ran H-Mine or Recycle-HM")

    for kind in ("baseline", "recycling"):
        spec = registry.get_miner("hmine", kind=kind)
        monkeypatch.setitem(
            registry._MINERS, (kind, "hmine"), dataclasses.replace(spec, fn=refuse)
        )
    serving = (("baseline", SERVING_BASELINE), ("recycling", SERVING_RECYCLING))
    for kind, name in serving:
        spec = registry.get_miner(name, kind=kind)

        @functools.wraps(spec.fn)
        def counted(*args, _fn=spec.fn, _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setitem(
            registry._MINERS, (kind, name), dataclasses.replace(spec, fn=counted)
        )
    return calls


def inline_factory(**extra):
    """Engine factory running the worker code path in-process."""

    def factory(jobs, shard_feedstock, on_shard_result):
        return ParallelEngine(
            jobs,
            executor="inline",
            shard_feedstock=shard_feedstock,
            on_shard_result=on_shard_result,
            **extra,
        )

    return factory


def test_every_serial_path_runs_the_serving_kernel(db, kernel_calls):
    v0 = VersionedDatabase.initial(db)
    appended = v0.apply(DatabaseDelta.append(db.transactions[:4]))
    mixed = appended.apply(
        DatabaseDelta(
            appends=db.transactions[10:13], deletes=frozenset(appended.db.tids[:3])
        )
    )
    steps = [
        (v0, 14, "mine"),
        (v0, 18, "filter"),
        (v0, 8, "recycle"),
        (appended, 8, "update"),  # insert-only: FUP
        (mixed, 8, "update"),  # with deletions: update/recycle
    ]
    with MiningService(warehouse=PatternWarehouse()) as service:
        served = [
            service.execute(MineRequest(db=version.db, support=support, version=version))
            for version, support, _ in steps
        ]
    for response, (version, support, path) in zip(served, steps):
        assert response.path == path
        assert response.patterns == mine_fpgrowth(version.db, support)
    assert [r.update_mode for r in served[3:]] == ["fup", "recycle"]
    assert kernel_calls[SERVING_BASELINE] == 1  # the cold mine
    assert kernel_calls[SERVING_RECYCLING] == 2  # recycle + update/recycle


def test_sharded_paths_and_fallbacks_run_the_serving_kernel(db, kernel_calls):
    """jobs=2 with the warehouse shard hooks: scratch shards, shards that
    plan locally on warehoused feedstock (one recycles, one mines), the
    grouped shards of a recycle, and the serial fallback after a crash."""
    other = quest_database(
        QuestParams(n_transactions=100, n_items=25, avg_transaction_length=5),
        seed=9,
    )
    warehouse = PatternWarehouse()
    shard_plan = ShardPlanner(2).plan(db)
    rich, barren = shard_plan.shards
    local = shard_plan.local_support(rich, 16)
    warehouse.put(rich.fingerprint(), local, mine_fpgrowth(rich.database(), local))
    # An empty entry above every support: the shard must mine from scratch.
    warehouse.put(barren.fingerprint(), len(db) + 1, mine_fpgrowth(db, len(db) + 1))
    with MiningService(
        warehouse=warehouse, parallel_engine_factory=inline_factory()
    ) as service:
        planned = service.execute(MineRequest(db=db, support=12, jobs=2))
        recycled = service.execute(MineRequest(db=db, support=7, jobs=2))
        scratch = service.execute(MineRequest(db=other, support=12, jobs=2))
    served = [(planned, db, "mine"), (recycled, db, "recycle"), (scratch, other, "mine")]
    for response, database, path in served:
        assert response.path == path and response.jobs == 2
        assert not response.parallel_fallback
        assert response.patterns == mine_fpgrowth(database, response.absolute_support)
    # The barren shard's local mine and two scratch shards; the rich
    # shard's local recycle and the two grouped shards of the recycle.
    assert kernel_calls == {SERVING_BASELINE: 3, SERVING_RECYCLING: 3}

    crash = FaultInjector().inject(SHARD_CRASH, probability=1.0)
    with MiningService(
        warehouse=PatternWarehouse(),
        parallel_engine_factory=inline_factory(
            fault_injector=crash, retry_policy=RetryPolicy(max_attempts=1)
        ),
    ) as service:
        cold = service.execute(MineRequest(db=db, support=12, jobs=2))
        relaxed = service.execute(MineRequest(db=db, support=7, jobs=2))
    for response, path in ((cold, "mine"), (relaxed, "recycle")):
        assert response.path == path and response.parallel_fallback
        assert response.patterns == mine_fpgrowth(db, response.absolute_support)
    # Plus one serial fallback each.
    assert kernel_calls == {SERVING_BASELINE: 4, SERVING_RECYCLING: 4}


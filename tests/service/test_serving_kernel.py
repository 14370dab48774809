"""The serving stack runs the planner's serving kernel on every path.

Cold mines run ``eclat-bitset`` and recycles run the grouped bitset
kernel. The registry's H-Mine baseline and Recycle-HM specs are patched
to raise, so any serving path that still resolves to them (a default
left behind) fails loudly; every answer must still equal a scratch
FP-growth mine. Requests asking for ``jobs=2`` are served by the same
in-process kernel: the sharded engine is patched to raise.
"""

from __future__ import annotations

import dataclasses
import functools
import threading

import pytest

import repro.service.service as service_module
from repro.core.planner import SERVING_BASELINE, SERVING_RECYCLING, execute_plan
from repro.data.synthetic import QuestParams, quest_database
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.gateway import MiningGateway
from repro.mining import registry
from repro.mining.fptree import mine_fpgrowth
from repro.parallel import ParallelEngine
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


def test_every_serial_path_runs_the_serving_kernel(db, kernel_calls):
    steps = chain_steps(db)
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


@pytest.fixture
def no_sharding(monkeypatch):
    """Make any use of the sharded engine fail the test."""

    def refuse(*_args, **_kwargs):
        raise AssertionError("the serving stack ran the sharded engine")

    monkeypatch.setattr(ParallelEngine, "mine", refuse)
    monkeypatch.setattr(ParallelEngine, "recycle_mine", refuse)


def chain_steps(db):
    """(version, support, path) covering every planner path once."""
    v0 = VersionedDatabase.initial(db)
    appended = v0.apply(DatabaseDelta.append(db.transactions[:4]))
    mixed = appended.apply(
        DatabaseDelta(
            appends=db.transactions[10:13], deletes=frozenset(appended.db.tids[:3])
        )
    )
    return [
        (v0, 14, "mine"),
        (v0, 18, "filter"),
        (v0, 8, "recycle"),
        (appended, 8, "update"),  # insert-only: FUP
        (mixed, 8, "update"),  # with deletions: update/recycle
    ]


def test_multi_job_requests_are_served_in_process(db, kernel_calls, no_sharding):
    """jobs=2 runs the same serial serving kernel as jobs=1 on every
    path, through the service and through a gateway batch."""
    steps = chain_steps(db)
    with MiningService(warehouse=PatternWarehouse()) as service:
        served = [
            service.execute(
                MineRequest(db=version.db, support=support, version=version, jobs=2)
            )
            for version, support, _ in steps
        ]
    for response, (version, support, path) in zip(served, steps):
        assert response.path == path
        assert response.patterns == mine_fpgrowth(version.db, support)
        assert response.counters.as_dict().get("parallel_shards", 0) == 0
    assert [r.update_mode for r in served[3:]] == ["fup", "recycle"]
    assert kernel_calls == {SERVING_BASELINE: 1, SERVING_RECYCLING: 2}

    ladder = [(14, 2), (18, 1), (8, 2)]
    with MiningService(warehouse=PatternWarehouse()) as service:
        gateway = MiningGateway(service, start=False)
        futures = [
            gateway.submit(MineRequest(db=db, support=support, jobs=jobs))
            for support, jobs in ladder
        ]
        gateway.drain()
        outcomes = [future.result() for future in futures]
        gateway.close()
    # jobs is not part of the batch key: one batch mines at the minimum.
    assert [(o.batched, o.batch_size, o.batch_support) for o in outcomes] == [
        (True, 3, 8)
    ] * 3
    for outcome, (support, _) in zip(outcomes, ladder):
        assert outcome.patterns == mine_fpgrowth(db, support)
        assert outcome.response.counters.as_dict().get("parallel_shards", 0) == 0
    assert kernel_calls == {SERVING_BASELINE: 2, SERVING_RECYCLING: 2}


def test_requests_differing_only_in_jobs_share_one_computation(
    db, monkeypatch, no_sharding
):
    """jobs is not part of the coalescing key: a one-job and a two-job
    request in flight together are one computation."""
    release = threading.Event()

    def gated(*args, **kwargs):
        assert release.wait(timeout=30), "gate never released"
        return execute_plan(*args, **kwargs)

    monkeypatch.setattr(service_module, "execute_plan", gated)
    with MiningService(warehouse=PatternWarehouse()) as service:
        first = service.submit(MineRequest(db=db, support=12, jobs=1))
        second = service.submit(MineRequest(db=db, support=12, jobs=2))
        release.set()
        one, two = first.result(timeout=60), second.result(timeout=60)
        snapshot = service.stats.snapshot()
    assert not one.coalesced and two.coalesced
    assert one.patterns == two.patterns == mine_fpgrowth(db, 12)
    assert snapshot["computations"] == 1 and snapshot["coalesced"] == 1

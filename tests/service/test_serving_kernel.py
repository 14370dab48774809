"""A served request never compresses: it filters, mines cold or FUP-patches.

MCP compression, the grouped kernel and every recycling miner in the
registry are patched to raise, and so is the H-Mine baseline, so a
served path that still recycles (or resolves to a default left behind)
fails loudly. Cold mines run ``eclat-bitset``; a lower support, an update
FUP cannot patch and a registry-only ancestor hit all mine cold. Every
answer must still equal a scratch FP-growth mine. Requests asking for
``jobs=2`` are served by the same in-process kernel: the sharded engine
is patched to raise.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import threading

import pytest

import repro.core.compression
import repro.service.service as service_module
import repro.storage.projection
from repro.core.planner import SERVING_BASELINE, execute_plan
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


def _refuse(what):
    def refuse(*_args, **_kwargs):
        raise AssertionError(f"the serving stack ran {what}")

    return refuse


@pytest.fixture
def kernel_calls(monkeypatch):
    """Refuse compression, the grouped kernel, every recycling miner and
    H-Mine; count the serving kernel's calls."""
    refused = (repro.core.compression.compress, repro.storage.projection.mine_grouped)
    for original in refused:
        # Patch every module that bound the function by name, not only
        # the one that defines it.
        for module in list(sys.modules.values()):
            for name, value in list(getattr(module, "__dict__", {}).items()):
                if value is original:
                    monkeypatch.setattr(module, name, _refuse(original.__name__))
    for (kind, name), spec in list(registry._MINERS.items()):
        if kind == "recycling" or name == "hmine":
            monkeypatch.setitem(
                registry._MINERS,
                (kind, name),
                dataclasses.replace(spec, fn=_refuse(f"{kind} {name}")),
            )
    calls = {SERVING_BASELINE: 0}
    spec = registry.get_miner(SERVING_BASELINE)

    @functools.wraps(spec.fn)
    def counted(*args, **kwargs):
        calls[SERVING_BASELINE] += 1
        return spec.fn(*args, **kwargs)

    monkeypatch.setitem(
        registry._MINERS,
        ("baseline", SERVING_BASELINE),
        dataclasses.replace(spec, fn=counted),
    )
    return calls


@pytest.fixture
def no_sharding(monkeypatch):
    """Make any use of the sharded engine fail the test."""
    for method in ("mine", "recycle_mine"):
        monkeypatch.setattr(ParallelEngine, method, _refuse("the sharded engine"))


def chain_steps(db):
    """(version, support, path, registry_only) covering every request kind."""
    v0 = VersionedDatabase.initial(db)
    appended = v0.apply(DatabaseDelta.append(db.transactions[:4]))
    mixed = appended.apply(
        DatabaseDelta(
            appends=db.transactions[10:13], deletes=frozenset(appended.db.tids[:3])
        )
    )
    grown = mixed.apply(DatabaseDelta.append(db.transactions[20:24]))
    return [
        (v0, 14, "mine", False),
        (v0, 18, "filter", False),
        (v0, 8, "mine", False),  # lower support: the entry at 14 is not feedstock
        (appended, 8, "update", False),  # insert-only: FUP
        (mixed, 8, "mine", False),  # with deletions: FUP cannot patch it
        (grown, 8, "mine", True),  # FUP-able, but the ancestor cannot be rebuilt
    ]


#: The cold mines among the chain steps.
COLD_MINES = 4


def serve_chain(db, execute, jobs, monkeypatch):
    """Serve every chain step through ``execute``; check each answer."""
    steps = chain_steps(db)
    responses = []
    for version, support, _path, registry_only in steps:
        request = MineRequest(
            db=version.db, support=support, version=version, jobs=jobs
        )
        with monkeypatch.context() as patch:
            if registry_only:
                # Only the warehouse's lineage links survive: the chain
                # can no longer produce the ancestor's database.
                patch.setattr(VersionedDatabase, "ancestor", lambda *_: None)
            responses.append(execute(request))
        assert responses[-1].patterns == mine_fpgrowth(version.db, support)
    assert [r.path for r in responses] == [path for _v, _s, path, _r in steps]
    return responses


def serve_chain_through_gateway(db, jobs, monkeypatch):
    with MiningService(warehouse=PatternWarehouse()) as service:
        gateway = MiningGateway(service, start=False)
        responses = serve_chain(
            db, lambda request: gateway.execute(request).response, jobs, monkeypatch
        )
        gateway.close()
    return responses


def test_every_serial_path_runs_the_serving_kernel(db, kernel_calls, monkeypatch):
    with MiningService(warehouse=PatternWarehouse()) as service:
        served = serve_chain(db, service.execute, 1, monkeypatch)
        snapshot = service.stats.snapshot()
    assert [r.update_mode for r in served] == [None, None, None, "fup", None, None]
    assert kernel_calls[SERVING_BASELINE] == COLD_MINES
    paths = (snapshot["filter_hits"], snapshot["updates"], snapshot["misses"])
    assert paths == (1, 1, COLD_MINES)
    assert not any("recycle" in key for key in snapshot)

    serve_chain_through_gateway(db, 1, monkeypatch)
    assert kernel_calls[SERVING_BASELINE] == 2 * COLD_MINES


def test_multi_job_requests_are_served_in_process(
    db, kernel_calls, no_sharding, monkeypatch
):
    """jobs=2 runs the same serial serving kernel as jobs=1 on every
    path, through the service and through the gateway."""
    with MiningService(warehouse=PatternWarehouse()) as service:
        served = serve_chain(db, service.execute, 2, monkeypatch)
    assert served[3].update_mode == "fup"
    served += serve_chain_through_gateway(db, 2, monkeypatch)
    for response in served:
        assert response.counters.as_dict().get("parallel_shards", 0) == 0
    assert kernel_calls[SERVING_BASELINE] == 2 * COLD_MINES

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
    assert kernel_calls[SERVING_BASELINE] == 2 * COLD_MINES + 1


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

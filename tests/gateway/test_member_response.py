"""A batch member at the shared support reports the shared path in full.

``member_response`` used to copy ``path`` from the shared response but
drop ``update_mode`` and ``feedstock_distance``, so a same-support member
of an update-path batch read ``path="update"`` with no patch mode and a
zero delta distance. A member at a higher support is a filter over the
shared answer and carries no update detail.
"""

from __future__ import annotations

from repro.data.synthetic import QuestParams, quest_database
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.gateway import MiningGateway
from repro.mining.hmine import mine_hmine
from repro.service import MineRequest, MiningService, PatternWarehouse


def test_same_support_members_keep_update_detail():
    db = quest_database(
        QuestParams(n_transactions=120, n_items=15, avg_transaction_length=5),
        seed=3,
    )
    v0 = VersionedDatabase.initial(db)
    v1 = v0.apply(DatabaseDelta.append(db.transactions[:4]))
    with MiningService(warehouse=PatternWarehouse()) as service:
        service.execute(MineRequest(db=db, support=10, version=v0))
        gateway = MiningGateway(service, start=False)
        futures = [
            gateway.submit(
                MineRequest(db=v1.db, support=support, version=v1, tenant=tenant)
            )
            for tenant, support in (("a", 10), ("b", 10), ("c", 12))
        ]
        gateway.drain()
        leader, same, higher = [future.result().response for future in futures]
        gateway.close()
    assert leader.path == "update" and leader.update_mode == "fup"
    assert leader.feedstock_distance == v1.delta.size > 0
    assert (same.tenant, same.coalesced) == ("b", True)
    assert same.path == "update"
    assert same.update_mode == leader.update_mode
    assert same.feedstock_distance == leader.feedstock_distance
    assert (higher.path, higher.update_mode, higher.feedstock_distance) == (
        "filter", None, 0
    )
    assert same.patterns == mine_hmine(v1.db, 10)
    assert higher.patterns == mine_hmine(v1.db, 12)

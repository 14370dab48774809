"""A condensed warehouse entry is expanded once when the budget allows.

The first hit on a condensed entry promotes it back to full when the
full form fits, so the planner's filter path filters the held full set
on every later hit instead of expanding afresh. Five filter hits on one
closed entry put pre-condensed into an unbudgeted warehouse (three at
its own support, two tightened) must run ``_expand_closed`` exactly
once, every answer must equal a scratch FP-growth mine, and a caller
mutating a served answer must not reach the entry behind it. Under a
budget that holds the closed entry but not its expansion, every hit
expands again and the warehouse keeps none of the expansions.
"""

from __future__ import annotations

import pytest

from repro.data.patterns import CondensedPatternSet
from repro.data.synthetic import QuestParams, quest_database
from repro.mining.fptree import mine_fpgrowth
from repro.service import MineRequest, MiningService, PatternWarehouse
from repro.storage.disk import patterns_byte_size


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=150, n_items=20, avg_transaction_length=7),
        seed=4,
    )


@pytest.fixture
def expansions(monkeypatch):
    """Count calls to the closed representation's expansion."""
    calls = []
    expand_closed = CondensedPatternSet._expand_closed

    def counted(self):
        calls.append(self)
        return expand_closed(self)

    monkeypatch.setattr(CondensedPatternSet, "_expand_closed", counted)
    return calls


def put_closed(warehouse, db, stored):
    """Put the entry pre-condensed; returns it."""
    condensed = CondensedPatternSet.condense(
        mine_fpgrowth(db, stored), stored, "closed"
    )
    assert len(condensed) < condensed.known_expanded_count()  # it condenses
    assert warehouse.put(db.fingerprint(), stored, condensed)
    return condensed


def test_filter_hits_expand_the_stored_entry_once(db, expansions):
    stored = 8
    warehouse = PatternWarehouse(representation="closed")
    put_closed(warehouse, db, stored)
    (row,) = warehouse.describe_entries()
    assert row["representation"] == "closed"
    supports = [stored, stored, stored, stored + 2, stored + 5]
    with MiningService(warehouse=warehouse) as service:
        served = [
            service.execute(MineRequest(db=db, support=support))
            for support in supports
        ]
        for response, support in zip(served, supports):
            assert response.path == "filter"
            assert response.patterns == mine_fpgrowth(db, support)
        assert len(expansions) == 1

        # A caller owns its answer: mutating it leaves the cache intact.
        stray = frozenset({max(db.items()) + 1})
        served[0].patterns.add(stray, stored)
        again = service.execute(MineRequest(db=db, support=stored))
    assert stray not in again.patterns
    assert again.patterns == mine_fpgrowth(db, stored)
    assert len(expansions) == 1
    # The one expansion promoted the entry: it is held full now.
    (row,) = warehouse.describe_entries()
    assert row["representation"] == "full"
    assert warehouse.stats()["promotions"] == 1


def test_hits_under_pressure_expand_without_keeping(db, expansions):
    stored = 8
    condensed = CondensedPatternSet.condense(
        mine_fpgrowth(db, stored), stored, "closed"
    )
    budget = patterns_byte_size(condensed)
    warehouse = PatternWarehouse(byte_budget=budget, representation="closed")
    held = put_closed(warehouse, db, stored)
    supports = [stored, stored, stored + 2]
    with MiningService(warehouse=warehouse) as service:
        for support in supports:
            response = service.execute(MineRequest(db=db, support=support))
            assert response.path == "filter"
            assert response.patterns == mine_fpgrowth(db, support)
            stats = warehouse.stats()
            assert stats["resident_bytes"] == stats["stored_bytes"] == budget
    assert len(expansions) == len(supports)
    assert all(call is not held for call in expansions)
    assert held._expanded is None
    assert warehouse.stats()["promotions"] == 0

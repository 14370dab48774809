"""A condensed warehouse entry is expanded once, however often it is hit.

The planner's filter path filters the stored entry's cached expansion
instead of condensing and expanding afresh on every hit. Five filter
hits on one closed entry (three at its own support, two tightened) must
run ``_expand_closed`` exactly once, every answer must equal a scratch
FP-growth mine, and a caller mutating a served answer must not reach
the cached expansion behind it.
"""

from __future__ import annotations

import pytest

from repro.data.patterns import CondensedPatternSet
from repro.data.synthetic import QuestParams, quest_database
from repro.mining.fptree import mine_fpgrowth
from repro.service import MineRequest, MiningService, PatternWarehouse


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


def test_filter_hits_expand_the_stored_entry_once(db, expansions):
    stored = 8
    warehouse = PatternWarehouse(representation="closed")
    warehouse.put(db.fingerprint(), stored, mine_fpgrowth(db, stored))
    entry = warehouse.get_condensed(db.fingerprint(), stored)
    assert entry is not None and entry.representation == "closed"
    assert len(entry) < entry.known_expanded_count()  # the entry condenses
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

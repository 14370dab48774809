"""Hypothesis property: the byte budget bounds everything the warehouse holds.

Entries rest full and are condensed only under budget pressure; a hit on
a condensed entry is promoted back to full when that fits, or served
from an expansion the warehouse does not keep. Over random sequences of
``put`` (full or pre-condensed), ``get``, ``best_feedstock``,
``ancestor_feedstock``, ``migrate`` and reopening over
the same directory, with budgets from smaller than one condensed entry
to a few full ones and every representation, after every step:

* modelled resident bytes — every held form plus any expansion cached
  on it, computed here from the held objects — stay within the budget
  and match ``stats()["resident_bytes"]``, and ``stored_bytes`` is the
  sum of the held forms;
* every served set is bit-identical to the set that was put.

A pinned regression replays the overshoot this rule removed: eight
closed connect4 entries under a 16 KiB budget used to hold their cached
expansions after one ``get`` each, about 18x the budget.
"""

from __future__ import annotations

import math
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import DATASETS
from repro.data.patterns import REPRESENTATIONS, CondensedPatternSet
from repro.data.synthetic import QuestParams, quest_database
from repro.data.transactions import TransactionDatabase
from repro.mining.hmine import mine_hmine
from repro.mining.registry import get_miner
from repro.service import PatternWarehouse
from repro.storage.disk import patterns_byte_size

#: Dense rows whose closure collapses (condensing shrinks them), sparse
#: Quest rows, and a chain whose every pattern is closed (condensing
#: only adds the header).
DATABASES = (
    DATASETS["connect4"].build(3, n_transactions=60),
    quest_database(
        QuestParams(n_transactions=50, n_items=15, avg_transaction_length=5),
        seed=1,
    ),
    TransactionDatabase([[1, 2]] * 3 + [[1]] * 2 + [[2]]),
)
SUPPORTS = ((54, 56, 58), (6, 9, 12), (1, 2, 3))
#: (database index, support) -> the full set put for it.
FULL = {
    (index, support): mine_hmine(db, support)
    for index, db in enumerate(DATABASES)
    for support in SUPPORTS[index]
}
SIZES = sorted(patterns_byte_size(patterns) for patterns in FULL.values())

keys = st.sampled_from(sorted(FULL))
OPS = st.one_of(
    st.tuples(st.just("put"), keys),
    st.tuples(st.just("put_closed"), keys),
    st.tuples(st.just("get"), keys),
    st.tuples(st.just("best"), keys),
    st.tuples(st.just("ancestor"), keys),
    st.tuples(st.just("migrate"), st.none()),
    st.tuples(st.just("reopen"), st.none()),
)


def resident_bytes(warehouse: PatternWarehouse) -> int:
    """Every held form plus any expansion with memory of its own."""
    total = 0
    for entry in warehouse._entries.values():
        stored = entry.stored
        total += patterns_byte_size(stored)
        if stored.representation != "full" and stored._expanded is not None:
            total += patterns_byte_size(stored._expanded)
    return total


def check_budget(warehouse: PatternWarehouse, budget: int) -> None:
    resident = resident_bytes(warehouse)
    stats = warehouse.stats()
    assert resident <= budget, f"resident {resident} B over the {budget} B budget"
    assert stats["resident_bytes"] == resident
    assert stats["stored_bytes"] == sum(
        patterns_byte_size(entry.stored) for entry in warehouse._entries.values()
    )


def fingerprint(index: int) -> str:
    return DATABASES[index].fingerprint()


@settings(max_examples=60, deadline=None)
@given(
    representation=st.sampled_from(REPRESENTATIONS),
    budget=st.integers(min_value=SIZES[0] // 2, max_value=2 * SIZES[-1]),
    on_disk=st.booleans(),
    ops=st.lists(OPS, min_size=1, max_size=25),
)
def test_resident_bytes_stay_within_budget(representation, budget, on_disk, ops):
    with tempfile.TemporaryDirectory() as scratch:
        directory = scratch if on_disk else None

        def open_warehouse() -> PatternWarehouse:
            return PatternWarehouse(
                byte_budget=budget, directory=directory, representation=representation
            )

        warehouse = open_warehouse()
        check_budget(warehouse, budget)
        for kind, key in ops:
            if kind == "put":
                index, support = key
                warehouse.put(
                    fingerprint(index),
                    support,
                    FULL[key],
                    n_transactions=len(DATABASES[index]),
                )
            elif kind == "put_closed":
                index, support = key
                condensed = CondensedPatternSet.condense(FULL[key], support, "closed")
                warehouse.put(fingerprint(index), support, condensed)
            elif kind == "get":
                index, support = key
                served = warehouse.get(fingerprint(index), support)
                held = (fingerprint(index), support) in warehouse
                assert (served is not None) == held
                if served is not None:
                    assert served == FULL[key]
            elif kind in ("best", "ancestor"):
                index, support = key
                if kind == "best":
                    hit = warehouse.best_feedstock(fingerprint(index), support)
                else:
                    hit = warehouse.ancestor_feedstock(
                        fingerprint(index), support, ((fingerprint(index), 0),)
                    )
                held = [s for fp, s in warehouse.keys() if fp == fingerprint(index)]
                below = [s for s in held if s <= support]
                if hit is None:
                    assert not below
                else:
                    assert hit.absolute_support == max(below)
                    assert hit.patterns == FULL[(index, hit.absolute_support)]
            elif kind == "migrate":
                warehouse.migrate()
            elif directory is not None:
                warehouse = open_warehouse()
            check_budget(warehouse, budget)
        for (fp, support) in warehouse.keys():
            index = next(i for i in range(len(DATABASES)) if fingerprint(i) == fp)
            assert warehouse.get(fp, support) == FULL[(index, support)]
            check_budget(warehouse, budget)


def test_closed_connect4_gets_stay_within_budget():
    """Eight closed connect4 entries, 16 KiB, one ``get`` each: the
    expansions used to stay cached on the entries (301,088 modelled
    bytes, about 18x the budget)."""
    budget = 16 * 1024
    warehouse = PatternWarehouse(byte_budget=budget, representation="closed")
    held = {}
    for seed in range(40, 48):
        db = DATASETS["connect4"].build(seed, n_transactions=1500)
        support = math.ceil(0.91 * len(db))
        patterns = get_miner("eclat-bitset", kind="baseline").mine(db, support)
        assert warehouse.put(
            db.fingerprint(), support, patterns, n_transactions=len(db)
        )
        held[(db.fingerprint(), support)] = patterns
    check_budget(warehouse, budget)
    assert warehouse.stats()["condensed_entries"] == len(warehouse) > 0
    for key, patterns in held.items():
        assert warehouse.get(*key) == patterns
        check_budget(warehouse, budget)

"""Incremental mining by recycling (Section 2's extension cases).

A week of daily batches lands in a transaction store. Instead of
re-mining each night from scratch — or maintaining the negative borders
classic incremental miners need — yesterday's pattern set compresses
today's database and the recycling miner recounts exactly. Works when
batches are large, when the distribution shifts, and even when tuples
are *deleted* (the cases Section 6 lists as failure modes of prior
incremental techniques). Each day is one ``DatabaseDelta`` applied to a
``VersionedDatabase``, so every surviving tuple keeps its tid.

Run:  python examples/incremental_update.py
"""

from __future__ import annotations

import time

from repro import QuestParams, quest_database, mine_hmine, recycle_mine
from repro.data import DatabaseDelta, VersionedDatabase


def main() -> None:
    params = QuestParams(n_transactions=800, n_items=100, avg_transaction_length=8,
                         n_patterns=35, avg_pattern_length=4)
    version = VersionedDatabase.initial(quest_database(params, seed=30))
    db = version.db
    support_fraction = 0.015

    xi = db.relative_to_absolute(support_fraction)
    patterns = mine_hmine(db, xi)
    print(f"day 0: {len(db)} tuples, support {xi} -> {len(patterns)} patterns "
          "(mined from scratch, once)\n")
    print(f"{'day':>4}  {'tuples':>7}  {'support':>7}  {'patterns':>8}  "
          f"{'recycle_s':>9}  {'scratch_s':>9}  {'identical':>9}")

    for day in range(1, 8):
        # Each day: a few hundred new baskets; day 5 also expires the
        # oldest batch (deletion — the case incremental methods dread).
        batch = quest_database(
            QuestParams(n_transactions=250, n_items=100, avg_transaction_length=8,
                        n_patterns=35, avg_pattern_length=4),
            seed=30 + day,
        )
        expired = db.tids[:400] if day == 5 else ()
        version = version.apply(
            DatabaseDelta(appends=batch.transactions, deletes=expired)
        )
        db = version.db

        xi = db.relative_to_absolute(support_fraction)

        started = time.perf_counter()
        recycled = recycle_mine(db, patterns, xi, algorithm="hmine")
        recycle_seconds = time.perf_counter() - started

        started = time.perf_counter()
        scratch = mine_hmine(db, xi)
        scratch_seconds = time.perf_counter() - started

        print(f"{day:>4}  {len(db):>7}  {xi:>7}  {len(recycled):>8}  "
              f"{recycle_seconds:>9.3f}  {scratch_seconds:>9.3f}  "
              f"{str(recycled == scratch):>9}")

        # Tonight's result is tomorrow's recycling feedstock.
        patterns = recycled

    print("\nevery nightly run recycled the previous night's output and "
          "matched a from-scratch mine exactly — including the deletion day.")


if __name__ == "__main__":
    main()

"""The benchmark's correctness check: served answers against scratch mining.

Every pattern set a workload was served is kept (once per distinct
answer) with its database version and absolute support. Outside every
timing, each is compared with a scratch mine of the same database at
the same support by the registry's ``fpgrowth`` baseline, which shares
no code with the serving default. One scratch mine per database
version, at the lowest support asked of it, answers every higher
support by a plain support filter.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.data.transactions import TransactionDatabase
from repro.mining.patterns import PatternSet
from repro.mining.registry import get_miner

ORACLE_MINER = "fpgrowth"


class Answers:
    """Distinct served pattern sets per (database version, absolute support)."""

    def __init__(self) -> None:
        self._dbs: dict[int, TransactionDatabase] = {}
        self._sets: dict[tuple[int, int], list[PatternSet]] = {}

    def add(self, db: TransactionDatabase, support: int, patterns: PatternSet) -> None:
        self._dbs[id(db)] = db
        kept = self._sets.setdefault((id(db), support), [])
        if not any(patterns == seen for seen in kept):
            kept.append(patterns)

    def by_fingerprint(self):
        """``fingerprint -> (db, {support: [served sets]})``."""
        grouped: dict[str, tuple[TransactionDatabase, dict[int, list[PatternSet]]]] = {}
        for (db_id, support), sets in self._sets.items():
            db = self._dbs[db_id]
            _db, supports = grouped.setdefault(db.fingerprint(), (db, {}))
            supports.setdefault(support, []).extend(sets)
        return grouped


class Oracle:
    """Scratch mines cached per database fingerprint within one invocation.

    The cache keeps the most recently used :data:`CACHE_LIMIT` databases:
    every version of a growing chain is new, and an unbounded cache would
    make memory grow with the length of the run.
    """

    CACHE_LIMIT = 32

    def __init__(self) -> None:
        self._miner = get_miner(ORACLE_MINER, kind="baseline")
        self._cache: OrderedDict[str, tuple[int, dict]] = OrderedDict()
        #: Distinct served sets compared so far.
        self.checked = 0

    def expected(self, fingerprint: str, db: TransactionDatabase, support: int) -> dict:
        mined_at, full = self._cache.get(fingerprint, (None, None))
        if mined_at is None or support < mined_at:
            mined_at = support
            full = dict(self._miner.mine(db, support).items())
            self._cache[fingerprint] = (mined_at, full)
            if len(self._cache) > self.CACHE_LIMIT:
                self._cache.popitem(last=False)
        self._cache.move_to_end(fingerprint)
        return {items: count for items, count in full.items() if count >= support}

    def check(self, answers: Answers) -> list[str]:
        """One line per served set that differs from scratch mining."""
        mismatches: list[str] = []
        for fingerprint, (db, supports) in answers.by_fingerprint().items():
            self.expected(fingerprint, db, min(supports))
            for support, sets in sorted(supports.items()):
                expected = self.expected(fingerprint, db, support)
                for served in sets:
                    self.checked += 1
                    got = dict(served.items())
                    if got != expected:
                        shared = got.keys() & expected.keys()
                        mismatches.append(
                            f"{fingerprint[:12]}@{support}: served {len(got)} "
                            f"patterns, scratch {len(expected)} "
                            f"({len(expected.keys() - shared)} missing, "
                            f"{len(got.keys() - shared)} extra, "
                            f"{sum(got[p] != expected[p] for p in shared)} wrong supports)"
                        )
        return mismatches

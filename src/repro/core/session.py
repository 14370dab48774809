"""Interactive iterative mining sessions.

The paper's motivating scenario (Section 1): a user mines, inspects,
refines the constraints and mines again — and existing systems restart
from scratch each time. :class:`MiningSession` is that loop with
recycling built in. Each :meth:`mine` call classifies the constraint
change against the previous iteration and picks the cheapest sound path:

* **same / tightened** — filter the cached patterns (no mining);
* **relaxed** — compress the database with the cached patterns and run a
  recycling miner;
* **incomparable** (mixed changes) — recycle at the new support, then
  filter by the remaining constraints.

The session also keeps the *unconstrained-at-support* pattern set cached
so that non-support constraints never poison future recycling, and a per
iteration :class:`IterationReport` history so experiments (and users) can
see what each path cost. Pattern sets can be exported/imported, which is
how one user's mining output becomes another user's recycling input on a
multi-user platform (Section 2). The session holds its feedstock as the
full frequent set: a condensed (closed) seed or save file is
expanded when it is adopted.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable

from repro.constraints.base import ChangeKind, ConstraintContext
from repro.constraints.engine import ConstraintSet
from repro.core.planner import (
    PATH_MINE,
    execute_plan,
    plan_support_path,
    plan_update_path,
)
from repro.core.recycle import resolve_recycling_algorithm
from repro.data.items import ItemTable
from repro.data.patterns import CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.errors import DataError, RecycleError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import PatternSet
from repro.resilience import DegradationReport


@dataclass(frozen=True)
class IterationReport:
    """What one :meth:`MiningSession.mine` call did and what it cost.

    ``degradation`` names any degradation-ladder rungs the iteration
    descended (empty for a clean run; a failed update patch records
    ``update→mine``).
    """

    index: int
    path: str  # "initial" | "filter" | "recycle" | "update" | "mine"
    change: ChangeKind | None
    absolute_support: int
    pattern_count: int
    elapsed_seconds: float
    counters: CostCounters
    degradation: DegradationReport = field(default_factory=DegradationReport)
    #: When the iteration crossed a database change: which update mode
    #: patched the feedstock ("fup" or "recycle", ``None`` off the update
    #: path) and how many delta rows separated mined from current state.
    update_mode: str | None = None
    delta_size: int = 0


class MiningSession:
    """A stateful, recycling-aware mining loop over one database.

    Parameters
    ----------
    db:
        The database under investigation.
    algorithm:
        Base mining algorithm, both for the initial run and as the
        recycling adaptation for later runs. Any baseline name in the
        miner registry is accepted ("naive" recycles with RP-Mine but
        runs the initial iteration with H-Mine); a name with no recycling
        adaptation of its own (``eclat-bitset``, ``apriori``,
        ``bruteforce``) recycles with RP-Mine. Any other name raises
        :class:`~repro.errors.RecycleError`.
    strategy:
        Compression strategy for the recycling path ("mcp" or "mlp").
    item_table:
        Optional item catalog consulted by aggregate constraints.
    """

    def __init__(
        self,
        db: TransactionDatabase,
        algorithm: str = "hmine",
        strategy: str = "mcp",
        item_table: ItemTable | None = None,
    ) -> None:
        resolve_recycling_algorithm(algorithm)  # rejects an unknown name
        self._item_table = item_table or ItemTable()
        self._version = VersionedDatabase.initial(db)
        # The chain state the cached feedstock was mined against. None
        # until the first mine; when it trails self._version, the next
        # mine() goes through the update path (patch across the delta)
        # instead of the same-database support trichotomy.
        self._mined_version: VersionedDatabase | None = None
        self.algorithm = algorithm
        self.strategy = strategy
        self.context = ConstraintContext(
            db_size=len(db), item_table=self._item_table
        )
        self.history: list[IterationReport] = []
        self._constraints: ConstraintSet | None = None
        # The frequent-pattern set at the current support threshold,
        # before non-support constraints — the recycling feedstock.
        self._support_patterns: PatternSet | None = None
        self._absolute_support: int | None = None

    @property
    def db(self) -> TransactionDatabase:
        """The current database — the head of the version chain."""
        return self._version.db

    @property
    def version(self) -> VersionedDatabase:
        """The current chain head (fingerprint-linked to its ancestors)."""
        return self._version

    # ------------------------------------------------------------------
    # database evolution (streaming tenancy)
    # ------------------------------------------------------------------
    def apply_delta(self, delta: DatabaseDelta) -> VersionedDatabase:
        """Advance the session's database by one delta.

        The cached feedstock is *kept*: the next :meth:`mine` call plans
        an update path across the accumulated delta (FUP for insert-only
        growth, compression-based recycling otherwise) with cost-model
        fallback to scratch mining. Returns the new chain head.
        """
        self._version = self._version.apply(delta)
        self.context = ConstraintContext(
            db_size=len(self.db), item_table=self._item_table
        )
        return self._version

    def append_batch(self, transactions: Iterable[Iterable[int]]) -> DatabaseDelta:
        """Append a batch of transactions (one delta); returns the delta."""
        delta = DatabaseDelta.append(transactions)
        if delta.is_empty:
            raise RecycleError("append_batch needs at least one transaction")
        self.apply_delta(delta)
        return delta

    def delete_tids(self, tids: Iterable[int]) -> DatabaseDelta:
        """Delete transactions by tid (one delta)."""
        delta = DatabaseDelta.delete(tids)
        if delta.is_empty:
            raise RecycleError("delete_tids needs at least one tid")
        self.apply_delta(delta)
        return delta

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def mine(self, constraints: ConstraintSet | float) -> PatternSet:
        """Run one iteration under ``constraints``.

        A bare number is shorthand for a support-only constraint set; it
        follows the library's one support rule
        (:func:`~repro.data.transactions.absolute_support`: ``1.0`` is
        every row, ``1`` is one row). Returns the patterns satisfying
        every constraint; internally caches the support-level pattern set
        for future recycling.
        """
        if not isinstance(constraints, ConstraintSet):
            constraints = ConstraintSet.min_support(constraints)
        counters = CostCounters()
        started = time.perf_counter()
        new_support = constraints.absolute_support(len(self.db))

        stale = (
            self._mined_version is not None
            and self._mined_version.fingerprint() != self._version.fingerprint()
        )
        if self._constraints is None or self._support_patterns is None:
            change: ChangeKind | None = None
            plan = plan_support_path(new_support, None, None)
            path = "initial" if plan.path == PATH_MINE else plan.path
        elif stale:
            # The database moved since the feedstock was mined: patch
            # the cached patterns across the delta instead of treating
            # them as same-database feedstock (which would be unsound).
            change = self._constraints.classify_change(constraints, len(self.db))
            assert self._mined_version is not None
            delta = self._version.delta_from(self._mined_version)
            plan = plan_update_path(
                new_support,
                self._support_patterns,
                self._absolute_support,
                self._mined_version.db,
                delta,
                len(self.db),
            )
            path = plan.path
        else:
            change = self._constraints.classify_change(constraints, len(self.db))
            plan = plan_support_path(
                new_support, self._support_patterns, self._absolute_support
            )
            path = "initial" if plan.path == PATH_MINE else plan.path
        degradation = DegradationReport()
        support_patterns = execute_plan(
            plan,
            self.db,
            new_support,
            algorithm=self.algorithm,
            strategy=self.strategy,
            counters=counters,
            degradation=degradation,
        )

        result = constraints.filter_patterns(support_patterns, self.context)
        elapsed = time.perf_counter() - started

        self._constraints = constraints
        self._support_patterns = support_patterns
        self._absolute_support = new_support
        self._mined_version = self._version
        self.history.append(
            IterationReport(
                index=len(self.history),
                path=path,
                change=change,
                absolute_support=new_support,
                pattern_count=len(result),
                elapsed_seconds=elapsed,
                counters=counters,
                degradation=degradation,
                update_mode=plan.update_mode,
                delta_size=plan.delta.size if plan.delta is not None else 0,
            )
        )
        return result

    def seed_patterns(
        self,
        patterns: PatternSet | CondensedPatternSet,
        absolute_support: int,
    ) -> None:
        """Adopt another session's (or user's) pattern set for recycling.

        ``absolute_support`` is the threshold those patterns were mined
        at; the next :meth:`mine` call will filter or recycle from them
        instead of mining from scratch. Condensed sets (a closed
        warehouse entry) are expanded to the full set on adoption.
        """
        if len(patterns) == 0:
            raise RecycleError("cannot seed an empty pattern set")
        if isinstance(patterns, CondensedPatternSet):
            patterns = patterns.expand()
        self._support_patterns = patterns
        self._absolute_support = absolute_support
        self._constraints = ConstraintSet.min_support(absolute_support)
        # Seeded feedstock is taken to describe the database as it
        # stands now; deltas applied afterwards route through the
        # update path like any mined feedstock.
        self._mined_version = self._version

    def exported_patterns(self) -> PatternSet:
        """The cached support-level pattern set (for another user/session)."""
        if self._support_patterns is None:
            raise RecycleError("nothing mined yet — nothing to export")
        return self._support_patterns

    @property
    def last_report(self) -> IterationReport:
        """The most recent iteration's report."""
        if not self.history:
            raise RecycleError("no iterations have run yet")
        return self.history[-1]

    # ------------------------------------------------------------------
    # persistence (multi-user / cross-process recycling, Section 2)
    # ------------------------------------------------------------------
    def save_patterns(self, path: str) -> None:
        """Persist the recycling feedstock to disk.

        The file is the warehouse-entry pattern format of
        :mod:`repro.data.io`, written in the full representation: header
        comments record the absolute support and the representation, so
        any session and any other tool can pick it up. The write is
        atomic and durable: the file is assembled in a sibling temp file,
        fsynced and moved into place with :func:`os.replace`, so a
        concurrent reader, a crash or a power loss never observes a
        half-written or header-less file.
        """
        from repro.data.io import write_warehouse_entry

        feedstock = CondensedPatternSet.condense(
            self.exported_patterns(),
            self._absolute_support or 0,
            "full",
            n_transactions=len(self.db),
        )
        write_warehouse_entry(feedstock, path)

    def load_patterns(self, path: str) -> None:
        """Seed this session from a file written by :meth:`save_patterns`.

        Reads both the current warehouse-entry format (any
        representation) and pre-condensation full-set files, with or
        without their integrity checksum.
        """
        from repro.data.io import read_warehouse_entry

        try:
            condensed, _full_bytes = read_warehouse_entry(path)
        except DataError as exc:
            raise RecycleError(str(exc)) from None
        self.seed_patterns(condensed, condensed.absolute_support)

"""The filter / recycle / mine decision, as a reusable planner.

:class:`~repro.core.session.MiningSession` and the multi-tenant
:class:`~repro.service.MiningService` face the same question on every
request: given a cached support-level pattern set (the recycling
feedstock) mined at some absolute support, what is the cheapest sound way
to produce the pattern set at a *new* absolute support?  The answer is
the paper's Section 2 case analysis:

* ``new_support >= feedstock_support`` — the cached set is a superset of
  the answer: **filter** it, no mining at all;
* ``new_support < feedstock_support`` and the feedstock is non-empty —
  **recycle**: compress the database with the cached patterns and run a
  recycling miner;
* no feedstock (or an empty one, which carries nothing to salvage) —
  **mine** from scratch with a baseline algorithm.

Since the versioned-chain refactor there is a fourth path for the case
where *the database itself changed* (the paper's Section 2 extended
problem statement): **update** — patch a pattern set warehoused for a
chain *ancestor* using the :class:`~repro.data.versioned.DatabaseDelta`
between the versions. :func:`plan_update_path` arbitrates it against the
trichotomy with a churn cost model, and picks between two patch engines:
FUP (exact old supports, insert-only, cheap) and recycling-based
``incremental_mine`` (any delta, full recount over the compressed new
database).

The planner is pure (no I/O, no mining); :func:`execute_plan` carries a
plan out.  Splitting the two keeps the decision testable in isolation
and lets callers report *what* they decided before paying for it.

A call that names no algorithm (``algorithm=None``, as every service
call does) mines with the **serving kernel**, :data:`SERVING_BASELINE`.
The service plans only filter, mine and FUP updates: on this kernel a
cold mine beats every recycle it measured (``docs/service.md``). The
recycle paths stay for :class:`~repro.core.session.MiningSession` and the
paper's miners, which stay selectable by name.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.recycle import recycle_mine_detailed
from repro.data.patterns import CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta
from repro.errors import ReproError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import PatternSet
from repro.mining.registry import get_miner, has_miner
from repro.resilience import (
    REASON_FUP_INSERT_ONLY,
    REASON_UPDATE_FAILED,
    UPDATE_PATCH,
    DegradationReport,
    ResilienceConfig,
)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.parallel import ParallelEngine

#: The four sound paths to a support-level pattern set.
PATH_FILTER = "filter"
PATH_RECYCLE = "recycle"
PATH_MINE = "mine"
PATH_UPDATE = "update"

#: The two patch engines behind :data:`PATH_UPDATE`.
UPDATE_FUP = "fup"
UPDATE_RECYCLE = "recycle"

#: Delta rows per new-database row beyond which patching is presumed to
#: cost more than a cold re-mine. Half the database churning means the
#: "old" work being salvaged no longer dominates; the incremental bench
#: (``BENCH_incremental.json``) records the measured crossover next to
#: this modeled one.
UPDATE_CHURN_CUTOFF = 0.5

#: The serving kernel. Every registry miner returns the same pattern
#: sets; ``eclat-bitset`` measured fastest on the end-to-end benchmark's
#: inputs (docs/service.md has the timings).
SERVING_BASELINE = "eclat-bitset"


@dataclass(frozen=True)
class MiningPlan:
    """A chosen path plus the feedstock it consumes (if any).

    The update-path fields (``ancestor_db`` onward) are populated only by
    :func:`plan_update_path`; the support-trichotomy paths leave them at
    their defaults.
    """

    path: str  # PATH_FILTER | PATH_RECYCLE | PATH_MINE | PATH_UPDATE
    feedstock: "PatternSet | CondensedPatternSet | None" = None
    feedstock_support: int | None = None
    ancestor_db: TransactionDatabase | None = None
    delta: DatabaseDelta | None = None
    update_mode: str | None = None  # UPDATE_FUP | UPDATE_RECYCLE
    ancestor_fingerprint: str | None = None
    distance: int = 0


def plan_support_path(
    new_support: int,
    feedstock: "PatternSet | CondensedPatternSet | None",
    feedstock_support: int | None,
) -> MiningPlan:
    """Pick the cheapest sound path to the patterns at ``new_support``.

    ``feedstock`` must represent the *full* (unconstrained)
    frequent-pattern set at ``feedstock_support`` — the invariant both
    the session cache and the pattern warehouse maintain. It may be a
    condensed warehouse entry; condensation is lossless, so the case
    analysis is unchanged (a condensed entry is empty exactly when the
    full set is: maximal patterns are closed, and frequent singletons
    are non-derivable).
    """
    if feedstock is None or feedstock_support is None:
        return MiningPlan(PATH_MINE)
    if new_support >= feedstock_support:
        return MiningPlan(PATH_FILTER, feedstock, feedstock_support)
    if len(feedstock) == 0:
        # The paper's conservation argument in reverse: the previous
        # threshold admitted no patterns, so no resources were invested
        # and nothing can be salvaged. Mine from scratch.
        return MiningPlan(PATH_MINE)
    return MiningPlan(PATH_RECYCLE, feedstock, feedstock_support)


def plan_update_path(
    new_support: int,
    feedstock: "PatternSet | CondensedPatternSet | None",
    feedstock_support: int | None,
    ancestor_db: TransactionDatabase | None,
    delta: DatabaseDelta | None,
    new_db_size: int,
    churn_cutoff: float = UPDATE_CHURN_CUTOFF,
    ancestor_fingerprint: str | None = None,
    distance: int | None = None,
) -> MiningPlan:
    """Arbitrate the update path against the filter/recycle/mine trichotomy.

    ``feedstock`` is the full pattern set warehoused for ``ancestor_db``
    at ``feedstock_support``; ``delta`` is the exact change from that
    ancestor to the database being mined (``new_db_size`` rows). The
    case analysis:

    * empty delta — the versions are content-identical, so this *is* the
      support trichotomy: defer to :func:`plan_support_path`;
    * no usable feedstock — **mine** (nothing to patch);
    * churn above ``churn_cutoff`` — **mine**: the cost model says
      patching reads most of the database anyway, so the salvageable old
      work no longer pays for the patch machinery;
    * insert-only delta whose feedstock supports are exact and complete
      at the new threshold (:func:`~repro.core.fup.fup_applicable`) —
      **update/fup**: the cheapest sound patch, scans mostly the
      increment;
    * anything else — **update/recycle**: the old patterns compress the
      *new* database and a recycling miner recounts exactly
      (:func:`~repro.core.incremental.incremental_mine`'s engine), sound
      for deletions, mixed deltas and threshold drops alike.
    """
    if feedstock is None or feedstock_support is None or delta is None:
        return MiningPlan(PATH_MINE)
    if delta.is_empty:
        return plan_support_path(new_support, feedstock, feedstock_support)
    if len(feedstock) == 0 or ancestor_db is None:
        return MiningPlan(PATH_MINE)
    churn = delta.size / max(1, new_db_size)
    if churn > churn_cutoff:
        return MiningPlan(PATH_MINE)
    from repro.core.fup import fup_applicable

    mode = (
        UPDATE_FUP
        if fup_applicable(delta, feedstock_support, new_support, len(ancestor_db))
        else UPDATE_RECYCLE
    )
    if distance is None:
        distance = delta.size
    return MiningPlan(
        PATH_UPDATE,
        feedstock,
        feedstock_support,
        ancestor_db=ancestor_db,
        delta=delta,
        update_mode=mode,
        ancestor_fingerprint=ancestor_fingerprint,
        distance=distance,
    )


def execute_plan(
    plan: MiningPlan,
    db: TransactionDatabase,
    new_support: int,
    algorithm: str | None = None,
    strategy: str = "mcp",
    counters: CostCounters | None = None,
    backend: str = "bitset",
    resilience: ResilienceConfig | None = None,
    degradation: DegradationReport | None = None,
    engine: "ParallelEngine | None" = None,
) -> PatternSet:
    """Carry out ``plan``, returning the full pattern set at ``new_support``.

    ``algorithm`` is a baseline name from the miner registry (or
    ``"naive"``); the recycling path resolves it to a recycling
    adaptation via :func:`resolve_recycling_algorithm`. ``None`` (the
    default) mines with the serving kernel. ``backend``
    selects the compression claiming implementation on that path.
    An ``engine`` of more than one job (a
    :class:`~repro.parallel.ParallelEngine`, e.g. from
    :func:`~repro.core.recycle.sharded_engine`) fans the recycle and mine
    paths out across shards, behind its retry budget, fault injector and
    circuit breaker; the filter path never mines, so it never shards.
    Every rung descended is recorded on ``degradation`` (when given).

    The update path additionally honors the ``update.patch`` fault point
    and guarantees atomicity-of-outcome: any failure mid-patch falls
    through to a clean scratch mine of ``db`` (recorded as
    ``update→mine: update_failed``), so callers can never observe a
    half-patched pattern set.
    """
    if plan.path == PATH_FILTER:
        assert plan.feedstock is not None
        if isinstance(plan.feedstock, CondensedPatternSet):
            # The stored entry expands once and caches the expansion, so
            # every later hit on it is one dict pass; the filter always
            # builds a new set, so the cached one is never handed out.
            return plan.feedstock.expand().filter_min_support(new_support)
        return plan.feedstock.filter_min_support(new_support)
    if plan.path == PATH_RECYCLE:
        return _recycle(
            plan, db, new_support, algorithm, strategy, counters, backend,
            degradation, engine,
        )
    if plan.path == PATH_UPDATE:
        assert plan.feedstock is not None and plan.delta is not None
        try:
            if resilience is not None and resilience.faults is not None:
                delay = resilience.faults.fire(
                    UPDATE_PATCH, detail=plan.update_mode or ""
                )
                if delay > 0:
                    time.sleep(delay)
            if plan.update_mode == UPDATE_FUP:
                from repro.core.fup import fup_update_delta

                assert plan.ancestor_db is not None
                feed = plan.feedstock
                if isinstance(feed, CondensedPatternSet):
                    feed = feed.expand()
                return fup_update_delta(
                    plan.ancestor_db,
                    plan.delta,
                    feed,
                    new_support,
                    counters,
                    degradation,
                )
            # UPDATE_RECYCLE: incremental_mine's engine with the full
            # parallel/resilience plumbing — the ancestor's patterns
            # compress the *new* database and the recycling miner
            # recounts every support exactly, so stale feedstock
            # supports cost performance, never correctness.
            return _recycle(
                plan, db, new_support, algorithm, strategy, counters, backend,
                degradation, engine,
            )
        except ReproError:
            # A failed update must degrade to a clean scratch mine —
            # never serve a half-patched pattern set. (If FUP already
            # recorded its structured insert-only rejection, don't
            # stack a second step on top of it.)
            if degradation is not None and not (
                degradation.steps
                and degradation.steps[-1].reason == REASON_FUP_INSERT_ONLY
            ):
                degradation.record(PATH_UPDATE, PATH_MINE, REASON_UPDATE_FAILED)
            if counters is not None:
                counters.add("update_fallbacks")
    if engine is not None and engine.jobs > 1:
        # The engine resolves ``algorithm`` itself, so a serving-kernel
        # run (None) still reaches the shards that plan locally.
        outcome = engine.mine(
            db, new_support, algorithm=algorithm, counters=counters, backend=backend
        )
        if degradation is not None:
            degradation.extend(outcome.degradation)
        return outcome.patterns
    name = resolve_baseline_algorithm(algorithm)
    return get_miner(name, kind="baseline").mine(db, new_support, counters)


def _recycle(
    plan: MiningPlan,
    db: TransactionDatabase,
    new_support: int,
    algorithm: str | None,
    strategy: str,
    counters: CostCounters | None,
    backend: str,
    degradation: DegradationReport | None,
    engine: "ParallelEngine | None",
) -> PatternSet:
    """Compress ``db`` with the plan's feedstock and mine the groups."""
    assert plan.feedstock is not None
    if engine is not None and engine.jobs > 1:
        outcome = engine.recycle_mine(
            db,
            plan.feedstock,
            new_support,
            algorithm=algorithm,
            strategy=strategy,
            counters=counters,
            backend=backend,
        )
    else:
        outcome = recycle_mine_detailed(
            db,
            plan.feedstock,
            new_support,
            algorithm=resolve_recycling_algorithm(algorithm),
            strategy=strategy,
            counters=counters,
            backend=backend,
        )
    if degradation is not None:
        degradation.extend(outcome.degradation)
    return outcome.patterns


def resolve_baseline_algorithm(algorithm: str | None) -> str:
    """The registry baseline name backing ``algorithm``.

    ``None`` is the serving kernel's :data:`SERVING_BASELINE`.
    ``"naive"`` names RP-Mine, which the paper runs only on recycled
    iterations: it accepts a plain database (as one residual group) but
    has no groups to exploit there, so the initial iteration mines with
    H-Mine.
    """
    if algorithm is None:
        return SERVING_BASELINE
    return "hmine" if algorithm == "naive" else algorithm


def resolve_recycling_algorithm(algorithm: str | None) -> str:
    """The registry recycling name backing a baseline ``algorithm``.

    ``None`` is RP-Mine (``naive``) on the grouped bitset kernel, what
    the sharded engine recycles with when no miner is named. Otherwise
    exact match first; then the base name before any ``-backend`` suffix
    (``eclat-bitset`` recycles with Recycle-Eclat); then Recycle-HM, so
    every baseline algorithm still gets a sound (if not specialized)
    recycling path.
    """
    if algorithm is None:
        return "naive"
    if has_miner(algorithm, kind="recycling"):
        return algorithm
    base = algorithm.split("-", 1)[0]
    if has_miner(base, kind="recycling"):
        return base
    return "hmine"

"""The pattern warehouse: a shared store of prior mining results.

Section 2 of the paper describes a multi-user mining platform where one
user's frequent patterns are reused for another user's request.
:class:`PatternWarehouse` is that shared shelf: a thread-safe store of
support-level :class:`~repro.mining.patterns.PatternSet`s keyed by
``(database fingerprint, absolute support)``.

* **Keys are content-addressed.** The database half of the key is
  :meth:`TransactionDatabase.fingerprint`, a stable content hash, so two
  tenants mining the "same" database from different objects (or
  processes) share entries.
* **Entries are condensed at rest.** A put condenses the full frequent
  set into the warehouse's ``representation`` — ``closed`` (no superset
  with equal support) by default, or ``ndi`` (Calders–Goethals
  non-derivable itemsets), or ``full`` — and reads expand lazily, so
  consumers always see exact full sets while dense-data entries shrink
  by orders of magnitude.
* **Eviction is byte-budgeted LRU.** Every entry is charged its modelled
  on-disk size (:func:`repro.storage.disk.patterns_byte_size`, the same
  int-based model as the simulated disk) *in its condensed form*, and
  the least recently *used* entries are dropped first whenever the total
  would exceed the budget. An entry larger than the whole budget is
  rejected outright.
* **Lookups return the best feedstock**, not just exact hits. A stored
  set mined at support ``s <= r`` is a superset of the answer at support
  ``r``: :meth:`best_feedstock` returns the largest such ``s`` (the
  smallest superset to filter; an exact hit is the trivial case), else a
  miss. An entry above ``r`` is never returned: recycling it loses to a
  cold mine on the serving kernel (``docs/service.md``).
* **Optionally disk-backed, and hardened against the disk.** Every
  byte on disk goes through a :class:`~repro.durability.DurableStore`:
  given a directory, every entry is also written as a journaled,
  checksummed pattern file and reloaded on construction; legacy
  full-set files load as they are, and :meth:`migrate` re-writes them
  condensed. A corrupt, truncated or checksum-mismatched
  file never crashes construction: it is **quarantined** — moved into
  ``<dir>/quarantine/`` and recorded on :attr:`quarantined` — while
  every healthy entry is served. A failed write-through degrades the
  warehouse to **memory-only** (:attr:`memory_only_reason`) with a
  logged reason instead of failing the request that triggered it.
* **Integrity is auditable without re-mining.** :meth:`verify_entry`
  spot-checks a stored set's internal consistency: subset-support
  monotonicity (every subset of a frequent pattern is frequent, at at
  least the same support) plus the Calders–Goethals non-derivable-
  itemset bounds (``supp(I) >= supp(I∖a) + supp(I∖b) − supp(I∖ab)``),
  which hold for any genuine full frequent-pattern set.

A :class:`~repro.resilience.FaultInjector` can be armed on the
constructor; ``warehouse.read`` fires per feedstock lookup (and, in the
store, per file load) and ``warehouse.write`` per entry write-through,
so the chaos suite drives the quarantine and degradation paths
deterministically.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from repro.data.patterns import REPRESENTATIONS, CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import VersionedDatabase
from repro.durability import DurableStore, GCReport, RecoveryReport
from repro.durability.journal import OP_EVICT
from repro.errors import DataError, StorageError
from repro.mining.patterns import PatternSet
from repro.resilience import WAREHOUSE_READ, FaultInjector
from repro.storage.disk import patterns_byte_size


@dataclass(frozen=True)
class WarehouseHit:
    """A usable feedstock found for a requested (fingerprint, support).

    ``feedstock`` is the stored (possibly condensed) object, mined at or
    below the requested support — what the planner consumes directly;
    the filter path filters the entry's cached expansion.
    :attr:`patterns` materializes the exact frequent set for callers that
    need it (the expansion is cached on the entry).
    """

    fingerprint: str
    absolute_support: int  # the support the stored set was mined at
    feedstock: "PatternSet | CondensedPatternSet"
    #: Delta distance (rows appended + deleted) between the requested
    #: database version and the version the feedstock was mined on.
    #: 0 means same version — the filter path applies directly; > 0
    #: means the hit is a chain *ancestor* and only the update path may
    #: consume it.
    distance: int = 0

    @property
    def patterns(self) -> PatternSet:
        """The exact frequent set (lazily expanded when condensed)."""
        if isinstance(self.feedstock, CondensedPatternSet):
            return self.feedstock.expand()
        return self.feedstock


@dataclass(frozen=True)
class IntegrityReport:
    """The outcome of one :meth:`PatternWarehouse.verify_entry` audit."""

    fingerprint: str
    absolute_support: int
    checks: int
    violations: tuple[str, ...]
    representation: str = "full"

    @property
    def ok(self) -> bool:
        return not self.violations


class PatternWarehouse:
    """A thread-safe, byte-budgeted LRU store of support-level pattern sets.

    Parameters
    ----------
    byte_budget:
        Maximum total modelled bytes of all stored entries; ``None``
        means unbounded. The invariant ``stored_bytes() <= byte_budget``
        holds after every operation.
    directory:
        Optional directory for persistence. Existing entries are loaded
        on construction (in deterministic filename order, so reloading
        is reproducible) as they are on disk; puts write through and
        evictions delete. Unreadable or corrupt files are quarantined,
        never fatal.
    fault_injector:
        Optional :class:`~repro.resilience.FaultInjector` armed at the
        ``warehouse.read`` / ``warehouse.write`` fault points (and, via
        the store, the ``persist.*`` points).
    representation:
        How new entries are stored: ``"closed"`` (default), ``"ndi"`` or
        ``"full"``. Condensation happens on :meth:`put`; reads expand
        lazily, so every consumer still sees exact full sets. An ``ndi``
        warehouse stores an entry as ``closed`` instead when the caller
        cannot supply the transaction count the deduction rules need.
        Loaded entries keep their own representation until
        :meth:`migrate` re-writes them.
    repair_on_load:
        When persisting, load through full crash recovery — replay
        pending journal records, sweep stray temp files, move damaged
        files into quarantine, compact the journal. Disable for
        read-only inspection (``recover(apply=False)`` still audits;
        entries and registries load identically either way).
    """

    def __init__(
        self,
        byte_budget: int | None = None,
        directory: str | Path | None = None,
        fault_injector: FaultInjector | None = None,
        representation: str = "closed",
        repair_on_load: bool = True,
    ) -> None:
        if byte_budget is not None and byte_budget <= 0:
            raise StorageError(f"byte_budget must be positive, got {byte_budget}")
        if representation not in REPRESENTATIONS:
            raise StorageError(
                f"unknown representation {representation!r}; "
                f"expected one of {REPRESENTATIONS}"
            )
        self.byte_budget = byte_budget
        self.representation = representation
        self.directory = Path(directory) if directory is not None else None
        self.faults = fault_injector
        self._lock = threading.RLock()
        # (fingerprint, support) -> (condensed, byte size, full bytes);
        # insertion order doubles as recency order (least recently used
        # first). ``full bytes`` is the expanded set's modelled size when
        # known (put time, file header), else None.
        self._entries: OrderedDict[
            tuple[str, int], tuple[CondensedPatternSet, int, int | None]
        ] = OrderedDict()
        self._stored_bytes = 0
        self.evictions = 0
        self.rejections = 0
        #: Durability gauges, served through :meth:`stats`.
        self.recovered_entries = 0
        self.gc_dropped_chains = 0
        self.gc_collapsed_hops = 0
        # Every file and the chain records live in the store; without a
        # directory it writes nothing and records no hops.
        self._store = DurableStore(self.directory, fault_injector)
        #: The :meth:`DurableStore.recover` outcome (None when memory-only).
        self.recovery_report: RecoveryReport | None = None
        #: (filename, reason) for every file quarantined at load time.
        self.quarantined: list[tuple[str, str]] = []
        if self.directory is not None:
            report = self._store.recover(apply=repair_on_load)
            self.recovery_report = report
            self.quarantined = report.quarantined
            for fingerprint, condensed, full_bytes in report.entries:
                size = patterns_byte_size(condensed)
                if self.byte_budget is not None and size > self.byte_budget:
                    self.rejections += 1
                    continue
                key = (fingerprint, condensed.absolute_support)
                self._entries[key] = (condensed, size, full_bytes)
                self._stored_bytes += size
            # The entries now live here; the report keeps only counts.
            report.entries.clear()
            self._evict_to_budget()
            self.recovered_entries = len(self._entries)
            if report.quarantined:
                # Quarantine removed feedstock; chain records that can no
                # longer reach any warehoused entry are dead weight.
                self._prune_chains()

    # ------------------------------------------------------------------
    # core operations
    # ------------------------------------------------------------------
    def put(
        self,
        fingerprint: str,
        absolute_support: int,
        patterns: "PatternSet | CondensedPatternSet",
        n_transactions: int | None = None,
    ) -> bool:
        """Store a support-level pattern set; returns False if rejected.

        ``patterns`` must represent the *full* frequent-pattern set of
        the fingerprinted database at ``absolute_support`` — the
        warehouse invariant every lookup path relies on. A plain
        :class:`PatternSet` is condensed into the warehouse's
        representation here (``ndi`` needs ``n_transactions``; without
        it the entry degrades to ``closed``); an already-condensed set
        is stored as-is. The byte budget charges the *condensed* size.
        Storing evicts least recently used entries until the budget
        holds again. A write-through failure never loses the in-memory
        entry: it degrades the warehouse to memory-only and logs why.
        """
        if isinstance(patterns, CondensedPatternSet):
            condensed = patterns
            full_bytes: int | None = None
            if condensed.representation == "full":
                full_bytes = patterns_byte_size(condensed.entry_patterns())
        else:
            representation = self.representation
            if representation == "ndi" and n_transactions is None:
                representation = "closed"
            condensed = CondensedPatternSet.condense(
                patterns,
                absolute_support,
                representation,
                n_transactions=n_transactions,
            )
            full_bytes = patterns_byte_size(patterns)
        size = patterns_byte_size(condensed)
        with self._lock:
            if self.byte_budget is not None and size > self.byte_budget:
                self.rejections += 1
                return False
            key = (fingerprint, absolute_support)
            existing = self._entries.pop(key, None)
            if existing is not None:
                self._stored_bytes -= existing[1]
            self._entries[key] = (condensed, size, full_bytes)
            self._stored_bytes += size
            self._evict_to_budget()
            self._store.write_through(
                self._store.write_entry,
                fingerprint,
                absolute_support,
                condensed,
                full_bytes=full_bytes,
            )
        return True

    def get(self, fingerprint: str, absolute_support: int) -> PatternSet | None:
        """The exact *full* set for the key, or ``None`` (touches recency).

        Condensed entries are materialized lazily — the expansion is
        computed on first access and cached on the entry.
        """
        condensed = self.get_condensed(fingerprint, absolute_support)
        return None if condensed is None else condensed.expand()

    def get_condensed(
        self, fingerprint: str, absolute_support: int
    ) -> CondensedPatternSet | None:
        """The stored (condensed) entry for the key, without expansion."""
        key = (fingerprint, absolute_support)
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def best_feedstock(
        self, fingerprint: str, absolute_support: int
    ) -> WarehouseHit | None:
        """The cheapest stored feedstock for a request at ``absolute_support``.

        The largest stored support ``<= absolute_support`` (a superset —
        filtering it is exact and mining-free; an exact hit is the
        degenerate case), else ``None``. The returned entry is touched
        for LRU purposes.

        An armed ``warehouse.read`` fault fires here (raising
        :class:`~repro.errors.InjectedFaultError`); the service treats
        that like any failed read — degrade to a miss and mine.
        """
        if self.faults is not None:
            self.faults.fire(
                WAREHOUSE_READ, detail=f"feedstock lookup {fingerprint[:12]}"
            )
        return self._scan_feedstock(fingerprint, absolute_support)

    def _scan_feedstock(
        self, fingerprint: str, absolute_support: int, distance: int = 0
    ) -> WarehouseHit | None:
        """The :meth:`best_feedstock` scan without the fault point."""
        with self._lock:
            chosen = max(
                (
                    support
                    for fp, support in self._entries
                    if fp == fingerprint and support <= absolute_support
                ),
                default=None,
            )
            if chosen is None:
                return None
            key = (fingerprint, chosen)
            self._entries.move_to_end(key)
            return WarehouseHit(
                fingerprint=fingerprint,
                absolute_support=chosen,
                feedstock=self._entries[key][0],
                distance=distance,
            )

    # ------------------------------------------------------------------
    # version chains
    # ------------------------------------------------------------------
    def record_version(self, version: VersionedDatabase) -> None:
        """Record every hop of ``version``'s chain as a durable chain
        record, when disk-backed — what lets a restarted service rebuild
        the chain (:meth:`restore_version`). Hops already held write
        nothing; a write failure degrades to memory-only like any
        write-through."""
        with self._lock:
            for node in version.chain():
                if node.parent is not None:
                    self._store.write_through(self._store.record_link, node)

    def ancestor_feedstock(
        self,
        fingerprint: str,
        absolute_support: int,
        lineage: tuple[tuple[str, int], ...],
    ) -> WarehouseHit | None:
        """The nearest warehoused feedstock along the caller's version chain.

        ``lineage`` is an ordered ``(fingerprint, distance)`` sequence,
        nearest first — the :meth:`VersionedDatabase.lineage
        <repro.data.versioned.VersionedDatabase.lineage>` of the chain
        whose head is ``fingerprint``. The scan stops at the *first*
        version with any stored entry — delta distance dominates the
        patch cost, so the nearest warehoused ancestor beats a
        better-support hit further up the chain — and returns its
        largest entry at or below ``absolute_support`` (the only kind an
        FUP patch can consume), else ``None``. Fires ``warehouse.read``
        once, like :meth:`best_feedstock`.
        """
        if self.faults is not None:
            self.faults.fire(
                WAREHOUSE_READ, detail=f"ancestor lookup {fingerprint[:12]}"
            )
        with self._lock:
            for ancestor_fp, distance in lineage:
                if any(fp == ancestor_fp for fp, _ in self._entries):
                    return self._scan_feedstock(
                        ancestor_fp, absolute_support, distance
                    )
        return None

    # ------------------------------------------------------------------
    # durable chains + garbage collection
    # ------------------------------------------------------------------
    def restore_version(
        self, db: TransactionDatabase
    ) -> VersionedDatabase | None:
        """Rebuild ``db``'s version chain from durable chain records.

        The recovery half of :meth:`record_version`: a restarted service
        hands an *unversioned* request's database here and gets back the
        pre-crash :class:`~repro.data.versioned.VersionedDatabase` chain
        (as deep as intact records reach), re-opening the planner's
        update path without the tenant resubmitting its history.
        ``None`` when nothing applies.
        """
        try:
            return self._store.restore_version(db)
        except DataError:
            return None

    def gc(self, *, dry_run: bool = False) -> GCReport:
        """One explicit garbage-collection pass over the chain records.

        Reachability-prunes records that no warehoused entry can justify
        and compacts multi-hop runs through unwarehoused ancestors into
        single composed records (see :mod:`repro.durability.gc`). The
        automatic pruning on evict/drop/quarantine keeps the records
        honest; this full pass adds compaction and is what
        ``repro warehouse --gc`` runs. ``dry_run`` plans without
        touching disk or registries.
        """
        with self._lock:
            warehoused = {fp for fp, _support in self._entries}
            report = self._store.write_through(
                self._store.gc, warehoused, dry_run=dry_run
            )
            if report is None:
                return GCReport(0, 0, 0, dry_run)
            if not dry_run:
                self.gc_dropped_chains += report.dropped_chains
                self.gc_collapsed_hops += report.collapsed_hops
            return report

    def _prune_chains(self) -> None:
        """Drop chain records no warehoused entry can justify (no
        compaction).

        The cheap, automatic half of :meth:`gc`, run after evictions,
        drops and load-time quarantine.
        """
        with self._lock:
            warehoused = {fp for fp, _support in self._entries}
            plan = self._store.plan_gc(warehoused)
            if plan.dropped:
                self._store.write_through(self._store.drop_chains, plan.dropped)
                self.gc_dropped_chains += len(plan.dropped)

    # ------------------------------------------------------------------
    # integrity auditing
    # ------------------------------------------------------------------
    def verify_entry(
        self,
        fingerprint: str,
        absolute_support: int,
        max_derivability_checks: int = 256,
    ) -> IntegrityReport:
        """Audit one stored entry's internal consistency without re-mining.

        Three families of checks, all necessary conditions for the
        warehouse invariant ("the full frequent-pattern set of the
        fingerprinted database at ``absolute_support``"):

        1. **Threshold**: every stored support is ``>= absolute_support``.
        2. **Monotonicity/closure**: every immediate subset of a stored
           pattern is itself stored, with support at least as large
           (anti-monotonicity of support plus downward closure of the
           full set).
        3. **Derivability bounds** (Calders & Goethals, non-derivable
           itemsets): for ``|I| >= 3`` and any pair ``{a, b} ⊆ I``,
           inclusion–exclusion gives the lower bound
           ``supp(I) >= supp(I∖{a}) + supp(I∖{b}) − supp(I∖{a,b})``.
           Checked for up to ``max_derivability_checks`` deterministic
           (canonical-order) pattern/pair combinations.

        A violation proves the entry is *not* a genuine full frequent-
        pattern set — bit rot that survived the checksum, a buggy
        writer, or a tampered file. A condensed entry is audited through
        its (cached) expansion: the deduction rules that reconstruct the
        full set are exactly the consistency conditions being checked,
        so corrupt condensed entries surface here too. The audit only
        reports; quarantining or dropping the entry is the caller's
        decision (:meth:`drop_entry`).
        """
        with self._lock:
            entry = self._entries.get((fingerprint, absolute_support))
            if entry is None:
                raise StorageError(
                    f"no entry for ({fingerprint!r}, {absolute_support}) to verify"
                )
            condensed = entry[0]
        representation = condensed.representation
        patterns = condensed.expand()
        supports = dict(patterns.items())
        checks = 0
        violations: list[str] = []
        ordered = sorted(supports, key=lambda p: (len(p), tuple(sorted(p))))
        for items in ordered:
            support = supports[items]
            checks += 1
            if support < absolute_support:
                violations.append(
                    f"{sorted(items)}: support {support} below the entry "
                    f"threshold {absolute_support}"
                )
            if len(items) < 2:
                continue
            for dropped in sorted(items):
                subset = items - {dropped}
                checks += 1
                subset_support = supports.get(subset)
                if subset_support is None:
                    violations.append(
                        f"{sorted(items)}: subset {sorted(subset)} missing "
                        "from the entry (full sets are downward closed)"
                    )
                elif subset_support < support:
                    violations.append(
                        f"{sorted(items)}: subset {sorted(subset)} has "
                        f"support {subset_support} < {support} "
                        "(anti-monotonicity violated)"
                    )
        derivability_budget = max_derivability_checks
        for items in ordered:
            if derivability_budget <= 0:
                break
            if len(items) < 3:
                continue
            support = supports[items]
            for a, b in combinations(sorted(items), 2):
                if derivability_budget <= 0:
                    break
                without_a = items - {a}
                without_b = items - {b}
                without_ab = items - {a, b}
                if not (
                    without_a in supports
                    and without_b in supports
                    and without_ab in supports
                ):
                    continue  # already reported by the closure check
                checks += 1
                derivability_budget -= 1
                lower = (
                    supports[without_a]
                    + supports[without_b]
                    - supports[without_ab]
                )
                if support < lower:
                    violations.append(
                        f"{sorted(items)}: support {support} below the "
                        f"derivability lower bound {lower} from "
                        f"{sorted(without_a)} + {sorted(without_b)} - "
                        f"{sorted(without_ab)}"
                    )
        return IntegrityReport(
            fingerprint=fingerprint,
            absolute_support=absolute_support,
            checks=checks,
            violations=tuple(violations),
            representation=representation,
        )

    def drop_entry(self, fingerprint: str, absolute_support: int) -> bool:
        """Remove one entry (and its file); True if it existed.

        The disposal half of :meth:`verify_entry`: an entry that failed
        its audit should not keep serving as feedstock. Dropping the
        last entry for a fingerprint also prunes chain records that
        reached only it — they can no longer serve anything, so leaving
        them dangling would grow the chains directory forever.
        """
        key = (fingerprint, absolute_support)
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._stored_bytes -= entry[1]
            self._store.write_through(
                self._store.remove_entry, fingerprint, absolute_support
            )
            self._prune_chains()
        return True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stored_bytes(self) -> int:
        """Total modelled bytes of every stored entry."""
        with self._lock:
            return self._stored_bytes

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple[str, int]) -> bool:
        with self._lock:
            return key in self._entries

    def keys(self) -> list[tuple[str, int]]:
        """All (fingerprint, support) keys, least recently used first."""
        with self._lock:
            return list(self._entries)

    @property
    def memory_only_reason(self) -> str | None:
        """Why persistence was abandoned (None while disk-backed works)."""
        return self._store.memory_only_reason

    def has_quarantined(self, fingerprint: str) -> bool:
        """Whether any file for ``fingerprint`` was quarantined at load.

        The service uses this to name the degradation precisely: a miss
        where quarantined feedstock used to be is
        ``feedstock→mine: feedstock_quarantined``, not a plain cold miss.
        """
        report = self.recovery_report
        return report is not None and fingerprint in report.quarantined_fingerprints

    def stats(self) -> dict[str, int]:
        """Structural statistics (entry count, bytes, evictions, health).

        ``full_bytes`` is the modelled size the same entries would
        occupy expanded (falling back to the stored size when an
        entry's expanded size is unknown) — the condensation gauge:
        ``full_bytes / stored_bytes`` is the byte-level condensation
        ratio the service and CLI report.
        """
        report = self.recovery_report
        with self._lock:
            full_bytes = sum(
                full if full is not None else size
                for _c, size, full in self._entries.values()
            )
            return {
                "entries": len(self._entries),
                "stored_bytes": self._stored_bytes,
                "full_bytes": full_bytes,
                "byte_budget": self.byte_budget or 0,
                "evictions": self.evictions,
                "rejections": self.rejections,
                "quarantined": len(self.quarantined),
                "memory_only": int(self.memory_only_reason is not None),
                "chain_records": len(self._store.chain_records()),
                "recovered_entries": self.recovered_entries,
                "recovered_chains": report.recovered_chains if report else 0,
                "journal_replays": report.journal_replays if report else 0,
                "gc_dropped_chains": self.gc_dropped_chains,
                "gc_collapsed_hops": self.gc_collapsed_hops,
            }

    def condensation_ratio(self) -> float:
        """Byte-level condensation gauge: ``full_bytes / stored_bytes``.

        1.0 when empty (or storing full sets); > 1 means the condensed
        entries are that many times smaller than the sets they serve.
        """
        stats = self.stats()
        if stats["stored_bytes"] == 0:
            return 1.0
        return stats["full_bytes"] / stats["stored_bytes"]

    def describe_entries(self) -> list[dict[str, object]]:
        """One row per entry for inspection (the ``repro warehouse`` CLI).

        Rows are least recently used first (the eviction order). The
        ``expanded`` count is only reported when already known — from
        condensation, a file header, or a cached expansion — so
        describing a warehouse never forces expansions.
        """
        with self._lock:
            rows: list[dict[str, object]] = []
            for (fingerprint, support), (condensed, size, full) in (
                self._entries.items()
            ):
                known = condensed.known_expanded_count()
                rows.append(
                    {
                        "fingerprint": fingerprint,
                        "absolute_support": support,
                        "representation": condensed.representation,
                        "entries": len(condensed),
                        "expanded": known,
                        "stored_bytes": size,
                        "full_bytes": full,
                        "condensation_ratio": (
                            (full if full is not None else size) / size
                            if size
                            else 1.0
                        ),
                    }
                )
            return rows

    # ------------------------------------------------------------------
    # migration
    # ------------------------------------------------------------------
    def migrate(self) -> int:
        """Re-write every entry stored in another representation; returns
        how many were re-written (the ``repro warehouse migrate`` verb).

        Each rewrite goes through the store's journaled, fsynced entry
        write, and a failure raises, leaving every file in its old or new
        form. A legacy file has no transaction count for the NDI
        deduction rules (``supp({}) = |D|``), so ``ndi`` falls back to
        ``closed`` for it.
        """
        migrated = 0
        with self._lock:
            for key, (condensed, size, full_bytes) in list(self._entries.items()):
                target = self.representation
                if target == "ndi" and condensed.n_transactions is None:
                    target = "closed"
                if condensed.representation == target:
                    continue
                full = condensed.expand()
                if full_bytes is None:
                    full_bytes = patterns_byte_size(full)
                rewritten = CondensedPatternSet.condense(
                    full,
                    condensed.absolute_support,
                    target,
                    n_transactions=condensed.n_transactions,
                    ndi_depth=condensed.ndi_depth,
                )
                self._store.write_entry(*key, rewritten, full_bytes=full_bytes)
                new_size = patterns_byte_size(rewritten)
                self._entries[key] = (rewritten, new_size, full_bytes)
                self._stored_bytes += new_size - size
                migrated += 1
            self._evict_to_budget()
        return migrated

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _evict_to_budget(self) -> None:
        if self.byte_budget is None:
            return
        evicted = False
        while self._stored_bytes > self.byte_budget and self._entries:
            key, (_patterns, size, _full) = self._entries.popitem(last=False)
            self._stored_bytes -= size
            self.evictions += 1
            evicted = True
            self._store.write_through(self._store.remove_entry, *key, op=OP_EVICT)
        if evicted:
            # Eviction-aware chains: an evicted ancestor's now-useless
            # chain records go with it.
            self._prune_chains()

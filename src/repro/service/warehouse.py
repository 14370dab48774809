"""The pattern warehouse: a shared store of prior mining results.

Section 2 of the paper describes a multi-user mining platform where one
user's frequent patterns become another user's recycling feedstock.
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
  set mined at support ``s`` serves a request at support ``r`` two ways:
  ``s <= r`` means the stored set is a superset of the answer — *filter*
  it (an exact hit is the trivial case); ``s > r`` means it is a subset —
  *recycle* it (compress + re-mine). :meth:`best_feedstock` prefers the
  cheapest option: the largest stored ``s <= r`` (smallest superset to
  filter), then the smallest stored ``s > r`` (largest subset to
  recycle), then a miss.
* **Optionally disk-backed, and hardened against the disk.** Given a
  directory, every entry is also written as an atomic, checksummed
  pattern file (:func:`repro.data.io.write_warehouse_entry`, carrying a
  ``# repr=`` header) and reloaded on construction; legacy full-set
  files load fine and are re-written condensed (migration). A corrupt,
  truncated or checksum-mismatched
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
constructor; the warehouse fires ``warehouse.read`` per file load and
per feedstock lookup and ``warehouse.write`` per write-through, so the
chaos suite drives the quarantine and degradation paths
deterministically.
"""

from __future__ import annotations

import logging
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

from repro.data.io import read_warehouse_entry, write_warehouse_entry
from repro.data.patterns import REPRESENTATIONS, CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import VersionedDatabase
from repro.durability import ChainRecord, DurableStore, RecoveryReport
from repro.durability.gc import GCReport, plan_gc
from repro.errors import DataError, InjectedFaultError, StorageError
from repro.mining.patterns import PatternSet
from repro.resilience import WAREHOUSE_READ, WAREHOUSE_WRITE, FaultInjector
from repro.storage.disk import patterns_byte_size

logger = logging.getLogger(__name__)

#: Filename pattern for disk-backed entries: <fingerprint>-<support>.patterns
_FILE_SUFFIX = ".patterns"

#: Subdirectory corrupt files are moved into (never scanned on load).
QUARANTINE_DIR = "quarantine"


@dataclass(frozen=True)
class WarehouseHit:
    """A usable feedstock found for a requested (fingerprint, support).

    ``feedstock`` is the stored (possibly condensed) object — what the
    planner consumes directly; the recycle path feeds its entries to the
    compressor without expanding them, and the filter path filters the
    entry's cached expansion. :attr:`patterns` materializes the exact
    frequent set for callers that need it (the expansion is cached on the
    entry).
    """

    fingerprint: str
    absolute_support: int  # the support the stored set was mined at
    feedstock: "PatternSet | CondensedPatternSet"
    exact: bool  # stored support == requested support
    #: Delta distance (rows appended + deleted) between the requested
    #: database version and the version the feedstock was mined on.
    #: 0 means same version — the support trichotomy applies directly;
    #: > 0 means the hit is a chain *ancestor* and only the update path
    #: (or a recycle treating supports as estimates) may consume it.
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
        is reproducible); puts write through and evictions delete.
        Unreadable or corrupt files are quarantined, never fatal.
    fault_injector:
        Optional :class:`~repro.resilience.FaultInjector` armed at the
        ``warehouse.read`` / ``warehouse.write`` fault points.
    representation:
        How new entries are stored: ``"closed"`` (default), ``"ndi"`` or
        ``"full"``. Condensation happens on :meth:`put`; reads expand
        lazily, so every consumer still sees exact full sets. An ``ndi``
        warehouse stores an entry as ``closed`` instead when the caller
        cannot supply the transaction count the deduction rules need.
    migrate_on_load:
        When persisting, re-write loaded entries whose on-disk
        representation differs from ``representation`` (pre-condensation
        full-set files get condensed on first load). Disable for
        read-only inspection of an existing directory.
    repair_on_load:
        When persisting, run full crash recovery before the directory
        scan — replay pending journal records, sweep stray temp files,
        quarantine torn chain/manifest files, compact the journal.
        Disable for read-only inspection (``recover(apply=False)`` still
        audits; the registries load identically either way).
    """

    def __init__(
        self,
        byte_budget: int | None = None,
        directory: str | Path | None = None,
        fault_injector: FaultInjector | None = None,
        representation: str = "closed",
        migrate_on_load: bool = True,
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
        self.migrate_on_load = migrate_on_load
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
        # child fingerprint -> (parent fingerprint, delta fingerprint,
        # hop distance): the version-chain registry behind
        # ancestor_feedstock(). Disk-backed warehouses mirror it in the
        # durable store's manifest; memory-only warehouses keep it here.
        self._lineage: dict[str, tuple[str, str | None, int]] = {}
        self._stored_bytes = 0
        self.evictions = 0
        self.rejections = 0
        #: Entries re-written in a new representation at load time.
        self.migrated = 0
        #: (filename, reason) for every file quarantined at load time.
        self.quarantined: list[tuple[str, str]] = []
        self._quarantined_fingerprints: set[str] = set()
        #: Why persistence was abandoned (None while disk-backed works).
        self.memory_only_reason: str | None = None
        #: Durability gauges, served through :meth:`stats`.
        self.recovered_entries = 0
        self.recovered_chains = 0
        self.journal_replays = 0
        self.gc_dropped_links = 0
        self.gc_collapsed_hops = 0
        #: The last :meth:`DurableStore.recover` outcome (None when
        #: memory-only).
        self.recovery_report: RecoveryReport | None = None
        self._store: DurableStore | None = None
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)
            self._store = DurableStore(self.directory, fault_injector)
            report = self._store.recover(apply=repair_on_load)
            self.recovery_report = report
            self.recovered_chains = report.recovered_chains
            self.journal_replays = report.journal_replays
            self.quarantined.extend(report.quarantined)
            self._lineage = self._store.lineage_links()
            self._load_directory()
            self.recovered_entries = len(self._entries)
            if report.quarantined or self.quarantined:
                # Quarantine removed feedstock; links that can no longer
                # route to any warehoused entry are dead weight.
                self._prune_lineage()

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
            if self._persisting():
                try:
                    if self.faults is not None:
                        self.faults.fire(
                            WAREHOUSE_WRITE, detail=f"writing {key}"
                        )
                    assert self._store is not None
                    self._store.write_entry(
                        fingerprint,
                        absolute_support,
                        condensed,
                        full_bytes=full_bytes,
                    )
                except (OSError, InjectedFaultError) as exc:
                    self._degrade_to_memory(f"write-through for {key} failed: {exc}")
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

        Preference order: largest stored support ``<= absolute_support``
        (a superset — filtering it is exact and mining-free; an exact hit
        is the degenerate case), then smallest stored support above it
        (the closest subset — the best recycling feedstock), else
        ``None``. The returned entry is touched for LRU purposes.

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
            below: int | None = None
            above: int | None = None
            for fp, support in self._entries:
                if fp != fingerprint:
                    continue
                if support <= absolute_support:
                    if below is None or support > below:
                        below = support
                elif above is None or support < above:
                    above = support
            chosen = below if below is not None else above
            if chosen is None:
                return None
            key = (fingerprint, chosen)
            self._entries.move_to_end(key)
            return WarehouseHit(
                fingerprint=fingerprint,
                absolute_support=chosen,
                feedstock=self._entries[key][0],
                exact=chosen == absolute_support and distance == 0,
                distance=distance,
            )

    # ------------------------------------------------------------------
    # version-chain lineage
    # ------------------------------------------------------------------
    def record_lineage(
        self,
        child_fingerprint: str,
        parent_fingerprint: str,
        delta_fingerprint: str | None = None,
        distance: int = 1,
    ) -> None:
        """Register one version-chain link: child derived from parent.

        ``distance`` is the hop's delta size (rows appended + deleted).
        Links are idempotent; a child has exactly one parent
        (re-recording overwrites), matching the chain model of
        :class:`~repro.data.versioned.VersionedDatabase`. The registry
        is what lets :meth:`ancestor_feedstock` serve a cold request for
        a new version from an ancestor's warehoused patterns, even when
        the caller no longer holds the chain object. Disk-backed
        warehouses journal the link into the durable manifest, so a
        restarted service recovers every ``ancestor_feedstock`` route;
        a write failure degrades to memory-only like any write-through.
        """
        if child_fingerprint == parent_fingerprint:
            return
        link = (parent_fingerprint, delta_fingerprint, max(0, distance))
        with self._lock:
            if self._lineage.get(child_fingerprint) == link:
                return
            self._lineage[child_fingerprint] = link
            if self._persisting() and self._store is not None:
                try:
                    self._store.record_link(child_fingerprint, *link)
                except (OSError, InjectedFaultError) as exc:
                    self._degrade_to_memory(
                        f"lineage write-through for {child_fingerprint[:12]} "
                        f"failed: {exc}"
                    )

    def lineage_of(self, fingerprint: str) -> tuple[tuple[str, int], ...]:
        """``(ancestor_fingerprint, cumulative_distance)`` pairs, self first.

        Walks the recorded registry (cycle-guarded); the first element is
        always ``(fingerprint, 0)``.
        """
        out: list[tuple[str, int]] = [(fingerprint, 0)]
        seen = {fingerprint}
        distance = 0
        with self._lock:
            current = fingerprint
            while current in self._lineage:
                parent, _delta_fp, hop = self._lineage[current]
                if parent in seen:
                    break
                distance += hop
                out.append((parent, distance))
                seen.add(parent)
                current = parent
        return tuple(out)

    def ancestor_feedstock(
        self,
        fingerprint: str,
        absolute_support: int,
        lineage: "tuple[tuple[str, int], ...] | None" = None,
    ) -> WarehouseHit | None:
        """The nearest warehoused feedstock along the version chain.

        ``lineage`` is an ordered ``(fingerprint, distance)`` sequence,
        nearest first (a :meth:`VersionedDatabase.lineage
        <repro.data.versioned.VersionedDatabase.lineage>` result); when
        omitted, the warehouse's own recorded registry is walked. The
        scan stops at the *first* version with any stored entry — delta
        distance dominates the patch cost, so the nearest warehoused
        ancestor beats a better-support hit further up the chain. Fires
        ``warehouse.read`` once, like :meth:`best_feedstock`.
        """
        if self.faults is not None:
            self.faults.fire(
                WAREHOUSE_READ, detail=f"ancestor lookup {fingerprint[:12]}"
            )
        if lineage is None:
            lineage = self.lineage_of(fingerprint)
        for ancestor_fp, distance in lineage:
            hit = self._scan_feedstock(ancestor_fp, absolute_support, distance)
            if hit is not None:
                return hit
        return None

    # ------------------------------------------------------------------
    # durable chains + garbage collection
    # ------------------------------------------------------------------
    def persist_chain(self, record: ChainRecord) -> None:
        """Write one version-chain hop through to the durable store.

        Idempotent (the store skips identical records) and a no-op for
        memory-only warehouses. A write failure degrades to memory-only
        like any other write-through — the in-memory chain keeps
        serving; only its durability is lost.
        """
        if not self._persisting() or self._store is None:
            return
        with self._lock:
            try:
                self._store.write_chain(record)
            except (OSError, InjectedFaultError) as exc:
                self._degrade_to_memory(
                    f"chain write-through for {record.child[:12]} failed: {exc}"
                )

    def has_chain(self, child_fingerprint: str) -> bool:
        """Whether a durable chain record exists for ``child_fingerprint``."""
        return self._store is not None and self._store.has_chain(
            child_fingerprint
        )

    def restore_version(
        self, db: TransactionDatabase
    ) -> VersionedDatabase | None:
        """Rebuild ``db``'s version chain from durable chain records.

        The recovery half of :meth:`persist_chain`: a restarted service
        hands an *unversioned* request's database here and gets back the
        pre-crash :class:`~repro.data.versioned.VersionedDatabase` chain
        (as deep as intact records reach), re-opening the planner's
        update path without the tenant resubmitting its history.
        ``None`` when nothing applies.
        """
        if self._store is None:
            return None
        try:
            return self._store.restore_version(db)
        except DataError:
            return None

    def gc(self, *, dry_run: bool = False) -> GCReport:
        """One explicit garbage-collection pass over lineage and chains.

        Reachability-prunes links that no warehoused entry can justify
        and compacts multi-hop runs through unwarehoused ancestors into
        single composed records (see :mod:`repro.durability.gc`). The
        automatic pruning on evict/drop/quarantine keeps the registry
        honest; this full pass adds compaction and is what
        ``repro warehouse --gc`` runs. ``dry_run`` plans without
        touching disk or registries.
        """
        with self._lock:
            warehoused = {fp for fp, _support in self._entries}
            if self._store is not None and self._persisting():
                try:
                    report = self._store.gc(warehoused, dry_run=dry_run)
                except (OSError, InjectedFaultError) as exc:
                    self._degrade_to_memory(f"gc failed: {exc}")
                    return GCReport(0, 0, 0, 0, dry_run)
                if not dry_run:
                    self._lineage = self._store.lineage_links()
            else:
                plan = plan_gc(self._lineage, {}, warehoused)
                report = GCReport(
                    dropped_links=len(plan.dropped_links),
                    collapsed_hops=plan.collapsed_hops,
                    rewritten_chains=0,
                    dropped_chain_files=0,
                    dry_run=dry_run,
                )
                if not dry_run:
                    for child in plan.dropped_links:
                        self._lineage.pop(child, None)
                    for child, link in plan.link_rewrites.items():
                        self._lineage[child] = link
            if not dry_run:
                self.gc_dropped_links += report.dropped_links
                self.gc_collapsed_hops += report.collapsed_hops
            return report

    def _prune_lineage(self) -> int:
        """Drop links/chains no warehoused entry can justify (no compaction).

        The cheap, automatic half of :meth:`gc`, run after evictions,
        drops and load-time quarantine. Returns the number of links
        dropped.
        """
        with self._lock:
            warehoused = {fp for fp, _support in self._entries}
            chains = (
                self._store.chain_records() if self._store is not None else {}
            )
            plan = plan_gc(self._lineage, chains, warehoused)
            if not plan.dropped_links:
                return 0
            for child in plan.dropped_links:
                self._lineage.pop(child, None)
            if self._persisting() and self._store is not None:
                try:
                    self._store.drop_links(plan.dropped_links)
                except (OSError, InjectedFaultError) as exc:
                    self._degrade_to_memory(f"lineage prune failed: {exc}")
            self.gc_dropped_links += len(plan.dropped_links)
            return len(plan.dropped_links)

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
        last entry for a fingerprint also prunes lineage links (and
        chain records) that routed only to it — they can no longer
        serve anything, so leaving them dangling would grow the
        registry forever and mislead ``ancestor_feedstock``.
        """
        key = (fingerprint, absolute_support)
        with self._lock:
            entry = self._entries.pop(key, None)
            if entry is None:
                return False
            self._stored_bytes -= entry[1]
            if self._persisting():
                try:
                    assert self._store is not None
                    self._store.remove_entry(fingerprint, absolute_support)
                except (OSError, InjectedFaultError) as exc:
                    self._degrade_to_memory(f"delete of {key} failed: {exc}")
            self._prune_lineage()
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

    def has_quarantined(self, fingerprint: str) -> bool:
        """Whether any file for ``fingerprint`` was quarantined at load.

        The service uses this to name the degradation precisely: a miss
        where quarantined feedstock used to be is
        ``recycle→mine: feedstock_quarantined``, not a plain cold miss.
        """
        with self._lock:
            return fingerprint in self._quarantined_fingerprints

    def stats(self) -> dict[str, int]:
        """Structural statistics (entry count, bytes, evictions, health).

        ``full_bytes`` is the modelled size the same entries would
        occupy expanded (falling back to the stored size when an
        entry's expanded size is unknown) — the condensation gauge:
        ``full_bytes / stored_bytes`` is the byte-level condensation
        ratio the service and CLI report.
        """
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
                "migrated": self.migrated,
                "quarantined": len(self.quarantined),
                "memory_only": int(self.memory_only_reason is not None),
                "lineage_links": len(self._lineage),
                "chain_records": (
                    len(self._store.chain_records())
                    if self._store is not None
                    else 0
                ),
                "recovered_entries": self.recovered_entries,
                "recovered_chains": self.recovered_chains,
                "journal_replays": self.journal_replays,
                "gc_dropped_links": self.gc_dropped_links,
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
    # internals
    # ------------------------------------------------------------------
    def _persisting(self) -> bool:
        return self.directory is not None and self.memory_only_reason is None

    def _degrade_to_memory(self, reason: str) -> None:
        self.memory_only_reason = reason
        logger.warning("warehouse degraded to memory-only: %s", reason)

    def _evict_to_budget(self) -> None:
        if self.byte_budget is None:
            return
        evicted = False
        while self._stored_bytes > self.byte_budget and self._entries:
            key, (_patterns, size, _full) = self._entries.popitem(last=False)
            self._stored_bytes -= size
            self.evictions += 1
            evicted = True
            if self._persisting():
                try:
                    assert self._store is not None
                    self._store.remove_entry(key[0], key[1], op="evict")
                except (OSError, InjectedFaultError) as exc:
                    self._degrade_to_memory(f"eviction of {key} failed: {exc}")
        if evicted:
            # Eviction-aware lineage: an evicted ancestor's now-useless
            # links (ROADMAP open item 3) go with it.
            self._prune_lineage()

    def _entry_path(self, key: tuple[str, int]) -> Path:
        fingerprint, support = key
        assert self.directory is not None
        return self.directory / f"{fingerprint}-{support}{_FILE_SUFFIX}"

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad file aside and remember why; never raises."""
        assert self.directory is not None
        stem = path.name[: -len(_FILE_SUFFIX)]
        fingerprint, sep, _support = stem.rpartition("-")
        if sep and fingerprint:
            self._quarantined_fingerprints.add(fingerprint)
        self.quarantined.append((path.name, reason))
        logger.warning("quarantining warehouse file %s: %s", path.name, reason)
        target_dir = self.directory / QUARANTINE_DIR
        try:
            target_dir.mkdir(exist_ok=True)
            os.replace(path, target_dir / path.name)
        except OSError as exc:
            # The file is bad *and* immovable; leaving it in place is
            # still safe — it is simply never loaded into the store.
            logger.warning(
                "could not move %s into %s/: %s", path.name, QUARANTINE_DIR, exc
            )

    def _load_directory(self) -> None:
        assert self.directory is not None
        for path in sorted(self.directory.glob(f"*{_FILE_SUFFIX}")):
            stem = path.name[: -len(_FILE_SUFFIX)]
            fingerprint, sep, support_text = stem.rpartition("-")
            if not sep or not fingerprint:
                continue  # not a warehouse file
            try:
                if self.faults is not None:
                    self.faults.fire(WAREHOUSE_READ, detail=f"loading {path.name}")
                condensed, full_bytes = read_warehouse_entry(path)
                if str(condensed.absolute_support) != support_text:
                    raise DataError(
                        f"filename support {support_text!r} disagrees with "
                        f"header {condensed.absolute_support}"
                    )
            except (DataError, OSError, InjectedFaultError) as exc:
                self._quarantine(path, str(exc))
                continue
            condensed, full_bytes, migrated = self._maybe_migrate(
                path, condensed, full_bytes
            )
            size = patterns_byte_size(condensed)
            if self.byte_budget is not None and size > self.byte_budget:
                self.rejections += 1
                continue
            key = (fingerprint, condensed.absolute_support)
            self._entries[key] = (condensed, size, full_bytes)
            self._stored_bytes += size
            if migrated:
                self.migrated += 1
        self._evict_to_budget()

    def _maybe_migrate(
        self,
        path: Path,
        condensed: CondensedPatternSet,
        full_bytes: int | None,
    ) -> tuple[CondensedPatternSet, int | None, bool]:
        """Re-represent (and re-write) a loaded entry when the knob differs.

        Pre-condensation full-set files are how existing directories
        migrate: on first load they are condensed and re-written in the
        new format. A legacy file carries no transaction count, so an
        ``ndi`` warehouse migrates it to ``closed`` instead (the
        deduction rules need ``supp({}) = |D|``). Re-writing reuses the
        normal write-through path, degrading to memory-only on failure
        rather than losing the loaded entry.
        """
        target = self.representation
        if target == "ndi" and condensed.n_transactions is None:
            target = "closed"
        if not self.migrate_on_load or condensed.representation == target:
            return condensed, full_bytes, False
        full = condensed.expand()
        if full_bytes is None:
            full_bytes = patterns_byte_size(full)
        migrated = CondensedPatternSet.condense(
            full,
            condensed.absolute_support,
            target,
            n_transactions=condensed.n_transactions,
            ndi_depth=condensed.ndi_depth,
        )
        if self._persisting():
            try:
                write_warehouse_entry(migrated, path, full_bytes=full_bytes)
            except OSError as exc:
                self._degrade_to_memory(
                    f"migration re-write of {path.name} failed: {exc}"
                )
        return migrated, full_bytes, True

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
* **Entries rest full and condense under pressure.** A put stores the
  full frequent set: on the serving sizes, condensing to closed costs as
  much as the mine it would save, and expanding it back on the first
  hit costs as much again (``docs/service.md``). The warehouse's
  ``representation`` — ``closed`` (no superset with equal support) by
  default, or ``full`` (never condense) — names the form an entry is
  condensed *to*
  when the byte budget needs the room, which shrinks dense-data entries
  by an order of magnitude or more.
* **The byte budget bounds everything held.** Every entry is charged
  its modelled on-disk size (:func:`repro.storage.disk.patterns_byte_size`,
  the same int-based model as the simulated disk) in the form it is
  held. When a put would exceed the budget, entries are condensed,
  least recently *used* first, until it holds — an entry whose condensed
  form is not strictly smaller stays full and is never tried again, and
  a set the kernel proved tie-free is never tried under ``closed`` —
  and only when that is not enough are entries evicted, least recently
  used first; an entry larger than the whole budget is condensed, and
  rejected when that does not make it fit. A hit on a condensed entry
  promotes it back to full when that fits without touching another
  entry; otherwise the hit is served from an expansion the warehouse
  does not keep. Modelled resident bytes — stored forms plus any
  expansion cached on them — never exceed the budget after a public
  operation. The budget bounds memory, not disk: a condensed entry's
  file stays in the form it was written.
* **Lookups return the best feedstock**, not just exact hits. A stored
  set mined at support ``s <= r`` is a superset of the answer at support
  ``r``: :meth:`best_feedstock` returns the largest such ``s`` (the
  smallest superset to filter; an exact hit is the trivial case), else a
  miss. An entry above ``r`` is never returned: recycling it loses to a
  cold mine on the serving kernel (``docs/service.md``).
* **Optionally disk-backed, and hardened against the disk.** Every
  byte on disk goes through a :class:`~repro.durability.DurableStore`:
  given a directory, every entry is also written as an atomic,
  checksummed pattern file — in the form it had when put — and reloaded
  on construction under the same budget rule. Condensing or promoting
  in memory never re-writes the file. Files of any representation load
  as they are, and :meth:`migrate` re-writes them all in the
  warehouse's ``representation``. A corrupt, truncated or
  checksum-mismatched file never crashes construction: it is
  **quarantined** — moved into
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
from repro.errors import DataError, StorageError
from repro.mining.patterns import PatternSet
from repro.resilience import WAREHOUSE_READ, FaultInjector
from repro.storage.disk import patterns_byte_size

#: Pattern/pair combinations :meth:`PatternWarehouse.verify_entry` checks
#: against the derivability lower bound, in canonical order.
MAX_DERIVABILITY_CHECKS = 256


@dataclass(frozen=True)
class WarehouseHit:
    """A usable feedstock found for a requested (fingerprint, support).

    ``feedstock`` is the entry, mined at or below the requested support
    — what the planner consumes directly: the stored object of a full
    entry, or, for an entry condensed under pressure that could not be
    promoted, a :meth:`~repro.data.patterns.CondensedPatternSet.detached`
    copy whose expansion is cached on the copy, never in the warehouse.
    :attr:`patterns` materializes the exact frequent set for callers that
    need it.
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


@dataclass(slots=True)
class _Entry:
    """One entry's in-memory state.

    ``stored`` is the form held — full, or condensed when the budget
    needed the room — and ``size`` its modelled bytes. ``full_bytes`` is
    the expanded set's modelled size when known (put time, a file
    header), else None. ``written`` is the representation of the entry's
    file, which only :meth:`PatternWarehouse.migrate` re-writes.
    ``shrinks`` turns False once condensing the entry proved not to
    shrink it, or at the put when the kernel proved the set tie-free
    and the target is ``closed``, so it is never condensed again.
    """

    stored: CondensedPatternSet
    size: int
    full_bytes: int | None
    written: str
    shrinks: bool = True

    @classmethod
    def holding(
        cls, stored: CondensedPatternSet, full_bytes: int | None = None
    ) -> "_Entry":
        """A new entry holding ``stored`` as written."""
        size = patterns_byte_size(stored)
        if stored.representation == "full":
            full_bytes = size
        return cls(stored, size, full_bytes, stored.representation)


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
        Maximum total modelled bytes the warehouse holds: every entry in
        the form it is held, plus any expansion cached on it; ``None``
        means unbounded. The invariant ``stats()["resident_bytes"] <=
        byte_budget`` holds after every public operation. Pressure on
        the budget first condenses entries (see ``representation``),
        then evicts least recently used ones. The budget bounds memory
        only: condensing never re-writes an entry's file, so a
        directory's files (written full at put) can total more than the
        budget, and a reload condenses them again under the same rule.
        :meth:`migrate` condenses the files themselves.
    directory:
        Optional directory for persistence. Existing entries are loaded
        on construction (in deterministic filename order, so reloading
        is reproducible), each charged as its file was written and
        admitted under the same budget rule as a put; puts write
        through and evictions delete. Unreadable or corrupt files are
        quarantined, never fatal.
    fault_injector:
        Optional :class:`~repro.resilience.FaultInjector` armed at the
        ``warehouse.read`` / ``warehouse.write`` fault points (and, via
        the store, the ``persist.*`` points).
    representation:
        The form an entry is condensed to when the byte budget needs
        the room: ``"closed"`` (default) or ``"full"``, which never
        condenses. Entries are put full, so an unbudgeted warehouse
        never condenses anything. A condensed entry is kept only when
        it is strictly smaller than the full one; reads expand it, so
        every consumer still sees exact full sets. Loaded entries keep
        their file's representation until pressure
        condenses them, a hit promotes them, or :meth:`migrate`
        re-writes them.
    repair_on_load:
        When persisting, load through full crash recovery — sweep
        stray temp files and move damaged files into quarantine.
        Disable for read-only inspection: ``recover(apply=False)``
        still audits, and the warehouse then never writes the
        directory (it is memory-only from the start, so load-time
        evictions and chain pruning apply in memory alone). Entries
        and registries load identically either way. Inspecting a
        directory that does not exist raises :class:`StorageError`
        and creates nothing.
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
        if not repair_on_load and self.directory and not self.directory.is_dir():
            raise StorageError(
                f"warehouse directory {self.directory} does not exist"
            )
        self.faults = fault_injector
        self._lock = threading.RLock()
        # (fingerprint, support) -> entry; insertion order doubles as
        # recency order (least recently used first).
        self._entries: OrderedDict[tuple[str, int], _Entry] = OrderedDict()
        self._stored_bytes = 0
        self.evictions = 0
        self.rejections = 0
        #: Entries condensed because the budget needed the room, and
        #: condensed entries a hit turned back into full ones.
        self.pressure_condensations = 0
        self.promotions = 0
        #: Condensations computed and thrown away: the condensed form
        #: did not shrink the entry, or did not make it fit the budget.
        self.futile_condensations = 0
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
            if not repair_on_load:
                self._store.memory_only_reason = "opened read-only for inspection"
            self.recovery_report = report
            self.quarantined = report.quarantined
            for fingerprint, stored, full_bytes in report.entries:
                self._insert(
                    (fingerprint, stored.absolute_support),
                    _Entry.holding(stored, full_bytes),
                )
            # The entries now live here; the report keeps only counts.
            report.entries.clear()
            # Once, after every file is in: pruning the chains of an
            # eviction needs every warehoused fingerprint to be known.
            self._relieve_pressure()
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
        :class:`PatternSet` is stored full (one copy of its mapping;
        ``n_transactions``, when given, is recorded in the entry's file
        header); an already-condensed set is stored as-is. An
        entry larger than the whole budget is condensed, and rejected
        when that does not make it fit; otherwise storing makes room
        under the budget rule (condense, then evict, least recently used
        entries first). The entry's file is written in the form it is stored
        in here. A write-through failure never loses the in-memory
        entry: it degrades the warehouse to memory-only and logs why.

        A set the kernel proved tie-free (``PatternSet.tie_free``) is its
        own closed form, so when the target is ``closed`` it is marked as
        not shrinking up front: it is rejected or evicted without a
        condensation that could only add the header.
        """
        tie_free = False
        if not isinstance(patterns, CondensedPatternSet):
            tie_free = patterns.tie_free
            patterns = CondensedPatternSet.condense(
                patterns, absolute_support, "full", n_transactions=n_transactions
            )
        entry = _Entry.holding(patterns)
        if tie_free and self.representation == "closed":
            entry.shrinks = False
        with self._lock:
            if not self._insert((fingerprint, absolute_support), entry):
                return False
            self._relieve_pressure()
            entry.written = entry.stored.representation
            self._store.write_through(
                self._store.write_entry,
                fingerprint,
                absolute_support,
                entry.stored,
                full_bytes=entry.full_bytes,
            )
        return True

    def get(self, fingerprint: str, absolute_support: int) -> PatternSet | None:
        """The exact *full* set for the key, or ``None`` (touches recency).

        A hit on a condensed entry promotes it to full when that fits
        the budget, else expands it without keeping the expansion.
        """
        key = (fingerprint, absolute_support)
        with self._lock:
            if key not in self._entries:
                return None
            self._entries.move_to_end(key)
            served = self._serve(key)
        return served.expand()

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
                feedstock=self._serve(key),
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
        automatic pruning on evict/quarantine keeps the records
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

        The cheap, automatic half of :meth:`gc`, run after evictions
        and load-time quarantine.
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
    def verify_entry(self, fingerprint: str, absolute_support: int) -> IntegrityReport:
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
           Checked for up to :data:`MAX_DERIVABILITY_CHECKS` deterministic
           (canonical-order) pattern/pair combinations.

        A violation proves the entry is *not* a genuine full frequent-
        pattern set — bit rot that survived the checksum, a buggy
        writer, or a tampered file. A condensed entry is audited through
        an expansion the warehouse does not keep, so the checks apply to
        the full set it would serve. The audit only reports: it never
        quarantines or drops the entry.
        """
        with self._lock:
            entry = self._entries.get((fingerprint, absolute_support))
            if entry is None:
                raise StorageError(
                    f"no entry for ({fingerprint!r}, {absolute_support}) to verify"
                )
            stored = entry.stored
        representation = stored.representation
        patterns = stored.detached().expand()
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
        derivability_budget = MAX_DERIVABILITY_CHECKS
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

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stored_bytes(self) -> int:
        """Total modelled bytes of every entry, in the form it is held."""
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
        ratio the service and CLI report. ``resident_bytes`` is what
        the byte budget bounds: the held forms plus any expansion cached
        on them, which the warehouse never keeps, so it equals
        ``stored_bytes``. ``condensed_entries`` counts the
        entries held in a condensed form, ``pressure_condensations``
        the condensations the budget forced, ``futile_condensations``
        the ones computed and thrown away (no smaller, or still too
        large), ``promotions`` the condensed entries a hit turned back
        into full ones.
        """
        report = self.recovery_report
        with self._lock:
            entries = self._entries.values()
            full_bytes = sum(
                e.full_bytes if e.full_bytes is not None else e.size for e in entries
            )
            return {
                "entries": len(self._entries),
                "stored_bytes": self._stored_bytes,
                # A full entry's expansion shares its mapping, and a held
                # condensed entry is only ever expanded on a detached
                # copy, so nothing held adds to the stored forms.
                "resident_bytes": self._stored_bytes,
                "full_bytes": full_bytes,
                "condensed_entries": sum(
                    e.stored.representation != "full" for e in entries
                ),
                "pressure_condensations": self.pressure_condensations,
                "futile_condensations": self.futile_condensations,
                "promotions": self.promotions,
                "byte_budget": self.byte_budget or 0,
                "evictions": self.evictions,
                "rejections": self.rejections,
                "quarantined": len(self.quarantined),
                "memory_only": int(self.memory_only_reason is not None),
                "chain_records": len(self._store.chain_records()),
                "recovered_entries": self.recovered_entries,
                "recovered_chains": report.recovered_chains if report else 0,
                "gc_dropped_chains": self.gc_dropped_chains,
                "gc_collapsed_hops": self.gc_collapsed_hops,
            }

    def condensation_ratio(self) -> float:
        """Byte-level condensation gauge: ``full_bytes / stored_bytes``.

        1.0 when empty or when every entry is held full — the usual
        reading of an unbudgeted warehouse, which never condenses; > 1
        means the condensed entries are that many times smaller than
        the sets they serve.
        """
        stats = self.stats()
        if stats["stored_bytes"] == 0:
            return 1.0
        return stats["full_bytes"] / stats["stored_bytes"]

    def describe_entries(self) -> list[dict[str, object]]:
        """One row per entry for inspection (the ``repro warehouse`` CLI).

        Rows are least recently used first (the eviction order), one per
        entry in the form it is held, so a warehouse under pressure
        lists full and condensed rows side by side. The ``expanded``
        count is only reported when already known — from the put, a
        condensation or a file header — so describing a warehouse never
        forces expansions.
        """
        with self._lock:
            rows: list[dict[str, object]] = []
            for (fingerprint, support), entry in self._entries.items():
                stored, size, full = entry.stored, entry.size, entry.full_bytes
                rows.append(
                    {
                        "fingerprint": fingerprint,
                        "absolute_support": support,
                        "representation": stored.representation,
                        "entries": len(stored),
                        "expanded": stored.known_expanded_count(),
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
        """Re-write every entry file in another representation; returns
        how many were re-written (the ``repro warehouse migrate`` verb).

        The explicit way to condense a whole directory on disk (or, with
        ``full``, to expand it). Each rewrite goes through the store's
        atomic, fsynced entry write, and a failure raises, leaving every
        file in its old or new form. A re-written entry is then held as
        written — as a reload would hold it — under the budget rule.
        """
        target = self.representation
        migrated = 0
        with self._lock:
            for key, entry in list(self._entries.items()):
                if entry.written == target:
                    continue
                rewritten = entry.stored
                if rewritten.representation != target:
                    full = rewritten.as_full()
                    if entry.full_bytes is None:
                        entry.full_bytes = patterns_byte_size(full)
                    rewritten = full
                    if target != "full":
                        rewritten = CondensedPatternSet.condense(
                            full.expand(),
                            full.absolute_support,
                            target,
                            n_transactions=full.n_transactions,
                        )
                self._store.write_entry(*key, rewritten, full_bytes=entry.full_bytes)
                size = patterns_byte_size(rewritten)
                self._stored_bytes += size - entry.size
                entry.stored, entry.size, entry.written = rewritten, size, target
                migrated += 1
            self._relieve_pressure()
        return migrated

    # ------------------------------------------------------------------
    # internals (callers hold the lock)
    # ------------------------------------------------------------------
    def _condensed(self, entry: _Entry) -> tuple[CondensedPatternSet, int] | None:
        """The entry condensed and its size, when that strictly shrinks it.

        ``None`` for an entry already condensed, in a ``full``
        warehouse, marked as not shrinking, or whose condensed form is
        no smaller (no exact support ties to collapse) — which counts
        as futile and marks the entry, so it is never condensed twice.
        """
        stored = entry.stored
        if (
            stored.representation != "full"
            or self.representation == "full"
            or not entry.shrinks
        ):
            return None
        condensed = CondensedPatternSet.condense(
            stored.expand(),
            stored.absolute_support,
            self.representation,
            n_transactions=stored.n_transactions,
        )
        size = patterns_byte_size(condensed)
        if size >= entry.size:
            entry.shrinks = False
            self.futile_condensations += 1
            return None
        return condensed, size

    def _insert(self, key: tuple[str, int], entry: _Entry) -> bool:
        """Insert ``entry``; False when it alone cannot fit the budget.

        An entry larger than the whole budget is condensed first and
        rejected when that does not make it fit. The caller restores the
        budget around it (:meth:`_relieve_pressure`).
        """
        budget = self.byte_budget
        if budget is not None and entry.size > budget:
            condensed = self._condensed(entry)
            if condensed is None or condensed[1] > budget:
                if condensed is not None:
                    self.futile_condensations += 1
                self.rejections += 1
                return False
            entry.stored, entry.size = condensed
            self.pressure_condensations += 1
        existing = self._entries.pop(key, None)
        if existing is not None:
            self._stored_bytes -= existing.size
        self._entries[key] = entry
        self._stored_bytes += entry.size
        return True

    def _relieve_pressure(self) -> None:
        """Condense, then evict, least recently used first, until the
        budget holds.

        Entries are condensed oldest first until the budget holds; only
        when condensing every entry that shrinks is not enough are
        entries evicted, oldest first. Files are never re-written here:
        an evicted entry's file is removed, a condensed one's stays as
        written.
        """
        budget = self.byte_budget
        if budget is None:
            return
        for entry in list(self._entries.values()):
            if self._stored_bytes <= budget:
                return
            condensed = self._condensed(entry)
            if condensed is not None:
                self._stored_bytes += condensed[1] - entry.size
                entry.stored, entry.size = condensed
                self.pressure_condensations += 1
        evicted = False
        while self._stored_bytes > budget:
            key, entry = self._entries.popitem(last=False)
            self._stored_bytes -= entry.size
            self.evictions += 1
            evicted = True
            self._store.write_through(self._store.remove_entry, *key)
        if evicted:
            # Eviction-aware chains: an evicted ancestor's now-useless
            # chain records go with it.
            self._prune_chains()

    def _serve(self, key: tuple[str, int]) -> CondensedPatternSet:
        """The form of a hit entry to hand out.

        A full entry is handed out as stored. A condensed one is
        promoted back to full in place when its full size fits the
        budget without condensing or evicting another entry; otherwise
        the caller gets a copy whose expansion the warehouse never
        holds (or the transient full form, when the file header's
        expanded size proved wrong).
        """
        entry = self._entries[key]
        stored = entry.stored
        if stored.representation == "full":
            return stored
        budget = self.byte_budget
        rest = self._stored_bytes - entry.size
        if budget is not None and (
            entry.full_bytes is None or rest + entry.full_bytes > budget
        ):
            return stored.detached()
        full = stored.as_full()
        size = patterns_byte_size(full)
        if budget is None or rest + size <= budget:
            entry.stored, entry.size, entry.full_bytes = full, size, size
            self._stored_bytes = rest + size
            self.promotions += 1
        return full

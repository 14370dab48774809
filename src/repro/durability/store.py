"""The durable store: crash-safe files + recovery.

One :class:`DurableStore` owns everything under a warehouse directory
that must survive a kill, and is the only code that reads or writes it::

    <dir>/
        <fingerprint>-<support>.patterns   warehouse entries
        chains/<fingerprint>.chain         chain records, one per hop
        quarantine/                        torn/corrupt files, preserved

Write protocol: every durable mutation is one atomic step, so a kill
leaves either the state before it or the state after it.

* A write — an entry, a chain record, a GC rewrite — is one
  :func:`~repro.durability.atomic.atomic_write_text` call (temp file,
  fsync, ``os.replace``). A kill leaves the old file or the new one,
  never a torn one; the worst residue is a stray ``*.tmp``.
* A deletion — an entry drop or eviction, a chain prune, GC's drops —
  unlinks its files, then fsyncs their directory once
  (:func:`~repro.durability.atomic.unlink_durably`), so a deletion the
  caller saw finish survives power loss. A kill before that leaves
  each file in place or gone, and a file still in place is complete
  and checksummed: loading it gives the state before the deletion.
* GC lands every composed record before it unlinks any dropped one.
  A kill part-way through therefore leaves only orphaned chain
  records — files the finished pass would have dropped — which the next
  prune removes. It never leaves a wrong answer: :func:`restore_version`
  checks the fingerprint at every hop, so a record that no longer fits
  ends the walk instead of misleading it.

:meth:`DurableStore.recover` runs before the warehouse trusts the
directory: it sweeps stray temp files, then loads every chain record and
every entry file, quarantining whatever fails to parse. A ``journal.log``
left by an older layout, which bracketed each mutation with fsynced
intent lines, is ignored and not counted in :meth:`footprint_bytes`:
its pending deletions are not replayed, and each one names a complete,
checksummed file, so loading that file gives the state before the
deletion.

The store also holds the chain-record registry, one record per version
hop. Without a directory it records no hops; once a write under
:meth:`DurableStore.write_through` failed, it keeps what it holds in
memory and writes nothing.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Collection, TypeVar

from repro.data.io import read_warehouse_entry, warehouse_entry_text
from repro.data.patterns import CondensedPatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import VersionedDatabase
from repro.errors import DataError, InjectedFaultError
from repro.resilience.faults import WAREHOUSE_READ, WAREHOUSE_WRITE

from repro.durability.atomic import (
    atomic_write_text,
    sweep_tmp_files,
    unlink_durably,
)
from repro.durability.chains import (
    CHAIN_SUFFIX,
    ChainRecord,
    chain_record_text,
    read_chain_record,
    record_from_node,
    restore_version,
)
from repro.durability.gc import GCPlan, GCReport, plan_gc

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.resilience.faults import FaultInjector

logger = logging.getLogger(__name__)

T = TypeVar("T")

#: Warehouse entry files are ``<fingerprint>-<support>`` plus this suffix.
ENTRY_SUFFIX = ".patterns"

#: Subdirectory holding one ``.chain`` file per durable hop.
CHAINS_DIR = "chains"

#: Subdirectory quarantined files move to (never scanned on load).
QUARANTINE_DIR = "quarantine"


@dataclass
class RecoveryReport:
    """What one :meth:`DurableStore.recover` pass found and fixed."""

    stray_tmp_removed: int = 0
    recovered_chains: int = 0
    quarantined: list[tuple[str, str]] = field(default_factory=list)
    #: Fingerprints that lost an entry file to quarantine.
    quarantined_fingerprints: set[str] = field(default_factory=set)
    #: Intact entries in file-name order: ``(fingerprint, condensed,
    #: full_bytes)``. The warehouse takes them and empties the list.
    entries: list[tuple[str, CondensedPatternSet, int | None]] = field(
        default_factory=list
    )


class DurableStore:
    """Crash-safe persistence for one warehouse directory.

    The store is the only reader and writer of entry and chain files,
    and owns the chain-record registry; the warehouse calls it under its
    own lock, so the store adds just enough locking to protect the
    registry. Construction performs no I/O beyond creating the
    directory layout — call :meth:`recover` (the warehouse does, first
    thing) before trusting the registry. ``directory=None`` builds a memory-only store that
    writes nothing and records no hops.
    """

    def __init__(
        self,
        directory: str | Path | None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.faults = faults
        self._lock = threading.Lock()
        self._chains: dict[str, ChainRecord] = {}
        #: Why writing stopped (None while a directory store persists).
        self.memory_only_reason: str | None = None
        self.directory = Path(directory) if directory is not None else None
        if self.directory is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        self.chains_dir = self.directory / CHAINS_DIR
        self.chains_dir.mkdir(parents=True, exist_ok=True)

    @property
    def persisting(self) -> bool:
        """Whether mutations still reach the disk."""
        return self.directory is not None and self.memory_only_reason is None

    def write_through(
        self, mutation: Callable[..., T], *args, **kwargs
    ) -> T | None:
        """Run one store mutation; a failed write flips to memory-only.

        The warehouse's single failure handler: a write failure (real
        ``OSError`` or an injected fault) is logged and recorded on
        :attr:`memory_only_reason`, and every later mutation skips the
        disk. Returns the mutation's result, or ``None`` on failure.
        Called directly, the mutations raise.
        """
        try:
            return mutation(*args, **kwargs)
        except (OSError, InjectedFaultError) as exc:
            self.memory_only_reason = f"{mutation.__name__} failed: {exc}"
            logger.warning(
                "warehouse degraded to memory-only: %s", self.memory_only_reason
            )
            return None

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------
    def entry_path(self, fingerprint: str, absolute_support: int) -> Path:
        return self.directory / f"{fingerprint}-{absolute_support}{ENTRY_SUFFIX}"

    def chain_path(self, child: str) -> Path:
        return self.chains_dir / f"{child}{CHAIN_SUFFIX}"

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self, *, apply: bool = True) -> RecoveryReport:
        """Sweep crash residue and load the directory.

        A chain or entry file that fails to parse (or whose
        ``warehouse.read`` fault fires) is quarantined and reported,
        never fatal. ``apply=False`` audits without mutating the
        directory — stray temp files are reported as zero (they are only
        *swept* when applying) and damaged files stay in place; the
        loaded registry and entries are identical either way. The CLI's
        read-only inspection uses the audit mode so listing a warehouse
        never rewrites it.
        """
        report = RecoveryReport()
        if apply:
            report.stray_tmp_removed += sweep_tmp_files(self.directory)
            report.stray_tmp_removed += sweep_tmp_files(self.chains_dir)

        chains: dict[str, ChainRecord] = {}
        if self.chains_dir.is_dir():
            for path in sorted(self.chains_dir.glob(f"*{CHAIN_SUFFIX}")):
                try:
                    record = read_chain_record(path)
                except DataError as exc:
                    self._quarantine_file(path, str(exc), report, apply)
                    continue
                chains[record.child] = record
        self._load_entries(report, apply)

        with self._lock:
            self._chains = chains
        report.recovered_chains = len(chains)
        return report

    def _load_entries(self, report: RecoveryReport, apply: bool) -> None:
        """Parse every entry file, in file-name order, onto ``report``."""
        for path in sorted(self.directory.glob(f"*{ENTRY_SUFFIX}")):
            stem = path.name[: -len(ENTRY_SUFFIX)]
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
                report.quarantined_fingerprints.add(fingerprint)
                self._quarantine_file(path, str(exc), report, apply)
                continue
            report.entries.append((fingerprint, condensed, full_bytes))

    def _quarantine_file(
        self, path: Path, reason: str, report: RecoveryReport, apply: bool
    ) -> None:
        """Record a damaged file and, when applying, move it aside.

        Never raises: a file that is bad *and* immovable stays where it
        is, and is simply never loaded.
        """
        report.quarantined.append((path.name, reason))
        logger.warning("quarantining %s: %s", path.name, reason)
        if not apply:
            return
        destination = self.directory / QUARANTINE_DIR / path.name
        try:
            destination.parent.mkdir(parents=True, exist_ok=True)
            path.replace(destination)
        except OSError as exc:
            logger.warning(
                "could not move %s into %s/: %s", path.name, QUARANTINE_DIR, exc
            )

    # ------------------------------------------------------------------
    # entries
    # ------------------------------------------------------------------
    def write_entry(
        self,
        fingerprint: str,
        absolute_support: int,
        condensed: CondensedPatternSet,
        *,
        full_bytes: int | None = None,
    ) -> None:
        """Atomic write of one warehouse entry file (one fsync).

        Fires ``warehouse.write`` first; a no-op unless persisting.
        """
        if not self.persisting:
            return
        if self.faults is not None:
            self.faults.fire(
                WAREHOUSE_WRITE, detail=f"writing {fingerprint[:12]}@{absolute_support}"
            )
        atomic_write_text(
            self.entry_path(fingerprint, absolute_support),
            warehouse_entry_text(condensed, full_bytes=full_bytes),
            faults=self.faults,
            detail=f"entry {fingerprint[:12]}@{absolute_support}",
        )

    def remove_entry(self, fingerprint: str, absolute_support: int) -> None:
        """Durable unlink of one entry file (a drop or an eviction)."""
        if not self.persisting:
            return
        unlink_durably(
            [self.entry_path(fingerprint, absolute_support)], self.directory
        )

    # ------------------------------------------------------------------
    # chain records
    # ------------------------------------------------------------------
    def chain_records(self) -> dict[str, ChainRecord]:
        with self._lock:
            return dict(self._chains)

    def has_chain(self, child: str) -> bool:
        with self._lock:
            return child in self._chains

    def record_link(self, node: VersionedDatabase) -> None:
        """Record ``node``'s hop from its parent as a durable chain record.

        The store's one hop-recording entry point: a no-op unless the
        store is persisting and the hop is new (a re-registered version,
        or an empty delta that leaves the fingerprint unchanged, writes
        nothing).
        """
        if not self.persisting:
            return
        child = node.fingerprint()
        if child == node.parent.fingerprint() or self.has_chain(child):
            return
        self.write_chain(record_from_node(node))

    def drop_chains(self, children: Collection[str]) -> None:
        """Remove chain records, with a durable unlink of their files
        when persisting."""
        with self._lock:
            doomed = sorted(
                child
                for child in set(children)
                if self._chains.pop(child, None) is not None
            )
        if self.persisting and doomed:
            unlink_durably(
                [self.chain_path(child) for child in doomed], self.chains_dir
            )

    def write_chain(self, record: ChainRecord) -> None:
        """Atomic write of one chain record file (a no-op unless
        persisting)."""
        if not self.persisting:
            return
        atomic_write_text(
            self.chain_path(record.child),
            chain_record_text(record),
            faults=self.faults,
            detail=f"chain {record.child[:12]}",
        )
        with self._lock:
            self._chains[record.child] = record

    def restore_version(
        self, db: TransactionDatabase
    ) -> VersionedDatabase | None:
        """Rebuild ``db``'s version chain from recovered records."""
        with self._lock:
            if not self._chains:
                return None
            records = dict(self._chains)
        return restore_version(db, records)

    # ------------------------------------------------------------------
    # garbage collection
    # ------------------------------------------------------------------
    def plan_gc(self, warehoused: Collection[str]) -> GCPlan:
        with self._lock:
            return plan_gc(dict(self._chains), warehoused)

    def gc(
        self, warehoused: Collection[str], *, dry_run: bool = False
    ) -> GCReport:
        """One full GC pass (prune + compaction), applied to the
        registry and, when persisting, to disk: every composed record
        lands before any dropped record is unlinked."""
        plan = self.plan_gc(warehoused)
        report = GCReport(
            dropped_chains=len(plan.dropped),
            collapsed_hops=plan.collapsed_hops,
            rewritten_chains=len(plan.rewrites),
            dry_run=dry_run,
        )
        if dry_run or plan.is_empty:
            return report
        if self.persisting:
            for child, record in sorted(plan.rewrites.items()):
                atomic_write_text(
                    self.chain_path(child),
                    chain_record_text(record),
                    faults=self.faults,
                    detail=f"gc chain {child[:12]}",
                )
        with self._lock:
            self._chains.update(plan.rewrites)
        self.drop_chains(plan.dropped)
        return report

    def footprint_bytes(self) -> int:
        """Total durable footprint: entry and chain files."""
        total = 0
        for path in self.directory.glob(f"*{ENTRY_SUFFIX}"):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        if self.chains_dir.is_dir():
            for path in self.chains_dir.glob(f"*{CHAIN_SUFFIX}"):
                try:
                    total += path.stat().st_size
                except OSError:
                    continue
        return total

"""The durable store: crash-safe files + journal + manifest + recovery.

One :class:`DurableStore` owns everything under a warehouse directory
that must survive a kill, and is the only code that reads or writes it::

    <dir>/
        <fingerprint>-<support>.patterns   warehouse entries (atomic)
        chains/<fingerprint>.chain         chain records (atomic)
        MANIFEST                           lineage links (atomic JSON)
        journal.log                        write-ahead intent log
        quarantine/                        torn/corrupt files, preserved

Write protocol (the crash-safety argument, window by window):

1. ``journal.begin`` — intent is fsynced before anything else moves. A
   kill here leaves old state plus a pending record recovery resolves.
2. the mutation itself — every target file is written via
   :func:`~repro.durability.atomic.atomic_write_text` (temp + fsync +
   ``os.replace``) or is a single ``unlink``. A kill here leaves the
   old file or the new file, never a torn one; the worst residue is a
   stray ``*.tmp``.
3. ``journal.commit`` — a kill here merely leaves a pending record
   whose effect already landed; replay is idempotent.

:meth:`DurableStore.recover` runs before the warehouse trusts the
directory: it reads the journal (tolerating a torn tail line), rolls
pending mutations forward or confirms them rolled back, sweeps stray
temp files, loads the manifest, every chain record and every entry file
(quarantining whatever fails to parse), then compacts the journal.

The store also holds the lineage and chain registries. Without a
directory, or once a write under :meth:`DurableStore.write_through`
failed, it keeps them in memory and writes nothing.
"""

from __future__ import annotations

import json
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
from repro.resilience.faults import PERSIST_MANIFEST, WAREHOUSE_READ, WAREHOUSE_WRITE

from repro.durability.atomic import atomic_write_text, sweep_tmp_files
from repro.durability.chains import (
    CHAIN_SUFFIX,
    ChainRecord,
    chain_record_text,
    read_chain_record,
    restore_version,
)
from repro.durability.gc import GCPlan, GCReport, LineageLink, plan_gc
from repro.durability.journal import (
    OP_CHAIN,
    OP_DROP,
    OP_EVICT,
    OP_GC,
    OP_LINK,
    OP_PUT,
    OP_UNLINK,
    WriteAheadJournal,
)

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.resilience.faults import FaultInjector

logger = logging.getLogger(__name__)

T = TypeVar("T")

#: Warehouse entry files are ``<fingerprint>-<support>`` plus this suffix.
ENTRY_SUFFIX = ".patterns"

#: The atomic lineage manifest's file name inside the store directory.
MANIFEST_NAME = "MANIFEST"

#: The write-ahead journal's file name inside the store directory.
JOURNAL_NAME = "journal.log"

#: Subdirectory holding one ``.chain`` file per durable hop.
CHAINS_DIR = "chains"

#: Subdirectory quarantined files move to (never scanned on load).
QUARANTINE_DIR = "quarantine"

#: Manifest format stamp; bump on incompatible change.
MANIFEST_FORMAT_VERSION = 1

#: Compact the journal once it grows past this many bytes. Mutations are
#: serialized under the warehouse lock, so at any commit boundary there
#: are no in-flight records and truncation loses nothing.
JOURNAL_COMPACT_BYTES = 64 * 1024


@dataclass
class RecoveryReport:
    """What one :meth:`DurableStore.recover` pass found and fixed."""

    journal_replays: int = 0
    torn_journal_lines: int = 0
    stray_tmp_removed: int = 0
    recovered_links: int = 0
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
    """Journaled, crash-safe persistence for one warehouse directory.

    The store is the only reader and writer of entry, chain, manifest
    and journal files, and owns the lineage and chain registries; the
    warehouse calls it under its own lock, so the store adds just enough
    locking to protect the registries and the journal's sequence
    counter. Construction performs no I/O beyond creating the directory
    layout — call :meth:`recover` (the warehouse does, first thing)
    before trusting the registries. ``directory=None`` builds a
    memory-only store: lineage works, nothing is written or chained.
    """

    def __init__(
        self,
        directory: str | Path | None,
        faults: "FaultInjector | None" = None,
    ) -> None:
        self.faults = faults
        self._lock = threading.Lock()
        self._lineage: dict[str, LineageLink] = {}
        self._chains: dict[str, ChainRecord] = {}
        #: Why writing stopped (None while a directory store persists).
        self.memory_only_reason: str | None = None
        self.directory = Path(directory) if directory is not None else None
        if self.directory is None:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        self.chains_dir = self.directory / CHAINS_DIR
        self.chains_dir.mkdir(parents=True, exist_ok=True)
        self.journal = WriteAheadJournal(
            self.directory / JOURNAL_NAME, faults
        )

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

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    # ------------------------------------------------------------------
    # recovery
    # ------------------------------------------------------------------
    def recover(self, *, apply: bool = True) -> RecoveryReport:
        """Resolve in-flight mutations and load the directory.

        A manifest, chain or entry file that fails to parse (or whose
        ``warehouse.read`` fault fires) is quarantined and reported,
        never fatal. ``apply=False`` audits without mutating the
        directory — pending records are counted, stray temp files are
        reported as zero (they are only *swept* when applying), damaged
        files stay in place, and the journal is left as found; the
        loaded registries and entries are identical either way. The
        CLI's read-only inspection uses the audit mode so listing a
        warehouse never rewrites it.
        """
        report = RecoveryReport()
        records, report.torn_journal_lines = self.journal.load()
        committed = {r.seq for r in records if r.phase == "commit"}
        pending = [
            r
            for r in records
            if r.phase == "begin" and r.seq not in committed
        ]

        # Load the manifest before replay so pending lineage ops apply
        # on top of the last durable state.
        lineage, manifest_damage = self._load_manifest()
        if manifest_damage is not None:
            self._quarantine_file(
                self.manifest_path, manifest_damage, report, apply
            )

        lineage_dirty = False
        for record in pending:
            replayed, touched = self._resolve_pending(record, lineage, apply)
            if replayed:
                report.journal_replays += 1
            lineage_dirty = lineage_dirty or touched

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
            self._lineage = lineage
            self._chains = chains
        report.recovered_links = len(lineage)
        report.recovered_chains = len(chains)

        if apply:
            if lineage_dirty:
                self._write_manifest()
            if pending or report.torn_journal_lines:
                self.journal.compact()
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

    def _resolve_pending(
        self, record, lineage: dict[str, LineageLink], apply: bool
    ) -> tuple[bool, bool]:
        """Roll one pending mutation forward; (replayed, lineage_touched)."""
        payload = record.payload
        if record.op in (OP_PUT, OP_CHAIN):
            # The target write is itself atomic: if the file exists the
            # mutation landed (only uncommitted), else it rolled back.
            # Either state is consistent; nothing to roll forward.
            return False, False
        if record.op in (OP_DROP, OP_EVICT):
            name = payload.get("file", "")
            target = self.directory / name if name else None
            if target is not None and target.exists():
                if apply:
                    target.unlink()
                return True, False
            return False, False
        if record.op == OP_LINK:
            child = payload.get("child")
            if not isinstance(child, str):
                return False, False
            link = (
                payload.get("parent"),
                payload.get("delta"),
                int(payload.get("distance", 0)),
            )
            if lineage.get(child) == link:
                return False, False
            lineage[child] = link
            return True, True
        if record.op == OP_UNLINK:
            children = payload.get("children", [])
            touched = False
            for child in children:
                if child in lineage:
                    del lineage[child]
                    touched = True
                target = self.chain_path(str(child))
                if target.exists():
                    if apply:
                        target.unlink()
                    touched = True
            return touched, touched
        if record.op == OP_GC:
            touched = False
            for child in payload.get("drop", []):
                if child in lineage:
                    del lineage[child]
                    touched = True
                target = self.chain_path(str(child))
                if target.exists() and apply:
                    target.unlink()
            for child, link in payload.get("rewrite", {}).items():
                new_link = (link[0], link[1], int(link[2]))
                if lineage.get(child) != new_link:
                    lineage[child] = new_link
                    touched = True
            return touched, touched
        return False, False

    def _load_manifest(
        self,
    ) -> tuple[dict[str, LineageLink], str | None]:
        """(lineage, damage-reason). Damage yields an empty registry."""
        try:
            text = self.manifest_path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return {}, None
        except OSError as exc:
            return {}, f"cannot read manifest: {exc}"
        try:
            data = json.loads(text)
            if not isinstance(data, dict):
                raise TypeError(f"top level is {type(data).__name__}, not an object")
            if data.get("format") != MANIFEST_FORMAT_VERSION:
                return {}, f"unsupported manifest format {data.get('format')!r}"
            links = data["lineage"]
            if not isinstance(links, dict):
                raise TypeError(f"lineage is {type(links).__name__}, not an object")
            lineage: dict[str, LineageLink] = {}
            for child, link in links.items():
                parent, delta_fp, distance = link
                if not isinstance(child, str) or not isinstance(parent, str):
                    raise ValueError("non-string fingerprint")
                lineage[child] = (parent, delta_fp, int(distance))
            return lineage, None
        except (ValueError, KeyError, TypeError) as exc:
            return {}, f"malformed manifest: {exc}"

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
        """Journaled, atomic write of one warehouse entry file.

        Fires ``warehouse.write`` first; a no-op unless persisting.
        """
        if not self.persisting:
            return
        if self.faults is not None:
            self.faults.fire(
                WAREHOUSE_WRITE, detail=f"writing {fingerprint[:12]}@{absolute_support}"
            )
        path = self.entry_path(fingerprint, absolute_support)
        seq = self.journal.begin(OP_PUT, {"file": path.name})
        atomic_write_text(
            path,
            warehouse_entry_text(condensed, full_bytes=full_bytes),
            faults=self.faults,
            detail=f"entry {fingerprint[:12]}@{absolute_support}",
        )
        self.journal.commit(seq, OP_PUT)
        self._maybe_compact()

    def remove_entry(
        self, fingerprint: str, absolute_support: int, *, op: str = OP_DROP
    ) -> None:
        """Journaled unlink of one entry file (``op`` is drop or evict)."""
        if not self.persisting:
            return
        path = self.entry_path(fingerprint, absolute_support)
        seq = self.journal.begin(op, {"file": path.name})
        try:
            path.unlink()
        except FileNotFoundError:
            pass
        self.journal.commit(seq, op)
        self._maybe_compact()

    # ------------------------------------------------------------------
    # lineage + chains
    # ------------------------------------------------------------------
    def lineage_links(self) -> dict[str, LineageLink]:
        with self._lock:
            return dict(self._lineage)

    def lineage_of(self, fingerprint: str) -> tuple[tuple[str, int], ...]:
        """``(ancestor, cumulative distance)`` pairs up the registry, self first."""
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

    def chain_records(self) -> dict[str, ChainRecord]:
        with self._lock:
            return dict(self._chains)

    def has_chain(self, child: str) -> bool:
        with self._lock:
            return child in self._chains

    def record_link(
        self,
        child: str,
        parent: str,
        delta_fingerprint: str | None,
        distance: int,
    ) -> None:
        """Register a lineage link; journaled + manifest rewrite when
        persisting (idempotent)."""
        link = (parent, delta_fingerprint, distance)
        with self._lock:
            if self._lineage.get(child) == link:
                return
            self._lineage[child] = link
        if not self.persisting:
            return
        seq = self.journal.begin(
            OP_LINK,
            {
                "child": child,
                "parent": parent,
                "delta": delta_fingerprint,
                "distance": distance,
            },
        )
        self._write_manifest()
        self.journal.commit(seq, OP_LINK)
        self._maybe_compact()

    def drop_links(self, children: Collection[str]) -> int:
        """Remove links + chain records (journaled, with their files,
        when persisting); returns links dropped."""
        with self._lock:
            doomed = [c for c in children if c in self._lineage]
            doomed_chains = [c for c in children if c in self._chains]
            for child in doomed:
                del self._lineage[child]
            for child in doomed_chains:
                del self._chains[child]
        if not self.persisting or not (doomed or doomed_chains):
            return len(doomed)
        seq = self.journal.begin(
            OP_UNLINK, {"children": sorted(set(doomed) | set(doomed_chains))}
        )
        for child in doomed_chains:
            try:
                self.chain_path(child).unlink()
            except FileNotFoundError:
                pass
        self._write_manifest()
        self.journal.commit(seq, OP_UNLINK)
        self._maybe_compact()
        return len(doomed)

    def write_chain(self, record: ChainRecord) -> None:
        """Journaled, atomic write of one chain record file (a no-op
        unless persisting)."""
        if not self.persisting:
            return
        with self._lock:
            if self._chains.get(record.child) == record:
                return
        seq = self.journal.begin(OP_CHAIN, {"child": record.child})
        atomic_write_text(
            self.chain_path(record.child),
            chain_record_text(record),
            faults=self.faults,
            detail=f"chain {record.child[:12]}",
        )
        with self._lock:
            self._chains[record.child] = record
        self.journal.commit(seq, OP_CHAIN)
        self._maybe_compact()

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
            return plan_gc(dict(self._lineage), dict(self._chains), warehoused)

    def gc(
        self, warehoused: Collection[str], *, dry_run: bool = False
    ) -> GCReport:
        """One full GC pass (prune + compaction), applied to the
        registries and, when persisting, journaled onto disk."""
        plan = self.plan_gc(warehoused)
        if dry_run or plan.is_empty:
            return GCReport(
                dropped_links=len(plan.dropped_links),
                collapsed_hops=plan.collapsed_hops,
                rewritten_chains=len(plan.record_rewrites),
                dropped_chain_files=sum(
                    1
                    for child in plan.dropped_links
                    if self.has_chain(child)
                ),
                dry_run=dry_run,
            )
        dropped_files = 0
        if self.persisting:
            seq = self.journal.begin(
                OP_GC,
                {
                    "drop": sorted(plan.dropped_links),
                    "rewrite": {
                        child: [link[0], link[1], link[2]]
                        for child, link in sorted(plan.link_rewrites.items())
                    },
                },
            )
            for child, record in sorted(plan.record_rewrites.items()):
                atomic_write_text(
                    self.chain_path(child),
                    chain_record_text(record),
                    faults=self.faults,
                    detail=f"gc chain {child[:12]}",
                )
            for child in plan.dropped_links:
                target = self.chain_path(child)
                if target.exists():
                    target.unlink()
                    dropped_files += 1
        with self._lock:
            for child in plan.dropped_links:
                self._lineage.pop(child, None)
                self._chains.pop(child, None)
            for child, link in plan.link_rewrites.items():
                self._lineage[child] = link
            for child, record in plan.record_rewrites.items():
                self._chains[child] = record
        if self.persisting:
            self._write_manifest()
            self.journal.commit(seq, OP_GC)
            self._maybe_compact()
        return GCReport(
            dropped_links=len(plan.dropped_links),
            collapsed_hops=plan.collapsed_hops,
            rewritten_chains=len(plan.record_rewrites),
            dropped_chain_files=dropped_files,
            dry_run=False,
        )

    def _maybe_compact(self) -> None:
        """Best-effort journal truncation past the size bound.

        Housekeeping only — the committed mutation already landed, so a
        failure (real or injected) here must not fail the caller; it
        just leaves a longer journal for the next recovery to compact.
        """
        if self.journal.size_bytes() <= JOURNAL_COMPACT_BYTES:
            return
        try:
            self.journal.compact()
        except (OSError, InjectedFaultError):
            pass

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _write_manifest(self) -> None:
        with self._lock:
            lineage = {
                child: [link[0], link[1], link[2]]
                for child, link in sorted(self._lineage.items())
            }
        text = json.dumps(
            {"format": MANIFEST_FORMAT_VERSION, "lineage": lineage},
            sort_keys=True,
            indent=0,
        )
        atomic_write_text(
            self.manifest_path,
            text + "\n",
            faults=self.faults,
            write_point=PERSIST_MANIFEST,
            detail="manifest",
        )

    def footprint_bytes(self) -> int:
        """Total durable footprint: entries + chains + manifest + journal."""
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
        for path in (self.manifest_path, self.journal.path):
            try:
                total += path.stat().st_size
            except OSError:
                continue
        return total

"""Write-ahead journal for warehouse and chain mutations.

Every durable mutation — entry put/drop/evict, chain-file writes and
unlinks, garbage collection — is bracketed by two journal
lines: a ``begin`` record carrying the operation's full intent, appended
and fsynced *before* any target file is touched, and a ``commit`` record
appended after the mutation's atomic rename lands. Recovery therefore
sees exactly three possible states per mutation and resolves each one:

* begin + commit — the mutation landed; nothing to do.
* begin only — the process died mid-mutation. The begin record carries
  enough intent to roll the mutation forward (deletions) or to decide
  from the target file whether it landed (entry and chain
  writes are themselves atomic, so the file is either old or new).
* a torn final line — the process died mid-append. Per-line checksums
  make the tear detectable; the line is dropped and counted, exactly
  like a corrupt pattern file quarantines today.

The journal is an append-only text file, one record per line::

    <seq>\\t<phase>\\t<op>\\t<payload-json>\\t<sha256>

``sha256`` covers the first four fields, so any truncation or bit rot
inside a line is caught. JSON escapes control characters, so the
payload never contains a literal tab or newline. After a successful
recovery — and periodically after commits — the journal is *compacted*
(atomically replaced by an empty file) so its on-disk footprint stays
bounded by the handful of in-flight mutations, not by history.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import InjectedFaultError
from repro.resilience.faults import PERSIST_WRITE

from repro.durability.atomic import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.resilience.faults import FaultInjector

#: Format stamp for the journal line layout; bump on incompatible change.
JOURNAL_FORMAT_VERSION = 1

#: The two phases bracketing every journaled mutation.
PHASE_BEGIN = "begin"
PHASE_COMMIT = "commit"

#: Journaled operation names (the warehouse's durable mutation alphabet).
OP_PUT = "put"
OP_DROP = "drop"
OP_EVICT = "evict"
#: Retired: lineage links of an older layout. Still parsed, so a journal
#: that holds one loads without a torn line; recovery ignores it.
OP_LINK = "link"
OP_UNLINK = "unlink"
OP_CHAIN = "chain"
OP_GC = "gc"

#: Every op a journal line may carry.
JOURNAL_OPS = frozenset(
    {OP_PUT, OP_DROP, OP_EVICT, OP_LINK, OP_UNLINK, OP_CHAIN, OP_GC}
)


@dataclass(frozen=True)
class JournalRecord:
    """One parsed journal line."""

    seq: int
    phase: str
    op: str
    payload: dict


def _line_checksum(seq: int, phase: str, op: str, payload_json: str) -> str:
    head = f"{seq}\t{phase}\t{op}\t{payload_json}"
    return hashlib.sha256(head.encode("utf-8")).hexdigest()


def format_record(seq: int, phase: str, op: str, payload: dict) -> str:
    """Render one journal line (with trailing newline)."""
    payload_json = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    checksum = _line_checksum(seq, phase, op, payload_json)
    return f"{seq}\t{phase}\t{op}\t{payload_json}\t{checksum}\n"


def parse_record(line: str) -> JournalRecord | None:
    """Parse one journal line; ``None`` if torn, truncated or corrupt."""
    stripped = line.rstrip("\n")
    parts = stripped.split("\t")
    if len(parts) != 5:
        return None
    seq_text, phase, op, payload_json, checksum = parts
    if _line_checksum_safe(seq_text, phase, op, payload_json) != checksum:
        return None
    if phase not in (PHASE_BEGIN, PHASE_COMMIT) or op not in JOURNAL_OPS:
        return None
    try:
        seq = int(seq_text)
        payload = json.loads(payload_json)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    return JournalRecord(seq=seq, phase=phase, op=op, payload=payload)


def _line_checksum_safe(
    seq_text: str, phase: str, op: str, payload_json: str
) -> str:
    head = f"{seq_text}\t{phase}\t{op}\t{payload_json}"
    return hashlib.sha256(head.encode("utf-8")).hexdigest()


class WriteAheadJournal:
    """Append-only, checksummed intent log with atomic compaction.

    Appends are fsynced so a ``begin`` is durable before its mutation
    starts. The :data:`~repro.resilience.faults.PERSIST_WRITE` fault
    point guards each append; when it fires, *half the line* reaches
    disk first, so the chaos harness produces genuinely torn tails for
    recovery to tolerate.
    """

    def __init__(
        self, path: str | Path, faults: "FaultInjector | None" = None
    ) -> None:
        self.path = Path(path)
        self._faults = faults
        self._lock = threading.Lock()
        records, _ = self.load()
        self._next_seq = max((r.seq for r in records), default=0) + 1

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def load(self) -> tuple[list[JournalRecord], int]:
        """All intact records plus the count of torn/corrupt lines."""
        try:
            text = self.path.read_text(encoding="utf-8")
        except FileNotFoundError:
            return [], 0
        records: list[JournalRecord] = []
        torn = 0
        for line in text.splitlines():
            if not line:
                continue
            record = parse_record(line)
            if record is None:
                torn += 1
                continue
            records.append(record)
        return records, torn

    def pending(self) -> list[JournalRecord]:
        """Begin records with no matching commit, in append order."""
        records, _ = self.load()
        committed = {r.seq for r in records if r.phase == PHASE_COMMIT}
        return [
            r
            for r in records
            if r.phase == PHASE_BEGIN and r.seq not in committed
        ]

    def size_bytes(self) -> int:
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def begin(self, op: str, payload: dict) -> int:
        """Durably record intent; returns the sequence number to commit."""
        with self._lock:
            seq = self._next_seq
            self._next_seq += 1
        self._append(format_record(seq, PHASE_BEGIN, op, payload))
        return seq

    def commit(self, seq: int, op: str) -> None:
        """Durably record that mutation ``seq`` landed."""
        self._append(format_record(seq, PHASE_COMMIT, op, {}))

    def _append(self, line: str) -> None:
        with self._lock:
            with self.path.open("a", encoding="utf-8") as handle:
                if self._faults is not None:
                    fired = self._faults.evaluate(PERSIST_WRITE)
                    if fired is not None:
                        handle.write(line[: len(line) // 2])
                        handle.flush()
                        os.fsync(handle.fileno())
                        raise InjectedFaultError(
                            f"{PERSIST_WRITE}: injected fault on call "
                            f"{fired.call} journal append"
                        )
                handle.write(line)
                handle.flush()
                os.fsync(handle.fileno())

    def compact(self) -> None:
        """Atomically truncate the journal (all mutations resolved)."""
        with self._lock:
            if not self.path.exists():
                return
            atomic_write_text(
                self.path, "", faults=self._faults, detail="journal compact"
            )
            self._next_seq = 1

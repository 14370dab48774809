"""Durable chain records: the on-disk form of a version-chain hop.

A :class:`~repro.data.versioned.VersionedDatabase` chain is pure memory;
this module gives each hop (parent → child) a checksummed file so a
restarted service can rebuild the chain — and with it the planner's
*update* path — fingerprint-identical to the pre-crash state.

A :class:`ChainRecord` stores the hop *with its tids*: appended rows as
``(tid, items)`` and deleted rows as ``(tid, items)``. That is strictly
more than a :class:`~repro.data.versioned.DatabaseDelta` (which has only
append contents and delete tids) and it is exactly what makes recovery
exact in both directions:

* **forward** — :func:`apply_record` rebuilds the child from the parent
  using the recorded append tids, not freshly assigned ones;
* **backward** — :func:`invert_record` rebuilds the parent from the
  child by removing the appended tids and re-inserting the deleted rows.
  Chain tid discipline (tids strictly ascending in row order, never
  reused) means a tid-ascending merge reproduces the parent's exact row
  order, so ``parent.fingerprint()`` comes back identical.

Records compose (:func:`compose_records`), which is what chain
compaction collapses ancient hops with: the composed record spans
grandparent → child in one hop and still inverts exactly.

File format (``chains/<child-fingerprint>.chain``), in the spirit of the
pattern-file headers::

    # chain_format=1
    # child=<fingerprint>
    # parent=<fingerprint>
    # delta=<delta-fingerprint>
    # version=<child chain position>
    # next_tid=<child's next fresh tid>
    # sha256=<hex over the body lines>
    +<tid> <item> <item> ...      (appended rows, tid-ascending)
    -<tid> <item> <item> ...      (deleted rows, tid-ascending)

Any malformed header, checksum mismatch or inconsistent body raises
:class:`~repro.errors.DataError`, and the store quarantines the file
exactly like a corrupt pattern file.
"""

from __future__ import annotations

import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.errors import DataError

#: Format stamp; readers reject files from a future format.
CHAIN_FORMAT_VERSION = 1

#: File suffix for chain records inside the store's ``chains/`` dir.
CHAIN_SUFFIX = ".chain"

FORMAT_HEADER_PREFIX = "# chain_format="
CHILD_HEADER_PREFIX = "# child="
PARENT_HEADER_PREFIX = "# parent="
DELTA_HEADER_PREFIX = "# delta="
VERSION_HEADER_PREFIX = "# version="
NEXT_TID_HEADER_PREFIX = "# next_tid="
CHECKSUM_HEADER_PREFIX = "# sha256="


@dataclass(frozen=True)
class ChainRecord:
    """One durable hop of a version chain, tids included.

    ``appends`` and ``deletes`` are ``(tid, items)`` rows sorted by tid;
    ``next_tid`` is the child's fresh-tid high-water mark (what
    :meth:`VersionedDatabase.apply` would hand the next delta).
    """

    child: str
    parent: str
    version: int
    next_tid: int
    appends: tuple[tuple[int, tuple[int, ...]], ...]
    deletes: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def size(self) -> int:
        """Rows touched — same delta-distance unit the planner uses."""
        return len(self.appends) + len(self.deletes)

    def delta(self) -> DatabaseDelta:
        """The forward :class:`DatabaseDelta` this hop applied."""
        return DatabaseDelta(
            appends=tuple(items for _, items in self.appends),
            deletes=frozenset(tid for tid, _ in self.deletes),
        )

    def delta_fingerprint(self) -> str:
        return self.delta().delta_fingerprint()


def record_from_node(node: VersionedDatabase) -> ChainRecord:
    """The :class:`ChainRecord` for ``node``'s hop from its parent.

    Exact by tid discipline: a tid in the child but not the parent was
    appended by this hop; one in the parent but not the child was
    deleted by it.
    """
    parent = node.parent
    if parent is None:
        raise DataError("chain root has no parent hop to record")
    child_rows = dict(zip(node.db.tids, node.db.transactions))
    parent_rows = dict(zip(parent.db.tids, parent.db.transactions))
    appends = tuple(
        (tid, tx)
        for tid, tx in sorted(child_rows.items())
        if tid not in parent_rows
    )
    deletes = tuple(
        (tid, tx)
        for tid, tx in sorted(parent_rows.items())
        if tid not in child_rows
    )
    return ChainRecord(
        child=node.fingerprint(),
        parent=parent.fingerprint(),
        version=node.version,
        next_tid=node.next_tid,
        appends=appends,
        deletes=deletes,
    )


# ----------------------------------------------------------------------
# forward / backward application
# ----------------------------------------------------------------------
def apply_record(
    parent_db: TransactionDatabase, record: ChainRecord
) -> TransactionDatabase:
    """The child database, rebuilt with the record's exact tids."""
    delete_tids = {tid for tid, _ in record.deletes}
    rows = [
        (tid, tx)
        for tid, tx in zip(parent_db.tids, parent_db.transactions)
        if tid not in delete_tids
    ]
    rows.extend(record.appends)
    rows.sort(key=lambda row: row[0])
    return TransactionDatabase(
        [tx for _, tx in rows], tids=[tid for tid, _ in rows]
    )


def invert_record(
    child_db: TransactionDatabase, record: ChainRecord
) -> TransactionDatabase:
    """The parent database, rebuilt exactly from the child.

    Raises :class:`DataError` when the record does not match the child
    (an appended tid missing, or carrying different content) — the
    store treats that as a stale record and stops the restore walk
    there rather than fabricating a wrong ancestor.
    """
    child_rows = dict(zip(child_db.tids, child_db.transactions))
    for tid, tx in record.appends:
        if child_rows.get(tid) != tx:
            raise DataError(
                f"chain record for {record.child[:12]} appends tid {tid} "
                "absent from (or different in) the child database"
            )
    append_tids = {tid for tid, _ in record.appends}
    rows = [
        (tid, tx)
        for tid, tx in zip(child_db.tids, child_db.transactions)
        if tid not in append_tids
    ]
    rows.extend(record.deletes)
    rows.sort(key=lambda row: row[0])
    return TransactionDatabase(
        [tx for _, tx in rows], tids=[tid for tid, _ in rows]
    )


def compose_records(late: ChainRecord, early: ChainRecord) -> ChainRecord:
    """One record spanning both hops (``early`` then ``late``).

    ``early`` takes A → B and ``late`` takes B → C; the result takes
    A → C. A row appended by ``early`` and deleted again by ``late``
    cancels out; a row deleted by ``late`` that already existed in A
    becomes a composed delete. This is the delta composition
    ``DB - db- ∪ db+`` applied to tid-stamped rows, so the composed
    record still inverts exactly.
    """
    if early.child != late.parent:
        raise DataError(
            f"cannot compose chain records: {early.child[:12]} != "
            f"{late.parent[:12]}"
        )
    late_delete_tids = {tid for tid, _ in late.deletes}
    early_append_tids = {tid for tid, _ in early.appends}
    appends = tuple(
        sorted(
            [row for row in early.appends if row[0] not in late_delete_tids]
            + list(late.appends)
        )
    )
    deletes = tuple(
        sorted(
            list(early.deletes)
            + [row for row in late.deletes if row[0] not in early_append_tids]
        )
    )
    return ChainRecord(
        child=late.child,
        parent=early.parent,
        version=late.version,
        next_tid=late.next_tid,
        appends=appends,
        deletes=deletes,
    )


# ----------------------------------------------------------------------
# chain restore
# ----------------------------------------------------------------------
def restore_version(
    db: TransactionDatabase, records: Mapping[str, ChainRecord]
) -> VersionedDatabase | None:
    """Rebuild ``db``'s version chain from durable records.

    Walks child → parent from ``db``'s fingerprint as deep as intact,
    consistent records reach (a stale or mismatching record ends the
    walk; shallower hops are still restored). Returns ``None`` when no
    hop applies — the caller falls back to the unversioned paths.

    Every reconstructed ancestor is fingerprint-checked against its
    record before use, so a restored chain is exactly as trustworthy as
    one that never left memory.
    """
    hops: list[tuple[ChainRecord, TransactionDatabase]] = []
    current = db
    fingerprint = db.fingerprint()
    seen = {fingerprint}
    while True:
        record = records.get(fingerprint)
        if record is None or record.parent in seen:
            break
        try:
            parent_db = invert_record(current, record)
        except DataError:
            break
        if parent_db.fingerprint() != record.parent:
            break
        hops.append((record, current))
        current = parent_db
        fingerprint = record.parent
        seen.add(fingerprint)
    if not hops:
        return None
    deepest, _ = hops[-1]
    node = VersionedDatabase(
        current,
        version=deepest.version - 1,
        next_tid=deepest.next_tid - len(deepest.appends),
    )
    for record, child_db in reversed(hops):
        node = VersionedDatabase(
            child_db,
            version=record.version,
            parent=node,
            delta=record.delta(),
            next_tid=record.next_tid,
        )
    return node


# ----------------------------------------------------------------------
# file format
# ----------------------------------------------------------------------
def _record_body(record: ChainRecord) -> str:
    buffer = io.StringIO()
    for tid, tx in record.appends:
        buffer.write(f"+{tid}")
        for item in tx:
            buffer.write(f" {item}")
        buffer.write("\n")
    for tid, tx in record.deletes:
        buffer.write(f"-{tid}")
        for item in tx:
            buffer.write(f" {item}")
        buffer.write("\n")
    return buffer.getvalue()


def _body_checksum(body: str) -> str:
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def chain_record_text(record: ChainRecord) -> str:
    """The full chain-file text (headers + tid-stamped rows)."""
    body = _record_body(record)
    headers = [
        f"{FORMAT_HEADER_PREFIX}{CHAIN_FORMAT_VERSION}",
        f"{CHILD_HEADER_PREFIX}{record.child}",
        f"{PARENT_HEADER_PREFIX}{record.parent}",
        f"{DELTA_HEADER_PREFIX}{record.delta_fingerprint()}",
        f"{VERSION_HEADER_PREFIX}{record.version}",
        f"{NEXT_TID_HEADER_PREFIX}{record.next_tid}",
        f"{CHECKSUM_HEADER_PREFIX}{_body_checksum(body)}",
    ]
    return "".join(f"{line}\n" for line in headers) + body


def read_chain_record(path: str | Path) -> ChainRecord:
    """Load and verify one chain file; :class:`DataError` on any damage."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read chain file {path}: {exc}") from exc
    lines = text.splitlines(keepends=True)

    def header(index: int, prefix: str) -> str:
        if index >= len(lines) or not lines[index].startswith(prefix):
            raise DataError(f"{path}: missing {prefix.strip('# =')} header")
        return lines[index][len(prefix):].strip()

    try:
        fmt = int(header(0, FORMAT_HEADER_PREFIX))
    except ValueError as exc:
        raise DataError(f"{path}: malformed chain_format header") from exc
    if fmt != CHAIN_FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported chain format {fmt} "
            f"(expected {CHAIN_FORMAT_VERSION})"
        )
    child = header(1, CHILD_HEADER_PREFIX)
    parent = header(2, PARENT_HEADER_PREFIX)
    delta_fp = header(3, DELTA_HEADER_PREFIX)
    try:
        version = int(header(4, VERSION_HEADER_PREFIX))
        next_tid = int(header(5, NEXT_TID_HEADER_PREFIX))
    except ValueError as exc:
        raise DataError(f"{path}: malformed integer header") from exc
    checksum = header(6, CHECKSUM_HEADER_PREFIX)
    body = "".join(lines[7:])
    actual = _body_checksum(body)
    if actual != checksum:
        raise DataError(
            f"{path}: body checksum mismatch (expected {checksum}, got "
            f"{actual}) — the file is corrupt or truncated"
        )

    appends: list[tuple[int, tuple[int, ...]]] = []
    deletes: list[tuple[int, tuple[int, ...]]] = []
    for line_no, line in enumerate(body.splitlines(), start=8):
        stripped = line.strip()
        if not stripped:
            continue
        sign, rest = stripped[0], stripped[1:]
        if sign not in "+-":
            raise DataError(f"{path}: line {line_no}: bad row sign {sign!r}")
        try:
            tokens = rest.split()
            tid = int(tokens[0])
            items = tuple(int(tok) for tok in tokens[1:])
        except (IndexError, ValueError) as exc:
            raise DataError(
                f"{path}: line {line_no}: malformed row {stripped!r}"
            ) from exc
        (appends if sign == "+" else deletes).append((tid, items))

    record = ChainRecord(
        child=child,
        parent=parent,
        version=version,
        next_tid=next_tid,
        appends=tuple(appends),
        deletes=tuple(deletes),
    )
    if record.delta_fingerprint() != delta_fp:
        raise DataError(
            f"{path}: delta fingerprint mismatch — rows do not match the "
            "recorded delta"
        )
    return record

"""Versioned database chains: deltas, lineage and fingerprint links.

The paper's Section 2 extended problem statement covers recycling when
*the database itself changes*. This module gives that scenario an
identity model: a tenant database is not a single fingerprint but a
**chain of versions**, each linked to its parent by the delta that
produced it.

:class:`DatabaseDelta` is a batch of appended transactions plus a batch
of deleted transaction ids, normalized and content-addressed.
:class:`VersionedDatabase` wraps a :class:`TransactionDatabase` with its
position in the chain — ``fingerprint`` (the content hash of this
version), ``parent`` (the version it was derived from) and
``delta_fingerprint`` (the change between them).

Two invariants make the chain usable as a cache-key lineage:

* **Tids are stable and never reused.** Applying a delta preserves the
  tids of surviving transactions and assigns appended transactions fresh
  tids past the chain-wide maximum, so a tid means the same tuple in
  every version that contains it.
* **Append-only growth is fingerprint-compatible with direct
  construction.** A fresh database uses tids ``0..n-1``; appending ``m``
  transactions yields tids ``0..n+m-1`` — exactly what building the
  grown database directly would produce, so the two share a fingerprint
  and warehouse entries transfer.
"""

from __future__ import annotations

import hashlib
import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

from repro.data.encoded import EncodedDatabase, kept_positions, kept_runs
from repro.data.transactions import (
    TransactionDatabase,
    fingerprint_lines,
    normalize_row,
)
from repro.errors import DataError


@dataclass(frozen=True)
class DatabaseDelta:
    """One batch of changes: transactions to append, tids to delete.

    ``appends`` is normalized like :class:`TransactionDatabase`
    transactions (sorted tuples of distinct non-negative ints);
    ``deletes`` is a frozenset of transaction ids. A delta may carry
    both — deletions are applied first, then appends, matching the
    paper's ``DB - db- ∪ db+`` composition.
    """

    appends: tuple[tuple[int, ...], ...] = ()
    deletes: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "appends",
            tuple(normalize_row(raw, "appended transaction") for raw in self.appends),
        )
        try:
            doomed = frozenset(self.deletes)
        except TypeError:
            doomed = None
        if doomed is None or any(type(t) is not int or t < 0 for t in doomed):
            raise DataError(f"deleted tids must be non-negative ints: {self.deletes!r}")
        object.__setattr__(self, "deletes", doomed)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def append(cls, transactions: Iterable[Iterable[int]]) -> "DatabaseDelta":
        """An insert-only delta."""
        return cls(appends=tuple(transactions))

    @classmethod
    def delete(cls, tids: Iterable[int]) -> "DatabaseDelta":
        """A delete-only delta (by transaction id)."""
        return cls(deletes=tids)

    # ------------------------------------------------------------------
    # properties
    # ------------------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        return not self.appends and not self.deletes

    @property
    def is_insert_only(self) -> bool:
        """True when FUP-style patching is even a candidate."""
        return not self.deletes

    @property
    def size(self) -> int:
        """Rows touched — the delta-distance unit used by the planner."""
        return len(self.appends) + len(self.deletes)

    def delta_fingerprint(self) -> str:
        """A stable content hash of the change itself."""
        digest = hashlib.sha256()
        for tx in self.appends:
            digest.update(b"+")
            digest.update(" ".join(map(str, tx)).encode("ascii"))
            digest.update(b"\n")
        for tid in sorted(self.deletes):
            digest.update(b"-")
            digest.update(str(tid).encode("ascii"))
            digest.update(b"\n")
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # application
    # ------------------------------------------------------------------
    def apply(
        self, db: TransactionDatabase, next_tid: int | None = None
    ) -> TransactionDatabase:
        """The database after this delta: deletions first, then appends.

        Surviving transactions keep their tids; appended transactions get
        fresh consecutive tids starting at ``next_tid`` (default: one
        past the largest current tid). Deleting an unknown tid is a
        :class:`DataError` — silently ignoring it would desynchronize the
        fingerprint chain from the caller's view of the data — and so is
        a ``next_tid`` that is not an int above every current tid.

        The child is built from the parent's state, not from scratch: kept
        rows are not normalized again, its item supports are the parent's
        patched by the delta's counts, it reuses the parent's fingerprint
        line for every kept row, and when the parent is encoded (or could
        itself derive its encoding) the child derives its encoding from
        that one on first use.
        """
        tids = db.tids
        highest = max(tids, default=-1)
        if next_tid is None:
            next_tid = highest + 1
        elif type(next_tid) is not int or next_tid <= highest:
            raise DataError(
                f"next_tid must be an int above the largest tid {highest}, "
                f"got {next_tid!r}"
            )
        # Tids are unique, so one position per deleted tid is found.
        doomed = self.deletes
        dropped = []
        if doomed:
            dropped = [pos for pos, tid in enumerate(tids) if tid in doomed]
        if len(dropped) != len(doomed):
            unknown = doomed.difference(tids[pos] for pos in dropped)
            raise DataError(f"delta deletes unknown tids {sorted(unknown)[:10]}")
        rows, lines = db.transactions, db._kept_lines()
        supports = Counter(db.item_supports())
        if dropped:
            for pos in dropped:
                supports.subtract(rows[pos])
            supports = +supports
            keep = [slice(*run) for run in kept_runs(dropped, len(rows))]
            rows, tids, lines = (
                tuple(itertools.chain.from_iterable(seq[part] for part in keep))
                for seq in (rows, tids, lines)
            )
        for tx in self.appends:
            supports.update(tx)
        append_tids = tuple(range(next_tid, next_tid + len(self.appends)))
        return TransactionDatabase._trusted(
            rows + self.appends,
            tids + append_tids,
            supports=supports,
            lines=[*lines, *fingerprint_lines(append_tids, self.appends)],
            derive_from=_encoding_link(db, dropped),
        )


def _encoding_link(
    db: TransactionDatabase, dropped: list[int]
) -> "tuple[EncodedDatabase, list[int]] | None":
    """What a child of ``db`` that drops ``dropped`` needs to derive its
    encoding: the encoding of ``db`` or of the ancestor ``db`` would
    derive from, plus the sorted positions of that ancestor the child
    drops. None when neither is encoded.
    """
    if db._encoded is not None:
        return db._encoded, dropped
    link = db._derive_from
    if link is None:
        return None
    # db has not used its own link: compose the two hops. Positions of
    # db below ``kept`` are the ancestor's surviving rows, in order; the
    # rest are appended relative to the ancestor and stay appended.
    base, base_dropped = link
    survivors = kept_positions(base_dropped, len(base))
    kept = len(survivors)
    return base, sorted([*base_dropped, *(survivors[p] for p in dropped if p < kept)])


class VersionedDatabase:
    """A database plus its position in a fingerprint chain.

    Versions form a singly-linked chain back to the initial load; each
    link carries the :class:`DatabaseDelta` that produced it, so any
    descendant can reconstruct the exact change relative to any chain
    ancestor (:meth:`delta_from`) — the quantity the planner's update
    path patches from.
    """

    def __init__(
        self,
        db: TransactionDatabase,
        *,
        version: int = 0,
        parent: "VersionedDatabase | None" = None,
        delta: DatabaseDelta | None = None,
        next_tid: int | None = None,
    ) -> None:
        self._db = db
        self._version = version
        self._parent = parent
        self._delta = delta
        if next_tid is None:
            next_tid = (max(db.tids) + 1) if db.tids else 0
        self._next_tid = next_tid

    @classmethod
    def initial(cls, db: TransactionDatabase) -> "VersionedDatabase":
        """Version 0 of a chain: no parent, no delta."""
        return cls(db)

    # ------------------------------------------------------------------
    # chain identity
    # ------------------------------------------------------------------
    @property
    def db(self) -> TransactionDatabase:
        return self._db

    @property
    def version(self) -> int:
        return self._version

    @property
    def parent(self) -> "VersionedDatabase | None":
        return self._parent

    @property
    def delta(self) -> DatabaseDelta | None:
        """The delta that produced this version (None at the root)."""
        return self._delta

    @property
    def next_tid(self) -> int:
        """The chain-wide fresh-tid high-water mark at this version.

        What :meth:`apply` hands the next delta; durable chain records
        carry it so a restored chain keeps assigning tids exactly where
        the pre-crash chain would have.
        """
        return self._next_tid

    def fingerprint(self) -> str:
        """This version's content hash (same key the warehouse uses)."""
        return self._db.fingerprint()

    @property
    def delta_fingerprint(self) -> str | None:
        return self._delta.delta_fingerprint() if self._delta is not None else None

    def __repr__(self) -> str:
        return (
            f"VersionedDatabase(version={self._version}, n={len(self._db)}, "
            f"fingerprint={self.fingerprint()[:12]})"
        )

    # ------------------------------------------------------------------
    # evolution
    # ------------------------------------------------------------------
    def apply(self, delta: DatabaseDelta) -> "VersionedDatabase":
        """The child version after ``delta``; this version is unchanged.

        Appended transactions receive tids past the chain-wide maximum,
        so a tid deleted in one version can never be reincarnated with
        different content later in the chain — which is what makes
        :meth:`delta_from` an exact tid-diff.
        """
        new_db = delta.apply(self._db, next_tid=self._next_tid)
        return VersionedDatabase(
            new_db,
            version=self._version + 1,
            parent=self,
            delta=delta,
            next_tid=self._next_tid + len(delta.appends),
        )

    # ------------------------------------------------------------------
    # lineage queries
    # ------------------------------------------------------------------
    def chain(self) -> tuple["VersionedDatabase", ...]:
        """This version first, then ancestors back to the root."""
        out: list[VersionedDatabase] = []
        node: VersionedDatabase | None = self
        while node is not None:
            out.append(node)
            node = node._parent
        return tuple(out)

    def lineage(self) -> tuple[tuple[str, int], ...]:
        """``(fingerprint, delta_distance_from_self)`` pairs, self first.

        Distance is the cumulative number of appended/deleted rows along
        the chain — the cost unit :meth:`PatternWarehouse
        <repro.service.PatternWarehouse>` ranks ancestor feedstock by.
        """
        out: list[tuple[str, int]] = []
        node: VersionedDatabase | None = self
        distance = 0
        while node is not None:
            out.append((node.fingerprint(), distance))
            if node._delta is not None:
                distance += node._delta.size
            node = node._parent
        return tuple(out)

    def ancestor(self, fingerprint: str) -> "VersionedDatabase | None":
        """The chain member with ``fingerprint`` (possibly self), or None."""
        for node in self.chain():
            if node.fingerprint() == fingerprint:
                return node
        return None

    def delta_from(self, ancestor: "VersionedDatabase") -> DatabaseDelta:
        """The exact change from ``ancestor``'s database to this one.

        Computed as a tid-diff, which is exact within a chain because
        tids are never reused: a tid present in both versions is the same
        tuple; one only in the ancestor was deleted; one only here was
        appended. (Defensively, a tid whose content differs is treated as
        delete + append, so the result is correct even for databases
        built outside this chain's tid discipline.)

        The patch is content-exact: applying the result to ``ancestor``
        yields a database with the same transactions and supports, though
        appended rows may carry different tids than this version's.

        From the direct parent the answer is the delta this version was
        built from, with no diff: it names the same deleted tids and
        appends the same rows in the same order.
        """
        if ancestor is self._parent and self._delta is not None:
            return self._delta
        adb = ancestor.db if isinstance(ancestor, VersionedDatabase) else ancestor
        theirs = dict(zip(adb.tids, adb.transactions))
        mine = dict(zip(self._db.tids, self._db.transactions))
        deletes = {
            tid for tid, tx in theirs.items() if mine.get(tid, None) != tx
        }
        appends = tuple(
            tx
            for tid, tx in zip(self._db.tids, self._db.transactions)
            if theirs.get(tid, None) != tx
        )
        return DatabaseDelta(appends=appends, deletes=frozenset(deletes))

"""The horizontal transaction database.

:class:`TransactionDatabase` is the substrate every miner in this library
operates on. It stores transactions in the classic horizontal layout — one
tuple of item ids per transaction — plus a handful of derived statistics
(item supports, average length) that the paper's Table 3 reports.

Transactions are stored deduplicated *per transaction* (an item appears at
most once in a tuple) and sorted by item id, which makes containment tests
and set operations cheap and deterministic.
"""

from __future__ import annotations

import hashlib
import math
from collections import Counter
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from repro.errors import DataError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.encoded import EncodedDatabase


def absolute_support(min_support: float, n_rows: int) -> int:
    """The absolute count a support threshold means over ``n_rows`` rows.

    The library's one support rule. The type disambiguates the boundary:
    a *float* in ``(0, 1]`` is a relative fraction (``1.0`` means 100% —
    every row), while an *int* is an absolute count (``1`` means one
    row). Floats above 1 and all other ints pass through as absolute
    counts, so callers can use either convention. A fraction is rounded
    up, matching the usual "support greater than or equal to" semantics.
    Raises :class:`DataError` for a threshold that is not finite or not
    positive.
    """
    if isinstance(min_support, float) and not math.isfinite(min_support):
        raise DataError(f"min_support must be finite, got {min_support}")
    if min_support <= 0:
        raise DataError(f"min_support must be positive, got {min_support}")
    if isinstance(min_support, float) and min_support <= 1.0:
        return max(1, math.ceil(min_support * n_rows))
    return int(min_support)


def normalize_row(raw: Iterable[int], what: str) -> tuple[int, ...]:
    """``raw`` as a sorted tuple of distinct non-negative ints.

    Raises :class:`DataError` for anything else: a row that is not an
    iterable of hashables, items that do not sort together (``None``,
    strings), and ``bool`` items, which would otherwise pass as ints and
    fingerprint differently from the ints they equal.
    """
    try:
        tx = tuple(sorted(set(raw)))
    except TypeError:
        tx = None
    if tx is None or any(type(i) is not int or i < 0 for i in tx):
        raise DataError(f"{what} {raw!r} has bad items (expected non-negative ints)")
    return tx


def _checked_tids(tids: Iterable[int], count: int) -> tuple[int, ...]:
    """``tids`` as a tuple, after checking it can label ``count`` rows.

    Tids must be unique non-negative ints, one per row; anything else is
    a :class:`DataError`. Uniqueness is what lets a delete address one
    row, and what the unchecked internal constructor relies on.
    """
    try:
        out = tuple(tids)
    except TypeError:
        raise DataError(f"tids must be a sequence, got {tids!r}") from None
    if len(out) != count:
        raise DataError(f"{len(out)} tids supplied for {count} transactions")
    if any(type(t) is not int or t < 0 for t in out) or len(set(out)) != count:
        raise DataError("tids must be unique non-negative ints")
    return out


def fingerprint_lines(
    tids: Iterable[int], rows: Iterable[tuple[int, ...]]
) -> list[bytes]:
    """The fingerprint's per-row lines, ``b"{tid}:{items}\\n"``."""
    return [
        f"{tid}:{' '.join(map(str, tx))}\n".encode("ascii")
        for tid, tx in zip(tids, rows)
    ]


class TransactionDatabase:
    """An immutable horizontal database of transactions.

    Parameters
    ----------
    transactions:
        Any iterable of item-id iterables. Each transaction is normalized
        to a sorted tuple of distinct non-negative ints.
    tids:
        Optional explicit transaction ids (parallel to ``transactions``),
        unique non-negative ints. Defaults to ``0..n-1``.

    >>> db = TransactionDatabase([[3, 1, 2], [2, 3]])
    >>> db[0]
    (1, 2, 3)
    >>> db.support((2, 3))
    2
    >>> TransactionDatabase([[1], [2]], tids=[0, 0])
    Traceback (most recent call last):
    ...
    repro.errors.DataError: tids must be unique non-negative ints
    """

    def __init__(
        self,
        transactions: Iterable[Iterable[int]],
        tids: Sequence[int] | None = None,
    ) -> None:
        rows = tuple(normalize_row(raw, "transaction") for raw in transactions)
        self._setup(rows, None if tids is None else _checked_tids(tids, len(rows)))

    @classmethod
    def _trusted(
        cls,
        rows: tuple[tuple[int, ...], ...],
        tids: tuple[int, ...] | None = None,
        *,
        supports: "Counter[int] | None" = None,
        lines: list[bytes] | None = None,
        derive_from: "tuple[EncodedDatabase, list[int]] | None" = None,
    ) -> "TransactionDatabase":
        """A database over rows and tids that are already valid; no checks.

        The caller guarantees what the public constructor would enforce:
        ``rows`` are normalized tuples and ``tids`` (default ``0..n-1``)
        are unique non-negative ints. ``supports`` and ``lines``, when
        given, must equal what :meth:`item_supports` and the fingerprint
        would compute; ``derive_from`` is an ancestor's encoding plus the
        sorted positions of that ancestor this database dropped (see
        :meth:`encoded`).
        """
        db = cls.__new__(cls)
        db._setup(rows, tids, supports, lines, derive_from)
        return db

    def _setup(
        self,
        rows: tuple[tuple[int, ...], ...],
        tids: tuple[int, ...] | None,
        supports: "Counter[int] | None" = None,
        lines: list[bytes] | None = None,
        derive_from: "tuple[EncodedDatabase, list[int]] | None" = None,
    ) -> None:
        self._transactions: tuple[tuple[int, ...], ...] = rows
        self._tids: tuple[int, ...] = tuple(range(len(rows))) if tids is None else tids
        self._item_supports = supports
        self._encoded: "EncodedDatabase | None" = None
        self._fingerprint: str | None = None
        # Kept only by databases that take part in a delta (a parent
        # builds them once, a child reuses them), so a database that
        # never changes pays no memory for them.
        self._lines = lines
        self._derive_from = derive_from

    # ------------------------------------------------------------------
    # container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self._transactions)

    def __getitem__(self, index: int) -> tuple[int, ...]:
        return self._transactions[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TransactionDatabase):
            return NotImplemented
        return self._transactions == other._transactions and self._tids == other._tids

    def __hash__(self) -> int:
        return hash((self._transactions, self._tids))

    def __repr__(self) -> str:
        return (
            f"TransactionDatabase(n={len(self)}, items={self.item_count()}, "
            f"avg_len={self.average_length():.2f})"
        )

    # ------------------------------------------------------------------
    # accessors & statistics
    # ------------------------------------------------------------------
    @property
    def transactions(self) -> tuple[tuple[int, ...], ...]:
        """The normalized transactions, in insertion order."""
        return self._transactions

    @property
    def tids(self) -> tuple[int, ...]:
        """Transaction ids, parallel to :attr:`transactions`."""
        return self._tids

    def item_supports(self) -> Counter[int]:
        """Support (absolute count) of every item; computed once, cached."""
        if self._item_supports is None:
            counts: Counter[int] = Counter()
            for tx in self._transactions:
                counts.update(tx)
            self._item_supports = counts
        return self._item_supports

    def items(self) -> set[int]:
        """The set of distinct items that occur in the database."""
        return set(self.item_supports())

    def item_count(self) -> int:
        """Number of distinct items."""
        return len(self.item_supports())

    def average_length(self) -> float:
        """Average transaction length (0.0 for an empty database)."""
        if not self._transactions:
            return 0.0
        return sum(len(tx) for tx in self._transactions) / len(self._transactions)

    def total_items(self) -> int:
        """Total item occurrences across all transactions ("size" S_o).

        Rows hold each item once, so this is the sum of the memoized item
        supports: every miner charges it per call without a row walk.
        """
        return sum(self.item_supports().values())

    def encoded(self) -> "EncodedDatabase":
        """The vertical-bitmap encoding of this database; built once.

        Every miner and the compression pass share this one instance, so
        the dense item interning and the tid-bitmaps are paid for a
        single time per database no matter how many mining rounds run.
        A database made by a delta from an encoded parent (or from one
        that could itself derive) derives its encoding from that
        ancestor's (:meth:`EncodedDatabase.derive`) and then drops the
        link, so it keeps at most one extra database alive.
        """
        if self._encoded is None:
            from repro.data.encoded import EncodedDatabase

            link = self._derive_from
            if link is None:
                self._encoded = EncodedDatabase(self)
            else:
                self._encoded = EncodedDatabase.derive(self, *link)
                self._derive_from = None
        return self._encoded

    def fingerprint(self) -> str:
        """A stable content hash of this database; computed once, cached.

        Two databases with the same transactions and tids share a
        fingerprint regardless of object identity or process, which is
        what makes it usable as a persistent cache key (the pattern
        warehouse keys stored results by it). The digest is one SHA-256
        over the joined per-row lines ``b"{tid}:{items}\\n"``, so it
        covers both the normalized transactions and the explicit tids.

        >>> TransactionDatabase([[3, 1, 2], [2, 3], [5]]).fingerprint()[:16]
        'e6d6a7c04c711155'
        """
        if self._fingerprint is None:
            lines = self._lines
            if lines is None:
                lines = fingerprint_lines(self._tids, self._transactions)
            self._fingerprint = hashlib.sha256(b"".join(lines)).hexdigest()
        return self._fingerprint

    def _kept_lines(self) -> list[bytes]:
        """The fingerprint's per-row lines; built once, then kept.

        Called when a delta is applied to this database: its child reuses
        the line objects of every row it keeps.
        """
        if self._lines is None:
            self._lines = fingerprint_lines(self._tids, self._transactions)
        return self._lines

    def support(self, itemset: Iterable[int]) -> int:
        """Absolute support of ``itemset`` (exhaustive scan; use in tests)."""
        target = frozenset(itemset)
        if not target:
            return len(self._transactions)
        return sum(1 for tx in self._transactions if target.issubset(tx))

    # ------------------------------------------------------------------
    # derived databases
    # ------------------------------------------------------------------
    def sample(self, indices: Sequence[int]) -> "TransactionDatabase":
        """A sub-database containing the transactions at ``indices``."""
        return TransactionDatabase._trusted(
            tuple(self._transactions[i] for i in indices),
            _checked_tids((self._tids[i] for i in indices), len(indices)),
        )

    def relative_to_absolute(self, min_support: float) -> int:
        """:func:`absolute_support` over this database's row count."""
        return absolute_support(min_support, len(self))

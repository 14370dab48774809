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


class TransactionDatabase:
    """An immutable horizontal database of transactions.

    Parameters
    ----------
    transactions:
        Any iterable of item-id iterables. Each transaction is normalized
        to a sorted tuple of distinct non-negative ints.
    tids:
        Optional explicit transaction ids (parallel to ``transactions``).
        Defaults to ``0..n-1``.

    >>> db = TransactionDatabase([[3, 1, 2], [2, 3]])
    >>> db[0]
    (1, 2, 3)
    >>> db.support((2, 3))
    2
    """

    def __init__(
        self,
        transactions: Iterable[Iterable[int]],
        tids: Sequence[int] | None = None,
    ) -> None:
        normalized: list[tuple[int, ...]] = []
        for raw in transactions:
            tx = tuple(sorted(set(raw)))
            if any((not isinstance(i, int)) or i < 0 for i in tx):
                raise DataError(f"transaction {raw!r} has non-int or negative items")
            normalized.append(tx)
        self._transactions: tuple[tuple[int, ...], ...] = tuple(normalized)
        if tids is None:
            self._tids: tuple[int, ...] = tuple(range(len(normalized)))
        else:
            if len(tids) != len(normalized):
                raise DataError(
                    f"{len(tids)} tids supplied for {len(normalized)} transactions"
                )
            self._tids = tuple(tids)
        self._item_supports: Counter[int] | None = None
        self._encoded: "EncodedDatabase | None" = None
        self._fingerprint: str | None = None

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
        """Total item occurrences across all transactions ("size" S_o)."""
        return sum(len(tx) for tx in self._transactions)

    def encoded(self) -> "EncodedDatabase":
        """The vertical-bitmap encoding of this database; built once.

        Every miner and the compression pass share this one instance, so
        the dense item interning and the tid-bitmaps are paid for a
        single time per database no matter how many mining rounds run.
        """
        if self._encoded is None:
            from repro.data.encoded import EncodedDatabase

            self._encoded = EncodedDatabase(self)
        return self._encoded

    def fingerprint(self) -> str:
        """A stable content hash of this database; computed once, cached.

        Two databases with the same transactions and tids share a
        fingerprint regardless of object identity or process, which is
        what makes it usable as a persistent cache key (the pattern
        warehouse keys stored results by it). The digest covers both the
        normalized transactions and the explicit tids.
        """
        if self._fingerprint is None:
            digest = hashlib.sha256()
            for tid, tx in zip(self._tids, self._transactions):
                digest.update(str(tid).encode("ascii"))
                digest.update(b":")
                digest.update(" ".join(map(str, tx)).encode("ascii"))
                digest.update(b"\n")
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def support(self, itemset: Iterable[int]) -> int:
        """Absolute support of ``itemset`` (exhaustive scan; use in tests)."""
        target = frozenset(itemset)
        if not target:
            return len(self._transactions)
        return sum(1 for tx in self._transactions if target.issubset(tx))

    # ------------------------------------------------------------------
    # derived databases
    # ------------------------------------------------------------------
    def restrict_to_items(self, keep: Iterable[int]) -> "TransactionDatabase":
        """A copy keeping only items in ``keep`` (empty tuples retained)."""
        keep_set = frozenset(keep)
        return TransactionDatabase(
            ([i for i in tx if i in keep_set] for tx in self._transactions),
            tids=self._tids,
        )

    def sample(self, indices: Sequence[int]) -> "TransactionDatabase":
        """A sub-database containing the transactions at ``indices``."""
        return TransactionDatabase(
            [self._transactions[i] for i in indices],
            tids=[self._tids[i] for i in indices],
        )

    def extend(self, more: Iterable[Iterable[int]]) -> "TransactionDatabase":
        """A new database with ``more`` transactions appended (fresh tids)."""
        combined = list(self._transactions)
        combined.extend(tuple(sorted(set(tx))) for tx in more)
        return TransactionDatabase(combined)

    def relative_to_absolute(self, min_support: float) -> int:
        """Convert a relative min-support in (0, 1] to an absolute count.

        The type disambiguates the boundary: a *float* in ``(0, 1]`` is a
        relative fraction (``1.0`` means 100% — every transaction), while
        an *int* is an absolute count (``1`` means one transaction).
        Floats above 1 and all other ints pass through as absolute
        counts, so callers can use either convention. The absolute
        threshold is rounded up, matching the usual "support greater than
        or equal to" semantics on fractions.
        """
        if isinstance(min_support, float) and not math.isfinite(min_support):
            raise DataError(f"min_support must be finite, got {min_support}")
        if min_support <= 0:
            raise DataError(f"min_support must be positive, got {min_support}")
        if isinstance(min_support, float) and min_support <= 1.0:
            return max(1, math.ceil(min_support * len(self)))
        return int(min_support)

"""The frequent list (F-list).

Definition 3.1 of the paper: the *F-list* of a database is the list of
frequent items ordered by **ascending support**. Every projected-database
miner here (naive, H-Mine, Tree Projection, and all recycling variants)
shares this ordering convention, so it lives in one place.

The F-list induces, for each frequent item ``i``, the *i-projected
database* (Definition 3.2): the transactions containing ``i``, restricted
to items strictly **after** ``i`` in the F-list. Each miner builds its
projections in its own structure.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError


class FList:
    """Frequent items in ascending-support order, with rank lookup.

    Ties in support are broken by item id so that the order — and therefore
    every miner's traversal — is deterministic.

    >>> flist = FList.from_supports({5: 2, 7: 4, 9: 2}, min_support=2)
    >>> flist.order
    (5, 9, 7)
    >>> flist.rank(9)
    1
    >>> flist.sort_items([7, 3, 5])
    [5, 7]
    """

    def __init__(self, ordered_items: Sequence[int], supports: Mapping[int, int]) -> None:
        self._order: tuple[int, ...] = tuple(ordered_items)
        if len(set(self._order)) != len(self._order):
            raise MiningError("F-list contains duplicate items")
        self._supports: dict[int, int] = {i: supports[i] for i in self._order}
        self._rank: dict[int, int] = {item: pos for pos, item in enumerate(self._order)}

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_supports(cls, supports: Mapping[int, int], min_support: int) -> "FList":
        """Build from an item-support mapping, keeping frequent items only."""
        if min_support < 1:
            raise MiningError(f"min_support must be >= 1, got {min_support}")
        frequent = [i for i, s in supports.items() if s >= min_support]
        frequent.sort(key=lambda i: (supports[i], i))
        return cls(frequent, supports)

    @classmethod
    def from_database(cls, db: TransactionDatabase, min_support: int) -> "FList":
        """Build from a database's cached item supports."""
        return cls.from_supports(db.item_supports(), min_support)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def order(self) -> tuple[int, ...]:
        """Items in ascending-support order."""
        return self._order

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, item: int) -> bool:
        return item in self._rank

    def __iter__(self):
        return iter(self._order)

    def __repr__(self) -> str:
        entries = ", ".join(f"{i}:{self._supports[i]}" for i in self._order)
        return f"FList(<{entries}>)"

    def support(self, item: int) -> int:
        """Support of a frequent item."""
        try:
            return self._supports[item]
        except KeyError:
            raise MiningError(f"item {item} is not in the F-list") from None

    def rank(self, item: int) -> int:
        """Position of ``item`` in the F-list (0-based)."""
        try:
            return self._rank[item]
        except KeyError:
            raise MiningError(f"item {item} is not in the F-list") from None

    def sort_items(self, items: Iterable[int]) -> list[int]:
        """Filter to frequent items and sort by F-list rank.

        This is exactly the "(Ordered) Frequent Outlying Items" column of
        the paper's Table 2.
        """
        frequent = [i for i in items if i in self._rank]
        frequent.sort(key=self._rank.__getitem__)
        return frequent

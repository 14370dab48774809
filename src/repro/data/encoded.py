"""The shared encoded (vertical-bitmap) view of a transaction database.

Every vertical miner in the seed rebuilt its own ``{item: tidset}`` index
from the horizontal tuples on every call, and every compression pass did
the same for group claiming. :class:`EncodedDatabase` factors that work
out: it is built once per :class:`~repro.data.transactions.TransactionDatabase`
(memoized by :meth:`TransactionDatabase.encoded`) and gives every miner

* a dense item encoding — items interned to codes ``0..m-1`` ordered by
  *descending* support (ties broken by ascending item id), the order
  projection-based miners want for their F-lists;
* vertical tid-bitmaps — one Python big int per item, bit ``p`` set when
  transaction at position ``p`` contains the item, so support counting is
  ``int.bit_count()`` and tidset intersection is ``&`` — both word
  parallel in CPython rather than per-element Python loops;
* cached per-item supports, shared with
  :meth:`TransactionDatabase.item_supports`.

Bit positions index *positions* in the database (0-based), not the
user-facing ``tids``; translate through ``db.tids`` when the original ids
matter.
"""

from __future__ import annotations

import itertools
import operator
from typing import TYPE_CHECKING, Iterable, Iterator

from repro.errors import DataError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.data.transactions import TransactionDatabase

#: Up to this many set bits, moving a bitmap's bits one by one beats
#: cutting its binary string (measured on 1,500 rows with 45 dropped:
#: 12 vs 15 us at 16 bits, 23 vs 15 us at 32).
_SPARSE_BITS = 16


def kept_runs(dropped: list[int], n: int) -> list[tuple[int, int]]:
    """The ``[start, stop)`` runs of ``range(n)`` left between the sorted
    ``dropped`` positions.

    >>> kept_runs([1, 2, 5], 7)
    [(0, 1), (3, 5), (6, 7)]
    """
    bounds = zip([0, *(p + 1 for p in dropped)], [*dropped, n])
    return [(start, stop) for start, stop in bounds if start < stop]


def kept_positions(dropped: list[int], n: int) -> list[int]:
    """The positions of ``range(n)`` not in the sorted ``dropped``.

    >>> kept_positions([1, 2, 5], 7)
    [0, 3, 4, 6]
    """
    return list(
        itertools.chain.from_iterable(range(*run) for run in kept_runs(dropped, n))
    )


def bit_positions(mask: int) -> Iterator[int]:
    """Yield the set bit indexes of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class EncodedDatabase:
    """Dense item codes plus vertical tid-bitmaps for one database.

    >>> from repro.data.transactions import TransactionDatabase
    >>> enc = TransactionDatabase([[5, 9], [5], [9, 7]]).encoded()
    >>> enc.item_of(0), enc.item_of(1), enc.item_of(2)
    (5, 9, 7)
    >>> bin(enc.bitmap_for_item(5))
    '0b11'
    >>> (enc.bitmap_for_item(5) & enc.bitmap_for_item(9)).bit_count()
    1
    """

    __slots__ = ("_db", "_item_of", "_code_of", "_bitmaps", "_supports", "_universe")

    def __init__(self, db: "TransactionDatabase") -> None:
        supports = db.item_supports()
        items = sorted(supports, key=lambda item: (-supports[item], item))
        code_of = {item: code for code, item in enumerate(items)}
        bitmaps = [0] * len(items)
        for position, tx in enumerate(db):
            bit = 1 << position
            for item in tx:
                bitmaps[code_of[item]] |= bit
        self._fill(db, items, code_of, bitmaps)

    @classmethod
    def derive(
        cls, db: "TransactionDatabase", parent: "EncodedDatabase", dropped: list[int]
    ) -> "EncodedDatabase":
        """``db``'s encoding, derived from ``parent``, an ancestor's.

        ``db`` is the ancestor's database with the rows at the sorted
        positions ``dropped`` removed and new rows appended. Each kept
        item's bitmap has the dropped bits squeezed out, so bit positions
        stay indexes into ``db``; appended rows set bits at the fresh high
        positions; supports come from ``db.item_supports()``, so codes
        are re-sorted over the items, not recounted over the rows. The
        result equals ``EncodedDatabase(db)`` field by field.

        >>> from repro.data.versioned import DatabaseDelta
        >>> from repro.data.transactions import TransactionDatabase
        >>> parent = TransactionDatabase([[1, 2], [2], [1, 3]])
        >>> _ = parent.encoded()
        >>> child = DatabaseDelta(appends=((3,),), deletes=frozenset({1})).apply(parent)
        >>> enc = child.encoded()
        >>> [(enc.item_of(c), bin(enc.bitmap(c))) for c in range(enc.item_count())]
        [(1, '0b11'), (3, '0b110'), (2, '0b1')]
        """
        n = len(parent)
        kept = n - len(dropped)
        if dropped:
            # A sparse bitmap moves bit by bit to its kept position...
            moved = [0] * n
            for new, old in enumerate(kept_positions(dropped, n)):
                moved[old] = 1 << new
            # ...a denser one is cut as a string: bit p is character
            # n - 1 - p of its n-digit binary form, so the kept runs are
            # taken high run first. The trailing empty slice makes the
            # getter return a tuple even for one run.
            width = f"0{n}b"
            take = operator.itemgetter(
                *(
                    slice(n - stop, n - start)
                    for start, stop in reversed(kept_runs(dropped, n))
                ),
                slice(0, 0),
            )

            def squeeze(code: int) -> int:
                bitmap = parent._bitmaps[code]
                if parent._supports[code] > _SPARSE_BITS:
                    return int("".join(take(format(bitmap, width))) or "0", 2)
                out = 0
                for position in bit_positions(bitmap):
                    out |= moved[position]
                return out

        else:

            def squeeze(code: int) -> int:
                return parent._bitmaps[code]

        added: dict[int, int] = {}
        for position, tx in enumerate(db.transactions[kept:], kept):
            bit = 1 << position
            for item in tx:
                added[item] = added.get(item, 0) | bit
        supports = db.item_supports()
        items = sorted(supports, key=lambda item: (-supports[item], item))
        old_code = parent._code_of
        bitmaps = []
        for item in items:
            code = old_code.get(item)
            bitmap = 0 if code is None else squeeze(code)
            bitmaps.append(bitmap | added.get(item, 0))
        encoded = cls.__new__(cls)
        code_of = {item: code for code, item in enumerate(items)}
        encoded._fill(db, items, code_of, bitmaps)
        return encoded

    def _fill(
        self,
        db: "TransactionDatabase",
        items: list[int],
        code_of: dict[int, int],
        bitmaps: list[int],
    ) -> None:
        supports = db.item_supports()
        self._db = db
        self._item_of: tuple[int, ...] = tuple(items)
        self._code_of: dict[int, int] = code_of
        self._bitmaps: tuple[int, ...] = tuple(bitmaps)
        self._supports: tuple[int, ...] = tuple(supports[item] for item in items)
        self._universe: int = (1 << len(db)) - 1 if len(db) else 0

    # ------------------------------------------------------------------
    # container protocol (over item codes)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of transactions (bit width of every bitmap)."""
        return len(self._db)

    def __contains__(self, item: object) -> bool:
        return item in self._code_of

    def __repr__(self) -> str:
        return f"EncodedDatabase(n={len(self)}, items={self.item_count()})"

    @property
    def db(self) -> "TransactionDatabase":
        """The horizontal database this encoding was built from."""
        return self._db

    @property
    def universe(self) -> int:
        """Bitmap with one set bit per transaction (the empty pattern's tidset)."""
        return self._universe

    def item_count(self) -> int:
        """Number of distinct items (= number of codes)."""
        return len(self._item_of)

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------
    def code_of(self, item: int) -> int:
        """Dense code of ``item`` (codes ascend as support descends)."""
        try:
            return self._code_of[item]
        except KeyError:
            raise DataError(f"item {item!r} does not occur in the database") from None

    def item_of(self, code: int) -> int:
        """The original item id behind ``code``."""
        return self._item_of[code]

    def encode(self, items: Iterable[int]) -> tuple[int, ...]:
        """Codes of ``items`` in ascending code (descending support) order."""
        return tuple(sorted(self.code_of(item) for item in items))

    # ------------------------------------------------------------------
    # vertical counting
    # ------------------------------------------------------------------
    def bitmap(self, code: int) -> int:
        """The tid-bitmap of the item with dense code ``code``."""
        return self._bitmaps[code]

    def bitmap_for_item(self, item: int) -> int:
        """The tid-bitmap of ``item`` (0 when the item never occurs)."""
        code = self._code_of.get(item)
        return 0 if code is None else self._bitmaps[code]

    def support(self, code: int) -> int:
        """Cached support of the item with dense code ``code``."""
        return self._supports[code]

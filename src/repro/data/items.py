"""Item vocabulary and item attributes.

Transactions in this library are sequences of integer *item ids*. This
module provides the optional bookkeeping around those ids:

* :class:`ItemTable` maps ids to human-readable names and numeric
  attributes (price, weight, ...). The constraint framework
  (:mod:`repro.constraints`) evaluates aggregate constraints against these
  attributes.

Item ids do not have to be dense or start at zero, but the synthetic
generators produce dense ids because that keeps array-based counting fast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping

from repro.errors import DataError


@dataclass(frozen=True)
class Item:
    """A single catalog entry: id, display name, and numeric attributes."""

    item_id: int
    name: str
    attributes: Mapping[str, float] = field(default_factory=dict)

    def attribute(self, key: str) -> float:
        """Return attribute ``key`` or raise :class:`DataError` if absent."""
        try:
            return self.attributes[key]
        except KeyError:
            raise DataError(
                f"item {self.item_id} ({self.name!r}) has no attribute {key!r}"
            ) from None


class ItemTable:
    """A catalog of :class:`Item` rows keyed by item id.

    The table is append-only; ids must be unique. Lookup by id is O(1).

    >>> table = ItemTable()
    >>> table.add(1, "milk", price=2.5)
    >>> table[1].name
    'milk'
    """

    def __init__(self, items: Iterable[Item] = ()) -> None:
        self._items: dict[int, Item] = {}
        for item in items:
            self.add_item(item)

    def add(self, item_id: int, name: str, **attributes: float) -> None:
        """Register an item by components. Raises on duplicate ids."""
        self.add_item(Item(item_id, name, dict(attributes)))

    def add_item(self, item: Item) -> None:
        """Register an :class:`Item` row. Raises on duplicate ids."""
        if item.item_id in self._items:
            raise DataError(f"duplicate item id {item.item_id}")
        self._items[item.item_id] = item

    def __getitem__(self, item_id: int) -> Item:
        try:
            return self._items[item_id]
        except KeyError:
            raise DataError(f"unknown item id {item_id}") from None

    def __contains__(self, item_id: int) -> bool:
        return item_id in self._items

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[Item]:
        return iter(self._items.values())

    def get(self, item_id: int) -> Item | None:
        """Return the item row or ``None`` when the id is unknown."""
        return self._items.get(item_id)

    def names(self, item_ids: Iterable[int]) -> list[str]:
        """Translate a sequence of ids into display names."""
        return [self[item_id].name for item_id in item_ids]

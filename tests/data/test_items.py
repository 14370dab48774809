"""Unit tests for the item catalog."""

from __future__ import annotations

import pytest

from repro.data.items import Item, ItemTable
from repro.errors import DataError


class TestItem:
    def test_attribute_lookup(self):
        item = Item(1, "milk", {"price": 2.5})
        assert item.attribute("price") == 2.5

    def test_missing_attribute_raises(self):
        item = Item(1, "milk", {})
        with pytest.raises(DataError, match="no attribute"):
            item.attribute("price")


class TestItemTable:
    def test_add_and_lookup(self):
        table = ItemTable()
        table.add(1, "milk", price=2.5)
        assert table[1].name == "milk"
        assert 1 in table
        assert 2 not in table

    def test_duplicate_ids_rejected(self):
        table = ItemTable()
        table.add(1, "milk")
        with pytest.raises(DataError, match="duplicate"):
            table.add(1, "bread")

    def test_unknown_lookup_raises(self):
        with pytest.raises(DataError, match="unknown item"):
            ItemTable()[42]

    def test_get_returns_none_for_unknown(self):
        assert ItemTable().get(42) is None

    def test_construct_from_items(self):
        table = ItemTable([Item(1, "a"), Item(2, "b")])
        assert len(table) == 2
        assert [item.name for item in table] == ["a", "b"]

    def test_names_translation(self):
        table = ItemTable()
        table.add(1, "milk")
        table.add(2, "bread")
        assert table.names([2, 1]) == ["bread", "milk"]

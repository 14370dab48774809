"""Tests for the shared encoded (vertical-bitmap) database layer."""

from __future__ import annotations

import pytest

from repro.data.encoded import bit_positions
from repro.data.transactions import TransactionDatabase
from repro.errors import DataError


@pytest.fixture
def db():
    return TransactionDatabase([[1, 2, 3], [1, 2], [2, 3], [1, 3], [1, 2, 3, 4]])


class TestBitPositions:
    def test_empty_mask(self):
        assert list(bit_positions(0)) == []

    def test_ascending_positions(self):
        assert list(bit_positions(0b101101)) == [0, 2, 3, 5]

    def test_large_mask(self):
        mask = (1 << 500) | (1 << 3) | 1
        assert list(bit_positions(mask)) == [0, 3, 500]


class TestEncoding:
    def test_codes_ordered_by_descending_support(self, db):
        enc = db.encoded()
        supports = [enc.support(code) for code in range(enc.item_count())]
        assert supports == sorted(supports, reverse=True)
        # Item 2 has support 4, ties with item 1 and 3 broken by item id.
        assert enc.item_of(0) in (1, 2)
        assert enc.code_of(enc.item_of(0)) == 0

    def test_ties_broken_by_item_id(self):
        enc = TransactionDatabase([[5, 9], [5, 9]]).encoded()
        assert enc.item_of(0) == 5
        assert enc.item_of(1) == 9

    def test_encode_decode_roundtrip(self, db):
        enc = db.encoded()
        codes = enc.encode([3, 1])
        assert codes == tuple(sorted(codes))
        assert sorted(enc.item_of(code) for code in codes) == [1, 3]

    def test_unknown_item_raises(self, db):
        with pytest.raises(DataError, match="does not occur"):
            db.encoded().code_of(99)

    def test_contains(self, db):
        enc = db.encoded()
        assert 4 in enc
        assert 99 not in enc


class TestBitmaps:
    def test_bitmap_counts_match_supports(self, db):
        enc = db.encoded()
        for code in range(enc.item_count()):
            item = enc.item_of(code)
            assert enc.bitmap(code).bit_count() == db.item_supports()[item]
            assert enc.support(code) == db.item_supports()[item]

    def test_bitmap_positions_match_occurrences(self, db):
        enc = db.encoded()
        for code in range(enc.item_count()):
            item = enc.item_of(code)
            positions = set(bit_positions(enc.bitmap(code)))
            expected = {p for p, tx in enumerate(db) if item in tx}
            assert positions == expected

    def test_pattern_bitmap_is_intersection(self, db):
        """A pattern's tidset is the AND of its items' bitmaps, the
        identity every bitmap miner counts supports with."""
        enc = db.encoded()
        for pattern in ([1, 2], [1, 2, 3], [4, 3]):
            mask = enc.universe
            for item in pattern:
                mask &= enc.bitmap_for_item(item)
            assert mask.bit_count() == db.support(pattern)

    def test_empty_pattern_maps_to_universe(self, db):
        """The empty pattern's tidset (the AND of no bitmaps) is every row."""
        enc = db.encoded()
        assert enc.universe.bit_count() == len(db)
        for code in range(enc.item_count()):
            assert enc.bitmap(code) & enc.universe == enc.bitmap(code)

    def test_absent_item_short_circuits(self, db):
        enc = db.encoded()
        assert enc.bitmap_for_item(99) == 0
        assert enc.bitmap_for_item(1) & enc.bitmap_for_item(99) == 0

    def test_empty_database(self):
        enc = TransactionDatabase([]).encoded()
        assert len(enc) == 0
        assert enc.universe == 0
        assert enc.item_count() == 0


class TestMemoization:
    def test_encoded_is_cached(self, db):
        assert db.encoded() is db.encoded()

    def test_derived_databases_get_fresh_encodings(self, db):
        sampled = db.sample([0, 1])
        assert sampled.encoded() is not db.encoded()
        assert sampled.encoded().item_count() == 3

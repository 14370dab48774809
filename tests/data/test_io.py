"""Unit tests for FIMI and pattern-set I/O."""

from __future__ import annotations

import io

import pytest

from repro.data.io import (
    canonical_pattern_rows,
    parse_patterns,
    parse_transactions,
    read_patterns,
    read_transactions,
    read_warehouse_entry,
    write_patterns,
    write_patterns_with_support,
    write_transactions,
)
from repro.errors import DataError
from repro.mining.patterns import PatternSet


class TestTransactionIO:
    def test_roundtrip_via_file(self, tmp_path, tiny_db):
        path = tmp_path / "db.dat"
        write_transactions(tiny_db, path)
        loaded = read_transactions(path)
        assert loaded.transactions == tiny_db.transactions

    def test_parse_skips_blank_and_comment_lines(self):
        db = parse_transactions(io.StringIO("1 2 3\n\n# comment\n2 3\n"))
        assert db.transactions == ((1, 2, 3), (2, 3))

    def test_parse_rejects_non_integer(self):
        with pytest.raises(DataError, match="line 1"):
            parse_transactions(io.StringIO("1 x 3\n"))

    def test_missing_file_raises_data_error(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            read_transactions(tmp_path / "nope.dat")

    def test_invalid_utf8_raises_data_error(self, tmp_path):
        path = tmp_path / "bad.dat"
        path.write_bytes(b"1 2 3\n\xff\xfe 4\n")
        with pytest.raises(DataError, match="cannot read"):
            read_transactions(path)


class TestPatternIO:
    def test_roundtrip_via_file(self, tmp_path, paper_old_patterns):
        path = tmp_path / "patterns.txt"
        write_patterns(paper_old_patterns, path)
        loaded = read_patterns(path)
        assert loaded == paper_old_patterns

    def test_output_is_deterministic(self, tmp_path, paper_old_patterns):
        path_a = tmp_path / "a.txt"
        path_b = tmp_path / "b.txt"
        write_patterns(paper_old_patterns, path_a)
        write_patterns(paper_old_patterns, path_b)
        assert path_a.read_text() == path_b.read_text()

    def test_parse_rejects_missing_support(self):
        with pytest.raises(DataError, match="missing"):
            parse_patterns(io.StringIO("1 2 3\n"))

    def test_parse_rejects_empty_pattern(self):
        with pytest.raises(DataError, match="empty pattern"):
            parse_patterns(io.StringIO(" : 3\n"))

    def test_parse_rejects_garbage_support(self):
        with pytest.raises(DataError, match="malformed"):
            parse_patterns(io.StringIO("1 2 : x\n"))

    def test_parse_rejects_repeated_itemset_with_another_support(self):
        with pytest.raises(DataError, match="line 2: conflicting supports"):
            parse_patterns(io.StringIO("1 2: 5\n2 1: 6\n"))

    def test_parse_rejects_negative_support(self):
        with pytest.raises(DataError, match="line 1: negative support"):
            parse_patterns(io.StringIO("1 2: -5\n"))

    def test_parse_skips_comments(self):
        patterns = parse_patterns(io.StringIO("# header\n1 2 : 3\n"))
        assert patterns.support({1, 2}) == 3

    def test_canonical_rows_sort_items_then_support(self):
        patterns = PatternSet(
            {
                frozenset({2, 1}): 7,
                frozenset({1}): 9,
                frozenset({3}): 2,
                frozenset({1, 2, 3}): 1,
            }
        )
        assert canonical_pattern_rows(patterns) == [
            ((1,), 9),
            ((1, 2), 7),
            ((1, 2, 3), 1),
            ((3,), 2),
        ]

    def test_support_header_output_is_order_independent(self, tmp_path):
        """Two insertion orders, one canonical file: byte-identical output."""
        forward = PatternSet()
        backward = PatternSet()
        rows = [({1}, 5), ({2}, 4), ({1, 2}, 3), ({1, 3}, 3)]
        for items, support in rows:
            forward.add(frozenset(items), support)
        for items, support in reversed(rows):
            backward.add(frozenset(items), support)
        path_a = tmp_path / "a.txt"
        path_b = tmp_path / "b.txt"
        write_patterns_with_support(forward, path_a, 3)
        write_patterns_with_support(backward, path_b, 3)
        assert path_a.read_bytes() == path_b.read_bytes()
        entry, _ = read_warehouse_entry(path_a)
        assert entry.absolute_support == 3
        assert entry.expand() == forward

    def test_recycling_across_sessions_via_files(self, tmp_path, paper_db):
        """One user's saved output is another's recycling input."""
        from repro.core.recycle import recycle_mine
        from repro.mining.hmine import mine_hmine

        old = mine_hmine(paper_db, 3)
        path = tmp_path / "shared_patterns.txt"
        write_patterns(old, path)

        imported = read_patterns(path)
        recycled = recycle_mine(paper_db, imported, 2)
        assert recycled == mine_hmine(paper_db, 2)


class TestChecksumHeader:
    def _patterns(self) -> PatternSet:
        patterns = PatternSet()
        patterns.add({1}, 5)
        patterns.add({1, 2}, 3)
        return patterns

    def test_round_trip_writes_and_verifies_checksum(self, tmp_path):
        from repro.data.io import CHECKSUM_HEADER_PREFIX

        path = tmp_path / "p.patterns"
        write_patterns_with_support(self._patterns(), path, 3)
        lines = path.read_text().splitlines()
        assert lines[1].startswith(CHECKSUM_HEADER_PREFIX)
        entry, _ = read_warehouse_entry(path)
        assert entry.absolute_support == 3 and entry.expand() == self._patterns()

    def test_tampered_body_is_rejected(self, tmp_path):
        from repro.errors import DataError

        path = tmp_path / "p.patterns"
        write_patterns_with_support(self._patterns(), path, 3)
        path.write_text(path.read_text().replace(": 3", ": 9"))
        with pytest.raises(DataError, match="checksum mismatch"):
            read_warehouse_entry(path)

    def test_truncated_body_is_rejected(self, tmp_path):
        from repro.errors import DataError

        path = tmp_path / "p.patterns"
        write_patterns_with_support(self._patterns(), path, 3)
        text = path.read_text()
        path.write_text(text[: text.rindex("\n1")])  # drop the last row
        with pytest.raises(DataError, match="checksum mismatch"):
            read_warehouse_entry(path)

    def test_headerless_checksum_file_reads_unverified(self, tmp_path):
        """Back-compat: files written before the checksum header existed
        carry only the support header and must still load."""
        path = tmp_path / "p.patterns"
        path.write_text("# absolute_support=3\n1 : 5\n1 2 : 3\n")
        entry, _ = read_warehouse_entry(path)
        assert entry.absolute_support == 3 and entry.expand() == self._patterns()

    def test_missing_support_header_still_rejected(self, tmp_path):
        from repro.errors import DataError

        path = tmp_path / "p.patterns"
        path.write_text("1 : 5\n")
        with pytest.raises(DataError, match="no absolute_support header"):
            read_warehouse_entry(path)


class TestEntryBodyOrder:
    """Warehouse entries are written in held order; the plain pattern
    writers keep the canonical order."""

    def _unsorted(self) -> PatternSet:
        patterns = PatternSet()
        for items, support in [({3}, 4), ({9, 1}, 2), ({1}, 5), ({17, 9, 1}, 2), ({9}, 3)]:
            patterns.add(frozenset(items), support)
        return patterns

    def test_held_order_entry_reads_back_bit_identical(self, tmp_path):
        from repro.data.io import (
            CHECKSUM_HEADER_PREFIX,
            pattern_body_checksum,
            read_warehouse_entry,
            warehouse_entry_text,
            write_warehouse_entry,
        )
        from repro.data.patterns import CondensedPatternSet

        patterns = self._unsorted()
        entry = CondensedPatternSet.condense(patterns, 2, "full", n_transactions=6)
        path = tmp_path / "e.patterns"
        write_warehouse_entry(entry, path)
        text = path.read_text()
        assert text == warehouse_entry_text(entry)
        checksum_line = next(
            line for line in text.splitlines() if line.startswith(CHECKSUM_HEADER_PREFIX)
        )
        body = text.split(checksum_line + "\n", 1)[1]
        expected_rows = [
            " ".join(map(str, items)) + f" : {support}" for items, support in patterns.items()
        ]
        assert body.splitlines() == expected_rows  # entry order, not sorted
        assert checksum_line == CHECKSUM_HEADER_PREFIX + pattern_body_checksum(body)
        loaded, full_bytes = read_warehouse_entry(path)
        assert loaded == entry and full_bytes is None
        assert loaded.expand() == patterns
        assert warehouse_entry_text(loaded) == text
        # The durable store's gauge header reads back too.
        gauged = tmp_path / "gauged.patterns"
        gauged.write_text(warehouse_entry_text(entry, full_bytes=99))
        assert read_warehouse_entry(gauged) == (entry, 99)

    def test_plain_writers_keep_canonical_order(self, tmp_path):
        from repro.data.io import pattern_body_checksum

        body = "1 : 5\n1 9 : 2\n1 9 17 : 2\n3 : 4\n9 : 3\n"
        plain = tmp_path / "plain.txt"
        write_patterns(self._unsorted(), plain)
        assert plain.read_text() == body
        headed = tmp_path / "headed.txt"
        write_patterns_with_support(self._unsorted(), headed, 2)
        assert headed.read_text() == (
            f"# absolute_support=2\n# sha256={pattern_body_checksum(body)}\n{body}"
        )

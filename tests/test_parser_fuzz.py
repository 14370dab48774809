"""Byte-level fuzz of every file parser: FIMI transactions, workload
JSON, warehouse pattern entries and chain records.

Whatever the bytes, a parser returns a value or raises a typed
:class:`~repro.errors.ReproError`, never a bare exception, and a
warehouse opened on a directory holding one fuzzed entry file never
raises. Each parser is fed raw bytes and mutations of a valid file
(replaced, inserted and deleted bytes, truncation), so inputs get past
the first header check; entries are also built with a correct body
checksum, so the parser's checks after the checksum are reached too.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.io import (
    pattern_body_checksum,
    read_transactions,
    read_warehouse_entry,
    warehouse_entry_text,
)
from repro.data.patterns import CondensedPatternSet, PatternSet
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.durability import chain_record_text, read_chain_record, record_from_node
from repro.errors import DataError, ReproError
from repro.service import PatternWarehouse
from repro.service.workload import load_workload_items

FIMI = b"1 2 3\n# a comment\n2 4\n\n3 5 7\n"

WORKLOAD = json.dumps(
    {
        "dataset": "connect4",
        "requests": [
            {"tenant": "a", "support": 0.95},
            {"op": "append", "transactions": [[1, 2, 5], [3, 4]]},
            {"op": "delete", "tids": [0]},
            {"support": 1400, "seed": 0, "jobs": 1},
        ],
    }
).encode()

#: A legacy entry: no checksum, so a mutated body reaches the row parser.
LEGACY_ENTRY = b"# absolute_support=2\n1 2 : 3\n1 : 4\n2 : 3\n"

ENTRY = warehouse_entry_text(
    CondensedPatternSet.condense(
        PatternSet({(1,): 4, (2,): 3, (1, 2): 3}), 2, "closed", n_transactions=5
    ),
    full_bytes=120,
).encode()

_v0 = VersionedDatabase(TransactionDatabase([[1, 2], [2, 3], [1, 3]]))
CHAIN = chain_record_text(
    record_from_node(_v0.apply(DatabaseDelta(appends=((4, 5),), deletes=frozenset({0}))))
).encode()


@st.composite
def mutated(draw, seed: bytes) -> bytes:
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 6))):
        position = draw(st.integers(0, len(data)))
        chunk = draw(st.binary(min_size=1, max_size=4))
        kind = draw(st.sampled_from(("replace", "insert", "delete", "truncate")))
        if kind == "replace":
            data[position:position + len(chunk)] = chunk
        elif kind == "insert":
            data[position:position] = chunk
        elif kind == "delete":
            del data[position:position + len(chunk)]
        else:
            del data[position:]
    return bytes(data)


def fuzzed(*seeds: bytes):
    return st.one_of(st.binary(max_size=256), *(mutated(seed) for seed in seeds))


_rows = st.lists(
    st.tuples(
        st.lists(st.integers(-2, 9), max_size=4),
        st.integers(-2, 12),
    ),
    max_size=6,
)


#: ``repr`` values no reader accepts: ``ndi`` (non-derivable itemsets)
#: is a retired representation whose files also carried ``ndi_depth``.
UNKNOWN_REPRESENTATIONS = ("ndi", "bogus")


@st.composite
def checksummed_entries(draw, representations=None) -> bytes:
    """Entries whose body checksum holds, with arbitrary headers and rows.

    Given ``representations``, every entry has a ``repr`` header drawn
    from them; otherwise the header is optional like the others.
    """
    body = "".join(
        f"{' '.join(map(str, items))} : {support}\n"
        for items, support in draw(_rows)
    )
    headers = [f"# absolute_support={draw(st.integers(-1, 6))}"]
    optional = {
        "repr": st.sampled_from(
            representations or ("full", "closed", *UNKNOWN_REPRESENTATIONS)
        ),
        "n_transactions": st.integers(-1, 12),
        "ndi_depth": st.integers(-1, 4),
        "full_bytes": st.integers(-1, 10**6),
    }
    for name, values in optional.items():
        if (name == "repr" and representations) or draw(st.booleans()):
            headers.append(f"# {name}={draw(values)}")
    headers.append(f"# sha256={pattern_body_checksum(body)}")
    return ("\n".join(headers) + "\n" + body).encode()


def parse_or_reject(parse, data: bytes, name: str):
    """``parse`` the bytes from a file; ``None`` when it was rejected."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / name
        path.write_bytes(data)
        try:
            return parse(path)
        except ReproError:
            return None


@settings(max_examples=200, deadline=None)
@given(data=fuzzed(FIMI))
def test_fimi_reader(data):
    parse_or_reject(read_transactions, data, "input.dat")


@settings(max_examples=100, deadline=None)
@given(data=fuzzed(WORKLOAD))
def test_workload_loader(data):
    parse_or_reject(load_workload_items, data, "workload.json")


@settings(max_examples=200, deadline=None)
@given(data=st.one_of(fuzzed(LEGACY_ENTRY, ENTRY), checksummed_entries()))
def test_pattern_entry_reader(data):
    parse_or_reject(read_warehouse_entry, data, "entry.patterns")


@settings(max_examples=50, deadline=None)
@given(data=checksummed_entries(UNKNOWN_REPRESENTATIONS))
def test_unknown_representation_is_rejected_at_its_header(data):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "entry.patterns"
        path.write_bytes(data)
        with pytest.raises(DataError, match="unknown representation"):
            read_warehouse_entry(path)


@settings(max_examples=200, deadline=None)
@given(data=fuzzed(CHAIN))
def test_chain_record_reader(data):
    parse_or_reject(read_chain_record, data, "record.chain")


@settings(max_examples=100, deadline=None)
@given(data=st.one_of(fuzzed(LEGACY_ENTRY, ENTRY), checksummed_entries()))
def test_warehouse_opens_on_any_entry_file(data):
    # Named after the support the file claims, when it parses at all,
    # so a parseable file is loaded rather than quarantined for its name.
    parsed = parse_or_reject(read_warehouse_entry, data, "entry.patterns")
    support = parsed[0].absolute_support if parsed is not None else 2
    with tempfile.TemporaryDirectory() as directory:
        name = f"{'f' * 64}-{support}.patterns"
        (Path(directory) / name).write_bytes(data)
        warehouse = PatternWarehouse(directory=directory)
        assert len(warehouse) + len(warehouse.quarantined) == 1
        warehouse.stats()

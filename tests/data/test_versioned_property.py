"""Properties of a child version derived from its parent.

:meth:`DatabaseDelta.apply` builds a child from its parent's state — kept
rows, patched item supports, the parent's fingerprint lines and, when
the parent is encoded, a derived encoding. Over random delta chains the
child must match a database built from scratch over the same rows and
tids: the same encoding field by field, the same item supports and the
same fingerprint as the streamed digest the warehouse's keys were
written with. And the child's delta from its parent, which
:meth:`VersionedDatabase.delta_from` returns without a diff, must be the
diff.
"""

from __future__ import annotations

import hashlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import encoded as encoded_module
from repro.data import transactions as transactions_module
from repro.data import versioned as versioned_module
from repro.data.encoded import EncodedDatabase
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase


def streamed_fingerprint(db: TransactionDatabase) -> str:
    """The digest as it was first defined: four updates per row."""
    digest = hashlib.sha256()
    for tid, tx in zip(db.tids, db.transactions):
        digest.update(str(tid).encode("ascii"))
        digest.update(b":")
        digest.update(" ".join(map(str, tx)).encode("ascii"))
        digest.update(b"\n")
    return digest.hexdigest()


def assert_matches_fresh(db: TransactionDatabase) -> None:
    fresh = TransactionDatabase(db.transactions, tids=db.tids)
    # Counter equality ignores zero counts, so compare as plain dicts:
    # an item deleted down to support 0 must be gone, not kept at 0.
    assert dict(db.item_supports()) == dict(fresh.item_supports())
    got, want = db.encoded(), EncodedDatabase(fresh)
    assert got.db is db
    assert got._item_of == want._item_of
    assert got._code_of == want._code_of
    assert got._bitmaps == want._bitmaps
    assert got._supports == want._supports
    assert got.universe == want.universe
    assert db.fingerprint() == streamed_fingerprint(db) == fresh.fingerprint()


# Up to 48 rows over 6 items. When deletes are squeezed out, a bitmap
# with few bits is moved bit by bit and a denser one is cut as a string
# (the cutoff is ``encoded._SPARSE_BITS``); item 0, in every initial row,
# makes sure the second case occurs.
rows = st.lists(st.integers(0, 5), max_size=6).map(lambda row: [0, *row])


@st.composite
def delta_chains(draw):
    """An initial database plus a chain of deltas, each with a flag that
    says whether the parent is encoded before the delta is applied."""
    size = draw(st.integers(0, 48))
    initial = draw(st.lists(rows, min_size=size, max_size=size))
    steps = []
    for _ in range(draw(st.integers(1, 5))):
        kind = draw(st.sampled_from(["append", "delete", "mixed", "empty", "wipe"]))
        # Appends may bring items never seen before (6..9).
        appends = draw(st.lists(st.lists(st.integers(0, 9), max_size=5), max_size=4))
        steps.append((kind, appends, draw(st.randoms()), draw(st.booleans())))
    return initial, steps


def make_delta(kind, appends, rng, db) -> DatabaseDelta:
    if kind == "empty":
        return DatabaseDelta()
    if kind == "wipe":
        return DatabaseDelta.delete(db.tids)
    deletes = rng.sample(db.tids, rng.randint(0, len(db))) if kind != "append" else []
    return DatabaseDelta(
        appends=tuple(appends) if kind != "delete" else (), deletes=frozenset(deletes)
    )


@settings(max_examples=150, deadline=None)
@given(delta_chains())
def test_derived_child_equals_fresh_build(chain):
    initial, steps = chain
    version = VersionedDatabase.initial(TransactionDatabase(initial))
    for kind, appends, rng, encode_parent in steps:
        if encode_parent:
            version.db.encoded()
        version = version.apply(make_delta(kind, appends, rng, version.db))
        assert_matches_fresh(version.db)


@settings(max_examples=150, deadline=None)
@given(delta_chains())
def test_delta_from_parent_is_the_recorded_delta_and_equals_the_diff(chain):
    """From the direct parent, ``delta_from`` returns the delta the child
    was built from; it equals the tid-diff a parentless copy of the child
    computes, and applying it to the parent rebuilds the child."""
    initial, steps = chain
    version = VersionedDatabase.initial(TransactionDatabase(initial))
    for kind, appends, rng, _ in steps:
        parent = version
        version = parent.apply(make_delta(kind, appends, rng, parent.db))
        recorded = version.delta_from(parent)
        assert recorded is version.delta
        orphan = VersionedDatabase(version.db, next_tid=version.next_tid)
        assert recorded == orphan.delta_from(parent)
        rebuilt = recorded.apply(parent.db, next_tid=parent.next_tid)
        assert rebuilt.transactions == version.db.transactions
        assert rebuilt.tids == version.db.tids
        assert dict(rebuilt.item_supports()) == dict(version.db.item_supports())


def test_pinned_digests():
    db = TransactionDatabase([[3, 1, 2], [2, 3], [5]])
    assert db.fingerprint() == (
        "e6d6a7c04c7111551ca3dd95799b199af7aaa58a8f2d274735c4659d1668dba4"
    )
    child = DatabaseDelta(appends=((7, 1),), deletes=frozenset({1})).apply(db)
    assert child.fingerprint() == (
        "7637a9b0f1ad69b22651bceab12422ef6accd8e2354d7781bea969be2ef9dee5"
    )


def test_apply_normalizes_no_kept_row(monkeypatch):
    db = TransactionDatabase([[1, 2], [2, 3], [3, 4], [4, 5]])
    db.encoded()
    delta = DatabaseDelta(appends=((1, 5),), deletes=frozenset({2}))
    calls = []
    normalize_row = transactions_module.normalize_row

    def counting(raw, what):
        calls.append(raw)
        return normalize_row(raw, what)

    monkeypatch.setattr(transactions_module, "normalize_row", counting)
    monkeypatch.setattr(versioned_module, "normalize_row", counting)
    child = delta.apply(db)
    assert calls == []
    assert child.transactions == ((1, 2), (2, 3), (4, 5), (1, 5))


def test_child_of_encoded_parent_is_not_encoded_from_scratch(monkeypatch):
    db = TransactionDatabase([[1, 2], [2, 3], [3, 4], [4, 5]])
    db.encoded()
    child = DatabaseDelta(appends=((1, 5),), deletes=frozenset({0})).apply(db)
    # A grandchild of an encoded database whose own parent was never
    # encoded composes the two hops and derives from the grandparent; it
    # drops the last of the grandparent's rows it kept, and a row its
    # parent appended.
    grandchild = DatabaseDelta(appends=((9,),), deletes=frozenset({3, 4})).apply(child)
    calls = []
    init = encoded_module.EncodedDatabase.__init__

    def counting(self, source):
        calls.append(source)
        init(self, source)

    monkeypatch.setattr(encoded_module.EncodedDatabase, "__init__", counting)
    derived = child.encoded()
    assert derived.bitmap_for_item(1) == 0b1000
    # The link to the parent's encoding is dropped once used.
    assert child._derive_from is None
    assert grandchild._derive_from[0] is db.encoded()
    assert grandchild.transactions == ((2, 3), (3, 4), (9,))
    grandchild.encoded()
    assert calls == []
    monkeypatch.undo()
    assert_matches_fresh(child)
    assert_matches_fresh(grandchild)

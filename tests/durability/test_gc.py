"""Unit tests for pure GC planning over chain records: liveness,
compaction, broken walks, and the plan applied on disk."""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase
from repro.durability import ChainRecord, DurableStore, plan_gc, record_from_node
from repro.errors import InjectedFaultError


def chain(depth: int):
    """A straight chain v0 → … → v{depth}; returns the node list."""
    nodes = [VersionedDatabase(TransactionDatabase([[1, 2], [2, 3]]))]
    for i in range(depth):
        nodes.append(nodes[-1].apply(DatabaseDelta(appends=((1, 3 + i),))))
    return nodes


def records(nodes):
    return {
        record.child: record
        for record in (record_from_node(node) for node in nodes[1:])
    }


def test_everything_warehoused_is_left_alone():
    nodes = chain(3)
    plan = plan_gc(records(nodes), {n.fingerprint() for n in nodes})
    assert plan.is_empty
    assert plan.collapsed_hops == 0


def test_nothing_warehoused_drops_every_link():
    nodes = chain(3)
    chains = records(nodes)
    plan = plan_gc(chains, set())
    assert sorted(plan.dropped) == sorted(chains)
    assert plan.rewrites == {}


def test_dead_tail_behind_newest_version_is_pruned():
    # Only the newest version is warehoused: every record reaches
    # *upward* to nothing alive, so the whole tail collapses — the
    # bounded-footprint property.
    nodes = chain(4)
    chains = records(nodes)
    plan = plan_gc(chains, {nodes[-1].fingerprint()})
    assert sorted(plan.dropped) == sorted(chains)


def test_long_run_composes_to_nearest_warehoused_ancestor():
    nodes = chain(3)  # v0..v3
    plan = plan_gc(records(nodes), {nodes[0].fingerprint()})
    # v1 keeps its direct hop; v2 collapses one hop, v3 collapses two.
    assert plan.dropped == ()
    assert set(plan.rewrites) == {nodes[2].fingerprint(), nodes[3].fingerprint()}
    assert plan.collapsed_hops == 3
    composed = plan.rewrites[nodes[3].fingerprint()]
    assert composed.parent == nodes[0].fingerprint()
    assert composed.size == 3  # three appended rows in one hop


def test_missing_record_ends_the_walk():
    nodes = chain(3)
    chains = records(nodes)
    # v2's chain record is gone (quarantined, say): v3 can no longer
    # reach v0, so its record serves nothing; v1's direct hop stays.
    del chains[nodes[2].fingerprint()]
    plan = plan_gc(chains, {nodes[0].fingerprint()})
    assert plan.dropped == (nodes[3].fingerprint(),)
    assert plan.rewrites == {}


def test_cycle_in_stale_registries_terminates():
    def hop(child, parent):
        return ChainRecord(child, parent, version=1, next_tid=0, appends=(), deletes=())

    plan = plan_gc({"a": hop("a", "b"), "b": hop("b", "a")}, set())
    assert sorted(plan.dropped) == ["a", "b"]


def test_kill_between_gc_rewrites_and_drops_restores_the_same_ancestor(
    tmp_path, monkeypatch
):
    # v0 is warehoused, so v2 and v3 are rewritten straight to it; the
    # unrelated w1 reaches nothing warehoused and is dropped.
    nodes = chain(3)
    dead = VersionedDatabase(TransactionDatabase([[7, 8]]))
    dead = dead.apply(DatabaseDelta(appends=((9,),)))
    warehoused = {nodes[0].fingerprint()}
    directories = {"clean": tmp_path / "clean", "killed": tmp_path / "killed"}
    for directory in directories.values():
        store = DurableStore(directory)
        for node in [*nodes[1:], dead]:
            store.record_link(node)
    finishing = DurableStore(directories["clean"])
    finishing.recover()
    assert finishing.gc(warehoused).rewritten_chains == 2

    def killed(paths, directory):
        raise InjectedFaultError("killed before the drops")

    dying = DurableStore(directories["killed"])
    dying.recover()
    with monkeypatch.context() as patch:
        patch.setattr("repro.durability.store.unlink_durably", killed)
        with pytest.raises(InjectedFaultError):
            dying.gc(warehoused)
    del dying  # the process is dead; only the directory survives

    clean, recovered = DurableStore(directories["clean"]), DurableStore(
        directories["killed"]
    )
    clean.recover()
    recovered.recover()
    # Every composed record landed; the dropped one is an orphan.
    assert set(recovered.chain_records()) == {
        *clean.chain_records(),
        dead.fingerprint(),
    }
    for node in nodes[1:]:
        expected = clean.restore_version(node.db)
        restored = recovered.restore_version(node.db)
        assert [n.fingerprint() for n in restored.chain()] == [
            n.fingerprint() for n in expected.chain()
        ]
        assert restored.chain()[-1].fingerprint() == nodes[0].fingerprint()
    # The next prune removes the orphan, converging on the clean run.
    assert recovered.gc(warehoused).dropped_chains == 1
    assert recovered.chain_records() == clean.chain_records()
    assert sorted(p.name for p in recovered.chains_dir.iterdir()) == sorted(
        p.name for p in clean.chains_dir.iterdir()
    )


@st.composite
def chains_with_warehoused(draw):
    """A random chain (appends and deletes) and a random warehoused subset."""
    depth = draw(st.integers(min_value=1, max_value=6))
    nodes = [VersionedDatabase(TransactionDatabase([[1, 2], [2, 3], [1, 3]]))]
    for _ in range(depth):
        tids = nodes[-1].db.tids
        deletes = draw(st.sets(st.sampled_from(tids), max_size=min(2, len(tids) - 1)))
        appends = draw(
            st.lists(
                st.lists(st.integers(0, 6), min_size=1, max_size=3),
                min_size=0 if deletes else 1,
                max_size=2,
            )
        )
        nodes.append(
            nodes[-1].apply(DatabaseDelta(appends=tuple(appends), deletes=frozenset(deletes)))
        )
    warehoused = draw(st.sets(st.integers(0, depth)))
    return nodes, warehoused


@settings(max_examples=40, deadline=None)
@given(drawn=chains_with_warehoused())
def test_gc_keeps_exactly_the_records_that_reach_a_warehoused_ancestor(drawn):
    nodes, warehoused = drawn
    fingerprints = [node.fingerprint() for node in nodes]
    # Deleting what an earlier hop appended returns to that database.
    assume(len(set(fingerprints)) == len(fingerprints))
    alive = {fingerprints[i] for i in warehoused}
    with tempfile.TemporaryDirectory() as directory:
        store = DurableStore(directory)
        for node in nodes[1:]:
            store.record_link(node)
        plan = store.plan_gc(alive)
        for i in range(1, len(nodes)):
            survives = any(j in warehoused for j in range(i))
            assert (fingerprints[i] not in plan.dropped) == survives
        store.gc(alive)
        reopened = DurableStore(directory)
        reopened.recover()
        assert reopened.chain_records() == store.chain_records()
        for i in range(1, len(nodes)):
            if fingerprints[i] in plan.dropped:
                continue
            nearest = max(j for j in warehoused if j < i)
            restored = reopened.restore_version(nodes[i].db)
            assert restored.fingerprint() == fingerprints[i]
            ancestor = restored.ancestor(fingerprints[nearest])
            assert ancestor is not None
            assert ancestor.db == nodes[nearest].db
            assert restored.delta_from(ancestor) == nodes[i].delta_from(nodes[nearest])

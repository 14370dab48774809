"""The synthetic traffic generator: determinism, shape, validation."""

from __future__ import annotations

import hashlib
from collections import Counter

import pytest

from repro.data.transactions import TransactionDatabase
from repro.errors import GatewayError
from repro.gateway import PRIORITY_MIX, TrafficConfig, bursts, synthesize_traffic

DB = TransactionDatabase([[0, 1, 2], [0, 1], [1, 2], [0, 2], [1], [0, 1, 2]])
MENU = [5, 3, 2]


def fingerprint(trace):
    return [
        (
            round(offset, 9),
            req.tenant,
            req.request.support,
            req.priority,
            req.deadline_seconds,
        )
        for offset, req in trace
    ]


class TestDeterminism:
    def test_same_seed_same_trace(self):
        cfg = TrafficConfig(requests=40, seed=9, deadline_fraction=0.4)
        first = synthesize_traffic(DB, MENU, cfg)
        second = synthesize_traffic(DB, MENU, cfg)
        assert fingerprint(first) == fingerprint(second)

    def test_trace_is_pinned(self):
        """One seed's trace, digested; a change to the draw order fails here."""
        cfg = TrafficConfig(requests=40, seed=9, deadline_fraction=0.4)
        rows = fingerprint(synthesize_traffic(DB, MENU, cfg))
        assert rows[:2] == [
            (0.0, "tenant-02", 5, "standard", 0.5),
            (0.001, "tenant-02", 3, "standard", None),
        ]
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "f0c3648ec28e9a913d0abc2f4b6f01dc00604832ab7899a1be2dd6f045f02c7d"
        )

    def test_different_seed_different_trace(self):
        a = synthesize_traffic(DB, MENU, TrafficConfig(requests=40, seed=1))
        b = synthesize_traffic(DB, MENU, TrafficConfig(requests=40, seed=2))
        assert fingerprint(a) != fingerprint(b)


class TestShape:
    def test_zipfian_popularity_concentrates_on_low_ranks(self):
        trace = synthesize_traffic(
            DB,
            MENU,
            TrafficConfig(requests=300, tenants=6, seed=3),
        )
        counts = Counter(req.tenant for _, req in trace)
        assert counts["tenant-01"] == max(counts.values())
        assert counts["tenant-01"] > counts.get("tenant-06", 0)

    def test_supports_come_from_the_menu(self):
        trace = synthesize_traffic(DB, MENU, TrafficConfig(requests=50, seed=4))
        assert {req.request.support for _, req in trace} <= set(MENU)

    def test_sessions_walk_supports_downward(self):
        trace = synthesize_traffic(
            DB, MENU, TrafficConfig(requests=60, seed=5, tenants=1)
        )
        # Sessions walk the menu downward one rung at a time, so every
        # descending adjacent pair must be consecutive menu entries; an
        # increase can only be a new session restarting the ladder.
        supports = [req.request.support for _, req in trace]
        for prev, cur in zip(supports, supports[1:]):
            if cur < prev:
                assert MENU.index(cur) == MENU.index(prev) + 1
        assert any(cur < prev for prev, cur in zip(supports, supports[1:]))

    def test_burst_structure(self):
        cfg = TrafficConfig(requests=10, burst_length=4, seed=6)
        trace = synthesize_traffic(DB, MENU, cfg)
        groups = bursts(trace, gap_threshold_seconds=0.01)
        assert [len(g) for g in groups] == [4, 4, 2]

    def test_deadline_fraction_bounds(self):
        all_deadlines = synthesize_traffic(
            DB,
            MENU,
            TrafficConfig(requests=20, deadline_fraction=1.0, seed=7),
        )
        assert all(
            req.deadline_seconds is not None for _, req in all_deadlines
        )
        none = synthesize_traffic(
            DB, MENU, TrafficConfig(requests=20, deadline_fraction=0.0, seed=7)
        )
        assert all(req.deadline_seconds is None for _, req in none)

    def test_priority_mix_respected(self):
        trace = synthesize_traffic(
            DB, MENU, TrafficConfig(requests=300, seed=8)
        )
        counts = Counter(req.priority for _, req in trace)
        assert set(counts) == set(PRIORITY_MIX)
        # Sessions draw their class by the mix: standard is half of it.
        assert counts.most_common(1)[0][0] == "standard"


class TestValidation:
    def test_empty_menu_rejected(self):
        with pytest.raises(GatewayError, match="supports"):
            synthesize_traffic(DB, [], TrafficConfig())

    def test_bad_configs_rejected(self):
        with pytest.raises(GatewayError, match="requests"):
            TrafficConfig(requests=0)
        with pytest.raises(GatewayError, match="tenants"):
            TrafficConfig(tenants=0)
        with pytest.raises(GatewayError, match="burst_length"):
            TrafficConfig(burst_length=0)
        with pytest.raises(GatewayError, match="deadline_fraction"):
            TrafficConfig(deadline_fraction=1.5)

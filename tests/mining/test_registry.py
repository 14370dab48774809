"""Tests for the capability-aware miner registry and its legacy views."""

from __future__ import annotations

import sys
import threading

import pytest

from repro.core.recycle import RECYCLING_MINERS
from repro.errors import MiningError
from repro.mining import BASELINE_MINERS, registry
from repro.mining.registry import (
    MINERS,
    MinerSpec,
    MinerView,
    get_miner,
    has_miner,
    iter_miners,
    miner_names,
    mine_with_budget,
    register,
)


class TestLookup:
    def test_at_least_nine_miners_registered(self):
        assert len(MINERS) >= 9

    def test_every_seed_name_still_resolves(self):
        for name in ("apriori", "eclat", "hmine", "fpgrowth", "treeprojection"):
            assert get_miner(name, kind="baseline").kind == "baseline"
        for name in ("naive", "hmine", "fpgrowth", "treeprojection", "eclat"):
            spec = get_miner(name, kind="recycling")
            assert spec.needs_compressed

    def test_unknown_name_raises_with_known_list(self):
        with pytest.raises(MiningError, match="unknown baseline miner"):
            get_miner("quantum", kind="baseline")
        with pytest.raises(MiningError, match="hmine"):
            get_miner("quantum", kind="recycling")

    def test_has_miner(self):
        assert has_miner("hmine", kind="baseline")
        assert has_miner("naive", kind="recycling")
        assert not has_miner("naive", kind="baseline")

    def test_iter_miners_filters_by_kind(self):
        kinds = {spec.kind for spec in iter_miners("baseline")}
        assert kinds == {"baseline"}
        assert len(iter_miners()) == len(MINERS)

    def test_bitset_backend_registered(self):
        spec = get_miner("eclat-bitset", kind="baseline")
        assert spec.backend == "bitset"

    def test_registry_mapping_protocol(self):
        assert ("baseline", "hmine") in MINERS
        assert MINERS[("recycling", "naive")].name == "naive"


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        spec = get_miner("hmine", kind="baseline")
        with pytest.raises(MiningError, match="already registered"):
            register(spec)

    def test_concurrent_first_lookups_see_every_miner(self, monkeypatch):
        """Threads racing the first registry access (a fresh service's
        worker pool) all find the built-in miners."""
        monkeypatch.setattr(registry, "_MINERS", {})
        monkeypatch.setattr(registry, "_bootstrapped", False)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        start = threading.Barrier(8)
        errors: list[BaseException] = []

        def lookup() -> None:
            start.wait(timeout=30)
            try:
                get_miner("eclat-bitset")
            except MiningError as exc:
                errors.append(exc)

        threads = [threading.Thread(target=lookup) for _ in range(8)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    def test_invalid_kind_rejected(self):
        with pytest.raises(MiningError, match="unknown miner kind"):
            MinerSpec(name="x", kind="magic", fn=lambda *a: None)

    def test_invalid_backend_rejected(self):
        with pytest.raises(MiningError, match="unknown miner backend"):
            MinerSpec(name="x", kind="baseline", fn=lambda *a: None, backend="gpu")


class TestLegacyViews:
    def test_baseline_view_reads_registry(self):
        assert set(BASELINE_MINERS) == set(miner_names("baseline"))
        assert BASELINE_MINERS["hmine"] is get_miner("hmine", "baseline").fn

    def test_recycling_view_reads_registry(self):
        assert set(RECYCLING_MINERS) == set(miner_names("recycling"))
        assert RECYCLING_MINERS["naive"] is get_miner("naive", "recycling").fn

    def test_view_raises_keyerror_like_a_dict(self):
        with pytest.raises(KeyError):
            BASELINE_MINERS["quantum"]
        assert "quantum" not in BASELINE_MINERS

    def test_view_rejects_unknown_kind(self):
        with pytest.raises(MiningError):
            MinerView("magic")


class TestBudgetCapability:
    def test_capable_miners_flagged(self):
        assert get_miner("hmine", "baseline").supports_memory_budget
        assert get_miner("naive", "recycling").supports_memory_budget
        assert not get_miner("apriori", "baseline").supports_memory_budget

    def test_budget_dispatch_runs(self, paper_db):
        direct = get_miner("hmine", "baseline").fn(paper_db, 2)
        budgeted = mine_with_budget("hmine", "baseline", paper_db, 2, 10**9)
        assert budgeted == direct

    def test_budget_dispatch_rejects_incapable(self, paper_db):
        with pytest.raises(MiningError, match="no memory-budget driver"):
            mine_with_budget("apriori", "baseline", paper_db, 2, 10**9)

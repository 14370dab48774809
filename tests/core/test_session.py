"""Tests for the interactive MiningSession (the paper's motivating loop)."""

from __future__ import annotations

import pytest

from repro.constraints.engine import ConstraintSet
from repro.constraints.support import MaxLength, MinSupport
from repro.core.session import MiningSession
from repro.data.synthetic import quest_database, QuestParams
from repro.errors import RecycleError
from repro.mining.apriori import mine_apriori
from repro.mining.hmine import mine_hmine


@pytest.fixture
def db():
    return quest_database(
        QuestParams(n_transactions=150, n_items=40, avg_transaction_length=6), seed=2
    )


class TestPathSelection:
    def test_initial_then_filter_then_recycle(self, db):
        session = MiningSession(db)
        session.mine(10)
        session.mine(20)   # tightened
        session.mine(5)    # relaxed
        assert [report.path for report in session.history] == [
            "initial", "filter", "recycle",
        ]

    def test_same_constraints_take_filter_path(self, db):
        session = MiningSession(db)
        session.mine(10)
        session.mine(10)
        assert session.history[-1].path == "filter"

    def test_every_path_gives_exact_results(self, db):
        session = MiningSession(db)
        for support in (12, 20, 6, 9, 4):
            result = session.mine(support)
            assert result == mine_hmine(db, support), f"wrong result at {support}"

    def test_relative_supports_accepted(self, db):
        session = MiningSession(db)
        result = session.mine(0.1)
        absolute = session.history[-1].absolute_support
        assert absolute == 15  # ceil(0.1 * 150)
        assert result == mine_hmine(db, absolute)

    def test_mixed_change_recycles_then_filters(self, db):
        session = MiningSession(db)
        session.mine(ConstraintSet.min_support(10))
        # Lower support (relax) + add max-length (tighten) = incomparable.
        result = session.mine(ConstraintSet.of(MinSupport(6), MaxLength(2)))
        assert session.history[-1].path == "recycle"
        expected = mine_apriori(db, 6).filter(lambda p, s: len(p) <= 2)
        assert result == expected

    def test_non_support_constraints_do_not_poison_cache(self, db):
        """A constrained result must not shrink the recycling feedstock."""
        session = MiningSession(db)
        session.mine(ConstraintSet.of(MinSupport(10), MaxLength(1)))
        assert session.exported_patterns() == mine_hmine(db, 10)
        result = session.mine(ConstraintSet.min_support(10))
        assert result == mine_hmine(db, 10)


class TestAlgorithms:
    @pytest.mark.parametrize(
        "algorithm", ["naive", "hmine", "fpgrowth", "treeprojection", "eclat-bitset"]
    )
    @pytest.mark.parametrize("strategy", ["mcp", "mlp"])
    def test_all_combinations_exact(self, db, algorithm, strategy):
        session = MiningSession(db, algorithm=algorithm, strategy=strategy)
        session.mine(12)
        result = session.mine(5)
        assert session.history[-1].path == "recycle"
        assert result == mine_hmine(db, 5)

    def test_unknown_algorithm_rejected(self, db):
        with pytest.raises(RecycleError, match="unknown algorithm"):
            MiningSession(db, algorithm="magic")

    def test_relax_without_a_recycler_of_its_own_runs_rp_mine(self, db, ran):
        """``eclat-bitset`` has no recycling adaptation, so a relaxed
        session recycles with RP-Mine on the grouped kernel."""
        session = MiningSession(db, algorithm="eclat-bitset")
        session.mine(12)
        ran.clear()
        result = session.mine(5)
        assert session.history[-1].path == "recycle"
        assert ran == [("recycling", "naive")]
        assert result == mine_hmine(db, 5)


class TestMultiUser:
    def test_seeded_patterns_enable_recycling(self, db):
        """Section 2: one user's output recycles for another."""
        alice = MiningSession(db)
        alice.mine(12)

        bob = MiningSession(db)
        bob.seed_patterns(alice.exported_patterns(), absolute_support=12)
        result = bob.mine(5)
        assert bob.history[-1].path == "recycle"
        assert result == mine_hmine(db, 5)

    def test_seeding_empty_patterns_rejected(self, db):
        from repro.mining.patterns import PatternSet

        with pytest.raises(RecycleError, match="empty"):
            MiningSession(db).seed_patterns(PatternSet(), 10)

    def test_export_before_mining_rejected(self, db):
        with pytest.raises(RecycleError, match="nothing mined"):
            MiningSession(db).exported_patterns()

    def test_save_and_load_patterns(self, db, tmp_path):
        """Cross-process recycling: save in one session, load in another."""
        path = str(tmp_path / "session.patterns")
        alice = MiningSession(db)
        alice.mine(12)
        alice.save_patterns(path)

        bob = MiningSession(db)
        bob.load_patterns(path)
        result = bob.mine(5)
        assert bob.history[-1].path == "recycle"
        assert result == mine_hmine(db, 5)

    def test_load_rejects_headerless_file(self, db, tmp_path):
        path = tmp_path / "raw.patterns"
        path.write_text("1 2 : 3\n", encoding="utf-8")
        with pytest.raises(RecycleError, match="absolute_support header"):
            MiningSession(db).load_patterns(str(path))

    def test_round_trip_preserves_pattern_set_exactly(self, db, tmp_path):
        """save -> load must reproduce the identical PatternSet (and the
        threshold), so the loaded session recycles from equal feedstock."""
        path = str(tmp_path / "feedstock.patterns")
        alice = MiningSession(db)
        alice.mine(12)
        alice.save_patterns(path)

        bob = MiningSession(db)
        bob.load_patterns(path)
        assert bob.exported_patterns() == alice.exported_patterns()
        assert bob._absolute_support == alice._absolute_support
        assert bob.mine(5) == alice.mine(5)

    def test_save_is_atomic_single_write(self, db, tmp_path):
        """No temp files survive and the header is the first line of a
        single complete write."""
        path = tmp_path / "out.patterns"
        session = MiningSession(db)
        session.mine(12)
        session.save_patterns(str(path))
        assert [p.name for p in tmp_path.iterdir()] == ["out.patterns"]
        first_line = path.read_text(encoding="utf-8").splitlines()[0]
        assert first_line == "# absolute_support=12"

    def test_save_fsyncs_the_file_before_renaming_it(self, db, tmp_path, monkeypatch):
        """A save that reports success survives a power loss: the temp
        file's bytes are fsynced once, before the rename publishes it."""
        import os

        calls = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (calls.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda src, dst: (calls.append("replace"), real_replace(src, dst))[1],
        )
        session = MiningSession(db)
        session.mine(12)
        session.save_patterns(str(tmp_path / "out.patterns"))
        assert calls == ["fsync", "replace"]

    def test_load_rejects_empty_file(self, db, tmp_path):
        path = tmp_path / "empty.patterns"
        path.write_text("", encoding="utf-8")
        with pytest.raises(RecycleError, match="absolute_support header"):
            MiningSession(db).load_patterns(str(path))

    def test_empty_set_round_trip_fails_at_seed_time(self, db, tmp_path):
        """Saving a barren threshold produces a loadable file, but seeding
        from its empty pattern set is rejected like any empty seed."""
        path = str(tmp_path / "barren.patterns")
        alice = MiningSession(db)
        alice.mine(len(db) + 1)  # nothing frequent
        alice.save_patterns(path)
        with pytest.raises(RecycleError, match="empty"):
            MiningSession(db).load_patterns(path)

    def test_seeded_patterns_survive_relaxed_then_tightened_walk(self, db, tmp_path):
        """Seeded feedstock must behave exactly like home-grown feedstock
        across a relax -> tighten walk."""
        alice = MiningSession(db)
        alice.mine(15)
        bob = MiningSession(db)
        bob.seed_patterns(alice.exported_patterns(), absolute_support=15)
        assert bob.mine(6) == mine_hmine(db, 6)
        assert bob.history[-1].path == "recycle"
        assert bob.mine(10) == mine_hmine(db, 10)
        assert bob.history[-1].path == "filter"


class TestReporting:
    def test_last_report(self, db):
        session = MiningSession(db)
        with pytest.raises(RecycleError):
            _ = session.last_report
        session.mine(10)
        report = session.last_report
        assert report.index == 0
        assert report.path == "initial"
        assert report.elapsed_seconds >= 0
        assert report.pattern_count == len(mine_hmine(db, 10))

    def test_recycle_reports_counters(self, db):
        session = MiningSession(db)
        session.mine(12)
        session.mine(5)
        assert session.last_report.counters.patterns_emitted > 0


class TestEmptyFeedstockFallback:
    def test_relaxing_from_a_patternless_threshold_remines(self, db):
        """If the previous threshold admitted no patterns, relaxing must
        fall back to scratch mining instead of failing to recycle."""
        session = MiningSession(db)
        session.mine(len(db) + 1)   # nothing frequent
        assert len(session.exported_patterns()) == 0
        result = session.mine(5)
        assert session.last_report.path == "initial"
        assert result == mine_hmine(db, 5)


class TestRepresentationKnob:
    """A representation belongs to a seed or a save file, not to the
    session: condensed feedstock is expanded when it is adopted."""

    def test_unknown_representation_rejected(self, db, tmp_path):
        path = tmp_path / "odd.patterns"
        session = MiningSession(db)
        session.mine(12)
        session.save_patterns(str(path))
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace("# repr=full", "# repr=compact"), encoding="utf-8")
        with pytest.raises(RecycleError, match="unknown representation"):
            MiningSession(db).load_patterns(str(path))

    def test_ndi_file_is_rejected(self, db, tmp_path):
        """A file of the retired ``ndi`` representation, in the layout
        its writer used, is refused at its ``# repr=`` line."""
        from repro.data.io import pattern_body_checksum

        body = "1 : 30\n2 : 25\n"
        path = tmp_path / "ndi.patterns"
        path.write_text(
            "# absolute_support=12\n# repr=ndi\n# n_transactions=150\n"
            f"# ndi_depth=2\n# sha256={pattern_body_checksum(body)}\n{body}",
            encoding="utf-8",
        )
        session = MiningSession(db)
        with pytest.raises(RecycleError, match="unknown representation 'ndi'"):
            session.load_patterns(str(path))
        # Nothing was adopted: the next request mines from scratch.
        assert session.mine(12) == mine_hmine(db, 12)
        assert session.last_report.path == "initial"

    @pytest.mark.parametrize("representation", ["closed"])
    def test_condensed_sessions_mine_exactly(self, db, representation):
        from repro.data.patterns import CondensedPatternSet

        session = MiningSession(db)
        session.seed_patterns(
            CondensedPatternSet.condense(
                mine_hmine(db, 12), 12, representation, n_transactions=len(db)
            ),
            12,
        )
        assert session.exported_patterns() == mine_hmine(db, 12)
        for support in (12, 20, 6, 9):
            assert session.mine(support) == mine_hmine(db, support)
        assert [r.path for r in session.history] == [
            "filter", "filter", "recycle", "filter",
        ]

    def test_save_records_representation(self, db, tmp_path):
        path = tmp_path / "full.patterns"
        session = MiningSession(db)
        session.mine(12)
        session.save_patterns(str(path))
        header = path.read_text(encoding="utf-8").splitlines()
        assert "# repr=full" in header

    @pytest.mark.parametrize("representation", ["full", "closed"])
    def test_cross_representation_round_trip(self, db, tmp_path, representation):
        """A session loads a warehouse entry file of any representation
        and recycles from it exactly."""
        from repro.data.io import write_warehouse_entry
        from repro.data.patterns import CondensedPatternSet

        path = str(tmp_path / "handoff.patterns")
        mined = mine_hmine(db, 12)
        write_warehouse_entry(
            CondensedPatternSet.condense(
                mined, 12, representation, n_transactions=len(db)
            ),
            path,
        )
        bob = MiningSession(db)
        bob.load_patterns(path)
        assert bob.exported_patterns() == mined
        result = bob.mine(5)
        assert bob.history[-1].path == "recycle"
        assert result == mine_hmine(db, 5)

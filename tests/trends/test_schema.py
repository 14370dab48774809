"""Snapshot envelope: round-trip, validation, legacy wrapping."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.errors import TrendsError
from repro.trends import (
    LEGACY_FILES,
    SCHEMA_VERSION,
    Snapshot,
    snapshot_from_legacy,
)

from tests.trends.conftest import make_snapshot


class TestRoundTrip:
    def test_to_dict_from_dict_is_lossless(self, snapshot):
        restored = Snapshot.from_dict(snapshot.to_dict())
        assert restored == snapshot

    def test_to_dict_stamps_schema_version(self, snapshot):
        assert snapshot.to_dict()["schema_version"] == SCHEMA_VERSION

    def test_commit_short(self):
        snap = make_snapshot(commit="0123456789abcdef")
        assert snap.commit_short == "0123456789"

    def test_rows_filters_non_dicts(self):
        snap = make_snapshot(rows=[{"a": 1}, "junk", 3, {"b": 2}])
        assert snap.rows() == [{"a": 1}, {"b": 2}]

    def test_rows_tolerates_missing_results(self):
        snap = Snapshot(
            bench="b", commit="c", timestamp="2026-01-01T00:00:00+00:00",
            seed=None, python="p", platform="p", payload={"seed": 0},
        )
        assert snap.rows() == []
        snap_bad = Snapshot(
            bench="b", commit="c", timestamp="2026-01-01T00:00:00+00:00",
            seed=None, python="p", platform="p",
            payload={"results": "not-a-list"},
        )
        assert snap_bad.rows() == []

    def test_sort_time_orders_and_defaults(self):
        early = make_snapshot(timestamp="2026-01-01T00:00:00+00:00")
        late = make_snapshot(timestamp="2026-06-01T00:00:00+00:00")
        naive = make_snapshot(timestamp="2026-06-01T00:00:00")
        broken = make_snapshot(timestamp="not-a-time")
        assert early.sort_time() < late.sort_time()
        assert naive.sort_time() == late.sort_time()  # naive assumed UTC
        assert broken.sort_time() == 0.0


class TestValidation:
    def test_rejects_non_mapping(self):
        with pytest.raises(TrendsError, match="not a JSON object"):
            Snapshot.from_dict(["nope"])

    def test_rejects_missing_schema_version(self, snapshot):
        data = snapshot.to_dict()
        del data["schema_version"]
        with pytest.raises(TrendsError, match="schema_version"):
            Snapshot.from_dict(data)

    def test_rejects_future_schema_version(self, snapshot):
        data = snapshot.to_dict()
        data["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(TrendsError, match="reads up to"):
            Snapshot.from_dict(data)

    @pytest.mark.parametrize("key", ["bench", "commit", "timestamp"])
    def test_rejects_missing_stamps(self, snapshot, key):
        data = snapshot.to_dict()
        data[key] = ""
        with pytest.raises(TrendsError, match=key.replace("_", " ")):
            Snapshot.from_dict(data)

    def test_rejects_non_integer_seed(self, snapshot):
        data = snapshot.to_dict()
        data["seed"] = "zero"
        with pytest.raises(TrendsError, match="seed"):
            Snapshot.from_dict(data)

    def test_rejects_missing_payload(self, snapshot):
        data = snapshot.to_dict()
        data["payload"] = None
        with pytest.raises(TrendsError, match="payload"):
            Snapshot.from_dict(data)

    def test_source_appears_in_errors(self, snapshot):
        with pytest.raises(TrendsError, match="here.json"):
            Snapshot.from_dict({}, source="here.json")

    def test_unknown_python_platform_default(self, snapshot):
        data = snapshot.to_dict()
        del data["python"], data["platform"]
        restored = Snapshot.from_dict(data)
        assert restored.python == "unknown"
        assert restored.platform == "unknown"


class TestLegacyWrap:
    def test_lifts_seed_and_keeps_payload(self):
        payload = {"seed": 7, "results": [{"x": 1}]}
        snap = snapshot_from_legacy("backends", payload, commit="c" * 40)
        assert snap.seed == 7
        assert snap.payload == payload
        assert snap.bench == "backends"
        assert snap.commit == "c" * 40

    def test_defaults_are_unknown(self):
        snap = snapshot_from_legacy("parallel", {"results": []})
        assert snap.commit == "unknown"
        assert snap.python == "unknown"
        assert snap.platform == "unknown"
        assert snap.seed is None
        assert snap.timestamp  # stamped with now() when omitted

    def test_rejects_non_mapping_payload(self):
        with pytest.raises(TrendsError, match="not a JSON object"):
            snapshot_from_legacy("backends", [1, 2, 3])

    def test_legacy_file_map_covers_every_bench_file(self):
        assert sorted(LEGACY_FILES) == [
            "backends", "incremental", "paper", "parallel", "service_load",
            "warehouse",
        ]
        repo = Path(__file__).resolve().parents[2]
        assert set(LEGACY_FILES.values()) == {
            path.name for path in repo.glob("BENCH_*.json")
        }

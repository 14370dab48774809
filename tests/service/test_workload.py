"""Tests for JSON workload parsing and replay."""

from __future__ import annotations

import json

import pytest

from repro.errors import DataError
from repro.mining.hmine import mine_hmine
from repro.service import MiningService, PatternWarehouse
from repro.service.workload import (
    load_workload,
    parse_workload,
    parse_workload_items,
    serve_workload,
)


def _spec(**overrides) -> dict:
    spec = {
        "dataset": "weather",
        "seed": 0,
        "requests": [
            {"tenant": "alice", "support": 0.5},
            {"tenant": "bob", "support": 0.4},
        ],
    }
    spec.update(overrides)
    return spec


class TestParsing:
    def test_defaults_flow_into_requests(self):
        """Top-level keys are defaults; the retired miner keys, top-level
        or per request, are ignored, so old files parse to the same
        requests (and therefore the same answers)."""
        plain = parse_workload(_spec(jobs=2))
        legacy = _spec(jobs=2, algorithm="fpgrowth", strategy="mlp")
        legacy["requests"][1]["algorithm"] = "eclat"
        requests = parse_workload(legacy)
        assert [r.tenant for r in requests] == ["alice", "bob"]
        assert [
            (r.tenant, r.support, r.jobs, r.db.fingerprint()) for r in requests
        ] == [(r.tenant, r.support, r.jobs, r.db.fingerprint()) for r in plain]

    def test_requests_share_one_database_object(self):
        """Same (dataset, seed) must resolve to one object, so fingerprint
        and encoding are computed once."""
        requests = parse_workload(_spec())
        assert requests[0].db is requests[1].db

    def test_per_request_overrides(self):
        spec = _spec()
        spec["requests"].append(
            {"tenant": "carol", "support": 0.9, "dataset": "connect4"}
        )
        requests = parse_workload(spec)
        assert requests[2].db is not requests[0].db

    def test_anonymous_tenants_get_indexed_names(self):
        spec = _spec()
        spec["requests"] = [{"support": 0.5}]
        assert parse_workload(spec)[0].tenant == "user-0"

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ({"requests": []}, "non-empty"),
            ({"requests": [{"tenant": "x"}]}, "no support"),
            ({"requests": [{"support": 0.5, "dataset": "mars"}]}, "unknown dataset"),
            ({"dataset": None, "requests": [{"support": 0.5}]}, "no dataset"),
            (
                {"requests": [{"support": 0.05, "jobs": "two"}]},
                "request #0: jobs must be an integer",
            ),
            ({"jobs": 1.5}, "request #0: jobs must be an integer"),
            (
                {"requests": [{"support": 0.5, "seed": "x"}]},
                "request #0: seed must be an integer",
            ),
            (
                {"requests": [{"support": 0.5}, {"support": 0.5, "jobs": 0}]},
                "request #1: jobs must be >= 1",
            ),
        ],
    )
    def test_malformed_workloads_rejected(self, mutation, message):
        spec = _spec()
        spec.update(mutation)
        if spec.get("dataset") is None:
            del spec["dataset"]
        with pytest.raises(DataError, match=message):
            parse_workload(spec)

    def test_load_workload_file(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(_spec()), encoding="utf-8")
        assert len(load_workload(path)) == 2

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError, match="not valid JSON"):
            load_workload(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_workload(tmp_path / "absent.json")


class TestSupportConvention:
    def test_float_and_int_supports_round_trip_through_json(self, tmp_path):
        """A JSON float must stay a relative fraction and a JSON int an
        absolute count through a file round-trip — the parser must not
        coerce either way."""
        spec = _spec()
        spec["requests"] = [
            {"tenant": "rel", "support": 0.5},
            {"tenant": "abs", "support": 5},
        ]
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        relative, absolute = load_workload(path)
        assert isinstance(relative.support, float) and relative.support == 0.5
        assert isinstance(absolute.support, int) and absolute.support == 5
        assert absolute.absolute_support() == 5
        # ceil(0.5 * |db|): resolved through the database, not the parser.
        assert relative.absolute_support() == -(-len(relative.db) // 2)

    def test_whole_valued_float_stays_relative(self):
        """``1.0`` means "all transactions" (relative), not "count 1"."""
        spec = _spec()
        spec["requests"] = [{"support": 1.0}]
        request = parse_workload(spec)[0]
        assert isinstance(request.support, float)
        assert request.absolute_support() == len(request.db)

    def test_boolean_support_rejected(self):
        spec = _spec()
        spec["requests"] = [{"support": True}]
        with pytest.raises(DataError, match="must be a number"):
            parse_workload(spec)

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_support_rejected(self, literal):
        # Python's json accepts these literals, so they reach the parser.
        spec = json.loads(
            '{"dataset": "weather", "requests": [{"support": %s}]}' % literal
        )
        with pytest.raises(DataError, match=r"request #0: support must be finite"):
            parse_workload_items(spec)


class TestParsingEdgeCases:
    def test_non_object_spec_rejected(self):
        with pytest.raises(DataError, match="JSON object"):
            parse_workload(["not", "a", "dict"])

    def test_non_object_request_entry_rejected(self):
        spec = _spec()
        spec["requests"] = ["oops"]
        with pytest.raises(DataError, match="must be an object"):
            parse_workload(spec)

    def test_missing_tenant_defaults_stay_distinct_per_index(self):
        spec = _spec()
        spec["requests"] = [{"support": 0.5}, {"support": 0.4}]
        tenants = [r.tenant for r in parse_workload(spec)]
        assert tenants == ["user-0", "user-1"]
        assert len(set(tenants)) == 2  # fairness needs distinct identities

    def test_per_request_seed_materializes_a_distinct_database(self):
        spec = _spec()
        spec["requests"].append({"tenant": "dana", "support": 0.5, "seed": 9})
        requests = parse_workload(spec)
        assert requests[2].db is not requests[0].db
        assert requests[2].db.fingerprint() != requests[0].db.fingerprint()

    def test_jobs_default_and_override(self):
        spec = _spec(jobs=2)
        spec["requests"].append({"tenant": "erin", "support": 0.5, "jobs": 1})
        requests = parse_workload(spec)
        assert [r.jobs for r in requests] == [2, 2, 1]


class TestReplay:
    def test_replay_is_deterministic_across_runs(self):
        """Two replays of the same trace return responses in the same
        arrival order with identical pattern sets, workers or not."""
        requests = parse_workload(_spec())

        def run():
            with MiningService(
                warehouse=PatternWarehouse(), max_workers=4
            ) as service:
                return serve_workload(service, requests)

        first, second = run(), run()
        assert [r.tenant for r in first] == [r.tenant for r in second]
        for a, b in zip(first, second):
            assert a.patterns == b.patterns
            assert a.absolute_support == b.absolute_support

    def test_replay_is_exact_and_ordered(self):
        requests = parse_workload(_spec())
        with MiningService(warehouse=PatternWarehouse(), max_workers=2) as service:
            responses = serve_workload(service, requests)
        assert [r.tenant for r in responses] == ["alice", "bob"]
        for request, response in zip(requests, responses):
            expected = mine_hmine(request.db, request.absolute_support())
            assert response.patterns == expected

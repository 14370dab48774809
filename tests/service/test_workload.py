"""Tests for JSON workload parsing and replay."""

from __future__ import annotations

import json

import pytest

from repro.errors import DataError
from repro.mining.hmine import mine_hmine
from repro.service import PatternWarehouse
from repro.service.workload import load_workload_items, parse_workload_items


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
        plain = parse_workload_items(_spec(jobs=2))
        legacy = _spec(jobs=2, algorithm="fpgrowth", strategy="mlp")
        legacy["requests"][1]["algorithm"] = "eclat"
        requests = parse_workload_items(legacy)
        assert [r.tenant for r in requests] == ["alice", "bob"]
        assert [
            (r.tenant, r.support, r.jobs, r.db.fingerprint()) for r in requests
        ] == [(r.tenant, r.support, r.jobs, r.db.fingerprint()) for r in plain]

    def test_requests_share_one_database_object(self):
        """Same (dataset, seed) must resolve to one object, so fingerprint
        and encoding are computed once."""
        requests = parse_workload_items(_spec())
        assert requests[0].db is requests[1].db

    def test_per_request_overrides(self):
        spec = _spec()
        spec["requests"].append(
            {"tenant": "carol", "support": 0.9, "dataset": "connect4"}
        )
        requests = parse_workload_items(spec)
        assert requests[2].db is not requests[0].db

    def test_anonymous_tenants_get_indexed_names(self):
        spec = _spec()
        spec["requests"] = [{"support": 0.5}]
        assert parse_workload_items(spec)[0].tenant == "user-0"

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
            parse_workload_items(spec)

    @pytest.mark.parametrize(
        "op",
        [
            {"op": "append", "transactions": [[1, None]]},
            {"op": "append", "transactions": [[1, "a"]]},
            {"op": "append", "transactions": [5]},
            {"op": "append", "transactions": [[True, 2]]},
            {"op": "delete", "tids": [[0]]},
        ],
    )
    def test_malformed_op_rows_raise_data_error(self, op):
        spec = _spec()
        spec["requests"] = [op, {"support": 0.5}]
        with pytest.raises(DataError, match="request #0: "):
            parse_workload_items(spec)

    def test_load_workload_file(self, tmp_path):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(_spec()), encoding="utf-8")
        assert len(load_workload_items(path)) == 2

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(DataError, match="not valid JSON"):
            load_workload_items(path)

    def test_load_rejects_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_workload_items(tmp_path / "absent.json")

    def test_load_rejects_invalid_utf8(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b'{"requests": [\xff\xfe]}')
        with pytest.raises(DataError, match="cannot read"):
            load_workload_items(path)

    def test_load_rejects_deeply_nested_json(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000, encoding="utf-8")
        with pytest.raises(DataError, match="not valid JSON"):
            load_workload_items(path)


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
        relative, absolute = load_workload_items(path)
        assert isinstance(relative.support, float) and relative.support == 0.5
        assert isinstance(absolute.support, int) and absolute.support == 5
        assert absolute.absolute_support() == 5
        # ceil(0.5 * |db|): resolved through the database, not the parser.
        assert relative.absolute_support() == -(-len(relative.db) // 2)

    def test_whole_valued_float_stays_relative(self):
        """``1.0`` means "all transactions" (relative), not "count 1"."""
        spec = _spec()
        spec["requests"] = [{"support": 1.0}]
        request = parse_workload_items(spec)[0]
        assert isinstance(request.support, float)
        assert request.absolute_support() == len(request.db)

    def test_boolean_support_rejected(self):
        spec = _spec()
        spec["requests"] = [{"support": True}]
        with pytest.raises(DataError, match="must be a number"):
            parse_workload_items(spec)

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
            parse_workload_items(["not", "a", "dict"])

    def test_non_object_request_entry_rejected(self):
        spec = _spec()
        spec["requests"] = ["oops"]
        with pytest.raises(DataError, match="must be an object"):
            parse_workload_items(spec)

    def test_missing_tenant_defaults_stay_distinct_per_index(self):
        spec = _spec()
        spec["requests"] = [{"support": 0.5}, {"support": 0.4}]
        tenants = [r.tenant for r in parse_workload_items(spec)]
        assert tenants == ["user-0", "user-1"]
        assert len(set(tenants)) == 2  # fairness needs distinct identities

    def test_per_request_seed_materializes_a_distinct_database(self):
        spec = _spec()
        spec["requests"].append({"tenant": "dana", "support": 0.5, "seed": 9})
        requests = parse_workload_items(spec)
        assert requests[2].db is not requests[0].db
        assert requests[2].db.fingerprint() != requests[0].db.fingerprint()

    def test_jobs_default_and_override(self):
        spec = _spec(jobs=2)
        spec["requests"].append({"tenant": "erin", "support": 0.5, "jobs": 1})
        requests = parse_workload_items(spec)
        assert [r.jobs for r in requests] == [2, 2, 1]


class TestReplay:
    def test_replay_is_deterministic_across_runs(self, serve_batch):
        """Two replays of a multi-tenant trace over two datasets, with an
        op between its halves, print identical rows apart from the
        seconds column."""
        spec = {
            "seed": 0,
            "requests": [
                {"tenant": "alice", "dataset": "weather", "support": 0.5},
                {"tenant": "bob", "dataset": "connect4", "support": 0.95},
                {"tenant": "carol", "dataset": "weather", "support": 0.4},
                {"tenant": "alice", "dataset": "connect4", "support": 0.93},
                {"op": "append", "dataset": "weather",
                 "transactions": [[1, 2, 5], [3, 4]]},
                {"tenant": "bob", "dataset": "weather", "support": 0.45},
                {"tenant": "carol", "dataset": "connect4", "support": 0.95},
                {"tenant": "alice", "dataset": "weather", "support": 0.5},
            ],
        }

        def run():
            _out, rows = serve_batch(spec)
            return [row[:-1] for row in rows]

        first, second = run(), run()
        assert len(first) == 7
        assert first == second

    def test_replay_is_exact_and_ordered(self, serve_batch, tmp_path):
        """Rows come back in arrival order, each with the oracle's
        pattern count, and the one mined entry equals the oracle's set."""
        requests = parse_workload_items(_spec())
        store = tmp_path / "warehouse"
        _out, rows = serve_batch(_spec(), "--warehouse-dir", str(store))
        assert [row[0] for row in rows] == ["alice", "bob"]
        for request, row in zip(requests, rows):
            expected = mine_hmine(request.db, request.absolute_support())
            assert int(row[3]) == request.absolute_support()
            assert int(row[6]) == len(expected)
        fingerprint = requests[0].db.fingerprint()
        bob_support = requests[1].absolute_support()
        assert PatternWarehouse(directory=store).get(
            fingerprint, bob_support
        ) == mine_hmine(requests[1].db, bob_support)

"""Tests for ``benchmarks/check_bench_current.py``, the stale-file check."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

_spec = importlib.util.spec_from_file_location(
    "check_bench_current", REPO / "benchmarks" / "check_bench_current.py"
)
check_bench_current = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_bench_current)
differences = check_bench_current.differences

#: Committed files kept current some other way: BENCH_warehouse.json by
#: a byte-exact ``git diff --exit-code`` step, BENCH_parallel.json frozen
#: with the sharded engine it records.
OTHERWISE_CHECKED = {"BENCH_warehouse.json", "BENCH_parallel.json"}


def test_a_skipped_key_is_ignored_at_any_depth():
    committed = {"seed": 0, "took_s": 1.0, "rows": [{"n": 3, "took_s": 0.2}]}
    regenerated = {"seed": 0, "took_s": 9.0, "rows": [{"n": 3, "took_s": 0.7}]}
    assert list(differences(committed, regenerated, frozenset({"took_s"}))) == []
    assert list(differences(committed, regenerated, frozenset())) == [
        "rows[0].took_s: committed 0.2, regenerated 0.7",
        "took_s: committed 1.0, regenerated 9.0",
    ]


def test_a_list_length_mismatch_is_reported():
    committed = {"rows": [{"n": 1}, {"n": 2}]}
    regenerated = {"rows": [{"n": 1}]}
    assert list(differences(committed, regenerated, frozenset())) == [
        "rows: 2 items committed, 1 regenerated"
    ]


def test_a_key_in_only_one_file_is_reported():
    committed = {"rows": [{"n": 1, "old": True}]}
    regenerated = {"rows": [{"n": 1, "new": True}]}
    assert list(differences(committed, regenerated, frozenset())) == [
        "rows[0].new: only in the regenerated file",
        "rows[0].old: only in the committed file",
    ]


def test_every_committed_bench_file_is_checked():
    committed = {path.name for path in REPO.glob("BENCH_*.json")}
    assert committed - OTHERWISE_CHECKED == set(check_bench_current.WALL_CLOCK)


def test_every_skipped_field_occurs_in_its_file():
    """A misspelt wall-clock field would skip nothing and fail every run."""

    def keys(value):
        if isinstance(value, dict):
            for key, child in value.items():
                yield key
                yield from keys(child)
        elif isinstance(value, list):
            for child in value:
                yield from keys(child)

    for name, skipped in check_bench_current.WALL_CLOCK.items():
        present = set(keys(json.loads((REPO / name).read_text())))
        assert skipped <= present, (name, sorted(skipped - present))

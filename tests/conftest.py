"""Shared fixtures: the paper's worked example and common small databases.

The paper develops one example end to end (Tables 1-2, Examples 1-5);
encoding it here lets the tests pin every intermediate artifact — the
pattern set at xi_old = 3, the MCP utility ordering, the compressed
groups, the F-list of the compressed database at xi_new = 2, and the
projected-database patterns — against the numbers printed in the paper.
"""

from __future__ import annotations

import json

import pytest

from repro.data.transactions import TransactionDatabase
from repro.mining.patterns import PatternSet

# Item encoding for the paper's example: letters -> ints.
A, B, C, D, E, F, G, H, I = 1, 2, 3, 4, 5, 6, 7, 8, 9

#: Human-readable names, for assertion messages.
ITEM_NAMES = {A: "a", B: "b", C: "c", D: "d", E: "e", F: "f", G: "g", H: "h", I: "i"}


@pytest.fixture
def serve_batch(tmp_path, capsys):
    """Replay a workload dict with ``repro serve-batch``; returns the
    printed output and the whitespace-split rows of its request table."""
    from repro.cli import main

    def run(spec: dict, *flags: str) -> tuple[str, list[list[str]]]:
        path = tmp_path / "serve-batch.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        assert main(["serve-batch", "--workload", str(path), *flags]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        start = next(i for i, line in enumerate(lines) if line.startswith("---"))
        end = lines.index("", start)
        return out, [line.split() for line in lines[start + 1:end]]

    return run


@pytest.fixture
def paper_db() -> TransactionDatabase:
    """Table 1: the five-tuple example database."""
    return TransactionDatabase(
        [
            [A, C, D, E, F, G],  # 100
            [B, C, D, F, G],     # 200
            [C, E, F, G],        # 300
            [A, C, E, I],        # 400
            [A, E, H],           # 500
        ],
        tids=[100, 200, 300, 400, 500],
    )


@pytest.fixture
def paper_old_patterns() -> PatternSet:
    """Example 1: the frequent patterns of Table 1 at xi_old = 3.

    The paper's printed list omits ``fc:3`` — an evident typo, since it
    lists ``fgc:3`` and every subset of a frequent pattern is frequent
    (tuples 100, 200 and 300 all contain both f and c). The complete set
    has 11 patterns.
    """
    patterns = PatternSet()
    patterns.add({F}, 3)
    patterns.add({F, G}, 3)
    patterns.add({F, C}, 3)  # missing from the paper's list; see docstring
    patterns.add({F, G, C}, 3)
    patterns.add({G}, 3)
    patterns.add({G, C}, 3)
    patterns.add({A}, 3)
    patterns.add({A, E}, 3)
    patterns.add({E}, 4)
    patterns.add({E, C}, 3)
    patterns.add({C}, 4)
    return patterns


@pytest.fixture
def tiny_db() -> TransactionDatabase:
    """A minimal database for unit tests that don't need the example."""
    return TransactionDatabase([[1, 2, 3], [1, 2], [2, 3], [3]])


@pytest.fixture
def ran(monkeypatch):
    """(kind, name) of every registry miner run, in order."""
    from repro.mining.registry import MinerSpec

    calls: list[tuple[str, str]] = []
    original = MinerSpec.mine

    def spy(spec, source, min_support, counters=None):
        calls.append((spec.kind, spec.name))
        return original(spec, source, min_support, counters)

    monkeypatch.setattr(MinerSpec, "mine", spy)
    return calls

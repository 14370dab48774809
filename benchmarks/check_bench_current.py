"""Fail when a regenerated ``BENCH_*.json`` differs from the committed one.

A benchmark script rewrites its ``BENCH_*.json`` at the repo root. Run
this right after it: every field of the regenerated file must equal the
committed file's (``git show HEAD:<file>``), except the wall-clock
fields, which no two runs share. A difference means the committed file
no longer records what the code does, and each differing field is
printed by its path.

Only files listed in :data:`WALL_CLOCK` are checked, each only after
regenerations under different ``PYTHONHASHSEED`` values were seen to
agree on every other field.

Usage::

    PYTHONPATH=src python benchmarks/bench_service_load.py
    python benchmarks/check_bench_current.py BENCH_service_load.json
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]

#: The wall-clock fields of each checked file: skipped wherever they
#: occur in it.
WALL_CLOCK: dict[str, frozenset[str]] = {
    "BENCH_backends.json": frozenset(
        {"bitset_seconds", "python_seconds", "encode_seconds", "speedup"}
    ),
    "BENCH_incremental.json": frozenset(
        {"fup_wall_s", "recycle_wall_s", "scratch_wall_s"}
    ),
    # The paper's per-miner seconds (HM/FP/TP, with and without -MCP and
    # -MLP), every other ``*_s`` column, and the speedups and savings
    # computed from them.
    "BENCH_paper.json": frozenset(
        {
            f"{tag}{variant}_s"
            for tag in ("HM", "FP", "TP")
            for variant in ("", "-MCP", "-MLP")
        }
        | {
            "time_pipeline_s", "time_io_s", "xi_old_mine_s", "compress_s",
            "investment_s", "saving_s", "saving/investment", "mine_s",
            "with_shortcut_s", "without_shortcut_s", "phase_1_s", "phase_2_s",
            "phase_3_s", "total_s", "time_s", "scratch_wall_s", "fup_wall_s",
            "recycle_wall_s", "speedup", "speedup_mcp", "speedup_mlp",
        }
    ),
    "BENCH_service_load.json": frozenset({"elapsed_seconds", "interactive_p99_s"}),
}


def differences(committed, regenerated, skipped: frozenset[str], path: str = ""):
    """The paths at which two JSON values differ, outside ``skipped`` keys."""
    if isinstance(committed, dict) and isinstance(regenerated, dict):
        for key in sorted(committed.keys() | regenerated.keys()):
            if key in skipped:
                continue
            where = f"{path}.{key}" if path else key
            if key not in committed or key not in regenerated:
                side = "regenerated" if key in regenerated else "committed"
                yield f"{where}: only in the {side} file"
                continue
            yield from differences(committed[key], regenerated[key], skipped, where)
    elif isinstance(committed, list) and isinstance(regenerated, list):
        if len(committed) != len(regenerated):
            yield (
                f"{path}: {len(committed)} items committed, "
                f"{len(regenerated)} regenerated"
            )
            return
        for index, (old, new) in enumerate(zip(committed, regenerated)):
            yield from differences(old, new, skipped, f"{path}[{index}]")
    elif committed != regenerated:
        yield f"{path}: committed {committed!r}, regenerated {regenerated!r}"


def main(argv: list[str]) -> int:
    if len(argv) != 1 or argv[0] not in WALL_CLOCK:
        print(f"usage: check_bench_current.py {{{','.join(sorted(WALL_CLOCK))}}}")
        return 2
    name = argv[0]
    committed = json.loads(
        subprocess.run(
            ["git", "show", f"HEAD:{name}"],
            cwd=REPO_ROOT,
            check=True,
            capture_output=True,
            text=True,
        ).stdout
    )
    regenerated = json.loads((REPO_ROOT / name).read_text())
    found = list(differences(committed, regenerated, WALL_CLOCK[name]))
    for line in found:
        print(f"{name}: {line}")
    if found:
        print(f"{name} is stale: regenerate it and commit the result")
        return 1
    print(f"{name} matches the committed file outside its wall-clock fields")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

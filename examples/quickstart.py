"""Quickstart: mine, relax the support, recycle.

The 60-second tour of the library: mine a dataset at an initial support,
lower the support (the paper's canonical constraint relaxation), and see
that recycling the first round's patterns gives the identical answer for
a fraction of the work.

Run:  python examples/quickstart.py
"""

from __future__ import annotations

import time

from repro import (
    CostCounters,
    compress,
    mine_hmine,
    pumsb_like,
    recycle_mine,
)


def main() -> None:
    db = pumsb_like()
    print(f"dataset: {len(db)} tuples, {db.item_count()} items, "
          f"average length {db.average_length():.1f}")

    # Iteration 1 — the user starts conservatively at 90% support (this
    # census-style stand-in is dense; see the paper's Table 3).
    xi_old = db.relative_to_absolute(0.90)
    started = time.perf_counter()
    old_patterns = mine_hmine(db, xi_old)
    first_seconds = time.perf_counter() - started
    print(f"\niteration 1: support {xi_old} -> {len(old_patterns)} patterns "
          f"(max length {old_patterns.max_length()}) in {first_seconds:.2f}s")

    # The 90% results look too coarse; relax to 82%. Instead of mining
    # from scratch, recycle: compress the database with the patterns we
    # already paid for, then mine the compressed database.
    xi_new = db.relative_to_absolute(0.82)

    started = time.perf_counter()
    from_scratch = mine_hmine(db, xi_new)
    scratch_seconds = time.perf_counter() - started

    counters = CostCounters()
    started = time.perf_counter()
    recycled = recycle_mine(db, old_patterns, xi_new, counters=counters)
    recycle_seconds = time.perf_counter() - started

    print(f"\niteration 2: support {xi_new}")
    print(f"  from scratch : {len(from_scratch)} patterns in {scratch_seconds:.2f}s")
    print(f"  recycled     : {len(recycled)} patterns in {recycle_seconds:.2f}s "
          f"(includes compression)")
    print(f"  identical    : {recycled == from_scratch}")
    print(f"  group-count shortcuts taken while mining: {counters.group_counts}")

    # What compression actually did, if you want to look inside:
    result = compress(db, old_patterns, "mcp")
    compressed = result.compressed
    print(f"\ncompression (MCP): {len(compressed.groups)} groups, "
          f"{compressed.grouped_tuple_count()}/{len(db)} tuples grouped, "
          f"ratio {compressed.compression_ratio():.3f}")
    largest = compressed.groups[0]
    print(f"largest group: pattern {largest.pattern} covering {largest.count} tuples")


if __name__ == "__main__":
    main()

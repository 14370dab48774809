"""Mining under a memory budget (the Section 5.3 experiments, hands-on).

When the H-struct / RP-Struct would not fit in memory, both miners
parallel-project the (compressed) database to disk partitions and mine
them one at a time. This example runs H-Mine and its recycling
counterpart under shrinking budgets on the Connect-4 stand-in and shows
the two recycling wins: less CPU *and* fewer bytes moved (group patterns
are written once per partition, not once per tuple).

Run:  python examples/memory_limited.py
"""

from __future__ import annotations

import time

from repro import (
    SimulatedDisk,
    compress,
    connect4_like,
    mine_hmine,
    mine_hmine_with_memory_budget,
    mine_rp_with_memory_budget,
)
from repro.storage.memory import estimate_transactions_bytes


def main() -> None:
    db = connect4_like()
    xi_old = db.relative_to_absolute(0.95)
    xi_new = db.relative_to_absolute(0.90)

    old_patterns = mine_hmine(db, xi_old)
    compressed = compress(db, old_patterns, "mcp").compressed
    full_bytes = estimate_transactions_bytes(list(db.transactions), db.item_count())
    print(f"dataset: {len(db)} tuples; full H-struct ≈ {full_bytes / 1024:.0f} KiB")
    print(f"recycling {len(old_patterns)} patterns from support {xi_old}; "
          f"mining at {xi_new}\n")

    print(f"{'budget':>10}  {'miner':>7}  {'cpu_s':>7}  {'disk_s':>7}  "
          f"{'io_KiB':>8}  {'patterns':>8}")
    for fraction in (1.0, 0.30, 0.10):
        budget = max(1, int(full_bytes * fraction))
        rows = []
        for label, runner, source in (
            ("H-Mine", mine_hmine_with_memory_budget, db),
            ("HM-MCP", mine_rp_with_memory_budget, compressed),
        ):
            disk = SimulatedDisk()
            started = time.perf_counter()
            patterns = runner(source, xi_new, budget, disk=disk)
            cpu = time.perf_counter() - started
            io_kib = (disk.total_bytes_read + disk.total_bytes_written) / 1024
            rows.append((label, cpu, disk.simulated_seconds, io_kib, len(patterns)))
        for label, cpu, disk_s, io_kib, count in rows:
            print(f"{budget:>10}  {label:>7}  {cpu:>7.2f}  {disk_s:>7.2f}  "
                  f"{io_kib:>8.0f}  {count:>8}")

    unlimited = mine_hmine(db, xi_new)
    budgeted = mine_hmine_with_memory_budget(db, xi_new, max(1, int(full_bytes * 0.1)))
    print(f"\nbudgeted result identical to unlimited in-memory mining: "
          f"{budgeted == unlimited}")


if __name__ == "__main__":
    main()

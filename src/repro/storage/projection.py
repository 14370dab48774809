"""The shared group-aware mining kernel and the memory-limited drivers.

This module is the single Phase 2 engine room. The first half is the
**group kernel**: counting, normalization, projection and the Lemma 3.1
single-group enumeration over the unified
:class:`~repro.core.groups.Group` representation, exposed through
:func:`mine_grouped` with two engines, picked from the input:

bitset
    A vertical engine over the shared
    :class:`~repro.data.encoded.EncodedDatabase`: each group is just
    *(pattern set, member-position mask)*; counting an item inside a
    group is one big-int ``&`` + ``bit_count()`` and projection narrows
    the mask — the word-parallel trick of the bitset Eclat, applied to
    group counting. Used whenever the source is a
    :class:`~repro.core.groups.GroupedDatabase` with an attached
    original (``supports_bitset``).
python
    The projected-database engine (Figure 3): explicit group rows,
    per-item loops. Used for everything else: bare hand-built group
    lists and the memory-limited partitions.

Both engines produce bit-identical pattern sets. :func:`mine_grouped`
is itself the `naive` recycler, RP-Mine (Figure 3); Recycle-HM/FP/TP
route their shared pieces — global F-list counting, root normalization,
the single-group enumerator — through this kernel instead of private
copies.

The second half is the memory-limited *parallel projection* machinery of
Sections 3.3 and 5.3: when the mining structure exceeds the budget, one
pass writes every tuple into the projected database of **each** frequent
item on (simulated) disk, and partitions are mined independently.
:func:`mine_hmine_with_memory_budget` (plain H-Mine) and
:func:`mine_rp_with_memory_budget` (recycling over groups) are the
Figures 21-24 pairing, registered as ``budget_fn`` capabilities in the
miner registry.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from repro.core.groups import Group, GroupedDatabase, to_grouped
from repro.data.encoded import EncodedDatabase
from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.metrics.counters import CostCounters
from repro.mining.flist import FList
from repro.mining.hmine import build_hstruct, mine_hmine_suffixes
from repro.mining.patterns import PatternSet
from repro.storage.disk import SimulatedDisk, cgroups_byte_size, transactions_byte_size
from repro.storage.memory import estimate_rpstruct_bytes, estimate_transactions_bytes

#: The stat keys every kernel pass charges (flushed into CostCounters).
KERNEL_STAT_KEYS = (
    "group_counts",
    "tuple_scans",
    "item_visits",
    "projections",
    "single_group_enumerations",
)


def new_kernel_stats() -> dict[str, int]:
    """A fresh zeroed stats dict with the kernel's counter keys."""
    return dict.fromkeys(KERNEL_STAT_KEYS, 0)


# ----------------------------------------------------------------------
# the horizontal (python) group kernel
# ----------------------------------------------------------------------
def count_group_supports(
    groups: list[Group], stats: dict[str, int]
) -> Counter[int]:
    """Item supports over a (projected) grouped database.

    A group's pattern items are counted once with the group count
    instead of tuple by tuple (Section 3.1's group-count saving); tails
    are scanned per occurrence.
    """
    counts: Counter[int] = Counter()
    for group in groups:
        if group.pattern:
            stats["group_counts"] += 1
            for item in group.pattern:
                counts[item] += group.count
        for tail in group.tails:
            stats["tuple_scans"] += 1
            stats["item_visits"] += len(tail)
            counts.update(tail)
    return counts


def normalize_groups(
    groups: list[Group], frequent_rank: dict[int, int], stats: dict[str, int]
) -> list[Group]:
    """Drop infrequent items, rank-sort, and merge groups by pattern."""
    merged: dict[tuple[int, ...], list] = {}
    for group in groups:
        pattern = tuple(
            sorted(
                (i for i in group.pattern if i in frequent_rank),
                key=frequent_rank.__getitem__,
            )
        )
        tails = []
        for tail in group.tails:
            filtered = tuple(
                sorted(
                    (i for i in tail if i in frequent_rank),
                    key=frequent_rank.__getitem__,
                )
            )
            if filtered:
                tails.append(filtered)
        if not pattern and not tails:
            continue
        slot = merged.setdefault(pattern, [0, []])
        slot[0] += group.count
        slot[1].extend(tails)
    return [
        Group(pattern, count, tuple(tails))
        for pattern, (count, tails) in merged.items()
    ]


def project_groups(
    groups: list[Group], item: int, rank: dict[int, int], stats: dict[str, int]
) -> list[Group]:
    """The ``item``-projected grouped database.

    Keeps, for every tuple containing ``item``, the items ranked strictly
    after it. Groups whose pattern contains ``item`` move wholesale
    (their count is preserved); otherwise only tails containing ``item``
    move, regrouped under their truncated pattern.
    """
    pivot = rank[item]
    merged: dict[tuple[int, ...], list] = {}
    stats["projections"] += 1
    for group in groups:
        if item in group.pattern:
            stats["group_counts"] += 1
            new_pattern = tuple(i for i in group.pattern if rank[i] > pivot)
            new_tails = []
            for tail in group.tails:
                stats["tuple_scans"] += 1
                truncated = tuple(i for i in tail if rank[i] > pivot)
                stats["item_visits"] += len(truncated)
                if truncated:
                    new_tails.append(truncated)
            if not new_pattern and not new_tails:
                continue
            slot = merged.setdefault(new_pattern, [0, []])
            slot[0] += group.count
            slot[1].extend(new_tails)
        else:
            truncated_pattern: tuple[int, ...] | None = None
            for tail in group.tails:
                stats["tuple_scans"] += 1
                if item not in tail:
                    continue
                if truncated_pattern is None:
                    truncated_pattern = tuple(
                        i for i in group.pattern if rank[i] > pivot
                    )
                truncated_tail = tuple(i for i in tail if rank[i] > pivot)
                stats["item_visits"] += len(truncated_tail)
                if not truncated_pattern and not truncated_tail:
                    continue
                slot = merged.setdefault(truncated_pattern, [0, []])
                slot[0] += 1
                if truncated_tail:
                    slot[1].append(truncated_tail)
    return [
        Group(pattern, count, tuple(tails))
        for pattern, (count, tails) in merged.items()
    ]


def find_single_group(
    groups: list[Group], frequent: list[int], min_support: int
) -> Group | None:
    """Return the lone group when Lemma 3.1 applies, else ``None``.

    The lemma requires every occurrence of every (locally) frequent item
    to lie in a single group's pattern: one group, no tails, and the
    pattern covering all frequent items.
    """
    if len(groups) != 1:
        return None
    group = groups[0]
    if group.tails or group.count < min_support:
        return None
    if group.pattern_set != set(frequent):
        return None
    return group


def enumerate_single_group(
    items: tuple[int, ...],
    count: int,
    prefix: tuple[int, ...],
    result: PatternSet,
    min_size: int = 1,
) -> None:
    """Lemma 3.1's enumeration: every combination of ``items`` (of size
    at least ``min_size``) extends ``prefix`` with support ``count``.

    All five recycling miners share this — it is the one place subset
    enumeration replaces recursion.
    """
    for size in range(min_size, len(items) + 1):
        for combo in combinations(items, size):
            result.add(prefix + combo, count)


class _PythonGroupEngine:
    """RP-InMemory (Figure 3) over explicit group rows."""

    def __init__(self, min_support: int, single_group_shortcut: bool = True) -> None:
        self.min_support = min_support
        self.single_group_shortcut = single_group_shortcut
        self.result = PatternSet()
        self.stats = new_kernel_stats()

    def mine(self, groups: list[Group], prefix: tuple[int, ...]) -> None:
        """Mine all frequent extensions of ``prefix``."""
        counts = count_group_supports(groups, self.stats)
        frequent = [i for i, c in counts.items() if c >= self.min_support]
        if not frequent:
            return
        # Local F-list: ascending support, ties by item id.
        frequent.sort(key=lambda i: (counts[i], i))
        rank = {item: pos for pos, item in enumerate(frequent)}
        normalized = normalize_groups(groups, rank, self.stats)

        shortcut = (
            find_single_group(normalized, frequent, self.min_support)
            if self.single_group_shortcut
            else None
        )
        if shortcut is not None:
            self.stats["single_group_enumerations"] += 1
            enumerate_single_group(
                shortcut.pattern, shortcut.count, prefix, self.result
            )
            return

        for item in frequent:
            new_prefix = prefix + (item,)
            self.result.add(new_prefix, counts[item])
            projected = project_groups(normalized, item, rank, self.stats)
            if projected:
                self.mine(projected, new_prefix)


class _BitsetGroupEngine:
    """The vertical group kernel: groups as (pattern set, position mask).

    Counting item ``i`` in a group is ``popcount(bitmap(i) & mask)`` for
    tail items and ``popcount(mask)`` outright for pattern items (the
    group-count saving); projecting on a pivot narrows each mask with one
    ``&``. Masks of distinct groups partition the prefix's tidset, so
    every emitted support is the exact support — bit-identical to the
    python engine.
    """

    def __init__(
        self,
        enc: EncodedDatabase,
        min_support: int,
        single_group_shortcut: bool = True,
    ) -> None:
        self.enc = enc
        self.min_support = min_support
        self.single_group_shortcut = single_group_shortcut
        self.result = PatternSet()
        self.stats = new_kernel_stats()

    def mine(
        self,
        states: list[tuple[frozenset[int], int]],
        candidates: list[int],
        prefix: tuple[int, ...],
    ) -> None:
        bitmap_for_item = self.enc.bitmap_for_item
        stats = self.stats
        counts: dict[int, int] = {}
        for item in candidates:
            bitmap = None
            total = 0
            for pattern_set, mask in states:
                if item in pattern_set:
                    stats["group_counts"] += 1
                    total += mask.bit_count()
                else:
                    if bitmap is None:
                        bitmap = bitmap_for_item(item)
                    stats["item_visits"] += 1
                    total += (bitmap & mask).bit_count()
            if total >= self.min_support:
                counts[item] = total
        if not counts:
            return
        frequent = sorted(counts, key=lambda i: (counts[i], i))

        # Lemma 3.1, vertically: when every frequent item is a pattern
        # item of every live state, the states merge into one tail-free
        # group under normalization (exactly the python engine's merged
        # single-group condition), with count = total live members.
        if self.single_group_shortcut and all(
            frequent_item in pattern_set
            for pattern_set, _mask in states
            for frequent_item in frequent
        ):
            stats["single_group_enumerations"] += 1
            total_members = sum(mask.bit_count() for _pattern, mask in states)
            enumerate_single_group(
                tuple(frequent), total_members, prefix, self.result
            )
            return

        for position, item in enumerate(frequent):
            new_prefix = prefix + (item,)
            self.result.add(new_prefix, counts[item])
            rest = frequent[position + 1 :]
            if not rest:
                continue
            stats["projections"] += 1
            bitmap = bitmap_for_item(item)
            children = [
                (pattern_set, child_mask)
                for pattern_set, mask in states
                if (
                    child_mask := (mask if item in pattern_set else bitmap & mask)
                )
            ]
            if children:
                self.mine(children, rest, new_prefix)


def _flush_kernel_stats(
    counters: CostCounters, stats: dict[str, int], result: PatternSet
) -> None:
    counters.group_counts += stats["group_counts"]
    counters.tuple_scans += stats["tuple_scans"]
    counters.item_visits += stats["item_visits"]
    counters.projections += stats["projections"]
    counters.single_group_enumerations += stats["single_group_enumerations"]
    counters.patterns_emitted += len(result)


def mine_grouped(
    source: GroupedDatabase | TransactionDatabase | list[Group],
    min_support: int,
    counters: CostCounters | None = None,
    single_group_shortcut: bool = True,
) -> PatternSet:
    """All patterns with support >= ``min_support`` from a grouped source.

    The one Phase 2 entry point every consumer shares. The bitset engine
    runs whenever the source carries an encoded original and full member
    masks; anything else (bare groups, memory-limited partitions) runs
    the python engine. ``single_group_shortcut=False`` disables the
    Lemma 3.1 enumeration — an ablation knob; results are identical
    either way.
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    grouped = to_grouped(source)
    groups = list(grouped.mining_groups())
    if grouped.supports_bitset:
        enc = grouped.encoded()
        assert enc is not None  # guaranteed by supports_bitset
        bitset_engine = _BitsetGroupEngine(enc, min_support, single_group_shortcut)
        states = [(g.pattern_set, g.mask) for g in groups if g.mask]
        bitset_engine.mine(states, [enc.item_of(c) for c in range(enc.item_count())], ())
        result, stats = bitset_engine.result, bitset_engine.stats
    else:
        python_engine = _PythonGroupEngine(min_support, single_group_shortcut)
        python_engine.mine(groups, ())
        result, stats = python_engine.result, python_engine.stats
    if counters is not None:
        _flush_kernel_stats(counters, stats, result)
    return result


# ----------------------------------------------------------------------
# memory-limited drivers (Sections 3.3 / 5.3, Figures 21-24)
# ----------------------------------------------------------------------
def mine_hmine_with_memory_budget(
    db: TransactionDatabase,
    min_support: int,
    memory_budget_bytes: int,
    disk: SimulatedDisk | None = None,
    counters: CostCounters | None = None,
    mode: str = "parallel",
) -> PatternSet:
    """H-Mine under a memory budget, spilling projections to disk.

    ``mode`` selects between the two projection schemes Section 3.3
    weighs: ``"parallel"`` (the paper's choice — one pass writes each
    tuple into *every* frequent item's partition, trading disk space for
    speed) and ``"partition"`` (each tuple is written only to its first
    item's partition, and partitions re-project forward after mining —
    less disk space, more passes).
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    if memory_budget_bytes < 1:
        raise MiningError(f"memory budget must be positive, got {memory_budget_bytes}")
    if mode not in ("parallel", "partition"):
        raise MiningError(f"unknown projection mode {mode!r}")
    disk = disk or SimulatedDisk(counters=counters)
    flist = FList.from_database(db, min_support)
    rank = {item: flist.rank(item) for item in flist}
    result = PatternSet()
    transactions = build_hstruct(db, flist)
    if mode == "parallel":
        _mine_transaction_block(
            transactions,
            (),
            min_support,
            rank,
            memory_budget_bytes,
            disk,
            result,
            counters,
            depth_key="h",
        )
    else:
        _mine_partitioned(
            transactions, min_support, rank, memory_budget_bytes, disk, result, counters
        )
    if counters is not None:
        counters.patterns_emitted += len(result)
    return result


def _mine_partitioned(
    transactions: list[tuple[int, ...]],
    min_support: int,
    rank: dict[int, int],
    budget: int,
    disk: SimulatedDisk,
    result: PatternSet,
    counters: CostCounters | None,
) -> None:
    """Partition-based projection (Section 3.3's space-saving variant).

    Each tuple lives in exactly one partition at a time — that of its
    first live item. Mining partition ``i`` handles every pattern
    containing ``i``; afterwards the partition's suffixes migrate
    (append-only chunks, so only delta bytes are charged) to their next
    item's partition. Disk holds each tuple once.
    """
    counts: Counter[int] = Counter()
    for tx in transactions:
        counts.update(tx)
    frequent = [i for i, c in counts.items() if c >= min_support]
    if not frequent:
        return
    frequent.sort(key=rank.__getitem__)
    frequent_set = set(frequent)

    partitions: dict[int, list[tuple[int, ...]]] = {i: [] for i in frequent}
    for tx in transactions:
        live = tuple(i for i in tx if i in frequent_set)
        if live:
            partitions[live[0]].append(live[1:])
    chunk_counts: dict[int, int] = {}
    for item in frequent:
        disk.write(
            f"part/{item}/0", partitions[item], transactions_byte_size(partitions[item])
        )
        chunk_counts[item] = 1
    partitions.clear()

    for item in frequent:
        suffixes: list[tuple[int, ...]] = []
        for chunk in range(chunk_counts[item]):
            key = f"part/{item}/{chunk}"
            suffixes.extend(disk.read(key))  # type: ignore[arg-type]
            disk.delete(key)
        result.add((item,), counts[item])
        live_suffixes = [tx for tx in suffixes if tx]
        if not live_suffixes:
            continue
        # Mine all extensions of `item` from its partition; the
        # in-memory/recurse decision reuses the parallel block.
        _mine_transaction_block(
            live_suffixes,
            (item,),
            min_support,
            rank,
            budget,
            disk,
            result,
            counters,
            depth_key=f"part-sub/{item}",
        )
        # Re-project forward: each suffix appends to its head's partition.
        forward: dict[int, list[tuple[int, ...]]] = {}
        for tx in live_suffixes:
            forward.setdefault(tx[0], []).append(tx[1:])
        for successor, rows in forward.items():
            chunk = chunk_counts[successor]
            disk.write(
                f"part/{successor}/{chunk}", rows, transactions_byte_size(rows)
            )
            chunk_counts[successor] = chunk + 1


def _mine_transaction_block(
    transactions: list[tuple[int, ...]],
    prefix: tuple[int, ...],
    min_support: int,
    rank: dict[int, int],
    budget: int,
    disk: SimulatedDisk,
    result: PatternSet,
    counters: CostCounters | None,
    depth_key: str,
) -> None:
    counts: Counter[int] = Counter()
    for tx in transactions:
        counts.update(tx)
    frequent = [i for i, c in counts.items() if c >= min_support]
    if not frequent:
        return
    frequent.sort(key=rank.__getitem__)

    estimate = estimate_transactions_bytes(transactions, len(frequent))
    if estimate <= budget:
        mined = mine_hmine_suffixes(transactions, min_support, prefix, rank, counters)
        for items, support in mined.items():
            result.add(items, support)
        return

    # Parallel projection: one pass writes each transaction into every
    # frequent item's projected database.
    frequent_set = set(frequent)
    partitions: dict[int, list[tuple[int, ...]]] = {i: [] for i in frequent}
    for tx in transactions:
        live = [i for i in tx if i in frequent_set]
        for position, item in enumerate(live):
            suffix = tuple(live[position + 1 :])
            if suffix:
                partitions[item].append(suffix)
    for item in frequent:
        key = f"{depth_key}/{'.'.join(map(str, prefix))}/{item}"
        disk.write(key, partitions[item], transactions_byte_size(partitions[item]))
    # Free the in-memory copy conceptually; mine partitions one at a time.
    for item in frequent:
        key = f"{depth_key}/{'.'.join(map(str, prefix))}/{item}"
        projected = disk.read(key)
        disk.delete(key)
        new_prefix = prefix + (item,)
        result.add(new_prefix, counts[item])
        _mine_transaction_block(
            projected,  # type: ignore[arg-type]
            new_prefix,
            min_support,
            rank,
            budget,
            disk,
            result,
            counters,
            depth_key,
        )


def mine_rp_with_memory_budget(
    compressed: GroupedDatabase | list[Group],
    min_support: int,
    memory_budget_bytes: int,
    disk: SimulatedDisk | None = None,
    counters: CostCounters | None = None,
) -> PatternSet:
    """RP-Mine under a memory budget (Figure 3, lines 1–6).

    The recycling advantage persists on disk: projected *compressed*
    databases store group patterns once, so both the bytes written and
    the per-partition mining shrink relative to plain H-Mine.
    """
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    if memory_budget_bytes < 1:
        raise MiningError(f"memory budget must be positive, got {memory_budget_bytes}")
    disk = disk or SimulatedDisk(counters=counters)
    groups = list(to_grouped(compressed).mining_groups())
    result = PatternSet()
    _mine_group_block(
        groups, (), min_support, memory_budget_bytes, disk, result, counters
    )
    if counters is not None:
        counters.patterns_emitted += len(result)
    return result


def _mine_group_block(
    groups: list[Group],
    prefix: tuple[int, ...],
    min_support: int,
    budget: int,
    disk: SimulatedDisk,
    result: PatternSet,
    counters: CostCounters | None,
) -> None:
    stats = new_kernel_stats()
    counts = count_group_supports(groups, stats)
    frequent = [i for i, c in counts.items() if c >= min_support]
    if counters is not None:
        counters.group_counts += stats["group_counts"]
        counters.tuple_scans += stats["tuple_scans"]
        counters.item_visits += stats["item_visits"]
    if not frequent:
        return
    frequent.sort(key=lambda i: (counts[i], i))
    rank = {item: pos for pos, item in enumerate(frequent)}

    # Estimate on the frequent-filtered structure — infrequent tail items
    # never enter the RP-Struct, exactly as H-Mine's estimate only counts
    # frequent occurrences.
    stats2 = new_kernel_stats()
    normalized = normalize_groups(groups, rank, stats2)
    estimate = estimate_rpstruct_bytes(normalized, len(frequent))
    if estimate <= budget:
        mined = mine_grouped(normalized, min_support, counters)
        for items, support in mined.items():
            result.add(prefix + tuple(items), support)
        return
    for item in frequent:
        projected = project_groups(normalized, item, rank, stats2)
        key = f"rp/{'.'.join(map(str, prefix))}/{item}"
        disk.write(key, projected, cgroups_byte_size(projected))
    if counters is not None:
        counters.group_counts += stats2["group_counts"]
        counters.tuple_scans += stats2["tuple_scans"]
        counters.item_visits += stats2["item_visits"]
        counters.projections += stats2["projections"]
    for item in frequent:
        key = f"rp/{'.'.join(map(str, prefix))}/{item}"
        projected = disk.read(key)
        disk.delete(key)
        new_prefix = prefix + (item,)
        result.add(new_prefix, counts[item])
        _mine_group_block(
            projected,  # type: ignore[arg-type]
            new_prefix,
            min_support,
            budget,
            disk,
            result,
            counters,
        )

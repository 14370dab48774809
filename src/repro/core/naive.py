"""Phase 2 of recycling: the naive RP-Mine algorithm (Figure 3).

Historically this module owned the whole projected-database engine and
its private ``CGroup`` row type. Both now live in the shared group
kernel: the unified :class:`~repro.core.groups.Group` replaces
``CGroup`` and the counting/normalization/projection/Lemma 3.1 machinery
sits in :mod:`repro.storage.projection`, where every recycling miner
shares it. This module keeps the classic :func:`mine_rp` entry point (a
thin veneer over :func:`~repro.storage.projection.mine_grouped`). The
deprecated ``CGroup``/``compressed_to_cgroups``/``database_to_cgroups``
shims that once bridged the rename are gone.

The two group exploits of Section 3.1 — counting a group's pattern items
once with the group count, and moving whole groups during projection —
plus the single-group shortcut (Lemma 3.1) are documented on the kernel
itself.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.groups import Group, GroupedDatabase
from repro.metrics.counters import CostCounters
from repro.mining.patterns import PatternSet

from repro.storage.projection import mine_grouped

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.data.transactions import TransactionDatabase


def mine_rp(
    compressed: "GroupedDatabase | list[Group] | TransactionDatabase",
    min_support: int,
    counters: CostCounters | None = None,
    single_group_shortcut: bool = True,
) -> PatternSet:
    """All patterns with support >= ``min_support`` from a compressed DB.

    This is Algorithm *Recycling* of Figure 3 restricted to the in-memory
    case, delegating to the shared group kernel
    (:func:`repro.storage.projection.mine_grouped`); the memory-limited
    path (lines 2–6, parallel projection to disk) lives in
    :func:`repro.storage.projection.mine_rp_with_memory_budget`.
    ``single_group_shortcut=False`` disables the Lemma 3.1 enumeration —
    an ablation knob; results are identical either way.
    """
    return mine_grouped(
        compressed,
        min_support,
        counters,
        single_group_shortcut=single_group_shortcut,
    )

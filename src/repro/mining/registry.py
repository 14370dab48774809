"""The capability-aware miner registry: one dispatch surface for all miners.

Every miner resolves through one registry of :class:`MinerSpec`
entries, read with :func:`get_miner` and :func:`iter_miners`. A spec
records everything a driver needs to pick a miner:

``name``
    CLI-facing identifier, unique per kind.
``kind``
    ``"baseline"`` (mines a :class:`TransactionDatabase` from scratch),
    ``"recycling"`` (mines a
    :class:`~repro.core.groups.GroupedDatabase` — the paper's phase 2),
    or ``"condensed"`` (mines a :class:`TransactionDatabase` directly
    into a :class:`~repro.data.patterns.CondensedPatternSet` of closed
    entries, the warehouse's condensed representation).
``fn``
    ``fn(source, min_support, counters=None) -> PatternSet`` (a
    ``CondensedPatternSet`` for the ``"condensed"`` kind).
``needs_compressed``
    Whether ``source`` must be in group representation. When set,
    :meth:`MinerSpec.mine` coerces any legacy source (a
    ``TransactionDatabase``, a bare group list) through
    :func:`repro.core.groups.to_grouped` — the registry, not each miner,
    owns the conversion.
``budget_fn``
    Optional memory-limited driver
    ``budget_fn(source, min_support, budget_bytes, *, disk=None,
    counters=None, ...)`` for miners that can spill projections to disk
    (Section 3.3 / Figures 21-24).

Registration is idempotent per ``(kind, name)`` and open: downstream code
registers a new miner with :func:`register` and every driver — CLI,
:class:`MiningSession`, ``recycle_mine``, the benchmark harness — picks
it up without further wiring.

The built-in miners live in :mod:`repro.mining`, :mod:`repro.core` and
:mod:`repro.storage.projection` (the grouped kernel, registered as the
``naive`` recycler); to avoid import cycles they are registered lazily
on first lookup (:func:`_bootstrap`), so importing this module stays
cheap and safe from anywhere in the package.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.errors import MiningError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.metrics.counters import CostCounters
    from repro.mining.patterns import PatternSet

KINDS = ("baseline", "recycling", "condensed")

#: Uniform miner signature: (source, min_support, counters) -> PatternSet.
MinerFn = Callable[..., "PatternSet"]


@dataclass(frozen=True)
class MinerSpec:
    """One registered miner and its capabilities."""

    name: str
    kind: str
    fn: MinerFn
    needs_compressed: bool = False
    budget_fn: MinerFn | None = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise MiningError(f"unknown miner kind {self.kind!r} (known: {KINDS})")

    @property
    def supports_memory_budget(self) -> bool:
        """Whether this miner has a memory-limited (spill-to-disk) driver."""
        return self.budget_fn is not None

    def mine(
        self, source: object, min_support: int, counters: "CostCounters | None" = None
    ) -> "PatternSet":
        """Run the miner with the uniform contract.

        For recycling miners (``needs_compressed``) the source is first
        coerced into a :class:`~repro.core.groups.GroupedDatabase` — the
        one capability-flagged conversion point that replaced the old
        per-miner ``isinstance`` unions.
        """
        if self.needs_compressed:
            from repro.core.groups import to_grouped

            source = to_grouped(source)
        return self.fn(source, min_support, counters)


_MINERS: dict[tuple[str, str], MinerSpec] = {}
_bootstrapped = False
_bootstrap_lock = threading.RLock()


def register(spec: MinerSpec) -> MinerSpec:
    """Add ``spec`` to the registry; duplicate (kind, name) is an error."""
    key = (spec.kind, spec.name)
    if key in _MINERS:
        raise MiningError(f"{spec.kind} miner {spec.name!r} is already registered")
    _MINERS[key] = spec
    return spec


def get_miner(name: str, kind: str = "baseline") -> MinerSpec:
    """Look up a miner by name and kind, raising :class:`MiningError`."""
    _bootstrap()
    spec = _MINERS.get((kind, name))
    if spec is None:
        known = ", ".join(miner_names(kind))
        raise MiningError(f"unknown {kind} miner {name!r} (known: {known})")
    return spec


def has_miner(name: str, kind: str = "baseline") -> bool:
    """Whether a miner is registered under ``(kind, name)``."""
    _bootstrap()
    return (kind, name) in _MINERS


def miner_names(kind: str) -> list[str]:
    """Sorted names of all miners of one kind."""
    _bootstrap()
    return sorted(name for k, name in _MINERS if k == kind)


def iter_miners(kind: str | None = None) -> list[MinerSpec]:
    """All registered specs (optionally one kind), sorted by (kind, name)."""
    _bootstrap()
    return [
        _MINERS[key]
        for key in sorted(_MINERS)
        if kind is None or key[0] == kind
    ]


def mine_with_budget(
    name: str,
    kind: str,
    source: object,
    min_support: int,
    memory_budget_bytes: int,
    **kwargs: object,
) -> "PatternSet":
    """Resolve a memory-budget-capable miner and run its budget driver.

    Extra keyword arguments (``disk``, ``counters``, ``mode``) pass
    through to the driver. Raises :class:`MiningError` when the miner has
    no memory-limited capability.
    """
    spec = get_miner(name, kind)
    if spec.budget_fn is None:
        raise MiningError(
            f"{kind} miner {name!r} has no memory-budget driver "
            "(see MinerSpec.supports_memory_budget)"
        )
    return spec.budget_fn(source, min_support, memory_budget_bytes, **kwargs)


def _bootstrap() -> None:
    """Register the built-in miners once, on first registry access.

    Deferred so that ``repro.mining.registry`` can be imported from
    anywhere (including the modules being registered) without cycles.
    The flag is set only once every miner is registered, and concurrent
    first lookups (a service's worker pool) wait on the lock for it.
    """
    global _bootstrapped
    if _bootstrapped:
        return
    with _bootstrap_lock:
        if not _bootstrapped:
            _register_builtins()
            _bootstrapped = True


def _register_builtins() -> None:
    from repro.core.recycle_fptree import mine_recycle_fptree
    from repro.core.recycle_hmine import mine_recycle_hmine
    from repro.core.recycle_treeprojection import mine_recycle_treeprojection
    from repro.mining.apriori import mine_apriori
    from repro.mining.bruteforce import mine_bruteforce
    from repro.mining.condensed import mine_closed_bitset
    from repro.mining.eclat import mine_eclat_bitset
    from repro.mining.fptree import mine_fpgrowth
    from repro.mining.hmine import mine_hmine
    from repro.mining.treeprojection import mine_treeprojection
    from repro.storage.projection import (
        mine_grouped,
        mine_hmine_with_memory_budget,
        mine_rp_with_memory_budget,
    )

    for spec in (
        MinerSpec(
            name="apriori",
            kind="baseline",
            fn=mine_apriori,
            description="level-wise candidate generation (Agrawal & Srikant)",
        ),
        MinerSpec(
            name="bruteforce",
            kind="baseline",
            fn=mine_bruteforce,
            description="exhaustive subset enumeration (test oracle)",
        ),
        MinerSpec(
            name="eclat-bitset",
            kind="baseline",
            fn=mine_eclat_bitset,
            description="eclat over shared encoded-database bitmaps",
        ),
        MinerSpec(
            name="fpgrowth",
            kind="baseline",
            fn=mine_fpgrowth,
            description="FP-tree pattern growth",
        ),
        MinerSpec(
            name="hmine",
            kind="baseline",
            fn=mine_hmine,
            budget_fn=mine_hmine_with_memory_budget,
            description="H-struct hyperlink mining (the paper's workhorse)",
        ),
        MinerSpec(
            name="treeprojection",
            kind="baseline",
            fn=mine_treeprojection,
            description="lexicographic tree with count matrices",
        ),
        MinerSpec(
            name="naive",
            kind="recycling",
            fn=mine_grouped,
            needs_compressed=True,
            budget_fn=mine_rp_with_memory_budget,
            description="RP-Mine over compressed groups (Figure 3)",
        ),
        MinerSpec(
            name="hmine",
            kind="recycling",
            fn=mine_recycle_hmine,
            needs_compressed=True,
            description="Recycle-HM: H-Mine with group links (Section 4.1)",
        ),
        MinerSpec(
            name="fpgrowth",
            kind="recycling",
            fn=mine_recycle_fptree,
            needs_compressed=True,
            description="Recycle-FP: FP-growth with group counts (Section 4.2)",
        ),
        MinerSpec(
            name="treeprojection",
            kind="recycling",
            fn=mine_recycle_treeprojection,
            needs_compressed=True,
            description="Recycle-TP: TreeProjection on groups (Section 4.3)",
        ),
        MinerSpec(
            name="closed",
            kind="condensed",
            fn=mine_closed_bitset,
            description="closed itemsets via LCM-style closure extension",
        ),
    ):
        register(spec)

"""The paper's contribution: recycling frequent patterns via compression.

The Phase 2 miners (the grouped kernel ``mine_grouped``, which is the
naive RP-Mine, and the three ``recycle_*`` modules) are exposed lazily
(PEP 562): they import or live in the shared group kernel of
:mod:`repro.storage.projection`, which in turn imports
:mod:`repro.core.groups` — eager imports here would re-enter that chain
whenever :mod:`repro.storage` is imported first. Everything cycle-free
(groups, compression, sessions, utilities) stays eager.
"""

from repro.core.compression import CompressionResult, compress
from repro.core.groups import Group, GroupedDatabase, to_grouped
from repro.core.recycle import (
    RecycleOutcome,
    recycle_mine,
    recycle_mine_detailed,
)
from repro.core.fup import fup_applicable, fup_update, fup_update_delta
from repro.core.session import IterationReport, MiningSession
from repro.core.utility import (
    ARRIVAL,
    MCP,
    MLP,
    RANDOM,
    STRATEGIES,
    CompressionStrategy,
    get_strategy,
    mcp_utility,
    mlp_utility,
)

#: name -> (module, attribute) for the lazily exposed Phase 2 miners.
_LAZY_EXPORTS = {
    "mine_grouped": ("repro.storage.projection", "mine_grouped"),
    "mine_recycle_fptree": ("repro.core.recycle_fptree", "mine_recycle_fptree"),
    "mine_recycle_hmine": ("repro.core.recycle_hmine", "mine_recycle_hmine"),
    "mine_recycle_treeprojection": (
        "repro.core.recycle_treeprojection",
        "mine_recycle_treeprojection",
    ),
}


def __getattr__(name: str) -> object:
    try:
        module_name, attribute = _LAZY_EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}"
        ) from None
    import importlib

    return getattr(importlib.import_module(module_name), attribute)


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY_EXPORTS))


__all__ = [
    "ARRIVAL",
    "CompressionResult",
    "CompressionStrategy",
    "Group",
    "GroupedDatabase",
    "IterationReport",
    "MCP",
    "MLP",
    "MiningSession",
    "RANDOM",
    "RecycleOutcome",
    "STRATEGIES",
    "compress",
    "fup_applicable",
    "fup_update",
    "fup_update_delta",
    "get_strategy",
    "mcp_utility",
    "mine_grouped",
    "mine_recycle_fptree",
    "mine_recycle_hmine",
    "mine_recycle_treeprojection",
    "mlp_utility",
    "recycle_mine",
    "recycle_mine_detailed",
    "to_grouped",
]

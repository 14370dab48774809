"""Baseline frequent-pattern miners (the substrate the paper adapts).

All miners share one contract::

    mine_*(db, min_support, counters=None) -> PatternSet

with absolute ``min_support`` (support >= threshold is frequent) and
optional :class:`~repro.metrics.counters.CostCounters` accounting.
"""

from repro.mining.apriori import mine_apriori
from repro.mining.bruteforce import mine_bruteforce
from repro.mining.eclat import mine_eclat_bitset
from repro.mining.flist import FList
from repro.mining.fptree import FPNode, FPTree, mine_fpgrowth
from repro.mining.hmine import build_hstruct, mine_hmine, mine_hmine_suffixes
from repro.mining.patterns import Pattern, PatternSet, pattern
from repro.mining.registry import (
    MinerSpec,
    get_miner,
    has_miner,
    iter_miners,
    mine_with_budget,
    miner_names,
    register,
)
from repro.mining.topk import mine_top_k, top_k_by_probe
from repro.mining.treeprojection import mine_treeprojection

__all__ = [
    "FList",
    "MinerSpec",
    "FPNode",
    "FPTree",
    "Pattern",
    "PatternSet",
    "build_hstruct",
    "get_miner",
    "has_miner",
    "iter_miners",
    "mine_apriori",
    "mine_bruteforce",
    "mine_eclat_bitset",
    "mine_fpgrowth",
    "mine_hmine",
    "mine_hmine_suffixes",
    "mine_top_k",
    "mine_treeprojection",
    "mine_with_budget",
    "miner_names",
    "pattern",
    "register",
    "top_k_by_probe",
]

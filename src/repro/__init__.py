"""repro — reproduction of "Go Green: Recycle and Reuse Frequent Patterns"
(Cong, Ooi, Tan & Tung, ICDE 2004).

The library implements the paper's two-phase pattern-recycling pipeline
(compress a database with previously mined frequent patterns, then mine
the compressed database) together with every substrate it depends on:
baseline miners (Apriori, Eclat, H-Mine, FP-growth, Tree Projection), a
constraint framework, synthetic dataset generators, a simulated disk for
memory-limited mining, and a benchmark harness regenerating the paper's
tables and figures.

Quickstart::

    from repro import weather_like, mine_hmine, recycle_mine

    db = weather_like()
    old = mine_hmine(db, min_support=200)          # xi_old
    new = recycle_mine(db, old, min_support=80)    # xi_new, recycled
"""

from repro.constraints import (
    AggregateConstraint,
    ConstraintContext,
    ConstraintSet,
    ItemsRequired,
    ItemsWithin,
    MaxLength,
    MaxSupport,
    MinLength,
    MinSupport,
    mine_constrained,
)
from repro.core import (
    CompressionResult,
    GroupedDatabase,
    MiningSession,
    compress,
    fup_update,
    mine_grouped,
    mine_recycle_fptree,
    mine_recycle_hmine,
    mine_recycle_treeprojection,
    recycle_mine,
    recycle_mine_detailed,
)
from repro.rules import AssociationRule, filter_rules, generate_rules
from repro.data import (
    DATASETS,
    EncodedDatabase,
    Item,
    ItemTable,
    QuestParams,
    TransactionDatabase,
    connect4_like,
    forest_like,
    get_dataset,
    pumsb_like,
    quest_database,
    random_database,
    read_patterns,
    read_transactions,
    weather_like,
    write_patterns,
    write_transactions,
)
from repro.errors import (
    BenchmarkError,
    CompressionError,
    ConstraintError,
    DataError,
    MiningError,
    RecycleError,
    ReproError,
    StorageError,
)
from repro.metrics import CostCounters
from repro.service import (
    MineRequest,
    MineResponse,
    MiningService,
    PatternWarehouse,
)
from repro.mining import (
    FList,
    MinerSpec,
    PatternSet,
    get_miner,
    iter_miners,
    mine_apriori,
    mine_eclat_bitset,
    mine_fpgrowth,
    mine_hmine,
    mine_top_k,
    mine_treeprojection,
    mine_with_budget,
    miner_names,
    register,
)
from repro.storage import (
    SimulatedDisk,
    megabytes,
    mine_hmine_with_memory_budget,
    mine_rp_with_memory_budget,
)

__version__ = "1.0.0"

__all__ = [
    "AggregateConstraint",
    "BenchmarkError",
    "CompressionError",
    "CompressionResult",
    "ConstraintContext",
    "ConstraintError",
    "ConstraintSet",
    "AssociationRule",
    "CostCounters",
    "DATASETS",
    "DataError",
    "EncodedDatabase",
    "FList",
    "GroupedDatabase",
    "MinerSpec",
    "Item",
    "ItemTable",
    "ItemsRequired",
    "ItemsWithin",
    "MaxLength",
    "MaxSupport",
    "MinLength",
    "MinSupport",
    "MiningError",
    "MineRequest",
    "MineResponse",
    "MiningService",
    "MiningSession",
    "PatternSet",
    "PatternWarehouse",
    "QuestParams",
    "RecycleError",
    "ReproError",
    "SimulatedDisk",
    "StorageError",
    "TransactionDatabase",
    "compress",
    "connect4_like",
    "filter_rules",
    "forest_like",
    "fup_update",
    "generate_rules",
    "get_dataset",
    "get_miner",
    "iter_miners",
    "megabytes",
    "mine_apriori",
    "mine_constrained",
    "mine_eclat_bitset",
    "mine_fpgrowth",
    "mine_grouped",
    "mine_hmine",
    "mine_hmine_with_memory_budget",
    "mine_recycle_fptree",
    "mine_recycle_hmine",
    "mine_recycle_treeprojection",
    "mine_rp_with_memory_budget",
    "mine_top_k",
    "mine_treeprojection",
    "mine_with_budget",
    "miner_names",
    "pumsb_like",
    "register",
    "quest_database",
    "random_database",
    "read_patterns",
    "read_transactions",
    "recycle_mine",
    "recycle_mine_detailed",
    "weather_like",
    "write_patterns",
    "write_transactions",
]

"""Transaction data substrate: databases, catalogs, I/O and generators."""

from repro.data.encoded import EncodedDatabase, bit_positions
from repro.data.datasets import (
    DATASETS,
    DatasetSpec,
    connect4_like,
    forest_like,
    get_dataset,
    pumsb_like,
    weather_like,
)
from repro.data.io import (
    read_patterns,
    read_transactions,
    write_patterns,
    write_transactions,
)
from repro.data.items import Item, ItemTable
from repro.data.patterns import (
    REPRESENTATIONS,
    CondensedPatternSet,
    Pattern,
    PatternSet,
    pattern,
)
from repro.data.synthetic import (
    QuestParams,
    attribute_value_database,
    quest_database,
    random_database,
)
from repro.data.transactions import TransactionDatabase
from repro.data.versioned import DatabaseDelta, VersionedDatabase

__all__ = [
    "DATASETS",
    "CondensedPatternSet",
    "DatabaseDelta",
    "DatasetSpec",
    "EncodedDatabase",
    "Item",
    "ItemTable",
    "Pattern",
    "PatternSet",
    "QuestParams",
    "REPRESENTATIONS",
    "TransactionDatabase",
    "VersionedDatabase",
    "attribute_value_database",
    "bit_positions",
    "connect4_like",
    "pattern",
    "forest_like",
    "get_dataset",
    "pumsb_like",
    "quest_database",
    "random_database",
    "read_patterns",
    "read_transactions",
    "weather_like",
    "write_patterns",
    "write_transactions",
]

"""Crash-safe persistence and recovery for the mining service.

The paper's premise is that previously mined patterns are an asset worth
recycling — an asset that must therefore survive the process. Before
this package, only warehouse ``.patterns`` files did: version chains
lived in memory, so a restart lost the planner's *update* path.
``repro.durability`` is the layer that makes the whole recycling state
durable, with one chain record per version hop:

:mod:`repro.durability.atomic`
    The single atomic writer (temp + fsync + ``os.replace``) every
    durable file goes through, with the ``persist.write`` /
    ``persist.rename`` fault points wired in, and the durable unlink
    (unlink + directory fsync) every deletion goes through.
:mod:`repro.durability.chains`
    Durable :class:`ChainRecord` hops (tid-stamped append/delete rows)
    that invert, apply and compose exactly — the file format behind
    fingerprint-identical chain restore.
:mod:`repro.durability.gc`
    Pure GC planning over chain records: reachability pruning of dead
    hops and compaction of ancient hops into composed records.
:mod:`repro.durability.store`
    :class:`DurableStore`, the only reader and writer of one warehouse
    directory and owner of its chain-record registry, with
    :meth:`~DurableStore.recover` — stray-temp sweep, quarantine, chain
    and entry-file loading.

Layering: imports :mod:`repro.data` and :mod:`repro.resilience` only;
:mod:`repro.service` builds on it, never the other way around (enforced
in ``tests/test_layering.py``).
"""

from __future__ import annotations

from repro.durability.atomic import atomic_write_text, sweep_tmp_files
from repro.durability.chains import (
    CHAIN_FORMAT_VERSION,
    CHAIN_SUFFIX,
    ChainRecord,
    apply_record,
    chain_record_text,
    compose_records,
    invert_record,
    read_chain_record,
    record_from_node,
    restore_version,
)
from repro.durability.gc import GCPlan, GCReport, plan_gc
from repro.durability.store import (
    CHAINS_DIR,
    DurableStore,
    RecoveryReport,
)

__all__ = [
    "CHAINS_DIR",
    "CHAIN_FORMAT_VERSION",
    "CHAIN_SUFFIX",
    "ChainRecord",
    "DurableStore",
    "GCPlan",
    "GCReport",
    "RecoveryReport",
    "apply_record",
    "atomic_write_text",
    "chain_record_text",
    "compose_records",
    "invert_record",
    "plan_gc",
    "read_chain_record",
    "record_from_node",
    "restore_version",
    "sweep_tmp_files",
]

"""Deterministic cost accounting for mining runs.

Pure-Python wall-clock numbers are noisy and roughly two orders of
magnitude above the paper's 2004 C++ numbers, so every experiment in this
reproduction also reports *operation counts* — a machine-independent cost
model. The quantities mirror where the paper says the work goes
(Section 3.1): support counting and projected-database construction.

Miners accumulate counts locally (plain ints in hot loops) and flush them
into a :class:`CostCounters` at phase boundaries, so accounting adds no
per-item overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class CostCounters:
    """Operation counts for one mining (or compression) run.

    Attributes
    ----------
    item_visits:
        Individual item occurrences touched while counting supports. This
        is the quantity group counts amortize: scanning a group header
        once instead of its tuples one by one.
    tuple_scans:
        Transactions (or group tails) examined.
    group_counts:
        Times a whole group was accounted for via its count in one step —
        the recycling saving, visible only in recycling miners.
    projections:
        Projected databases constructed.
    single_group_enumerations:
        Uses of the Lemma 3.1 shortcut (enumerate a group's power set).
    patterns_emitted:
        Frequent patterns produced.
    containment_checks:
        Pattern-containment tests during compression.
    disk_reads / disk_writes / bytes_read / bytes_written:
        Simulated I/O from :mod:`repro.storage` (memory-limited mining).
    """

    item_visits: int = 0
    tuple_scans: int = 0
    group_counts: int = 0
    projections: int = 0
    single_group_enumerations: int = 0
    patterns_emitted: int = 0
    containment_checks: int = 0
    disk_reads: int = 0
    disk_writes: int = 0
    bytes_read: int = 0
    bytes_written: int = 0
    _extra: dict[str, int] = field(default_factory=dict, repr=False)

    def add(self, name: str, amount: int = 1) -> None:
        """Bump a counter by name (standard field or ad-hoc extra).

        Only true dataclass fields take the attribute fast path;
        anything else (including names that collide with methods like
        ``merge``) lands in ``_extra`` instead of clobbering a bound
        method.
        """
        if name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + amount)
        else:
            self._extra[name] = self._extra.get(name, 0) + amount

    def merge(self, other: "CostCounters") -> None:
        """Accumulate another run's counts into this one."""
        for f in fields(self):
            if f.name == "_extra":
                continue
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        for name, amount in other._extra.items():
            self._extra[name] = self._extra.get(name, 0) + amount

    def total_work(self) -> int:
        """A single scalar proxy for CPU cost.

        Visits + scans + projections, plus the vertical and matrix
        kernels' own steps (the ``tidset_intersections`` and
        ``matrix_updates`` extras), whose search never touches the
        first three.
        """
        extra = self._extra
        return (
            self.item_visits
            + self.tuple_scans
            + self.projections
            + extra.get("tidset_intersections", 0)
            + extra.get("matrix_updates", 0)
        )

    def as_dict(self) -> dict[str, int]:
        """All counters (standard and extra) as a plain dict."""
        result = {
            f.name: getattr(self, f.name) for f in fields(self) if f.name != "_extra"
        }
        result.update(self._extra)
        return result


#: Names eligible for the attribute fast path in :meth:`CostCounters.add`.
_COUNTER_FIELDS = frozenset(
    f.name for f in fields(CostCounters) if f.name != "_extra"
)

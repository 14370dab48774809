"""Frequent patterns and pattern sets.

A *pattern* (itemset) is represented as a ``frozenset[int]``.
:class:`PatternSet` is the universal result type of every miner in this
library and the input to the recycling pipeline: the patterns mined at the
old constraints are exactly what gets recycled into compression.

This lives in the data layer — it is a pure value object with no mining
logic — so that pattern I/O (:mod:`repro.data.io`) stays inside the
layer. :mod:`repro.mining.patterns` re-exports it under its historical
name.
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Mapping

from repro.errors import MiningError

Pattern = frozenset[int]


def pattern(items: Iterable[int]) -> Pattern:
    """Build a pattern from any iterable of item ids."""
    return frozenset(items)


class PatternSet:
    """A mapping from pattern to absolute support.

    Supports the operations the recycling pipeline needs: filtering on new
    constraints (the *tighten* path), utility-ordered iteration (the
    compression phase), and set-equality comparison (the correctness
    invariant in the test suite).

    >>> ps = PatternSet({frozenset({1}): 3, frozenset({1, 2}): 2})
    >>> ps.support(frozenset({1, 2}))
    2
    >>> len(ps.filter_min_support(3))
    1
    """

    #: True only on a set the Eclat kernel (``eclat-bitset``) proved free
    #: of support ties (no pattern has an extension of equal support), so
    #: its closed form is the set itself. Every other miner's result, and
    #: every derived set or copy, reports False.
    tie_free = False

    def __init__(self, patterns: Mapping[Pattern, int] | None = None) -> None:
        self._supports: dict[Pattern, int] = {}
        if patterns:
            for items, support in patterns.items():
                self.add(items, support)

    # ------------------------------------------------------------------
    # construction & mutation
    # ------------------------------------------------------------------
    @classmethod
    def _trusted(cls, supports: dict[Pattern, int]) -> "PatternSet":
        """Adopt ``supports`` without copying or re-validating it.

        For a mapping the library built itself, whose keys are non-empty
        frozensets and whose supports are non-negative (a search's own
        output, or a filter, copy or expansion of a set): the dict
        becomes the set's own, so the caller must not keep mutating it.
        Input from outside the library goes through :meth:`add`.
        """
        result = cls.__new__(cls)
        result._supports = supports
        return result

    def add(self, items: Iterable[int], support: int) -> None:
        """Record a pattern. Re-adding must agree on the support."""
        key = frozenset(items)
        if not key:
            raise MiningError("the empty pattern cannot be stored")
        if support < 0:
            raise MiningError(f"negative support {support} for {sorted(key)}")
        existing = self._supports.get(key)
        if existing is not None and existing != support:
            raise MiningError(
                f"conflicting supports for {sorted(key)}: {existing} vs {support}"
            )
        self._supports[key] = support

    # ------------------------------------------------------------------
    # mapping protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._supports)

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._supports)

    def __contains__(self, items: object) -> bool:
        if isinstance(items, frozenset):
            return items in self._supports
        if isinstance(items, Iterable):
            return frozenset(items) in self._supports  # type: ignore[arg-type]
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternSet):
            return NotImplemented
        return self._supports == other._supports

    def __hash__(self) -> int:  # pragma: no cover - not hashable by design
        raise TypeError("PatternSet is mutable and unhashable")

    def __repr__(self) -> str:
        return f"PatternSet(n={len(self)}, max_len={self.max_length()})"

    def support(self, items: Iterable[int]) -> int:
        """Support of a stored pattern; raises if the pattern is absent."""
        key = frozenset(items)
        try:
            return self._supports[key]
        except KeyError:
            raise MiningError(f"pattern {sorted(key)} not in set") from None

    def get(self, items: Iterable[int], default: int | None = None) -> int | None:
        """Support of a pattern, or ``default`` when absent."""
        return self._supports.get(frozenset(items), default)

    def items(self) -> Iterator[tuple[Pattern, int]]:
        """Iterate ``(pattern, support)`` pairs."""
        return iter(self._supports.items())

    def as_dict(self) -> dict[Pattern, int]:
        """A shallow copy of the underlying mapping."""
        return dict(self._supports)

    # ------------------------------------------------------------------
    # statistics
    # ------------------------------------------------------------------
    def max_length(self) -> int:
        """Length of the longest pattern (0 when empty). Table 3 reports this."""
        return max((len(p) for p in self._supports), default=0)

    # ------------------------------------------------------------------
    # derived sets
    # ------------------------------------------------------------------
    def filter(self, predicate: Callable[[Pattern, int], bool]) -> "PatternSet":
        """Patterns satisfying ``predicate(pattern, support)``.

        This is the paper's *tightened constraints* path: when the new
        constraint set only shrinks the solution space, the new result is
        a filter over the old one — no mining required.
        """
        result = PatternSet()
        for items, support in self._supports.items():
            if predicate(items, support):
                result._supports[items] = support
        return result

    def filter_min_support(self, min_support: int) -> "PatternSet":
        """Patterns whose support is at least ``min_support``.

        Always a new set. The planner's filter path calls this on a
        warehouse entry's expansion (for a full entry, its held mapping)
        only when the entry was mined below ``min_support``; an exact hit
        is copied there without this scan. When no support falls below
        the threshold the result is a dict copy.
        """
        if min(self._supports.values(), default=min_support) >= min_support:
            return PatternSet._trusted(self._supports.copy())
        return PatternSet._trusted(
            {
                items: support
                for items, support in self._supports.items()
                if support >= min_support
            }
        )

    def closed(self) -> "PatternSet":
        """The closed patterns (no superset with identical support)."""
        result = PatternSet()
        for items, support in self._supports.items():
            is_closed = not any(
                items < other and other_support == support
                for other, other_support in self._supports.items()
            )
            if is_closed:
                result._supports[items] = support
        return result


# ---------------------------------------------------------------------------
# condensed representations
# ---------------------------------------------------------------------------

#: Representations a warehouse entry (or pattern file) can use. ``full``
#: stores every frequent pattern; ``closed`` stores only patterns with no
#: superset of identical support.
REPRESENTATIONS = ("full", "closed")


class CondensedPatternSet:
    """A frequent-pattern set stored through a condensed representation.

    The object is a drop-in warehouse payload: it remembers only the
    *entries* of its representation (all patterns for ``full``, the
    closed patterns for ``closed``) plus the mining threshold, which is
    all it takes to reconstruct the exact frequent set; the optional
    transaction count of the mined database only rides along.
    :meth:`expand` is lossless and cached.

    The closed condensation is *threshold independent*: whether a
    pattern is closed does not change when the support threshold is
    raised, so :meth:`filter_min_support` can tighten the threshold by
    filtering the entries alone. (The planner's filter path instead
    filters :meth:`expand` of the entry it was handed: a full entry's
    expansion shares its mapping, so filtering it copies nothing first.)

    >>> full = PatternSet({frozenset({1}): 3, frozenset({2}): 3,
    ...                    frozenset({1, 2}): 3})
    >>> condensed = CondensedPatternSet.condense(full, 2, "closed")
    >>> len(condensed)  # {1,2} subsumes both singletons
    1
    >>> condensed.expand() == full
    True
    """

    def __init__(
        self,
        representation: str,
        entries: "Mapping[Pattern, int] | PatternSet",
        absolute_support: int,
        *,
        n_transactions: int | None = None,
    ) -> None:
        if representation not in REPRESENTATIONS:
            raise MiningError(
                f"unknown representation {representation!r}; "
                f"expected one of {REPRESENTATIONS}"
            )
        if absolute_support < 0:
            raise MiningError(f"negative absolute_support {absolute_support}")
        self.representation = representation
        self.absolute_support = absolute_support
        self.n_transactions = n_transactions
        self._entries: dict[Pattern, int] = {}
        for items, support in entries.items():
            key = frozenset(items)
            if not key:
                raise MiningError("the empty pattern cannot be a condensed entry")
            if support < 0:
                raise MiningError(f"negative support {support} for {sorted(key)}")
            # Entries below the threshold are tolerated here (so corrupt
            # stored sets can be held and audited); file reads reject
            # them up front and quarantine the file.
            self._entries[key] = support
        self._expanded: PatternSet | None = None
        self._expanded_count: int | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def _trusted(
        cls,
        representation: str,
        entries: dict[Pattern, int],
        absolute_support: int,
        *,
        n_transactions: int | None = None,
        expanded_count: int | None = None,
    ) -> "CondensedPatternSet":
        """Adopt ``entries`` without copying or re-validating them.

        For entries that already came out of a :class:`PatternSet` (whose
        ``add`` validated every pattern) or out of a condensation of one:
        the dict becomes the object's own, so the caller must not keep
        mutating it. Input from outside the library (files, user code)
        goes through the validating constructor.
        """
        result = cls.__new__(cls)
        result.representation = representation
        result.absolute_support = absolute_support
        result.n_transactions = n_transactions
        result._entries = entries
        result._expanded = None
        result._expanded_count = expanded_count
        return result

    def detached(self) -> "CondensedPatternSet":
        """A copy that shares the entries but not the cached expansion.

        Expanding the copy caches the expansion on the copy, never on
        this object — how a byte-budgeted warehouse serves a condensed
        entry without holding its expansion.
        """
        return self._trusted(
            self.representation,
            self._entries,
            self.absolute_support,
            n_transactions=self.n_transactions,
            expanded_count=self.known_expanded_count(),
        )

    def as_full(self) -> "CondensedPatternSet":
        """The same set in the ``full`` representation.

        A ``full`` set returns itself. Otherwise the set is expanded
        once (on a :meth:`detached` copy, so nothing is cached here) and
        the result adopts the expansion's mapping without copying it.
        """
        if self.representation == "full":
            return self
        expanded = self.detached().expand()
        return self._trusted(
            "full",
            expanded._supports,
            self.absolute_support,
            n_transactions=self.n_transactions,
            expanded_count=len(expanded),
        )

    @classmethod
    def condense(
        cls,
        patterns: PatternSet,
        absolute_support: int,
        representation: str,
        *,
        n_transactions: int | None = None,
    ) -> "CondensedPatternSet":
        """Condense an exact frequent set into the chosen representation.

        ``patterns`` must be a complete (downward-closed) frequent set at
        ``absolute_support`` — exactly what every miner in the registry
        produces.
        """
        if representation == "full":
            entries = patterns.as_dict()
        elif representation == "closed":
            entries = cls._closed_entries(patterns)
        else:
            raise MiningError(
                f"unknown representation {representation!r}; "
                f"expected one of {REPRESENTATIONS}"
            )
        return cls._trusted(
            representation,
            entries,
            absolute_support,
            n_transactions=n_transactions,
            expanded_count=len(patterns),
        )

    @staticmethod
    def _closed_entries(patterns: PatternSet) -> dict[Pattern, int]:
        """Closed patterns via immediate-superset marking, O(N * maxlen).

        A pattern is non-closed iff some superset shares its support, and
        support is antitone along the subset chain to that superset, so
        checking *immediate* supersets inside the frequent set suffices.
        Each pattern is keyed by an int bitmask of its items, so an
        immediate subset is one XOR and an int-keyed lookup rather than
        a new frozenset.
        """
        supports = patterns._supports
        bits: dict[int, int] = {}
        masks: dict[Pattern, int] = {}
        for items in supports:
            mask = 0
            for item in items:
                bit = bits.get(item)
                if bit is None:
                    bit = bits[item] = 1 << len(bits)
                mask |= bit
            masks[items] = mask
        support_of = {masks[items]: s for items, s in supports.items()}.get
        non_closed: set[int] = set()
        for items, support in supports.items():
            if len(items) > 1:
                mask = masks[items]
                for item in items:
                    sub = mask ^ bits[item]
                    if support_of(sub) == support:
                        non_closed.add(sub)
        return {p: s for p, s in supports.items() if masks[p] not in non_closed}

    # ------------------------------------------------------------------
    # mapping-ish protocol over the condensed entries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        """Number of condensed *entries* (not expanded patterns)."""
        return len(self._entries)

    def __iter__(self) -> Iterator[Pattern]:
        return iter(self._entries)

    def items(self) -> Iterator[tuple[Pattern, int]]:
        """Iterate the condensed ``(pattern, support)`` entries.

        Byte accounting (``patterns_byte_size``) charges what this
        yields, so an entry's budget cost is the size of the form held.
        """
        return iter(self._entries.items())

    def as_dict(self) -> dict[Pattern, int]:
        return dict(self._entries)

    def entry_patterns(self) -> PatternSet:
        """The condensed entries as a plain :class:`PatternSet`.

        Every entry is a genuine frequent pattern with its exact support,
        which is all the compression phase requires of recycling
        feedstock — so this view feeds ``recycle_mine`` directly, no
        expansion needed.
        """
        return PatternSet._trusted(dict(self._entries))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CondensedPatternSet):
            return NotImplemented
        return (
            self.representation == other.representation
            and self.absolute_support == other.absolute_support
            and self.n_transactions == other.n_transactions
            and self._entries == other._entries
        )

    def __hash__(self) -> int:  # pragma: no cover - not hashable by design
        raise TypeError("CondensedPatternSet is unhashable")

    def __repr__(self) -> str:
        return (
            f"CondensedPatternSet(repr={self.representation!r}, "
            f"entries={len(self._entries)}, "
            f"absolute_support={self.absolute_support})"
        )

    def __getstate__(self) -> dict:
        """Pickle without the expansion (shard feedstock crosses processes)."""
        state = self.__dict__.copy()
        state["_expanded"] = None
        return state

    # ------------------------------------------------------------------
    # gauges
    # ------------------------------------------------------------------
    def expanded_count(self) -> int:
        """Number of patterns in the exact frequent set (expands if unknown)."""
        if self._expanded_count is None:
            self._expanded_count = len(self.expand())
        return self._expanded_count

    def known_expanded_count(self) -> int | None:
        """The expanded count if already known, without forcing expansion."""
        if self._expanded is not None:
            return len(self._expanded)
        return self._expanded_count

    def condensation_ratio(self) -> float:
        """``expanded patterns / condensed entries`` (1.0 when empty)."""
        if not self._entries:
            return 1.0
        return self.expanded_count() / len(self._entries)

    # ------------------------------------------------------------------
    # lossless expansion
    # ------------------------------------------------------------------
    def expand(self) -> PatternSet:
        """Materialize the exact frequent set. Cached after first call.

        A ``full`` set's expansion shares its entries (no copy), so it
        costs no memory beyond the entries themselves; the library's
        consumers only read it, and the planner's filter path always
        builds a new set from it.
        """
        if self._expanded is None:
            if self.representation == "full":
                expanded = PatternSet._trusted(self._entries)
            else:
                expanded = self._expand_closed()
            self._expanded = expanded
            self._expanded_count = len(expanded)
        return self._expanded

    def _expand_closed(self) -> PatternSet:
        """Every subset of a closed set, support = max over closed supersets.

        Iterating entries by descending support makes the first writer
        the maximum, so each subset is assigned exactly once. Each entry
        is walked as a set-enumeration tree: items are removed in index
        order, so every subset is reached by exactly one path. A subset
        already written was written by an earlier (no less frequent)
        entry together with all of its own subsets, so its whole subtree
        is skipped — the walk costs O(output * maxlen), not Σ 2^|entry|.
        """
        expanded: dict[Pattern, int] = {}
        by_support = sorted(self._entries.items(), key=lambda kv: -kv[1])
        for entry, support in by_support:
            if entry in expanded:
                continue
            expanded[entry] = support
            ordered = sorted(entry)
            width = len(ordered)
            stack = [(entry, 0)]
            while stack:
                current, start = stack.pop()
                for index in range(start, width):
                    sub = current.difference((ordered[index],))
                    if sub and sub not in expanded:
                        expanded[sub] = support
                        if index + 1 < width:
                            stack.append((sub, index + 1))
        return PatternSet._trusted(expanded)

    # ------------------------------------------------------------------
    # filtering
    # ------------------------------------------------------------------
    def filter_min_support(self, min_support: int) -> "CondensedPatternSet":
        """The condensed representation at a tightened threshold.

        Closedness does not depend on the threshold, so
        filtering the entries yields exactly the condensed form of the
        filtered full set, without expanding anything. The result is a
        new object with no expansion cached.
        """
        threshold = max(min_support, self.absolute_support)
        entries = {p: s for p, s in self._entries.items() if s >= threshold}
        return CondensedPatternSet._trusted(
            self.representation,
            entries,
            threshold,
            n_transactions=self.n_transactions,
        )

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

from itertools import combinations
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

    def __init__(self, patterns: Mapping[Pattern, int] | None = None) -> None:
        self._supports: dict[Pattern, int] = {}
        if patterns:
            for items, support in patterns.items():
                self.add(items, support)

    # ------------------------------------------------------------------
    # construction & mutation
    # ------------------------------------------------------------------
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

    def count_by_length(self) -> dict[int, int]:
        """Histogram ``{pattern_length: count}``."""
        histogram: dict[int, int] = {}
        for p in self._supports:
            histogram[len(p)] = histogram.get(len(p), 0) + 1
        return dict(sorted(histogram.items()))

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

        Always a new set: the planner's filter path serves this straight
        from a warehouse entry's cached expansion. When no support falls
        below the threshold (every exact warehouse hit) it is a dict copy.
        """
        result = PatternSet()
        if min(self._supports.values(), default=min_support) >= min_support:
            result._supports = self._supports.copy()
        else:
            result._supports = {
                items: support
                for items, support in self._supports.items()
                if support >= min_support
            }
        return result

    def maximal(self) -> "PatternSet":
        """The maximal patterns (no frequent superset in this set)."""
        by_length = sorted(self._supports, key=len, reverse=True)
        maximal: list[Pattern] = []
        result = PatternSet()
        for candidate in by_length:
            if not any(candidate < kept for kept in maximal):
                maximal.append(candidate)
                result._supports[candidate] = self._supports[candidate]
        return result

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

    def sorted_patterns(self) -> list[tuple[tuple[int, ...], int]]:
        """Deterministically ordered ``(sorted_items, support)`` list."""
        return sorted(
            ((tuple(sorted(p)), s) for p, s in self._supports.items()),
            key=lambda entry: (len(entry[0]), entry[0]),
        )


# ---------------------------------------------------------------------------
# condensed representations
# ---------------------------------------------------------------------------

#: Representations a warehouse entry (or pattern file) can use. ``full``
#: stores every frequent pattern; ``closed`` stores only patterns with no
#: superset of identical support; ``ndi`` stores only the non-derivable
#: patterns of Calders & Goethals, whose supports cannot be deduced from
#: their subsets' supports.
REPRESENTATIONS = ("full", "closed", "ndi")

#: Default deduction-rule depth for the ``ndi`` representation. Depth d
#: evaluates the inclusion–exclusion rules that remove up to d items from
#: the target set: depth 1 is the subset upper bound
#: ``supp(I) <= supp(I \ {a})``, depth 2 adds the pair lower bound
#: ``supp(I) >= supp(I\a) + supp(I\b) - supp(I\ab)`` — the same bound
#: ``PatternWarehouse.verify_entry`` audits. Full Calders–Goethals rules
#: cost 3^|I| dictionary probes per itemset; depth 2 keeps condensation
#: linear in |I|^2 while still collapsing most dense-data redundancy.
#: Condensing and expanding with the *same* depth is what makes the
#: representation lossless, so the depth travels with the object and is
#: recorded in the file header.
NDI_RULE_DEPTH = 2


def derivability_bounds(
    items: Iterable[int],
    lookup: Callable[[Pattern], int],
    depth: int = NDI_RULE_DEPTH,
) -> tuple[int, int]:
    """Calders–Goethals deduction bounds ``(lower, upper)`` for a pattern.

    ``lookup`` must return the exact support of every proper subset the
    rules touch (sets obtained by removing at most ``depth`` items), with
    ``lookup(frozenset())`` answering the transaction count. Removing an
    odd number of items yields an upper bound, an even number a lower
    bound; the pattern's support is *derivable* exactly when the two
    bounds meet.
    """
    itemset = frozenset(items)
    lower, upper = 0, lookup(frozenset())
    ordered = sorted(itemset)
    for d in range(1, min(depth, len(itemset)) + 1):
        for removed in combinations(ordered, d):
            delta = 0
            for size in range(1, d + 1):
                sign = 1 if size % 2 == 1 else -1
                for gone in combinations(removed, size):
                    delta += sign * lookup(itemset.difference(gone))
            if d % 2 == 1:
                upper = min(upper, delta)
            else:
                lower = max(lower, delta)
    return max(lower, 0), upper


class CondensedPatternSet:
    """A frequent-pattern set stored through a condensed representation.

    The object is a drop-in warehouse payload: it remembers only the
    *entries* of its representation (all patterns for ``full``, the
    closed patterns for ``closed``, the non-derivable patterns for
    ``ndi``) plus the metadata needed to reconstruct the exact frequent
    set — the mining threshold, and for ``ndi`` the transaction count and
    rule depth. :meth:`expand` is lossless and cached; :meth:`support_of`
    answers point queries without materializing the expansion.

    Both condensations are *threshold independent*: whether a pattern is
    closed (or derivable) does not change when the support threshold is
    raised, so :meth:`filter_min_support` can tighten the threshold by
    filtering the entries alone. (The planner's filter path instead
    filters the cached :meth:`expand` of the stored entry, so repeated
    hits on one entry pay for its expansion once.)

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
        ndi_depth: int = NDI_RULE_DEPTH,
        expanded_count: int | None = None,
    ) -> None:
        if representation not in REPRESENTATIONS:
            raise MiningError(
                f"unknown representation {representation!r}; "
                f"expected one of {REPRESENTATIONS}"
            )
        if absolute_support < 0:
            raise MiningError(f"negative absolute_support {absolute_support}")
        if representation == "ndi":
            if n_transactions is None:
                raise MiningError(
                    "the ndi representation needs n_transactions: the "
                    "empty-set deduction rules use supp({}) = |D|"
                )
            if ndi_depth < 1:
                raise MiningError(f"ndi_depth must be >= 1, got {ndi_depth}")
        self.representation = representation
        self.absolute_support = absolute_support
        self.n_transactions = n_transactions
        self.ndi_depth = ndi_depth
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
        self._expanded_count = expanded_count
        self._support_cache: dict[Pattern, int | None] = {}

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def condense(
        cls,
        patterns: PatternSet,
        absolute_support: int,
        representation: str,
        *,
        n_transactions: int | None = None,
        ndi_depth: int = NDI_RULE_DEPTH,
    ) -> "CondensedPatternSet":
        """Condense an exact frequent set into the chosen representation.

        ``patterns`` must be a complete (downward-closed) frequent set at
        ``absolute_support`` — exactly what every miner in the registry
        produces. For ``ndi`` the caller must supply ``n_transactions``.
        """
        if representation == "full":
            entries: Mapping[Pattern, int] = patterns.as_dict()
        elif representation == "closed":
            entries = cls._closed_entries(patterns)
        elif representation == "ndi":
            if n_transactions is None:
                raise MiningError(
                    "condensing to ndi requires n_transactions"
                )
            entries = cls._ndi_entries(patterns, n_transactions, ndi_depth)
        else:
            raise MiningError(
                f"unknown representation {representation!r}; "
                f"expected one of {REPRESENTATIONS}"
            )
        return cls(
            representation,
            entries,
            absolute_support,
            n_transactions=n_transactions,
            ndi_depth=ndi_depth,
            expanded_count=len(patterns),
        )

    @staticmethod
    def _closed_entries(patterns: PatternSet) -> dict[Pattern, int]:
        """Closed patterns via immediate-superset marking, O(N * maxlen).

        A pattern is non-closed iff some superset shares its support, and
        support is antitone along the subset chain to that superset, so
        checking *immediate* supersets inside the frequent set suffices.
        """
        supports = patterns.as_dict()
        non_closed: set[Pattern] = set()
        for items, support in supports.items():
            for item in items:
                sub = items.difference((item,))
                if sub and supports.get(sub) == support:
                    non_closed.add(sub)
        return {p: s for p, s in supports.items() if p not in non_closed}

    @staticmethod
    def _ndi_entries(
        patterns: PatternSet, n_transactions: int, ndi_depth: int
    ) -> dict[Pattern, int]:
        """Non-derivable patterns under depth-limited deduction rules."""
        supports = patterns.as_dict()

        def lookup(subset: Pattern) -> int:
            if not subset:
                return n_transactions
            try:
                return supports[subset]
            except KeyError:
                raise MiningError(
                    f"cannot condense to ndi: subset {sorted(subset)} is "
                    "missing — the input is not a downward-closed frequent set"
                ) from None

        entries: dict[Pattern, int] = {}
        for items, support in supports.items():
            if len(items) == 1:
                entries[items] = support
                continue
            lower, upper = derivability_bounds(items, lookup, ndi_depth)
            if lower != upper:
                entries[items] = support
        return entries

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
        yields, so an entry's budget cost is its condensed size.
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
        result = PatternSet()
        result._supports = dict(self._entries)
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CondensedPatternSet):
            return NotImplemented
        return (
            self.representation == other.representation
            and self.absolute_support == other.absolute_support
            and self.n_transactions == other.n_transactions
            and self.ndi_depth == other.ndi_depth
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
        """Pickle without the caches (shard feedstock crosses processes)."""
        state = self.__dict__.copy()
        state["_expanded"] = None
        state["_support_cache"] = {}
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
        """Materialize the exact frequent set. Cached after first call."""
        if self._expanded is None:
            if self.representation == "full":
                expanded = PatternSet()
                expanded._supports = dict(self._entries)
            elif self.representation == "closed":
                expanded = self._expand_closed()
            else:
                expanded = self._expand_ndi()
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
        result = PatternSet()
        result._supports = expanded
        return result

    def _expand_ndi(self) -> PatternSet:
        """Level-wise reconstruction: derive where possible, look up the rest.

        Apriori candidate generation over the already-reconstructed
        level; a candidate whose depth-limited bounds meet is derivable
        (support = the bound), otherwise its support must be stored — and
        a non-derivable candidate absent from the entries was infrequent,
        which is what prunes the search.
        """
        n = self.n_transactions
        assert n is not None  # enforced in __init__
        threshold = self.absolute_support
        supports: dict[Pattern, int] = {}

        def lookup(subset: Pattern) -> int:
            return n if not subset else supports[subset]

        current = {
            p: s
            for p, s in self._entries.items()
            if len(p) == 1 and s >= threshold
        }
        supports.update(current)
        while current:
            next_level: dict[Pattern, int] = {}
            rows = sorted(tuple(sorted(p)) for p in current)
            candidates: set[Pattern] = set()
            for i, head in enumerate(rows):
                for j in range(i + 1, len(rows)):
                    if rows[j][:-1] != head[:-1]:
                        break
                    candidates.add(frozenset(head) | frozenset(rows[j]))
            for cand in candidates:
                if any(cand.difference((x,)) not in current for x in cand):
                    continue
                lower, upper = derivability_bounds(cand, lookup, self.ndi_depth)
                if lower == upper:
                    support = lower
                else:
                    stored = self._entries.get(cand)
                    if stored is None:
                        continue
                    support = stored
                if support >= threshold:
                    next_level[cand] = support
            supports.update(next_level)
            current = next_level
        result = PatternSet()
        result._supports = supports
        return result

    # ------------------------------------------------------------------
    # point queries & filtering
    # ------------------------------------------------------------------
    def support_of(self, items: Iterable[int]) -> int | None:
        """Exact support of a frequent pattern, ``None`` if not frequent.

        Answers from the condensed entries directly — closed via the
        max-support superset, ndi via memoized deduction — without
        materializing the expansion (unless it is already cached).
        """
        key = frozenset(items)
        if not key:
            return None
        if self._expanded is not None:
            return self._expanded.get(key)
        if self.representation == "full":
            return self._entries.get(key)
        if self.representation == "closed":
            best: int | None = None
            for entry, support in self._entries.items():
                if key <= entry and (best is None or support > best):
                    best = support
            return best
        return self._ndi_support_of(key)

    def _ndi_support_of(self, key: Pattern) -> int | None:
        n = self.n_transactions
        assert n is not None
        threshold = self.absolute_support
        cache = self._support_cache

        def resolve(subset: Pattern) -> int | None:
            if subset in cache:
                return cache[subset]
            if len(subset) == 1:
                stored = self._entries.get(subset)
                value = stored if stored is not None and stored >= threshold else None
            elif any(resolve(subset.difference((x,))) is None for x in subset):
                value = None  # an infrequent subset makes the set infrequent
            else:
                lower, upper = derivability_bounds(
                    subset, lambda s: n if not s else cache[s], self.ndi_depth
                )
                if lower == upper:
                    value = lower if lower >= threshold else None
                else:
                    value = self._entries.get(subset)
            cache[subset] = value
            return value

        return resolve(key)

    def __contains__(self, items: object) -> bool:
        if isinstance(items, Iterable):
            return self.support_of(items) is not None  # type: ignore[arg-type]
        return False

    def filter_min_support(self, min_support: int) -> "CondensedPatternSet":
        """The condensed representation at a tightened threshold.

        Closedness and derivability do not depend on the threshold, so
        filtering the entries yields exactly the condensed form of the
        filtered full set, without expanding anything. The result is a
        new object with no expansion cached.
        """
        threshold = max(min_support, self.absolute_support)
        entries = {p: s for p, s in self._entries.items() if s >= threshold}
        return CondensedPatternSet(
            self.representation,
            entries,
            threshold,
            n_transactions=self.n_transactions,
            ndi_depth=self.ndi_depth,
        )

"""Recycle-FP: mining a compressed database by adapting FP-growth (§4.2).

The paper's description: *"We use the data structure of frequent pattern
tree to represent the outlying frequent items (uncompressed part). In the
process of recursively constructing projected databases that are
represented with FP-tree, we treat each (compressed) group head as a
special item, which is in the upper of each prefix tree branch."*

Concretely, this module builds a *grouped FP-tree*:

* every distinct group pattern gets a **token** — a special item that
  sorts before all regular items, so it forms the top of its branch and
  each group occupies exactly one subtree;
* group tails are inserted below their token in descending-support order
  (ordinary FP-tree sharing); residual tuples are inserted token-less;
* a token *implies* its pattern items: support counting and conditional
  pattern bases charge a token node's count to every implied item in one
  step — the same group-count saving the other adaptations exploit;
* conditional pattern bases keep (reduced) group heads as tokens, so the
  grouping survives down the recursion, exactly as the paper specifies.

Item order is descending support (the FP-tree convention); pivots are
processed from least frequent upward as in classic FP-growth.
"""

from __future__ import annotations

from repro.core.groups import Group, GroupedDatabase, to_grouped
from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.metrics.counters import CostCounters
from repro.mining.patterns import PatternSet
from repro.storage.projection import (
    count_group_supports,
    enumerate_single_group,
    new_kernel_stats,
)

# A conditional-base row: (implied group items, explicit path items, count).
_BaseRow = tuple[tuple[int, ...], tuple[int, ...], int]


class _GNode:
    """A grouped-FP-tree node; ``item`` is None for the root, a negative
    token id for group heads, a regular item id otherwise."""

    __slots__ = ("item", "count", "parent", "children")

    def __init__(self, item: int | None, parent: "_GNode | None") -> None:
        self.item = item
        self.count = 0
        self.parent = parent
        self.children: dict[int, _GNode] = {}


class _GroupedFPTree:
    """An FP-tree whose root children may be group-head tokens."""

    def __init__(self, item_order: dict[int, int]) -> None:
        # item -> sort key; smaller keys sit nearer the root.
        self.item_order = item_order
        self.root = _GNode(None, None)
        self.token_patterns: dict[int, tuple[int, ...]] = {}
        self.token_nodes: dict[int, _GNode] = {}
        self._token_ids: dict[tuple[int, ...], int] = {}
        self.item_nodes: dict[int, list[_GNode]] = {}

    def token_for(self, pattern: tuple[int, ...]) -> int:
        """Intern a group pattern as a token id (< 0)."""
        token = self._token_ids.get(pattern)
        if token is None:
            token = -(len(self._token_ids) + 1)
            self._token_ids[pattern] = token
            self.token_patterns[token] = pattern
        return token

    def insert(self, token: int | None, items: tuple[int, ...], count: int) -> None:
        """Insert one (grouped) transaction ``count`` times.

        ``items`` must be pre-sorted by :attr:`item_order`; the token, when
        present, is forced to the top of the branch.
        """
        node = self.root
        if token is not None:
            child = node.children.get(token)
            if child is None:
                child = _GNode(token, node)
                node.children[token] = child
                self.token_nodes[token] = child
            child.count += count
            node = child
        for item in items:
            child = node.children.get(item)
            if child is None:
                child = _GNode(item, node)
                node.children[item] = child
                self.item_nodes.setdefault(item, []).append(child)
            child.count += count
            node = child

    # ------------------------------------------------------------------
    # support & conditional bases
    # ------------------------------------------------------------------
    def item_supports(self) -> dict[int, int]:
        """Supports of regular items, charging tokens in one step each."""
        supports: dict[int, int] = {}
        for item, nodes in self.item_nodes.items():
            supports[item] = sum(node.count for node in nodes)
        for token, node in self.token_nodes.items():
            for item in self.token_patterns[token]:
                supports[item] = supports.get(item, 0) + node.count
        return supports

    def _precedes(self, a: int, b: int) -> bool:
        """True when regular item ``a`` sorts strictly before ``b``."""
        return (self.item_order[a], a) < (self.item_order[b], b)

    def conditional_base(self, pivot: int) -> list[_BaseRow]:
        """The pivot-conditional pattern base, tokens kept implied.

        Two sources (mirroring the RP-Header table's item-links and
        group-links): explicit pivot nodes contribute their ancestor path
        plus their branch token's implied items; tokens whose pattern
        contains the pivot contribute truncated paths of their whole
        subtree, weighted by node-count arithmetic.
        """
        rows: list[_BaseRow] = []
        for node in self.item_nodes.get(pivot, ()):  # item-link source
            path: list[int] = []
            ancestor = node.parent
            token_items: tuple[int, ...] = ()
            while ancestor is not None and ancestor.item is not None:
                if ancestor.item < 0:
                    token_items = tuple(
                        i
                        for i in self.token_patterns[ancestor.item]
                        if self._precedes(i, pivot)
                    )
                else:
                    path.append(ancestor.item)
                ancestor = ancestor.parent
            path.reverse()
            rows.append((token_items, tuple(path), node.count))

        for token, node in self.token_nodes.items():  # group-link source
            pattern = self.token_patterns[token]
            if pivot not in pattern:
                continue
            implied = tuple(i for i in pattern if i != pivot and self._precedes(i, pivot))
            self._collect_truncated(node, pivot, implied, [], rows)
        return rows

    def _collect_truncated(
        self,
        node: _GNode,
        pivot: int,
        implied: tuple[int, ...],
        path: list[int],
        rows: list[_BaseRow],
    ) -> None:
        """Emit, for every tuple in ``node``'s subtree, the items that
        precede the pivot — without visiting tuples individually.

        A tuple's preceding items form a prefix of its branch, so each
        subtree node contributes ``count - (children still preceding)``
        copies of the path so far.
        """
        continuing = 0
        for child in node.children.values():
            if child.item is not None and child.item >= 0 and self._precedes(child.item, pivot):
                path.append(child.item)
                self._collect_truncated(child, pivot, implied, path, rows)
                path.pop()
                continuing += child.count
        ending = node.count - continuing
        if ending > 0 and (implied or path):
            rows.append((implied, tuple(path), ending))
        elif ending > 0 and not implied and not path:
            # Tuples whose entire preceding part is empty still carry the
            # pivot itself; they add support but no conditional items.
            rows.append(((), (), ending))


def _single_branch(
    tree: _GroupedFPTree,
) -> tuple[tuple[int, ...], list[tuple[int, int]], int] | None:
    """If the tree is one chain, return (implied items, chain, top count).

    The chain holds ``(item, count)`` for the regular nodes top-down; the
    implied items come from the (optional) leading token, whose support
    is the branch's top count.
    """
    node = tree.root
    implied: tuple[int, ...] = ()
    top_count: int | None = None
    chain: list[tuple[int, int]] = []
    while node.children:
        if len(node.children) > 1:
            return None
        node = next(iter(node.children.values()))
        assert node.item is not None
        if node.item < 0:
            implied = tree.token_patterns[node.item]
            top_count = node.count
        else:
            if top_count is None:
                top_count = node.count
            chain.append((node.item, node.count))
    if top_count is None:
        return None
    return implied, chain, top_count


def _enumerate_single_branch(
    implied: tuple[int, ...],
    chain: list[tuple[int, int]],
    top_count: int,
    prefix: tuple[int, ...],
    min_support: int,
    result: PatternSet,
) -> None:
    """Emit all frequent subsets of one branch without recursion.

    Implied (group-head) items hold in every tuple of the branch, so a
    pattern ``T ∪ S`` (T from the implied items, S from the chain) has
    the support of S's deepest chain member — or the branch count when S
    is empty. Chain counts are non-increasing top-down, so infrequent
    suffixes prune cleanly.
    """
    implied_frequent = tuple(implied) if top_count >= min_support else ()
    live_chain = [(item, count) for item, count in chain if count >= min_support]
    token_subsets: list[tuple[int, ...]] = [()]
    for item in implied_frequent:
        token_subsets.extend(subset + (item,) for subset in list(token_subsets))
    # Pure implied-item patterns, support = branch count — the shared
    # Lemma 3.1 enumerator handles exactly this case.
    enumerate_single_group(implied_frequent, top_count, prefix, result)
    # Chain-prefix subsets: the deepest selected member sets the support.
    n = len(live_chain)
    for mask in range(1, 1 << n):
        items: list[int] = []
        support = top_count
        for bit in range(n):
            if mask & (1 << bit):
                items.append(live_chain[bit][0])
                support = live_chain[bit][1]
        for subset in token_subsets:
            result.add(prefix + subset + tuple(items), support)


def _mine_tree(
    tree: _GroupedFPTree,
    prefix: tuple[int, ...],
    min_support: int,
    result: PatternSet,
    stats: dict[str, int],
) -> None:
    supports = tree.item_supports()
    frequent = [i for i, c in supports.items() if c >= min_support]
    if not frequent:
        return

    # Lemma 3.1 analogue, generalized to FP-growth's single-path shortcut:
    # when the tree is one branch ([token] + chain), every pattern is a
    # subset of the implied items crossed with a chain prefix-subset.
    single = _single_branch(tree)
    if single is not None:
        implied, chain, top_count = single
        stats["single_group_enumerations"] += 1
        _enumerate_single_branch(
            implied, chain, top_count, prefix, min_support, result
        )
        return

    # Classic FP order: mine least-frequent pivots first.
    frequent.sort(key=lambda i: (tree.item_order[i], i), reverse=True)
    for pivot in frequent:
        new_prefix = prefix + (pivot,)
        result.add(new_prefix, supports[pivot])
        rows = tree.conditional_base(pivot)
        stats["conditional_bases"] += 1
        child = _build_tree(rows, min_support, stats)
        if child is not None:
            _mine_tree(child, new_prefix, min_support, result, stats)


def _build_tree(
    rows: list[_BaseRow], min_support: int, stats: dict[str, int]
) -> _GroupedFPTree | None:
    """Build a conditional grouped FP-tree from base rows, or None."""
    counts: dict[int, int] = {}
    for implied, path, count in rows:
        stats["group_counts"] += bool(implied)
        stats["item_visits"] += len(path)
        for item in implied:
            counts[item] = counts.get(item, 0) + count
        for item in path:
            counts[item] = counts.get(item, 0) + count
    frequent = {i for i, c in counts.items() if c >= min_support}
    if not frequent:
        return None
    order = {i: (-counts[i]) for i in frequent}
    tree = _GroupedFPTree(order)
    for implied, path, count in rows:
        reduced = tuple(sorted((i for i in implied if i in frequent), key=lambda i: (order[i], i)))
        live = [i for i in path if i in frequent]
        if len(reduced) < 2:
            # A one-item group head saves nothing — fold it into the path
            # and skip the token bookkeeping.
            live.extend(reduced)
            reduced = ()
        items = tuple(sorted(live, key=lambda i: (order[i], i)))
        if not reduced and not items:
            continue
        token = tree.token_for(reduced) if reduced else None
        tree.insert(token, items, count)
    if not tree.item_nodes and not tree.token_nodes:
        return None
    return tree


def mine_recycle_fptree(
    compressed: GroupedDatabase | list[Group] | TransactionDatabase,
    min_support: int,
    counters: CostCounters | None = None,
) -> PatternSet:
    """All patterns with support >= ``min_support`` via Recycle-FP."""
    if min_support < 1:
        raise MiningError(f"min_support must be >= 1, got {min_support}")
    groups = list(to_grouped(compressed).mining_groups())

    # First scan: global supports via the shared kernel (group counts
    # charged in one step; not billed to the caller's counters).
    counts = count_group_supports(groups, new_kernel_stats())
    frequent = {i for i, c in counts.items() if c >= min_support}
    result = PatternSet()
    if not frequent:
        return result
    order = {i: -counts[i] for i in frequent}

    tree = _GroupedFPTree(order)
    for group in groups:
        pattern = tuple(
            sorted((i for i in group.pattern if i in frequent), key=lambda i: (order[i], i))
        )
        extra: tuple[int, ...] = ()
        if len(pattern) < 2:
            extra, pattern = pattern, ()
        token = tree.token_for(pattern) if pattern else None
        remaining = group.count
        for tail in group.tails:
            items = tuple(
                sorted(
                    [i for i in tail if i in frequent] + list(extra),
                    key=lambda i: (order[i], i),
                )
            )
            if token is None and not items:
                continue
            tree.insert(token, items, 1)
            remaining -= 1
        # Members whose tail vanished still assert the group pattern.
        if (token is not None or extra) and remaining > 0:
            tree.insert(token, extra, remaining)

    stats = {"conditional_bases": 0, "group_counts": 0, "item_visits": 0,
             "single_group_enumerations": 0}
    _mine_tree(tree, (), min_support, result, stats)
    if counters is not None:
        counters.projections += stats["conditional_bases"]
        counters.group_counts += stats["group_counts"]
        counters.item_visits += stats["item_visits"]
        counters.single_group_enumerations += stats["single_group_enumerations"]
        counters.patterns_emitted += len(result)
    return result

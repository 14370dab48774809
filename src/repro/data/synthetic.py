"""Synthetic transaction generators.

Two families:

* :func:`quest_database` — the IBM Quest market-basket generator (the
  T10I4D100K family used throughout the frequent-pattern literature):
  transactions are unions of corrupted "potential patterns" drawn from a
  skewed distribution.
* :func:`attribute_value_database` — relational-style data where every
  transaction has one item per attribute, with per-attribute value skew
  and a latent-class mixture that induces cross-attribute correlation.
  This is the shape of the paper's four evaluation datasets (Weather,
  Forest/Covertype, Connect-4, Pumsb are all attribute-value tables), so
  the calibrated stand-ins in :mod:`repro.data.datasets` build on it.

All generators take an explicit seed and are deterministic: a seed fixes
the output bit for bit. ``tests/data/test_synthetic.py`` pins the full
fingerprint of each stand-in at seed 0, of the default Quest database
and of attribute-value configurations with missing values, implications,
no latent classes and scalar or per-attribute skews. Weighted draws go
through :func:`_drawer`, which makes exactly the draws
``random.Random.choices`` would.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from typing import Callable, Sequence

from repro.data.transactions import TransactionDatabase
from repro.errors import DataError


def _poisson(rng: random.Random, mean: float) -> int:
    """Knuth's poisson sampler (small means only, which is all we need)."""
    threshold = math.exp(-mean)
    count = 0
    product = rng.random()
    while product > threshold:
        count += 1
        product *= rng.random()
    return count


def _zipf_weights(n: int, skew: float) -> list[float]:
    """Normalized Zipf(``skew``) weights over ranks 1..n."""
    weights = [1.0 / (rank**skew) for rank in range(1, n + 1)]
    total = sum(weights)
    return [w / total for w in weights]


def _drawer(rng: random.Random, weights: Sequence[float]) -> Callable[[], int]:
    """A draw of an index into ``weights``, in proportion to its weight.

    Each call returns what ``rng.choices(range(len(weights)),
    weights=weights, k=1)[0]`` would: the same one ``rng.random()`` call
    scaled by the same cumulative total and bisected the same way. The
    cumulative sums are built once here instead of on every draw.

    >>> weights = [0.5, 0.2, 0.2, 0.1]
    >>> draw = _drawer(random.Random(7), weights)
    >>> ours = [draw() for _ in range(12)]
    >>> rng = random.Random(7)
    >>> ours == [rng.choices(range(4), weights=weights, k=1)[0] for _ in range(12)]
    True
    >>> ours
    [0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0]
    """
    cum_weights = list(accumulate(weights))
    total = cum_weights[-1] + 0.0
    hi = len(cum_weights) - 1
    uniform = rng.random
    return lambda: bisect(cum_weights, uniform() * total, 0, hi)


@dataclass(frozen=True)
class QuestParams:
    """Parameters of the Quest generator (defaults ≈ T10I4).

    ``n_items`` is the item-universe size, ``avg_transaction_length`` the
    mean basket size, ``n_patterns``/``avg_pattern_length`` shape the pool
    of potential frequent patterns. Each pattern inherits half its items
    from its predecessor, drops each item at a rate drawn around 0.5, and
    items are drawn Zipf(1) by id.
    """

    n_transactions: int = 1000
    n_items: int = 200
    avg_transaction_length: float = 10.0
    n_patterns: int = 50
    avg_pattern_length: float = 4.0


def quest_database(params: QuestParams | None = None, seed: int = 0) -> TransactionDatabase:
    """Generate a market-basket database in the style of IBM Quest."""
    params = params or QuestParams()
    if params.n_items < 2 or params.n_transactions < 1 or params.n_patterns < 1:
        raise DataError(f"degenerate Quest parameters: {params}")
    rng = random.Random(seed)

    draw_item = _drawer(rng, _zipf_weights(params.n_items, 1.0))

    # Potential patterns: each inherits half of the previous one.
    patterns: list[list[int]] = []
    corruptions: list[float] = []
    previous: list[int] = []
    for _ in range(params.n_patterns):
        # A pattern cannot outgrow the universe; an uncapped draw would
        # spin forever looking for an item it has not chosen yet.
        length = min(params.n_items, max(1, _poisson(rng, params.avg_pattern_length)))
        inherited_count = min(len(previous), int(round(length * 0.5)))
        chosen = set(rng.sample(previous, inherited_count)) if inherited_count else set()
        while len(chosen) < length:
            chosen.add(draw_item())
        pattern_items = sorted(chosen)
        patterns.append(pattern_items)
        corruptions.append(min(0.95, max(0.0, rng.gauss(0.5, 0.1))))
        previous = pattern_items

    # Exponential pattern weights, as in the original generator.
    pattern_weights = [rng.expovariate(1.0) for _ in patterns]
    total_weight = sum(pattern_weights)
    draw_pattern = _drawer(rng, [w / total_weight for w in pattern_weights])

    rows: list[tuple[int, ...]] = []
    for _ in range(params.n_transactions):
        target = max(1, _poisson(rng, params.avg_transaction_length))
        basket: set[int] = set()
        attempts = 0
        while len(basket) < target and attempts < 8 * target:
            attempts += 1
            index = draw_pattern()
            for item in patterns[index]:
                if rng.random() >= corruptions[index]:
                    basket.add(item)
        if not basket:
            basket.add(draw_item())
        rows.append(tuple(sorted(basket)))
    return TransactionDatabase._trusted(tuple(rows))


def attribute_value_database(
    n_transactions: int,
    domain_sizes: Sequence[int],
    value_skew: float | Sequence[float] = 1.2,
    n_classes: int = 4,
    class_coherence: float = 0.5,
    missing_rate: float = 0.0,
    seed: int = 0,
    implications: Sequence[tuple[int, int]] = (),
) -> TransactionDatabase:
    """Generate relational attribute-value transactions.

    Each transaction holds one item per attribute (minus a ``missing_rate``
    fraction). Item ids are ``offset(attribute) + value``. Values follow a
    per-attribute Zipf distribution (``value_skew`` may be a scalar or one
    skew per attribute — heterogeneous skews model datasets like Connect-4
    where some attributes are near-constant). With probability
    ``class_coherence`` an attribute instead takes the value preferred by
    the transaction's latent class; preferences are themselves drawn from
    the attribute's value distribution, so coherence correlates attributes
    *on top of* the marginal skew — the combination that yields the long
    frequent patterns characteristic of the paper's dense datasets.

    ``implications`` lists deterministic ``(source, derived)`` attribute
    rules: whenever ``source`` takes its dominant value 0, ``derived`` is
    forced to 0 as well (no random draw). This is how real relational
    data acquires *exact* support ties — Connect-4's board physics make
    "square blank" force "square above blank" — and exact ties are what
    closed-pattern condensation feeds on. Probabilistic correlation
    alone, however strong, almost never produces them. Rules cascade in
    attribute order, so a chain models a column of a board. The empty
    tuple (default) leaves the generator's stream untouched.

    Item ids strictly increase with the attribute, so every row comes out
    sorted and duplicate-free; a row whose attributes are all missing is
    dropped.
    """
    if n_transactions < 1:
        raise DataError(f"n_transactions must be >= 1: {n_transactions}")
    if not domain_sizes:
        raise DataError("domain_sizes must be non-empty")
    if any(d < 1 for d in domain_sizes):
        raise DataError(f"domain sizes must be >= 1: {domain_sizes}")
    if not 0.0 <= class_coherence <= 1.0:
        raise DataError(f"class_coherence must be in [0, 1]: {class_coherence}")
    if not 0.0 <= missing_rate < 1.0:
        raise DataError(f"missing_rate must be in [0, 1): {missing_rate}")
    n_attributes = len(domain_sizes)
    for source, derived in implications:
        if not (0 <= source < n_attributes and 0 <= derived < n_attributes):
            raise DataError(
                f"implication ({source}, {derived}) references an unknown "
                f"attribute (have {n_attributes})"
            )
        if source >= derived:
            raise DataError(
                f"implication ({source}, {derived}) must point forward so "
                "rules cascade in attribute order"
            )
    forced_by = {derived: source for source, derived in implications}
    if isinstance(value_skew, (int, float)):
        skews = [float(value_skew)] * len(domain_sizes)
    else:
        skews = [float(s) for s in value_skew]
        if len(skews) != len(domain_sizes):
            raise DataError(
                f"{len(skews)} skews supplied for {len(domain_sizes)} attributes"
            )
    rng = random.Random(seed)

    offsets: list[int] = []
    running = 0
    for size in domain_sizes:
        offsets.append(running)
        running += size

    draws = [
        _drawer(rng, _zipf_weights(size, skew))
        for size, skew in zip(domain_sizes, skews)
    ]
    # Each latent class prefers one concrete value per attribute, drawn
    # from the attribute's own distribution (classes agree on dominant
    # values, diverge on the tail).
    preferred = [[draw() for draw in draws] for _ in range(max(1, n_classes))]
    draw_class = _drawer(rng, _zipf_weights(max(1, n_classes), 1.0))

    uniform = rng.random
    sources = [forced_by.get(attr) for attr in range(n_attributes)]
    columns = list(enumerate(zip(offsets, draws, sources)))
    rows: list[tuple[int, ...]] = []
    for _ in range(n_transactions):
        prefers = preferred[draw_class()]
        row: list[int] = []
        values = [-1] * n_attributes
        for attr, (offset, draw, source) in columns:
            if missing_rate and uniform() < missing_rate:
                continue
            if source is not None and values[source] == 0:
                value = 0  # deterministic rule, no draw
            elif uniform() < class_coherence:
                value = prefers[attr]
            else:
                value = draw()
            values[attr] = value
            row.append(offset + value)
        if row:
            rows.append(tuple(row))
    return TransactionDatabase._trusted(tuple(rows))


def random_database(
    n_transactions: int,
    n_items: int,
    max_transaction_length: int,
    seed: int = 0,
) -> TransactionDatabase:
    """Uniformly random small databases — used by randomized tests."""
    if n_transactions < 1:
        raise DataError(f"n_transactions must be >= 1: {n_transactions}")
    if n_items < 1 or max_transaction_length < 1:
        raise DataError("need at least one item and positive length")
    rng = random.Random(seed)
    transactions = []
    for _ in range(n_transactions):
        length = rng.randint(1, max_transaction_length)
        transactions.append(rng.sample(range(n_items), min(length, n_items)))
    return TransactionDatabase(transactions)

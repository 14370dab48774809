"""Association-rule generation from frequent patterns.

Frequent-pattern mining is "fundamental and essential" (paper §1)
because of what sits on top of it — association rules. This module
derives rules ``antecedent -> consequent`` from any :class:`PatternSet`,
with the standard interestingness measures:

* **confidence** — ``sup(A ∪ C) / sup(A)``
* **lift** — confidence / (sup(C) / |DB|)
* **leverage** — ``sup(A∪C)/|DB| - sup(A)/|DB| * sup(C)/|DB|``

Because rules are derived purely from a pattern set, they compose with
recycling for free: re-derive rules from each iteration's patterns, no
extra database scans. This is why an interactive rule-tuning loop (vary
support, vary confidence) only ever pays the pattern-mining cost that
:class:`~repro.core.session.MiningSession` already minimizes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from repro.errors import MiningError
from repro.mining.patterns import Pattern, PatternSet


@dataclass(frozen=True)
class AssociationRule:
    """An implication between disjoint itemsets with its measures."""

    antecedent: Pattern
    consequent: Pattern
    support: int
    confidence: float
    lift: float
    leverage: float

    def items(self) -> Pattern:
        """The underlying frequent pattern (antecedent ∪ consequent)."""
        return self.antecedent | self.consequent

    def __str__(self) -> str:
        lhs = ",".join(map(str, sorted(self.antecedent)))
        rhs = ",".join(map(str, sorted(self.consequent)))
        return (
            f"{{{lhs}}} -> {{{rhs}}} "
            f"(sup={self.support}, conf={self.confidence:.3f}, lift={self.lift:.2f})"
        )


def generate_rules(
    patterns: PatternSet,
    db_size: int,
    min_confidence: float = 0.5,
) -> list[AssociationRule]:
    """All rules meeting ``min_confidence`` from a frequent-pattern set.

    ``patterns`` must be support-closed (every subset of a stored pattern
    stored too — true of any complete miner output here); a missing
    subset raises, it is never guessed.

    Rules are generated per pattern by splitting off every non-empty
    proper consequent, using the
    anti-monotonicity of confidence in the consequent: if ``A -> C``
    fails min-confidence, so does every ``A' -> C'`` with ``C ⊂ C'``
    from the same pattern — those splits are pruned.
    """
    if db_size < 1:
        raise MiningError(f"db_size must be >= 1, got {db_size}")
    if not 0.0 < min_confidence <= 1.0:
        raise MiningError(f"min_confidence must be in (0, 1], got {min_confidence}")

    rules: list[AssociationRule] = []
    for items, support in patterns.items():
        if len(items) < 2:
            continue
        rules.extend(
            _rules_for_pattern(items, support, patterns, db_size, min_confidence)
        )
    rules.sort(key=lambda r: (-r.confidence, -r.support, sorted(r.antecedent)))
    return rules


def _rules_for_pattern(
    items: Pattern,
    support: int,
    patterns: PatternSet,
    db_size: int,
    min_confidence: float,
) -> Iterator[AssociationRule]:
    sorted_items = sorted(items)
    # Grow consequents level-wise; prune a consequent's supersets once it
    # fails (confidence only drops as the antecedent shrinks).
    alive: set[Pattern] = {frozenset()}
    for size in range(1, len(items)):
        next_alive: set[Pattern] = set()
        for consequent_tuple in combinations(sorted_items, size):
            consequent = frozenset(consequent_tuple)
            if any(
                consequent - {dropped} not in alive for dropped in consequent
            ):
                continue
            antecedent = items - consequent
            antecedent_support = patterns.support(antecedent)
            confidence = support / antecedent_support
            if confidence < min_confidence:
                continue
            next_alive.add(consequent)
            consequent_support = patterns.support(consequent)
            consequent_frequency = consequent_support / db_size
            lift = confidence / consequent_frequency
            leverage = support / db_size - (
                antecedent_support / db_size
            ) * consequent_frequency
            yield AssociationRule(
                antecedent=antecedent,
                consequent=consequent,
                support=support,
                confidence=confidence,
                lift=lift,
                leverage=leverage,
            )
        alive = next_alive
        if not alive:
            break


def filter_rules(
    rules: list[AssociationRule], min_lift: float | None = None
) -> list[AssociationRule]:
    """Post-filter rules on lift."""
    if min_lift is None:
        return rules
    return [r for r in rules if r.lift >= min_lift]

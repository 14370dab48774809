"""Tests for association-rule generation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.transactions import TransactionDatabase
from repro.errors import MiningError
from repro.mining.bruteforce import mine_bruteforce
from repro.rules.generation import filter_rules, generate_rules


@pytest.fixture
def patterns(paper_db):
    return mine_bruteforce(paper_db, 2)


class TestGeneration:
    def test_confidence_values(self, paper_db, patterns):
        rules = generate_rules(patterns, len(paper_db), min_confidence=0.5)
        by_key = {
            (tuple(sorted(r.antecedent)), tuple(sorted(r.consequent))): r
            for r in rules
        }
        # a -> e: sup(ae)=3, sup(a)=3 -> confidence 1.0.
        rule = by_key[((1,), (5,))]
        assert rule.confidence == pytest.approx(1.0)
        assert rule.support == 3
        # e -> a: sup(ae)=3, sup(e)=4 -> confidence 0.75.
        assert by_key[((5,), (1,))].confidence == pytest.approx(0.75)

    def test_lift_and_leverage(self, paper_db, patterns):
        rules = generate_rules(patterns, len(paper_db), min_confidence=0.5)
        rule = next(
            r for r in rules if r.antecedent == {1} and r.consequent == {5}
        )
        # lift = conf / (sup(e)/|DB|) = 1.0 / 0.8.
        assert rule.lift == pytest.approx(1.25)
        # leverage = 3/5 - (3/5)(4/5).
        assert rule.leverage == pytest.approx(0.6 - 0.6 * 0.8)

    def test_min_confidence_filters(self, paper_db, patterns):
        loose = generate_rules(patterns, len(paper_db), min_confidence=0.5)
        strict = generate_rules(patterns, len(paper_db), min_confidence=0.9)
        assert len(strict) < len(loose)
        assert all(r.confidence >= 0.9 for r in strict)

    def test_sorted_by_confidence_then_support(self, paper_db, patterns):
        rules = generate_rules(patterns, len(paper_db), min_confidence=0.5)
        keys = [(-r.confidence, -r.support) for r in rules]
        assert keys == sorted(keys)

    def test_antecedent_consequent_disjoint(self, paper_db, patterns):
        rules = generate_rules(patterns, len(paper_db), min_confidence=0.3)
        assert all(not (r.antecedent & r.consequent) for r in rules)
        assert all(r.antecedent and r.consequent for r in rules)

    def test_invalid_parameters(self, patterns):
        with pytest.raises(MiningError):
            generate_rules(patterns, 0)
        with pytest.raises(MiningError):
            generate_rules(patterns, 10, min_confidence=0.0)

    def test_str_rendering(self, paper_db, patterns):
        rules = generate_rules(patterns, len(paper_db), min_confidence=0.5)
        text = str(rules[0])
        assert "->" in text and "conf=" in text


class TestFilterRules:
    def test_filters_compose(self, paper_db, patterns):
        rules = generate_rules(patterns, len(paper_db), min_confidence=0.3)
        lifted = filter_rules(rules, min_lift=1.1)
        assert lifted == [r for r in rules if r.lift >= 1.1]
        assert filter_rules(rules) == rules


@given(
    transactions=st.lists(
        st.lists(st.integers(0, 5), min_size=1, max_size=5),
        min_size=2,
        max_size=15,
    ),
    min_confidence=st.sampled_from([0.3, 0.6, 0.9]),
)
@settings(max_examples=40, deadline=None)
def test_rule_measures_are_consistent_properties(transactions, min_confidence):
    """Every emitted rule's numbers must re-derive from raw supports."""
    db = TransactionDatabase(transactions)
    patterns = mine_bruteforce(db, 1)
    rules = generate_rules(patterns, len(db), min_confidence=min_confidence)
    for rule in rules:
        joint = db.support(rule.items())
        antecedent = db.support(rule.antecedent)
        consequent = db.support(rule.consequent)
        assert rule.support == joint
        assert rule.confidence == pytest.approx(joint / antecedent)
        assert rule.lift == pytest.approx(
            (joint / antecedent) / (consequent / len(db))
        )
        assert rule.confidence >= min_confidence


@given(
    transactions=st.lists(
        st.lists(st.integers(0, 5), min_size=1, max_size=5),
        min_size=2,
        max_size=12,
    )
)
@settings(max_examples=30, deadline=None)
def test_consequent_pruning_loses_nothing(transactions):
    """The level-wise consequent pruning must equal exhaustive splitting."""
    from itertools import combinations

    db = TransactionDatabase(transactions)
    patterns = mine_bruteforce(db, 1)
    emitted = {
        (tuple(sorted(r.antecedent)), tuple(sorted(r.consequent)))
        for r in generate_rules(patterns, len(db), min_confidence=0.7)
    }
    expected = set()
    for items, support in patterns.items():
        if len(items) < 2:
            continue
        members = sorted(items)
        for size in range(1, len(members)):
            for consequent in combinations(members, size):
                antecedent = items - set(consequent)
                if support / patterns.support(antecedent) >= 0.7:
                    expected.add((tuple(sorted(antecedent)), consequent))
    assert emitted == expected

"""Unit + property tests for the synthetic generators."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data.datasets import DATASETS
from repro.data.synthetic import (
    QuestParams,
    _drawer,
    attribute_value_database,
    quest_database,
    random_database,
)
from repro.errors import DataError


# Full fingerprints of generator output, as drawn by random.Random.choices.
# Every stand-in, paper bench and e2e setup builds on these streams, so a
# change to the draw order (or to any draw's arithmetic) must fail here, by
# name. Never regenerate a digest to make a change pass.
STAND_IN_DIGESTS = {
    "weather": "2ba0f6320d1b71b13b240296bf68bbc2f6e30df4506556fd1306795aec6ed340",
    "forest": "da3c21e9fe9ff382ead3a25b044015a20233eb15ea4f3af429cc1062274e9a4c",
    "connect4": "8703b3179c6a38e5e550db432d03b72e83427355f9ba6f611feeff610805ac79",
    "pumsb": "973027b31e953673bc3e8035253e07579238dc4753530be9fc69a60dfb5658be",
}

QUEST_DIGEST = "788bc23d14ed8ac23fe8a78336bcd1cee3216a3df69b982c2828dc981c385136"

ATTRIBUTE_VALUE_CASES = {
    "missing": (
        dict(
            n_transactions=300, domain_sizes=[4, 7, 2, 9], value_skew=1.1,
            missing_rate=0.25, seed=5,
        ),
        "8017e02f066297ee6098b3a3fa578fc2ebb46dc60d66c584035eb3884e6095c7",
    ),
    "implications": (
        dict(
            n_transactions=300, domain_sizes=[3] * 6,
            value_skew=[3.0, 1.0, 2.0, 0.5, 4.0, 1.5],
            implications=((0, 1), (1, 2), (3, 5)), seed=6,
        ),
        "9f8e494532761e35d6a11cc54b6ae5ea3fb87c5ad1ef0359852993e16c5699c0",
    ),
    "no-classes": (
        dict(
            n_transactions=300, domain_sizes=[5, 5, 5], n_classes=0,
            class_coherence=0.8, seed=7,
        ),
        "9be91d8bda25db0422c648fae91bf29489d95b289b0ddadbe5377991ef2127fa",
    ),
    "scalar-skew": (
        dict(
            n_transactions=300, domain_sizes=[1, 6, 11], value_skew=0.7,
            class_coherence=0.0, seed=8,
        ),
        "b1a3338a5a745bd68ad1e7234719319df1ae566c865b5a1e26475cae07f8cc8d",
    ),
}


class TestPinnedOutput:
    @pytest.mark.parametrize("name", sorted(STAND_IN_DIGESTS))
    def test_stand_in_at_seed_zero(self, name):
        assert DATASETS[name].load(0).fingerprint() == STAND_IN_DIGESTS[name]

    def test_quest_defaults_at_seed_zero(self):
        assert quest_database(QuestParams(), seed=0).fingerprint() == QUEST_DIGEST

    @pytest.mark.parametrize("case", sorted(ATTRIBUTE_VALUE_CASES))
    def test_attribute_value_case(self, case):
        kwargs, digest = ATTRIBUTE_VALUE_CASES[case]
        assert attribute_value_database(**kwargs).fingerprint() == digest


class TestDrawer:
    @given(
        weights=st.lists(
            st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=40
        ),
        seed=st.integers(min_value=0, max_value=2**32),
    )
    @settings(max_examples=200, deadline=None)
    def test_draws_equal_random_choices(self, weights, seed):
        """Same seed, same draws as ``rng.choices`` over the same weights."""
        draw = _drawer(random.Random(seed), weights)
        rng = random.Random(seed)
        population = range(len(weights))
        for _ in range(25):
            assert draw() == rng.choices(population, weights=weights, k=1)[0]


class TestQuest:
    def test_deterministic_for_seed(self):
        params = QuestParams(n_transactions=50, n_items=30)
        assert quest_database(params, seed=3) == quest_database(params, seed=3)

    def test_different_seeds_differ(self):
        params = QuestParams(n_transactions=50, n_items=30)
        assert quest_database(params, seed=1) != quest_database(params, seed=2)

    def test_shape(self):
        params = QuestParams(n_transactions=200, n_items=50, avg_transaction_length=6)
        db = quest_database(params, seed=0)
        assert len(db) == 200
        assert db.items() <= set(range(50))
        assert 2 < db.average_length() < 14

    def test_no_empty_transactions(self):
        db = quest_database(QuestParams(n_transactions=100, n_items=20), seed=5)
        assert all(len(tx) >= 1 for tx in db)

    def test_degenerate_params_rejected(self):
        with pytest.raises(DataError):
            quest_database(QuestParams(n_transactions=0))

    def test_pattern_longer_than_universe_is_capped(self):
        params = QuestParams(n_transactions=20, n_items=3, avg_pattern_length=6)
        db = quest_database(params, seed=0)
        assert len(db) == 20
        assert db.items() <= {0, 1, 2}

    def test_empty_pattern_pool_rejected(self):
        with pytest.raises(DataError):
            quest_database(QuestParams(n_patterns=0))


class TestAttributeValue:
    def test_one_item_per_attribute_without_missing(self):
        db = attribute_value_database(50, [4, 4, 4], missing_rate=0.0, seed=0)
        assert all(len(tx) == 3 for tx in db)

    def test_items_stay_within_attribute_ranges(self):
        db = attribute_value_database(80, [5, 3, 7], missing_rate=0.0, seed=1)
        for tx in db:
            values = sorted(tx)
            assert 0 <= values[0] < 5
            assert 5 <= values[1] < 8
            assert 8 <= values[2] < 15

    def test_missing_rate_shortens_tuples(self):
        full = attribute_value_database(300, [4] * 10, missing_rate=0.0, seed=2)
        holey = attribute_value_database(300, [4] * 10, missing_rate=0.3, seed=2)
        assert holey.average_length() < full.average_length()

    def test_per_attribute_skews(self):
        db = attribute_value_database(
            500, [3, 3], value_skew=[8.0, 0.1], n_classes=1,
            class_coherence=0.0, seed=3,
        )
        supports = db.item_supports()
        # Attribute 0 is near-constant; attribute 1 near-uniform.
        assert supports.get(0, 0) > 450
        assert max(supports.get(i, 0) for i in (3, 4, 5)) < 350

    def test_skew_length_mismatch_rejected(self):
        with pytest.raises(DataError, match="skews"):
            attribute_value_database(10, [3, 3], value_skew=[1.0])

    def test_coherence_increases_correlation(self):
        """Latent-class coherence must create longer frequent patterns."""
        from repro.mining.hmine import mine_hmine

        loose = attribute_value_database(
            400, [6] * 8, value_skew=1.0, class_coherence=0.0, seed=4
        )
        tight = attribute_value_database(
            400, [6] * 8, value_skew=1.0, class_coherence=0.9, seed=4
        )
        xi = 40
        assert mine_hmine(tight, xi).max_length() > mine_hmine(loose, xi).max_length()

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DataError):
            attribute_value_database(10, [])
        with pytest.raises(DataError):
            attribute_value_database(10, [0])
        with pytest.raises(DataError):
            attribute_value_database(10, [3], class_coherence=1.5)

    @pytest.mark.parametrize("n", [0, -3])
    def test_non_positive_transaction_count_rejected(self, n):
        with pytest.raises(DataError, match="n_transactions"):
            attribute_value_database(n, [3])

    @pytest.mark.parametrize("rate", [1.0, 1.5, -0.1, float("nan")])
    def test_missing_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(DataError, match="missing_rate"):
            attribute_value_database(10, [3, 3], missing_rate=rate)


class TestRandomDatabase:
    @given(
        n=st.integers(min_value=1, max_value=30),
        items=st.integers(min_value=1, max_value=15),
        length=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_respects_bounds(self, n, items, length, seed):
        db = random_database(n, items, length, seed)
        assert len(db) == n
        assert all(1 <= len(tx) <= min(length, items) for tx in db)
        assert db.items() <= set(range(items))

    def test_invalid_parameters_rejected(self):
        with pytest.raises(DataError):
            random_database(5, 0, 3)

    @pytest.mark.parametrize("n", [0, -2])
    def test_non_positive_transaction_count_rejected(self, n):
        with pytest.raises(DataError, match="n_transactions"):
            random_database(n, 3, 2)

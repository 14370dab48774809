"""One support rule behind the session, the service and the CLI.

A float in ``(0, 1]`` is a fraction of the database (``1.0`` is every
row); an int, or a float above 1, is an absolute count; a min bound
rounds either up and a max bound rounds either down; a threshold that is
not finite is a typed :class:`ReproError`.
"""

from __future__ import annotations

import math

import pytest

from repro.cli import main
from repro.constraints.base import ChangeKind
from repro.constraints.support import MaxSupport, MinSupport
from repro.core.session import MiningSession
from repro.data.io import write_transactions
from repro.data.transactions import TransactionDatabase, absolute_support
from repro.errors import ReproError
from repro.service import MineRequest

DB = TransactionDatabase([[1, 2], [1, 2, 3], [1], [2, 3], [1, 3]] * 2)


@pytest.mark.parametrize(
    ("support", "expected"),
    [
        (1, 1),
        (1.0, 10),
        (0.5, 5),
        (5.0, 5),
        (2.5, 3),
        (math.nan, None),
        (math.inf, None),
    ],
)
def test_every_entry_point_resolves_support_alike(support, expected, tmp_path, capsys):
    session = MiningSession(DB)
    request = MineRequest(db=DB, support=support)
    path = tmp_path / "db.dat"
    write_transactions(DB, path)
    cli = ["mine", "--input", str(path), "--support", str(support)]
    if expected is None:
        with pytest.raises(ReproError, match="finite"):
            session.mine(support)
        with pytest.raises(ReproError, match="finite"):
            request.absolute_support()
        assert main(cli) == 1
        assert "must be finite" in capsys.readouterr().err
        return
    session.mine(support)
    assert session.last_report.absolute_support == expected
    assert request.absolute_support() == expected
    assert main(cli) == 0
    # The CLI parses every value as a float, so "1" is 100% there.
    cli_expected = len(DB) if support == 1 else expected
    assert f"at support {cli_expected} " in capsys.readouterr().out


@pytest.mark.parametrize(
    ("threshold", "expected"),
    [(1.0, 10), (0.55, 5), (5, 5), (5.0, 5), (2.5, 2)],
)
def test_max_support_resolves_by_the_rule_rounding_down(threshold, expected):
    """A max bound is a fraction or a count as a min bound is, but a
    fraction rounds down so the bound never admits more than it says."""
    assert MaxSupport(threshold).absolute(len(DB)) == expected


def test_a_fraction_resolves_to_its_exact_count():
    """k/100 of 100 rows is k rows for a min bound (rounding up) and a
    max bound (rounding down) alike, although as floats 0.07 * 100 is
    7.000000000000001 and 0.29 * 100 is 28.999999999999996."""
    for k in range(1, 101):
        assert absolute_support(k / 100, 100) == k, k
        assert MaxSupport(k / 100).absolute(100) == k, k


def test_a_fractional_count_rounds_like_a_fraction():
    """2.5 rows is a count, not a fraction: a min bound needs 3 rows, a
    max bound admits 2, and a miner at the resolved support returns no
    pattern below 2.5."""
    from repro.mining.eclat import mine_eclat_bitset

    assert absolute_support(2.5, 10) == 3
    assert MinSupport(2.5).absolute(10) == 3
    assert MaxSupport(2.5).absolute(10) == 2
    db = TransactionDatabase([[1, 2], [1, 2], [1]])
    assert dict(mine_eclat_bitset(db, db.relative_to_absolute(2.5)).items()) == {
        frozenset({1}): 3
    }


@pytest.mark.parametrize("threshold", [math.nan, math.inf])
def test_max_support_rejects_a_threshold_that_is_not_finite(threshold):
    with pytest.raises(ReproError, match="finite"):
        MaxSupport(threshold).absolute(len(DB))


def test_session_classifies_a_change_on_resolved_supports():
    """Count 5 then 100% is a rise from 5 rows to 10: a tightening."""
    session = MiningSession(DB)
    session.mine(5)
    session.mine(1.0)
    assert session.last_report.absolute_support == 10
    assert session.last_report.change is ChangeKind.TIGHTENED
    session.mine(0.5)
    assert session.last_report.change is ChangeKind.RELAXED
    session.mine(5)
    assert session.last_report.change is ChangeKind.SAME


def test_support_bounds_compare_as_counts_on_the_database():
    assert MinSupport(5).compare(MinSupport(1.0), 10) is ChangeKind.TIGHTENED
    assert MinSupport(5).compare(MinSupport(0.5), 10) is ChangeKind.SAME
    assert MaxSupport(5).compare(MaxSupport(1.0), 10) is ChangeKind.RELAXED
    assert MaxSupport(1.0).compare(MaxSupport(0.55), 10) is ChangeKind.TIGHTENED

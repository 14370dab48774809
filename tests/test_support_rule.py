"""One support rule behind the session, the service and the CLI.

A float in ``(0, 1]`` is a fraction of the database (``1.0`` is every
row); an int, or a float above 1, is an absolute count; a threshold
that is not finite is a typed :class:`ReproError`.
"""

from __future__ import annotations

import math

import pytest

from repro.cli import main
from repro.core.session import MiningSession
from repro.data.io import write_transactions
from repro.data.transactions import TransactionDatabase
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

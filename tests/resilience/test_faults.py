"""Unit tests for the seeded, deterministic fault injector."""

from __future__ import annotations

import pytest

from repro.errors import InjectedFaultError, ResilienceError
from repro.resilience import (
    FAULT_POINTS,
    PERSIST_FAULT_POINTS,
    PERSIST_RENAME,
    PERSIST_WRITE,
    UPDATE_PATCH,
    WAREHOUSE_READ,
    WAREHOUSE_WRITE,
    FaultInjector,
)


class TestArming:
    def test_unknown_point_rejected(self):
        with pytest.raises(ResilienceError, match="unknown fault point"):
            FaultInjector().inject("disk.on.fire", on_calls=(1,))

    def test_rule_that_can_never_fire_rejected(self):
        with pytest.raises(ResilienceError, match="can never fire"):
            FaultInjector().inject(UPDATE_PATCH)

    def test_probability_out_of_range_rejected(self):
        with pytest.raises(ResilienceError, match="probability"):
            FaultInjector().inject(UPDATE_PATCH, probability=1.5)

    def test_zero_based_on_calls_rejected(self):
        with pytest.raises(ResilienceError, match="1-based"):
            FaultInjector().inject(UPDATE_PATCH, on_calls=(0,))

    def test_negative_delay_rejected(self):
        with pytest.raises(ResilienceError, match="delay_seconds"):
            FaultInjector().inject(WAREHOUSE_WRITE, on_calls=(1,), delay_seconds=-1)

    def test_inject_chains(self):
        injector = (
            FaultInjector()
            .inject(UPDATE_PATCH, on_calls=(1,))
            .inject(WAREHOUSE_READ, on_calls=(2,))
        )
        assert isinstance(injector, FaultInjector)

    def test_all_named_points_are_armable(self):
        injector = FaultInjector()
        for point in FAULT_POINTS:
            injector.inject(point, on_calls=(1,))
        assert FAULT_POINTS == {
            WAREHOUSE_READ, WAREHOUSE_WRITE, UPDATE_PATCH,
            PERSIST_WRITE, PERSIST_RENAME,
        }

    def test_persist_points_are_ordered_and_named(self):
        # The kill-mid-write chaos harness iterates this tuple in the
        # order one persisted mutation passes the points.
        assert PERSIST_FAULT_POINTS == (PERSIST_WRITE, PERSIST_RENAME)
        assert set(PERSIST_FAULT_POINTS) <= FAULT_POINTS


class TestFiring:
    def test_nth_call_trigger_fires_exactly_there(self):
        injector = FaultInjector().inject(WAREHOUSE_READ, on_calls=(3,))
        assert injector.evaluate(WAREHOUSE_READ) is None
        assert injector.evaluate(WAREHOUSE_READ) is None
        fired = injector.evaluate(WAREHOUSE_READ)
        assert fired is not None and fired.call == 3
        assert injector.evaluate(WAREHOUSE_READ) is None

    def test_fire_raises_injected_fault_with_context(self):
        injector = FaultInjector().inject(
            WAREHOUSE_WRITE, on_calls=(1,), message="disk full"
        )
        with pytest.raises(InjectedFaultError, match="disk full"):
            injector.fire(WAREHOUSE_WRITE, detail="writing key")

    def test_slow_fault_returns_delay_instead_of_raising(self):
        injector = FaultInjector().inject(
            WAREHOUSE_WRITE, on_calls=(1,), delay_seconds=0.5
        )
        assert injector.fire(WAREHOUSE_WRITE) == 0.5
        assert injector.fire(WAREHOUSE_WRITE) == 0.0  # only call 1 is armed

    def test_max_fires_caps_a_repeating_rule(self):
        injector = FaultInjector().inject(
            UPDATE_PATCH, probability=1.0, max_fires=2
        )
        fires = sum(
            injector.evaluate(UPDATE_PATCH) is not None for _ in range(5)
        )
        assert fires == 2

    def test_points_count_calls_independently(self):
        injector = FaultInjector()
        injector.evaluate(UPDATE_PATCH)
        injector.evaluate(UPDATE_PATCH)
        injector.evaluate(WAREHOUSE_READ)
        assert injector.calls(UPDATE_PATCH) == 2
        assert injector.calls(WAREHOUSE_READ) == 1
        assert injector.fired(UPDATE_PATCH) == 0


class TestDeterminism:
    def test_same_seed_same_schedule(self):
        def schedule(seed: int) -> list[bool]:
            injector = FaultInjector(seed).inject(UPDATE_PATCH, probability=0.3)
            return [
                injector.evaluate(UPDATE_PATCH) is not None for _ in range(50)
            ]

        assert schedule(7) == schedule(7)
        assert schedule(7) != schedule(8)  # overwhelmingly likely

    def test_nth_call_rule_does_not_perturb_probabilistic_schedule(self):
        """Adding an unrelated deterministic rule must not shift the RNG
        draws of a probabilistic rule at the same point."""

        def fires(with_extra_rule: bool) -> list[int]:
            injector = FaultInjector(3).inject(UPDATE_PATCH, probability=0.2)
            if with_extra_rule:
                injector.inject(WAREHOUSE_WRITE, on_calls=(1,), delay_seconds=0.1)
                injector.evaluate(WAREHOUSE_WRITE)
            result = []
            for call in range(1, 41):
                if injector.evaluate(UPDATE_PATCH) is not None:
                    result.append(call)
            return result

        assert fires(False) == fires(True)

    def test_snapshot_reports_calls_and_fires(self):
        injector = FaultInjector().inject(UPDATE_PATCH, on_calls=(1,))
        injector.evaluate(UPDATE_PATCH)
        injector.evaluate(UPDATE_PATCH)
        assert injector.snapshot() == {
            UPDATE_PATCH: {"calls": 2, "fired": 1}
        }

"""Tests for the bounded latency reservoir and its ServiceStats wiring."""

from __future__ import annotations

from repro.metrics.reservoir import RESERVOIR_CAPACITY, LatencyReservoir


class TestLatencyReservoir:
    def test_exact_until_capacity(self):
        reservoir = LatencyReservoir()
        for value in range(1, RESERVOIR_CAPACITY + 1):
            reservoir.add(float(value))
        assert len(reservoir) == reservoir.count == RESERVOIR_CAPACITY
        # Nearest-rank over the full population: exact quantiles.
        assert reservoir.quantile(0.50) == RESERVOIR_CAPACITY / 2
        assert reservoir.quantile(1.0) == RESERVOIR_CAPACITY

    def test_empty_quantile_is_zero(self):
        assert LatencyReservoir().quantile(0.99) == 0.0

    def test_memory_is_bounded(self):
        reservoir = LatencyReservoir()
        for value in range(10_000):
            reservoir.add(float(value))
        assert len(reservoir) == RESERVOIR_CAPACITY
        assert reservoir.count == 10_000

    def test_sample_tracks_population_quantiles(self):
        """On a uniform stream of 10k values, the sampled p50/p99 must
        land inside the population's central region — a loose bound, but
        one that fails loudly if sampling ever becomes biased."""
        reservoir = LatencyReservoir()
        for value in range(10_000):
            reservoir.add(float(value))
        assert 3_000 <= reservoir.quantile(0.50) <= 7_000
        assert reservoir.quantile(0.99) >= 8_000

    def test_deterministic_given_stream(self):
        first = LatencyReservoir()
        second = LatencyReservoir()
        for value in range(10_000):
            first.add(float(value))
            second.add(float(value))
        assert first.values() == second.values()


class TestServiceStatsHardening:
    def _response(self, elapsed: float):
        from repro.mining.patterns import PatternSet
        from repro.metrics.counters import CostCounters
        from repro.service import MineResponse

        return MineResponse(
            tenant="t",
            path="mine",
            absolute_support=5,
            feedstock_support=None,
            patterns=PatternSet(),
            coalesced=False,
            elapsed_seconds=elapsed,
            counters=CostCounters(),
        )

    def test_snapshot_reports_p99(self):
        from repro.service import ServiceStats

        stats = ServiceStats()
        for i in range(100):
            stats.record(self._response(float(i + 1)))
        snapshot = stats.snapshot()
        assert snapshot["latency_p99_s"] == 99.0
        assert snapshot["latency_p50_s"] == 50.0

    def test_latency_memory_is_bounded(self):
        from repro.service import ServiceStats

        stats = ServiceStats()
        for i in range(RESERVOIR_CAPACITY + 500):
            stats.record(self._response(1.0))
        assert len(stats._latencies) == RESERVOIR_CAPACITY
        assert stats._latencies.count == RESERVOIR_CAPACITY + 500

    def test_attach_gauges_merges_into_snapshot(self):
        from repro.service import ServiceStats

        class Source:
            def gauges(self):
                return {"gateway_queue_depth": 3.0}

        stats = ServiceStats()
        stats.attach_gauges(Source())
        assert stats.snapshot()["gateway_queue_depth"] == 3.0

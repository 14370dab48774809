"""Unit tests for the structured degradation ladder report."""

from __future__ import annotations

from repro.resilience import (
    REASON_MERGE_FAILED,
    REASON_SHARD_FAILED,
    DegradationReport,
    DegradationStep,
)


class TestDegradationReport:
    def test_empty_report_is_falsy_and_not_degraded(self):
        report = DegradationReport()
        assert not report
        assert not report.degraded
        assert len(report) == 0
        assert report.steps == ()
        assert report.describe() == ""

    def test_record_builds_the_requested_to_served_chain(self):
        report = DegradationReport()
        report.record("parallel", "serial", REASON_SHARD_FAILED)
        report.record("recycle", "mine", "feedstock_quarantined")
        assert report.degraded and len(report) == 2
        assert report.describe() == (
            "parallel→serial: shard_failed; "
            "recycle→mine: feedstock_quarantined"
        )
        assert report.reasons() == [
            "parallel→serial: shard_failed",
            "recycle→mine: feedstock_quarantined",
        ]

    def test_steps_are_immutable_value_objects(self):
        step = DegradationStep("parallel", "serial", REASON_MERGE_FAILED)
        assert step.describe() == "parallel→serial: merge_failed"
        assert step == DegradationStep("parallel", "serial", REASON_MERGE_FAILED)

"""Exception hierarchy for :mod:`repro`.

Every error raised intentionally by this library derives from
:class:`ReproError`, so callers can catch library failures with a single
``except`` clause while letting genuine bugs (``TypeError`` and friends)
propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class DataError(ReproError):
    """Raised for malformed transaction data or unreadable dataset files."""


class MiningError(ReproError):
    """Raised when a mining algorithm is invoked with invalid parameters."""


class CompressionError(ReproError):
    """Raised when database compression is given unusable input."""


class ConstraintError(ReproError):
    """Raised for ill-formed constraints or unsupported constraint changes."""


class RecycleError(ReproError):
    """Raised when pattern recycling cannot proceed (e.g. no prior patterns)."""


class StorageError(ReproError):
    """Raised by the simulated disk / memory-budget subsystem."""


class BenchmarkError(ReproError):
    """Raised by the benchmark harness for unknown experiments or workloads."""


class ParallelError(ReproError):
    """Raised by the sharded engine for bad settings and failed shard passes."""


class ResilienceError(ReproError):
    """Raised for ill-formed fault-injection rules."""


class GatewayError(ReproError):
    """Raised by the async gateway for ill-formed requests or configuration."""


class TrendsError(ReproError):
    """Raised by the trend pipeline for malformed snapshots or gate policies."""


class InjectedFaultError(ReproError):
    """Raised by a firing :class:`repro.resilience.FaultInjector` fault point.

    Deliberately a :class:`ReproError` subclass: injected chaos must flow
    through exactly the ``except`` clauses real failures would, so the
    fault-injection tests exercise the production error-handling paths
    rather than parallel test-only ones.
    """

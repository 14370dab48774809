"""Seeded, deterministic fault injection for the resilience test harness.

A long-running mining service fails in a handful of well-understood
places: a warehouse file read comes back corrupt, a write-through to
disk fails, an incremental update dies mid-patch, or the process is
killed partway through a durable write (mid temp-file or pre-rename).
:class:`FaultInjector` names exactly those places as
**fault points** and lets a test (or a chaos CI job) arm them with
deterministic triggers — *fire on call 3*, *fire with probability 0.2
under seed 7* — so the same seed always produces the same failure
schedule.

The injector raises :class:`~repro.errors.InjectedFaultError`, a
:class:`~repro.errors.ReproError` subclass, so injected chaos flows
through exactly the ``except`` clauses real failures take. Slow faults
are the exception: they don't raise, they return a delay the hook site
is expected to honor (the update patch sleeps it).

Hook sites are explicit: :class:`~repro.service.PatternWarehouse`,
:class:`~repro.durability.DurableStore`,
:class:`~repro.service.MiningService` and
:func:`~repro.core.planner.execute_plan` each accept an injector and call
:meth:`FaultInjector.fire` / :meth:`FaultInjector.evaluate` at their
named points. Production code paths pay one ``is None`` check when no
injector is armed.
"""

from __future__ import annotations

import random
import threading
from dataclasses import dataclass

from repro.errors import InjectedFaultError, ResilienceError

#: A warehouse file/entry read fails (corrupt or unreadable feedstock).
WAREHOUSE_READ = "warehouse.read"
#: A warehouse write-through to disk fails.
WAREHOUSE_WRITE = "warehouse.write"
#: The planner's update path fails mid-patch (FUP or recycle-update);
#: the executor must fall back to a clean scratch mine, never serve a
#: half-patched pattern set.
UPDATE_PATCH = "update.patch"
#: The durability layer dies while writing a temp file (chain file or
#: entry body) — the bytes on disk stop mid-payload, the way a hard kill
#: leaves them.
PERSIST_WRITE = "persist.write"
#: The durability layer dies between the temp-file write and the atomic
#: ``os.replace`` — the temp file is complete but the target still holds
#: the old state.
PERSIST_RENAME = "persist.rename"

#: Every named fault point an injector will accept.
FAULT_POINTS = frozenset(
    {WAREHOUSE_READ, WAREHOUSE_WRITE, UPDATE_PATCH, PERSIST_WRITE, PERSIST_RENAME}
)

#: The two durability-layer points, in the order a single persisted
#: mutation passes them — the kill-mid-write chaos harness iterates this.
PERSIST_FAULT_POINTS = (PERSIST_WRITE, PERSIST_RENAME)


@dataclass(frozen=True)
class FaultRule:
    """One armed trigger at a fault point.

    A rule fires on a call whose 1-based sequence number is in
    ``on_calls``, or — independently — with ``probability`` per call
    under the injector's seeded RNG. ``max_fires`` caps how often the
    rule fires in total (``None`` = unlimited). ``delay_seconds > 0``
    turns the fault from a raise into a slowdown.
    """

    point: str
    probability: float = 0.0
    on_calls: frozenset[int] = frozenset()
    max_fires: int | None = None
    delay_seconds: float = 0.0
    message: str = ""


@dataclass(frozen=True)
class FiredFault:
    """One firing: which point, which call, and how it manifests."""

    point: str
    call: int
    delay_seconds: float
    message: str


class FaultInjector:
    """A thread-safe, seeded schedule of failures at named fault points.

    The same seed and the same sequence of :meth:`evaluate`/:meth:`fire`
    calls always produce the same firings, so a chaos run is exactly
    reproducible from ``(seed, rules)`` — the property the CI seed
    matrix asserts equivalence over.
    """

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self.seed = seed
        self._lock = threading.Lock()
        self._rules: dict[str, list[FaultRule]] = {}
        self._calls: dict[str, int] = {}
        self._fired: dict[str, int] = {}
        self._fires_by_rule: dict[int, int] = {}

    # ------------------------------------------------------------------
    # arming
    # ------------------------------------------------------------------
    def inject(
        self,
        point: str,
        *,
        probability: float = 0.0,
        on_calls: tuple[int, ...] | frozenset[int] = (),
        max_fires: int | None = None,
        delay_seconds: float = 0.0,
        message: str = "",
    ) -> "FaultInjector":
        """Arm a rule at ``point``; returns ``self`` for chaining."""
        _check_point(point)
        if not 0.0 <= probability <= 1.0:
            raise ResilienceError(
                f"probability must be in [0, 1], got {probability}"
            )
        calls = frozenset(on_calls)
        if any(n < 1 for n in calls):
            raise ResilienceError(f"on_calls are 1-based, got {sorted(calls)}")
        if probability == 0.0 and not calls:
            raise ResilienceError(
                f"rule at {point!r} can never fire: give it a probability "
                "or on_calls"
            )
        if max_fires is not None and max_fires < 1:
            raise ResilienceError(f"max_fires must be >= 1, got {max_fires}")
        if delay_seconds < 0:
            raise ResilienceError(
                f"delay_seconds must be >= 0, got {delay_seconds}"
            )
        rule = FaultRule(
            point=point,
            probability=probability,
            on_calls=calls,
            max_fires=max_fires,
            delay_seconds=delay_seconds,
            message=message,
        )
        with self._lock:
            self._rules.setdefault(point, []).append(rule)
        return self

    # ------------------------------------------------------------------
    # firing
    # ------------------------------------------------------------------
    def evaluate(self, point: str) -> FiredFault | None:
        """Record one call at ``point``; the firing (if any), never raising.

        Probabilistic rules draw from the seeded RNG exactly once per
        call whether or not they end up firing, so adding an unrelated
        nth-call rule never perturbs the probabilistic schedule.
        """
        _check_point(point)
        with self._lock:
            call = self._calls.get(point, 0) + 1
            self._calls[point] = call
            for rule in self._rules.get(point, ()):
                rule_id = id(rule)
                drawn = (
                    self._rng.random() if rule.probability > 0.0 else 1.0
                )
                if rule.max_fires is not None and (
                    self._fires_by_rule.get(rule_id, 0) >= rule.max_fires
                ):
                    continue
                if call in rule.on_calls or drawn < rule.probability:
                    self._fired[point] = self._fired.get(point, 0) + 1
                    self._fires_by_rule[rule_id] = (
                        self._fires_by_rule.get(rule_id, 0) + 1
                    )
                    return FiredFault(
                        point=point,
                        call=call,
                        delay_seconds=rule.delay_seconds,
                        message=rule.message,
                    )
        return None

    def fire(self, point: str, detail: str = "") -> float:
        """Record one call at ``point``; raise or return a delay.

        Returns ``0.0`` when nothing fires, the rule's positive
        ``delay_seconds`` when a slow fault fires (the caller sleeps or
        schedules the delay), and raises
        :class:`~repro.errors.InjectedFaultError` for every other
        firing.
        """
        fired = self.evaluate(point)
        if fired is None:
            return 0.0
        if fired.delay_seconds > 0:
            return fired.delay_seconds
        suffix = f" ({fired.message})" if fired.message else ""
        where = f" {detail}" if detail else ""
        raise InjectedFaultError(
            f"{point}: injected fault on call {fired.call}{where}{suffix}"
        )

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def calls(self, point: str) -> int:
        """How many times ``point`` has been evaluated."""
        _check_point(point)
        with self._lock:
            return self._calls.get(point, 0)

    def fired(self, point: str) -> int:
        """How many times a rule at ``point`` has fired."""
        _check_point(point)
        with self._lock:
            return self._fired.get(point, 0)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Per-point call and fire counts (points never touched omitted)."""
        with self._lock:
            points = set(self._calls) | set(self._fired)
            return {
                point: {
                    "calls": self._calls.get(point, 0),
                    "fired": self._fired.get(point, 0),
                }
                for point in sorted(points)
            }


def _check_point(point: str) -> None:
    if point not in FAULT_POINTS:
        raise ResilienceError(
            f"unknown fault point {point!r} (known: {sorted(FAULT_POINTS)})"
        )

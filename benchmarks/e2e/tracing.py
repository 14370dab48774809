"""Per-layer timing from outside the program, for the traced benchmark run.

The traced run replaces the entry points of each serving layer with
timing wrappers; nothing under ``src/`` changes. A wrapper records one
span per call — name, start, end, parent span, request id — on a
thread-local stack and keeps it in memory. Work that a request hands to
another thread (the service's worker pool) is parented to the request's
root span, which the closed-loop workloads open around each call.

A module-level function is patched in its defining module and in every
``repro`` module that imported the name, so ``execute_plan`` is timed
whether it is called as ``repro.core.planner.execute_plan`` or as
``repro.service.service.execute_plan``. A target that no longer exists
is reported ``absent`` instead of failing the run, so a change that
deletes a function can still run the benchmark unchanged.

A layer's self time is its spans' durations minus the part of each
interval its child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One wrapped callable: ``module:Qualified.name`` and its span name.

    ``name`` is a fixed span name or a function of the call's positional
    arguments, for entry points whose layer depends on the call (the
    planner's path, the miner's kind). A ``sharded`` target returns the
    parallel engine's outcome, whose shard timings stand in for the
    kernel time of the worker processes, which are not traced.
    """

    path: str
    name: "str | Callable[[tuple], str]"
    sharded: bool = False


def _plan_span(args: tuple) -> str:
    return f"planner.{getattr(args[0], 'path', 'unknown')}"


def _kernel_span(args: tuple) -> str:
    return f"kernel.{getattr(args[0], 'kind', 'unknown')}"


TARGETS: tuple[Target, ...] = (
    Target("repro.gateway.gateway:MiningGateway.submit", "gateway.submit"),
    Target("repro.service.service:MiningService.submit", "service.submit"),
    Target("repro.service.service:MiningService._compute", "service.compute"),
    Target("repro.service.service:MiningService.apply_delta", "service.apply_delta"),
    Target("repro.service.warehouse:PatternWarehouse.best_feedstock", "warehouse.lookup"),
    Target(
        "repro.service.warehouse:PatternWarehouse.ancestor_feedstock",
        "warehouse.lookup",
    ),
    Target("repro.service.warehouse:PatternWarehouse.restore_version", "warehouse.lookup"),
    Target("repro.service.warehouse:PatternWarehouse.put", "warehouse.put"),
    Target("repro.data.patterns:CondensedPatternSet.expand", "warehouse.expand"),
    Target(
        "repro.data.patterns:CondensedPatternSet.filter_min_support",
        "warehouse.expand",
    ),
    Target("repro.core.planner:execute_plan", _plan_span),
    Target("repro.core.compression:compress", "compression.compress"),
    Target("repro.mining.registry:MinerSpec.mine", _kernel_span),
    Target("repro.storage.projection:mine_grouped", "kernel.grouped"),
    Target("repro.parallel.executor:ParallelEngine.mine", "parallel.engine", sharded=True),
    Target(
        "repro.parallel.executor:ParallelEngine.recycle_mine", "parallel.engine", sharded=True
    ),
    Target("repro.parallel.merge:merge_shard_patterns", "parallel.merge"),
    Target("repro.core.fup:fup_update_delta", "update.fup"),
    Target("repro.durability.store:DurableStore.write_entry", "durability.write_entry"),
    Target("repro.durability.store:DurableStore.remove_entry", "durability.remove_entry"),
    Target("repro.durability.store:DurableStore.write_chain", "durability.write_chain"),
    Target("repro.durability.store:DurableStore.record_link", "durability.record_link"),
    Target("repro.durability.store:DurableStore.recover", "durability.recover"),
    Target("repro.durability.store:DurableStore.gc", "durability.gc"),
    Target("os:fsync", "durability.fsync"),
    Target("repro.data.transactions:TransactionDatabase.fingerprint", "data.fingerprint"),
    Target("repro.data.encoded:EncodedDatabase.__init__", "data.encode"),
    Target("repro.data.versioned:VersionedDatabase.apply", "data.delta_apply"),
)

#: Span name of the benchmark's own per-request (and per-delta) root.
ROOT = "request"


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]


class Tracer:
    """Span recorder plus the patching that feeds it.

    Spans are ``(id, parent, request, name, start, end, thread)`` tuples
    in :attr:`spans`, appended as calls return.

    A traced pass alternates: even rounds run with no wrapper installed,
    odd rounds traced. The untraced rounds are the baseline of
    ``trace.overhead_pct``; interleaving them with the traced ones makes
    a slower stretch of the host hit both alike.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, int | None, str, float, float, int]] = []
        #: Seconds the worker processes of sharded targets spent mining.
        self.kernel_shard_seconds = 0.0
        #: target path -> "wrapped" or "absent: <reason>"
        self.status: dict[str, str] = {}
        #: Whether each round of the pass so far was traced.
        self.rounds_traced: list[bool] = []
        self.installed = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._ambient: tuple[int, int] | None = None
        self._active = True
        self._patched: list[tuple[object, str, object, bool]] = []

    def begin_round(self, index: int) -> None:
        """Install the wrappers for an odd round, remove them for an even one."""
        traced = index % 2 == 1
        if traced and not self.installed:
            self.install()
        elif not traced:
            self.uninstall()
        self.rounds_traced.append(traced)

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> list[tuple[int, int | None]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, root: bool = False):
        """Record one span; a ``root`` span also parents other threads' work."""
        stack = self._stack()
        parent, request = stack[-1] if stack else (self._ambient or (None, None))
        span_id = next(self._ids)
        if root:
            request = span_id
            self._ambient = (span_id, request)
        stack.append((span_id, request))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            if root:
                self._ambient = None
            self.spans.append(
                (span_id, parent, request, name, start, end, threading.get_ident())
            )

    def root(self):
        """The span around one closed-loop request, in the caller's thread
        (in traced rounds only)."""
        return self.span(ROOT, root=True) if self.installed else contextlib.nullcontext()

    @contextlib.contextmanager
    def paused(self):
        """Run benchmark bookkeeping (state resets) without recording it."""
        self._active = False
        try:
            yield
        finally:
            self._active = True

    def _wrapper(self, fn: Callable, target: Target) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer._active:
                return fn(*args, **kwargs)
            name = target.name if isinstance(target.name, str) else target.name(args)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            if target.sharded:
                tracer.kernel_shard_seconds += sum(
                    shard.elapsed_seconds for shard in getattr(result, "shards", ())
                )
            return result

        return traced

    # ------------------------------------------------------------------
    # patching
    # ------------------------------------------------------------------
    def install(self, targets: tuple[Target, ...] | None = None) -> dict[str, str]:
        """Wrap every target (default :data:`TARGETS`) that exists.

        Returns the per-target status.
        """
        for target in TARGETS if targets is None else targets:
            try:
                self._install_one(target)
            except (ImportError, AttributeError) as exc:
                self.status[target.path] = f"absent: {exc}"
            else:
                self.status[target.path] = "wrapped"
        self.installed = True
        return self.status

    def _install_one(self, target: Target) -> None:
        module_name, _, qualname = target.path.partition(":")
        module = importlib.import_module(module_name)
        *owners, attr = qualname.split(".")
        owner: object = module
        for part in owners:
            owner = getattr(owner, part)
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, (staticmethod, classmethod)):
            wrapped: object = type(static)(self._wrapper(static.__func__, target))
        else:
            wrapped = self._wrapper(static, target)
        self._patch(owner, attr, wrapped)
        if owner is module:
            for other in list(sys.modules.values()):
                if (
                    other is not module
                    and getattr(other, "__name__", "").startswith("repro")
                    and getattr(other, attr, None) is static
                ):
                    self._patch(other, attr, wrapped)

    def _patch(self, owner: object, attr: str, value: object) -> None:
        own = attr in vars(owner)
        self._patched.append((owner, attr, vars(owner).get(attr), own))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self.installed = False
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # ------------------------------------------------------------------
    # analysis
    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, tuple[float, float, int]]:
        """``name -> (self seconds, total seconds, calls)`` over all spans."""
        children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
        for _id, parent, _req, _name, start, end, _tid in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals: dict[str, list] = {}
        for span_id, _parent, _req, name, start, end, _tid in self.spans:
            covered = _covered(start, end, children.get(span_id, ()))
            entry = totals.setdefault(name, [0.0, 0.0, 0])
            entry[0] += (end - start) - covered
            entry[1] += end - start
            entry[2] += 1
        return {name: tuple(entry) for name, entry in totals.items()}

    def chrome_trace(self, label: str) -> dict:
        """The spans as Chrome trace-event JSON (viewable in Perfetto)."""
        origin = min((span[4] for span in self.spans), default=0.0)
        pid = os.getpid()
        events = [
            {
                "name": name,
                "cat": layer_of(name),
                "ph": "X",
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": tid,
                "args": {"span": span_id, "parent": parent, "request": request},
            }
            for span_id, parent, request, name, start, end, tid in self.spans
        ]
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"workload": label, "targets": self.status},
        }


def _covered(start: float, end: float, intervals) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    covered = 0.0
    cursor = start
    for child_start, child_end in sorted(intervals):
        lo = max(child_start, cursor)
        hi = min(child_end, end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return covered


class NoTracer:
    """The untraced run's stand-in: installs nothing, records nothing."""

    installed = False

    def begin_round(self, index: int) -> None:
        pass

    def uninstall(self) -> None:
        pass

    def root(self):
        return contextlib.nullcontext()

    def paused(self):
        return contextlib.nullcontext()

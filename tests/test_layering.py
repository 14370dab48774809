"""Architectural layering contract, enforced with the ast module.

The package layers one way (see docs/architecture.md):

    repro.data  ->  repro.core / repro.mining / repro.storage
                ->  repro.service  ->  repro.gateway  ->  repro.bench

Concretely: ``repro.data`` must import nothing from the layers above it,
and ``repro.core`` must never reach up into ``repro.service``. The check
walks every module's import statements (including function-local ones —
a lazy import is still a dependency), so a violation fails CI whether or
not any test happens to trigger the import at runtime.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

#: importing package prefix -> package prefixes it must not import.
#:
#: ``repro.parallel`` (the sharded engine) sits above the algorithm
#: layers: it may use data/core/mining/storage but never the service.
#: Nothing but the benchmark harness may import it back: ``repro.core``,
#: ``repro.service``, ``repro.gateway`` and ``repro.cli`` are forbidden
#: to reach it, so ``benchmarks/bench_parallel.py`` (through
#: ``repro.bench.experiments.parallel_speedup_rows``) is its only front
#: door.
#: ``repro.resilience`` is deliberately the lowest non-trivial layer: it
#: may import only ``repro.errors`` / ``repro.metrics`` (so the fault
#: injector and degradation ladder can be threaded through
#: parallel/core/service without cycles), and conversely the bottom
#: layers must not grow a dependency on it.
#: ``repro.gateway`` sits strictly above ``repro.service``: the service
#: must never import it (gateway gauges flow down through the duck-typed
#: ``ServiceStats.attach_gauges``), and the gateway itself must stay
#: below ``repro.bench`` — benchmarks drive the gateway, never the
#: reverse.
#: ``repro.trends`` is the observability roof over the benchmarks: it
#: reads the committed benchmark files and renders/gates them, so it may import
#: the leaf utilities and ``repro.bench`` (table formatting) but never
#: the engine, service or gateway — a trend report must be computable
#: from committed data alone, with no mining machinery in scope. The
#: reverse edge is banned too: ``repro.bench`` stays runnable without
#: the trend pipeline (benchmark scripts call the snapshot writer themselves,
#: from outside the package).
#: ``repro.durability`` is the crash-safe persistence layer between the
#: leaves and the service: it composes ``repro.data`` (formats, deltas,
#: versioned chains) with ``repro.resilience`` (the persist.* fault
#: points), and ``repro.service`` builds its warehouse on top. Nothing
#: below the service may import it back — the miners and the data layer
#: must stay loadable with no durable store in scope — and the
#: durability layer itself must never reach up into the algorithm or
#: orchestration layers.
FORBIDDEN: dict[str, tuple[str, ...]] = {
    "repro.data": (
        "repro.core",
        "repro.durability",
        "repro.gateway",
        "repro.mining",
        "repro.parallel",
        "repro.resilience",
        "repro.service",
        "repro.storage",
    ),
    "repro.core": (
        "repro.durability",
        "repro.gateway",
        "repro.parallel",
        "repro.service",
    ),
    # The update-path patch engines are pinned individually: even if the
    # blanket repro.core rule is ever relaxed, the algorithms that the
    # planner's PATH_UPDATE dispatches to must stay pure — callable from
    # a bench script or a property test with no service machinery in
    # scope. FUP's depth-first search needs no sharding helper either.
    "repro.core.fup": ("repro.gateway", "repro.parallel", "repro.service"),
    "repro.core.recycle": ("repro.gateway", "repro.service"),
    "repro.mining": (
        "repro.durability",
        "repro.gateway",
        "repro.parallel",
        "repro.resilience",
        "repro.service",
    ),
    "repro.storage": (
        "repro.durability",
        "repro.gateway",
        "repro.parallel",
        "repro.resilience",
        "repro.service",
    ),
    "repro.parallel": ("repro.durability", "repro.gateway", "repro.service"),
    "repro.resilience": (
        "repro.core",
        "repro.data",
        "repro.durability",
        "repro.gateway",
        "repro.mining",
        "repro.parallel",
        "repro.service",
        "repro.storage",
    ),
    "repro.durability": (
        "repro.bench",
        "repro.core",
        "repro.gateway",
        "repro.mining",
        "repro.parallel",
        "repro.service",
        "repro.storage",
        "repro.trends",
    ),
    "repro.service": ("repro.gateway", "repro.parallel", "repro.trends"),
    # Durable formats stay behind the warehouse: the service hands it
    # versions and pattern sets, never chain records; and the warehouse
    # is in-memory policy, every file read or written by DurableStore.
    "repro.service.service": ("repro.durability",),
    "repro.service.warehouse": ("repro.data.io",),
    "repro.gateway": ("repro.bench", "repro.parallel", "repro.trends"),
    "repro.cli": ("repro.parallel",),
    "repro.bench": ("repro.trends",),
    "repro.trends": (
        "repro.core",
        "repro.data",
        "repro.durability",
        "repro.gateway",
        "repro.mining",
        "repro.parallel",
        "repro.resilience",
        "repro.service",
        "repro.storage",
    ),
}


def module_name(path: Path) -> str:
    relative = path.relative_to(SRC).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def imported_modules(path: Path) -> set[str]:
    """Every module name this file imports, resolved to absolute form."""
    tree = ast.parse(path.read_text(), filename=str(path))
    name = module_name(path)
    package_parts = name.split(".")
    if path.name != "__init__.py":
        package_parts = package_parts[:-1]
    found: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            if node.level:  # relative import -> resolve against the package
                base = package_parts[: len(package_parts) - node.level + 1]
                prefix = ".".join(base + ([node.module] if node.module else []))
            else:
                prefix = node.module or ""
            if prefix:
                found.add(prefix)
                found.update(f"{prefix}.{alias.name}" for alias in node.names)
    return found


def _within(module: str, prefix: str) -> bool:
    return module == prefix or module.startswith(prefix + ".")


@pytest.mark.parametrize("layer", sorted(FORBIDDEN))
def test_layer_imports_nothing_from_upper_layers(layer):
    violations: list[str] = []
    for path in sorted(SRC.glob("repro/**/*.py")):
        name = module_name(path)
        if not _within(name, layer):
            continue
        for imported in sorted(imported_modules(path)):
            for forbidden in FORBIDDEN[layer]:
                if _within(imported, forbidden):
                    violations.append(f"{name} imports {imported}")
    assert not violations, (
        f"layering violation(s) — {layer} must not depend on "
        f"{FORBIDDEN[layer]}:\n  " + "\n  ".join(violations)
    )


def test_every_source_module_is_parseable():
    """The walk above silently proves nothing if glob finds nothing."""
    paths = list(SRC.glob("repro/**/*.py"))
    assert len(paths) > 30
    for path in paths:
        ast.parse(path.read_text(), filename=str(path))


#: API names retired for good. They must not resurface anywhere in the
#: source tree — not as definitions, not as imports, not as shims.
RETIRED_NAMES = (
    "CGroup",
    "compressed_to_cgroups",
    "database_to_cgroups",
    # The sharded engine's retry and circuit-breaker machinery, and the
    # library knobs that reached the engine.
    "ResilienceConfig",
    "RetryPolicy",
    "CircuitBreaker",
    "sharded_engine",
    "from_resilience",
    "SHARD_CRASH",
    "SHARD_SLOW",
    "MERGE_COUNT",
)


def test_retired_names_stay_retired():
    """The deprecated CGroup-era shims were deleted, not re-hidden.

    Checked at the AST level: docstrings may still narrate the history,
    but no module may define, import, reference or re-export the retired
    names as code.
    """
    retired = set(RETIRED_NAMES)
    offenders: list[str] = []
    for path in sorted(SRC.glob("repro/**/*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            used: set[str] = set()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                used.add(node.name)
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
                if node.asname:
                    used.add(node.asname)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                # String re-exports: __all__ entries, lazy-import tables.
                if node.value in retired:
                    used.add(node.value)
            for name in sorted(used & retired):
                offenders.append(f"{module_name(path)} references {name}")
    assert not offenders, (
        "retired API names resurfaced:\n  " + "\n  ".join(offenders)
    )

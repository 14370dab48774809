"""Caller census: every function, method and class in ``src/`` has a caller.

The layering test checks which modules may import which; this check asks
whether anything outside the test suite uses what a module defines. A
definition that only tests reach is code the library carries for its
tests alone, so it goes, or it earns an :data:`ALLOWLIST` entry whose
reason says why it stays (see docs/architecture.md, "Caller contract").

*Definitions* are every function and class written directly in a module
body and every method in a class body (nested classes included) under
``src/repro/``. Dunder methods are exempt, and so is anything defined
inside a function body: closures and local classes have their caller
right beside them.

*A reference* is an ``ast.Name``, the ``attr`` of an ``ast.Attribute`` or
an imported name, found in

- any ``src/`` module, except inside the definition's own body, so
  recursion does not count;
- any ``.py`` file under ``benchmarks/`` or ``examples/``;
- a string of the form ``"repro.pkg.mod:Qual.name"``, the way the
  end-to-end tracer (``benchmarks/e2e/tracing.py``) names what it wraps.
  Such a string names one definition exactly.

A re-export does not count: neither a sub-package ``__init__.py``'s
``from .x import f`` nor its ``__all__`` string. Only the ``__all__`` of
``src/repro/__init__.py`` counts, because it is the public API.

Names are matched bare: a method passes when any reference anywhere
shares its name (``PatternSet.closed`` passes on every ``.closed``
attribute). So the census can miss dead code, but it never fails a live
function. An import outside an ``__init__.py`` counts even when nothing
uses it, so a ``# noqa: F401`` re-export hides its names. Module-level
constants are outside the census altogether.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: ``"repro.module:Qualname"`` -> why it stays although only tests call it.
#: Growing this table is a reviewed diff.
ALLOWLIST: dict[str, str] = {
    "repro.resilience.faults:FaultInjector.inject": (
        "tests and the chaos legs arm fault points through it"
    ),
    "repro.core.groups:GroupedDatabase.decompress": (
        "the oracle of the lossless-compression property (test_grouped_property.py)"
    ),
    "repro.core.session:MiningSession.save_patterns": (
        "the paper's multi-user hand-off (section 2), documented in README "
        "and docs/data_formats.md"
    ),
    "repro.core.session:MiningSession.load_patterns": (
        "the paper's multi-user hand-off (section 2), documented in README "
        "and docs/data_formats.md"
    ),
    "repro.data.io:write_patterns_with_support": (
        "writes the pre-condensation format that read_warehouse_entry and "
        "`repro warehouse migrate` still accept; the migrate and chaos tests "
        "build their legacy fixtures with it"
    ),
    "repro.durability.chains:apply_record": (
        "the oracle of tests/durability/test_chains.py"
    ),
}

#: The tracer's target form: ``repro.pkg.mod:Qual.name``.
TARGET_STRING = re.compile(r"repro(\.\w+)*:\w+(\.\w+)*")


@dataclass(frozen=True)
class Definition:
    module: str
    qualname: str
    path: Path
    first: int
    last: int

    @property
    def key(self) -> str:
        return f"{self.module}:{self.qualname}"

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


def module_name(src: Path, path: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def _block_defs(body: list[ast.stmt], prefix: str):
    """``(qualname, node)`` for each definition in a module or class body."""
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield f"{prefix}{node.name}", node
        if isinstance(node, ast.ClassDef):
            yield from _block_defs(node.body, f"{prefix}{node.name}.")


def definitions(src: Path, path: Path, tree: ast.Module) -> list[Definition]:
    module = module_name(src, path)
    return [
        Definition(module, qualname, path, node.lineno, node.end_lineno)
        for qualname, node in _block_defs(tree.body, "")
        if not _is_dunder(node.name)
    ]


def _all_strings(tree: ast.Module) -> set[str]:
    """The string entries of a module-level ``__all__ = [...]``."""
    return {
        item.value
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
        for item in ast.walk(node.value)
        if isinstance(item, ast.Constant) and isinstance(item.value, str)
    }


def references(tree: ast.Module, *, count_imports: bool = True):
    """``(name, line)`` for each name, attribute and imported name used."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif count_imports and isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield alias.name.rsplit(".", 1)[-1], node.lineno


def target_strings(tree: ast.Module) -> set[str]:
    """Every ``repro.pkg.mod:Qual.name`` string constant: a definition's key."""
    return {
        node.value
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and TARGET_STRING.fullmatch(node.value)
    }


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def census(root: Path, allowlist: dict[str, str]) -> list[str]:
    """Every failure of the caller contract in the tree at ``root``."""
    src = root / "src"
    package = src / "repro"
    defs: list[Definition] = []
    #: bare name -> (file, line) of each use inside src/
    src_uses: dict[str, list[tuple[Path, int]]] = {}
    outside: set[str] = set()  # bare names used outside src/, or public
    exact: set[str] = set()  # keys named by tracer-form strings

    for path in sorted(package.rglob("*.py")):
        tree = _parse(path)
        defs.extend(definitions(src, path, tree))
        exact |= target_strings(tree)
        is_init = path.name == "__init__.py"
        if path == package / "__init__.py":
            outside |= _all_strings(tree)
        for name, line in references(tree, count_imports=not is_init):
            src_uses.setdefault(name, []).append((path, line))

    for folder in ("benchmarks", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = _parse(path)
            exact |= target_strings(tree)
            outside.update(name for name, _ in references(tree))

    def referenced(d: Definition) -> bool:
        if d.name in outside or d.key in exact:
            return True
        return any(
            path != d.path or not d.first <= line <= d.last
            for path, line in src_uses.get(d.name, ())
        )

    failures: list[str] = []
    by_key = {d.key: d for d in defs}
    for d in defs:
        if d.key not in allowlist and not referenced(d):
            where = d.path.relative_to(root)
            failures.append(f"{where}:{d.first}: {d.key} has no caller outside tests")
    for key, reason in sorted(allowlist.items()):
        d = by_key.get(key)
        if d is None:
            failures.append(f"ALLOWLIST: {key} names no definition in src/")
        elif referenced(d):
            where = d.path.relative_to(root)
            failures.append(
                f"ALLOWLIST: {key} ({where}:{d.first}) has a caller now; drop its entry"
            )
        if not reason.strip():
            failures.append(f"ALLOWLIST: {key} gives no reason")
    return failures


def test_every_definition_has_a_caller():
    failures = census(REPO, ALLOWLIST)
    assert not failures, "caller census:\n  " + "\n  ".join(failures)


def test_census_sees_the_source_tree():
    """An empty walk would pass the census while proving nothing."""
    found = [
        d
        for path in (REPO / "src" / "repro").rglob("*.py")
        for d in definitions(REPO / "src", path, _parse(path))
    ]
    assert len(found) > 500
    assert "repro.core.planner:execute_plan" in {d.key for d in found}


# -- self-tests over a synthetic tree ---------------------------------------


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


BASE = {
    "src/repro/__init__.py": "from repro.pkg.mod import used\n__all__ = ['used']\n",
    "src/repro/pkg/__init__.py": "",
    "src/repro/pkg/mod.py": (
        "def used():\n"
        "    return 1\n"
        "\n"
        "\n"
        "def helper():\n"
        "    return helper()\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def __len__(self):\n"
        "        return 0\n"
        "\n"
        "    def open(self):\n"
        "        def inner():\n"
        "            return 1\n"
        "        return inner\n"
    ),
}


def test_an_uncalled_function_is_named_by_file_line_and_qualname(tmp_path):
    root = _tree(tmp_path, BASE)
    assert census(root, {}) == [
        "src/repro/pkg/mod.py:5: repro.pkg.mod:helper has no caller outside tests",
        "src/repro/pkg/mod.py:9: repro.pkg.mod:Box has no caller outside tests",
        "src/repro/pkg/mod.py:13: repro.pkg.mod:Box.open has no caller outside tests",
    ]


def test_a_call_from_benchmarks_counts(tmp_path):
    root = _tree(
        tmp_path,
        {
            **BASE,
            "benchmarks/bench_x.py": (
                "from repro.pkg.mod import Box, helper\nhelper()\nBox().open()\n"
            ),
        },
    )
    assert census(root, {}) == []


def test_a_call_from_another_src_module_counts(tmp_path):
    root = _tree(
        tmp_path,
        {
            **BASE,
            "src/repro/pkg/user.py": "from .mod import Box, helper\nBox().open()\n",
        },
    )
    assert census(root, {}) == []


def test_a_tracer_form_string_counts(tmp_path):
    root = _tree(
        tmp_path,
        {
            **BASE,
            "benchmarks/e2e/tracing.py": (
                "TARGETS = ('repro.pkg.mod:helper', 'repro.pkg.mod:Box.open', "
                "'os:fsync')\n"
            ),
        },
    )
    # The string names Box.open, not the class Box it lives in.
    assert census(root, {}) == [
        "src/repro/pkg/mod.py:9: repro.pkg.mod:Box has no caller outside tests",
    ]


def test_a_subpackage_reexport_does_not_count(tmp_path):
    files = dict(BASE)
    files["src/repro/pkg/__init__.py"] = (
        "from .mod import Box, helper\n__all__ = ['Box', 'helper']\n"
    )
    failures = census(_tree(tmp_path, files), {})
    assert any("repro.pkg.mod:helper has no caller" in f for f in failures)
    assert any("repro.pkg.mod:Box has no caller" in f for f in failures)


def test_only_the_root_all_counts_as_public(tmp_path):
    files = dict(BASE)
    files["src/repro/__init__.py"] = (
        "from repro.pkg.mod import Box, helper, used\n__all__ = ['used', 'Box']\n"
    )
    failures = census(_tree(tmp_path, files), {})
    assert not any(":Box has" in f for f in failures)
    assert any(":helper has no caller" in f for f in failures)


def test_allowlist_entries_fail_when_missing_stale_or_reasonless(tmp_path):
    root = _tree(
        tmp_path,
        {**BASE, "examples/demo.py": "from repro.pkg.mod import Box\nBox().open()\n"},
    )
    failures = census(
        root,
        {
            "repro.pkg.mod:helper": "",
            "repro.pkg.mod:gone": "was deleted",
            "repro.pkg.mod:Box.open": "an example calls it now",
        },
    )
    assert failures == [
        "ALLOWLIST: repro.pkg.mod:Box.open (src/repro/pkg/mod.py:13) has a caller "
        "now; drop its entry",
        "ALLOWLIST: repro.pkg.mod:gone names no definition in src/",
        "ALLOWLIST: repro.pkg.mod:helper gives no reason",
    ]

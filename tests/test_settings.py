"""Settings census: every parameter default and dataclass field has a caller
that sets it.

The caller census (``tests/test_callers.py``) asks whether anything outside
the tests uses a definition; this check asks the same of the values a
caller can choose. A setting that only its default ever takes is an option
the library carries for its tests alone, so it becomes its default, or it
earns an :data:`ALLOWLIST` entry whose reason says why it stays (see
docs/architecture.md, "Caller contract").

*Settings* are, under ``src/repro/``:

- each parameter with a default of a function or method written directly
  in a module or class body (``__init__`` included; other dunders are
  called by the interpreter and are exempt, and so are closures);
- each field with a default of a ``@dataclass`` that its constructor
  accepts (not ``init=False``, not ``ClassVar``).

A setting is keyed ``"repro.pkg.mod:Qual(name)"``; for ``__init__`` and for
a dataclass field ``Qual`` is the class.

*A call sets it* when a call in ``src/`` (outside the function's own
body), ``benchmarks/`` or ``examples/`` names the callee and passes the
setting by keyword, by position at or beyond its index, through ``*args``
or through ``**kwargs``. A field is also set by ``replace(..., field=)``.
The callee is matched by bare name: a call's ``f`` in ``f(...)`` or
``obj.f(...)``. A class name stands for its ``__init__`` and its fields,
and for those of every class it inherits from; ``cls(...)``,
``type(self)(...)`` and ``super().__init__(...)`` stand for the class
they are written in (or its bases).

Exempt:

- every setting of a function or class *used as a value* (passed,
  stored, registered or returned rather than called, e.g.
  ``fn=mine_apriori``), because its callers are indirect;
- a field that code assigns or mutates after construction (outside
  ``__post_init__``), because it is state, not a setting.

Like the caller census, it can miss a dead setting (names are bare, and a
value use exempts every function of that name) but never fails a live one.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

#: ``"repro.module:Qual(name)"`` -> why it stays although no caller sets it.
#: Growing this table is a reviewed diff.
ALLOWLIST: dict[str, str] = {
    "repro.gateway.gateway:MiningGateway(clock)": (
        "test seam: the gateway tests step a fake clock to expire deadlines "
        "and measure queue time deterministically"
    ),
    "repro.service.service:MiningService(fault_injector)": (
        "test seam: the chaos and resilience suites arm service fault points "
        "through it (docs/resilience.md)"
    ),
    "repro.service.warehouse:PatternWarehouse(fault_injector)": (
        "test seam: the chaos and resilience suites arm warehouse fault points "
        "through it (docs/resilience.md)"
    ),
    "repro.resilience.faults:FaultInjector(seed)": (
        "test seam: each CI chaos leg runs under its own seed (docs/resilience.md)"
    ),
    **{
        f"repro.resilience.faults:FaultInjector.inject({name})": (
            "test seam: the fault rule the chaos suites arm, documented in "
            "docs/resilience.md"
        )
        for name in ("probability", "on_calls", "max_fires", "delay_seconds", "message")
    },
    "repro.data.synthetic:random_database(seed)": (
        "test seam: the randomized tests draw one database per seed; "
        "docs/data_formats.md offers random_database for unit testing"
    ),
    "repro.bench.experiments:parallel_speedup_rows(executor)": (
        "goes with repro.parallel when the sharded engine is retired "
        "(ROADMAP item 4)"
    ),
    "repro.parallel.executor:ParallelEngine.recycle_mine(single_group_shortcut)": (
        "goes with repro.parallel when the sharded engine is retired "
        "(ROADMAP item 4)"
    ),
}

#: Method names that change their receiver in place: ``x.f.append(...)``
#: mutates the field ``f``.
MUTATORS = frozenset(
    {
        "add",
        "append",
        "appendleft",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "sort",
        "update",
    }
)

#: Calls whose arguments are types looked at, not values handed on.
TYPE_TESTS = frozenset({"isinstance", "issubclass"})


@dataclass(frozen=True)
class Setting:
    module: str
    #: qualname of the function, or of the class for ``__init__`` and fields
    owner: str
    name: str
    #: position in a call (a method's ``self`` not counted); None if
    #: keyword-only
    index: int | None
    path: Path
    line: int
    #: the function's own lines; None for a field
    body: tuple[int, int] | None
    is_field: bool

    @property
    def key(self) -> str:
        return f"{self.module}:{self.owner}({self.name})"

    @property
    def callee(self) -> str:
        """The bare name a call uses: the class for ``__init__`` and fields."""
        return self.owner.rsplit(".", 1)[-1]


def module_name(src: Path, path: Path) -> str:
    parts = list(path.relative_to(src).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _bare(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Call):  # @dataclass(frozen=True)
        return _bare(node.func)
    return None


def _dataclass_init(cls: ast.ClassDef) -> bool | None:
    """None for no ``@dataclass``, else whether it writes an ``__init__``."""
    for deco in cls.decorator_list:
        if _bare(deco) == "dataclass":
            if isinstance(deco, ast.Call):
                for kw in deco.keywords:
                    if kw.arg == "init" and isinstance(kw.value, ast.Constant):
                        return bool(kw.value.value)
            return True
    return None


def _field_default(value: ast.expr | None) -> bool:
    """Whether an annotated field's right-hand side gives it a default the
    constructor accepts."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and _bare(value.func) == "field":
        keywords = {kw.arg: kw.value for kw in value.keywords}
        init = keywords.get("init")
        if isinstance(init, ast.Constant) and init.value is False:
            return False
        return "default" in keywords or "default_factory" in keywords
    return True


def _parameters(fn: ast.FunctionDef | ast.AsyncFunctionDef):
    """``(name, index)`` of each parameter with a default; ``index`` is
    None for a keyword-only one."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    for index, arg in enumerate(positional):
        if index >= first:
            yield arg.arg, index
    for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def settings(src: Path, path: Path, tree: ast.Module) -> list[Setting]:
    module = module_name(src, path)
    found: list[Setting] = []

    def walk(body: list[ast.stmt], prefix: str, cls: ast.ClassDef | None) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = node.name
                constructor = name in ("__init__", "__new__")
                if name.startswith("__") and name.endswith("__") and not constructor:
                    continue
                owner = prefix[:-1] if constructor else prefix + name
                decos = {_bare(d) for d in node.decorator_list}
                shift = 0 if cls is None or "staticmethod" in decos else 1
                for param, index in _parameters(node):
                    found.append(
                        Setting(
                            module,
                            owner,
                            param,
                            None if index is None else index - shift,
                            path,
                            node.lineno,
                            (node.lineno, node.end_lineno),
                            False,
                        )
                    )
            elif isinstance(node, ast.ClassDef):
                init = _dataclass_init(node)
                if init:
                    position = 0
                    for stmt in node.body:
                        if not (
                            isinstance(stmt, ast.AnnAssign)
                            and isinstance(stmt.target, ast.Name)
                        ):
                            continue
                        if _bare(stmt.annotation) in ("ClassVar", "KW_ONLY") or (
                            isinstance(stmt.annotation, ast.Subscript)
                            and _bare(stmt.annotation.value) == "ClassVar"
                        ):
                            continue
                        if _field_default(stmt.value):
                            found.append(
                                Setting(
                                    module,
                                    prefix + node.name,
                                    stmt.target.id,
                                    position,
                                    path,
                                    stmt.lineno,
                                    None,
                                    True,
                                )
                            )
                        position += 1
                walk(node.body, f"{prefix}{node.name}.", node)

    walk(tree.body, "", None)
    return found


@dataclass
class Uses:
    """What the calls in a tree set, by bare callee name."""

    #: callee -> [(keyword names or None for ``**``, positional count or
    #: None for ``*``, file, line)]
    calls: dict[str, list[tuple[frozenset[str] | None, int | None, Path, int]]]
    #: field names set by ``replace(..., name=)``
    replaced: set[str]
    #: bare names of functions and classes used as values
    values: set[str]
    #: field names assigned or mutated after construction
    mutated: set[str]
    #: class -> bare names of its bases
    bases: dict[str, set[str]]


def _annotations(tree: ast.AST) -> set[int]:
    """``id`` of every node that names a type rather than handing on a
    value: annotations, base classes, caught exceptions, ``raise X``
    and the types an ``isinstance`` test looks at."""
    skip: set[int] = set()

    def mark(node: ast.AST | None) -> None:
        if node is not None:
            skip.update(id(n) for n in ast.walk(node))

    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            mark(node.returns)
            args = node.args
            for arg in [*args.posonlyargs, *args.args, *args.kwonlyargs]:
                mark(arg.annotation)
            mark(args.vararg and args.vararg.annotation)
            mark(args.kwarg and args.kwarg.annotation)
        elif isinstance(node, ast.AnnAssign):
            mark(node.annotation)
        elif isinstance(node, ast.ClassDef):
            for base in node.bases:
                mark(base)
        elif isinstance(node, ast.ExceptHandler):
            mark(node.type)
        elif isinstance(node, ast.Call) and _bare(node.func) in TYPE_TESTS:
            for arg in node.args[1:]:
                mark(arg)
        elif isinstance(node, ast.Raise) and not isinstance(node.exc, ast.Call):
            mark(node.exc)
    return skip


def collect(tree: ast.Module, path: Path, uses: Uses) -> None:
    """Add what ``tree``'s calls set, and what it uses as values, to ``uses``."""
    skip = _annotations(tree)
    callees: set[int] = set()  # id of each expression used as a call's func
    receivers: set[int] = set()  # id of each X in X.attr

    def visit(node: ast.AST, cls: ast.ClassDef | None, post_init: bool) -> None:
        if isinstance(node, ast.ClassDef):
            uses.bases.setdefault(node.name, set()).update(
                b for b in map(_bare, node.bases) if b
            )
            cls = node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            post_init = node.name == "__post_init__"
        elif isinstance(node, ast.Call):
            callees.add(id(node.func))
            for name in _call_names(node, cls):
                keywords = frozenset(kw.arg for kw in node.keywords if kw.arg)
                splat = any(kw.arg is None for kw in node.keywords)
                starred = any(isinstance(a, ast.Starred) for a in node.args)
                uses.calls.setdefault(name, []).append(
                    (
                        None if splat else keywords,
                        None if starred else len(node.args),
                        path,
                        node.lineno,
                    )
                )
                if name == "replace":
                    uses.replaced.update(kw.arg for kw in node.keywords if kw.arg)
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in MUTATORS
                and isinstance(node.func.value, ast.Attribute)
            ):
                uses.mutated.add(node.func.value.attr)
        elif isinstance(node, ast.Attribute):
            receivers.add(id(node.value))
            if not isinstance(node.ctx, ast.Load) and not post_init:
                uses.mutated.add(node.attr)
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            if isinstance(node.value, ast.Attribute):  # x.f[k] = v
                uses.mutated.add(node.value.attr)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
            uses.mutated.add(node.target.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, cls, post_init)

    visit(tree, None, False)
    for node in ast.walk(tree):
        if (
            isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)
            and id(node) not in skip | callees | receivers
        ):
            uses.values.add(_bare(node))


def _call_names(call: ast.Call, cls: ast.ClassDef | None) -> list[str]:
    """The bare names a call may reach."""
    func = call.func
    here = [cls.name] if cls is not None else []
    if isinstance(func, ast.Name) and func.id == "cls":
        return here
    if isinstance(func, ast.Call) and _bare(func.func) == "type":
        return here
    if (
        isinstance(func, ast.Attribute)
        and func.attr == "__init__"
        and isinstance(func.value, ast.Call)
        and _bare(func.value.func) == "super"
    ):
        return [b for b in map(_bare, cls.bases) if b] if cls is not None else []
    name = _bare(func)
    return [name] if name else []


def _sets(s: Setting, keywords: frozenset[str] | None, positional: int | None) -> bool:
    if keywords is None or s.name in keywords:
        return True
    if s.index is None:
        return False
    return positional is None or positional > s.index


def census(root: Path, allowlist: dict[str, str]) -> list[str]:
    """Every failure of the settings contract in the tree at ``root``."""
    src = root / "src"
    found: list[Setting] = []
    uses = Uses({}, set(), set(), set(), {})
    for path in sorted((src / "repro").rglob("*.py")):
        tree = _parse(path)
        found.extend(settings(src, path, tree))
        collect(tree, path, uses)
    for folder in ("benchmarks", "examples"):
        for path in sorted((root / folder).rglob("*.py")):
            collect(_parse(path), path, uses)

    subclasses: dict[str, set[str]] = {}
    for child, bases in uses.bases.items():
        for base in bases:
            subclasses.setdefault(base, set()).add(child)

    def names_for(callee: str) -> set[str]:
        """``callee`` and every class that inherits from it."""
        seen, todo = set(), [callee]
        while todo:
            name = todo.pop()
            if name not in seen:
                seen.add(name)
                todo.extend(subclasses.get(name, ()))
        return seen

    def live(s: Setting) -> bool:
        names = names_for(s.callee)
        if names & uses.values:
            return True
        if s.is_field and (s.name in uses.mutated or s.name in uses.replaced):
            return True
        for name in names:
            for keywords, positional, path, line in uses.calls.get(name, ()):
                inside = (
                    s.body is not None
                    and path == s.path
                    and s.body[0] <= line <= s.body[1]
                )
                if not inside and _sets(s, keywords, positional):
                    return True
        return False

    failures: list[str] = []
    by_key = {s.key: s for s in found}
    for s in found:
        if s.key not in allowlist and not live(s):
            where = s.path.relative_to(root)
            failures.append(
                f"{where}:{s.line}: {s.key} is set by no caller outside tests"
            )
    for key, reason in sorted(allowlist.items()):
        s = by_key.get(key)
        if s is None:
            failures.append(f"ALLOWLIST: {key} names no setting in src/")
        elif live(s):
            where = s.path.relative_to(root)
            failures.append(
                f"ALLOWLIST: {key} ({where}:{s.line}) has a caller now; drop its entry"
            )
        if not reason.strip():
            failures.append(f"ALLOWLIST: {key} gives no reason")
    return failures


def test_every_setting_has_a_caller():
    failures = census(REPO, ALLOWLIST)
    assert not failures, "settings census:\n  " + "\n  ".join(failures)


def test_census_sees_the_source_tree():
    """An empty walk would pass the census while proving nothing."""
    found = [
        s
        for path in (REPO / "src" / "repro").rglob("*.py")
        for s in settings(REPO / "src", path, _parse(path))
    ]
    assert len(found) > 200
    keys = {s.key for s in found}
    assert "repro.service.service:MiningService(fault_injector)" in keys
    assert "repro.gateway.traffic:TrafficConfig(burst_length)" in keys


# -- self-tests over a synthetic tree ---------------------------------------


def _tree(tmp_path: Path, files: dict[str, str]) -> Path:
    for relative, text in files.items():
        path = tmp_path / relative
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return tmp_path


BASE = {
    "src/repro/__init__.py": "",
    "src/repro/mod.py": (
        "from dataclasses import dataclass, field\n"
        "\n"
        "\n"
        "def mine(db, support, *, depth=1, fast=False):\n"
        "    return mine(db, support, depth=depth + 1)\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class Config:\n"
        "    name: str\n"
        "    size: int = 4\n"
        "    tags: list = field(default_factory=list)\n"
        "    hidden: int = field(default=0, init=False)\n"
        "\n"
        "\n"
        "class Box:\n"
        "    def __init__(self, width=1, height=2):\n"
        "        self.width, self.height = width, height\n"
        "\n"
        "    def grow(self, by=1):\n"
        "        return by\n"
    ),
}


def test_a_setting_no_caller_sets_is_named_by_file_line_and_key(tmp_path):
    root = _tree(tmp_path, {**BASE, "examples/demo.py": "Box(3).grow()\n"})
    # The recursive call inside mine's own body does not count, and
    # Box(3) sets width by position but leaves height at its default.
    assert census(root, {}) == [
        "src/repro/mod.py:4: repro.mod:mine(depth) is set by no caller outside tests",
        "src/repro/mod.py:4: repro.mod:mine(fast) is set by no caller outside tests",
        "src/repro/mod.py:11: repro.mod:Config(size) is set by no caller outside tests",
        "src/repro/mod.py:12: repro.mod:Config(tags) is set by no caller outside tests",
        "src/repro/mod.py:17: repro.mod:Box(height) is set by no caller outside tests",
        "src/repro/mod.py:20: repro.mod:Box.grow(by) is set by no caller outside tests",
    ]


def test_keywords_positions_splats_and_replace_all_set(tmp_path):
    root = _tree(
        tmp_path,
        {
            **BASE,
            "benchmarks/bench_x.py": (
                "from dataclasses import replace\n"
                "from repro.mod import Box, Config, mine\n"
                "mine(db, 1, depth=2, **extra)\n"
                "box = Box(*sizes)\n"
                "box.grow(2)\n"
                "replace(Config('a'), tags=[1])\n"
                "Config('a', 8)\n"
            ),
        },
    )
    assert census(root, {}) == []


def test_a_value_used_callable_and_a_mutated_field_are_exempt(tmp_path):
    root = _tree(
        tmp_path,
        {
            **BASE,
            "src/repro/user.py": (
                "from repro.mod import Box, Config, mine\n"
                "REGISTRY = {'mine': mine, 'box': Box}\n"
                "\n"
                "\n"
                "def fill(config: Config):\n"
                "    config.size += 1\n"
                "    config.tags.append('x')\n"
                "    return isinstance(config, Config)\n"
            ),
        },
    )
    # A class used as a value exempts its constructor, not its methods;
    # an annotation and an isinstance test are not value uses.
    assert census(root, {}) == [
        "src/repro/mod.py:20: repro.mod:Box.grow(by) is set by no caller outside tests",
    ]


def test_allowlist_entries_fail_when_missing_stale_or_reasonless(tmp_path):
    root = _tree(
        tmp_path,
        {
            **BASE,
            "examples/demo.py": "from repro.mod import mine\nmine(1, 2, fast=True)\n",
        },
    )
    failures = census(
        root,
        {
            "repro.mod:mine(depth)": "",
            "repro.mod:mine(fast)": "an example sets it now",
            "repro.mod:mine(gone)": "was retired",
            "repro.mod:Config(size)": "documented",
            "repro.mod:Config(tags)": "documented",
            "repro.mod:Box(width)": "documented",
            "repro.mod:Box(height)": "documented",
            "repro.mod:Box.grow(by)": "documented",
        },
    )
    assert failures == [
        "ALLOWLIST: repro.mod:mine(depth) gives no reason",
        "ALLOWLIST: repro.mod:mine(fast) (src/repro/mod.py:4) has a caller now; "
        "drop its entry",
        "ALLOWLIST: repro.mod:mine(gone) names no setting in src/",
    ]

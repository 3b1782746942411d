"""Static checks over the package source: every imported name is used,
every import sits at the top of its module, every public name has a
caller, no module holds a mutable container, and no check rests on
``assert`` (which ``python -O`` strips)."""

import ast
import pathlib
from collections import Counter

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted(path for path in (ROOT / "src" / "flamingo").glob("*.py") if path.name != "__init__.py")


def _annotations(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            yield node.returns
        elif isinstance(node, ast.arg) and node.annotation:
            yield node.annotation
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used_names(tree: ast.AST) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used_names(ast.parse(node.value, mode="eval"))
    return used


def _imported_names(tree: ast.Module) -> list[tuple[str, int]]:
    names = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names.append((bound, node.lineno))
    return names


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _used_names(tree)
    unused = [f"{name} (line {line})" for name, line in _imported_names(tree) if name not in used]
    assert unused == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_assert_statements(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_no_function_local_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    top = {id(node) for node in tree.body}
    lines = [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]
    assert lines == []


# The memo caches that perfbench/harness.py::_caches clears before every
# round.  A cache under any other name would stay warm from one round to
# the next, and the benchmark would read the saved work as a gain.
CLEARED_CACHES = ["_invariant_cached", "_minor_terms", "_span_checker"]
CACHE_DECORATORS = {"lru_cache", "cache"}


def _cache_uses(tree: ast.Module) -> list[ast.AST]:
    """Every reference to ``functools.lru_cache`` or ``functools.cache``,
    by attribute or by a name imported from functools."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name in CACHE_DECORATORS
    }
    return [
        node
        for node in ast.walk(tree)
        if (isinstance(node, ast.Name) and node.id in aliases)
        or (
            isinstance(node, ast.Attribute)
            and node.attr in CACHE_DECORATORS
            and isinstance(node.value, ast.Name)
            and node.value.id == "functools"
        )
    ]


def test_every_cache_is_one_the_benchmark_clears():
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        decorating = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for decorator in node.decorator_list:
                    decorating[id(getattr(decorator, "func", decorator))] = node.name
        for use in _cache_uses(tree):
            found.append(decorating.get(id(use), f"{path.name} line {use.lineno}"))
    assert sorted(found) == CLEARED_CACHES


# Public names, module-level or methods and properties of the package's
# classes, that nothing in the package, the scripts or the benchmark refers
# to, each kept for the reason given; the tests state each.
KEPT_WITHOUT_CALLER = {
    "invariants.verify_block_reorder": "the block-reorder law [pi]_r = sgn(sigma)^r [sigma(pi)]_r",
    "relations.resolve_crossing_r1": "the two depth-1 crossing resolutions, each re-verified",
    "diagrams.unclasping_is_forest": "the unclasped tensor diagram is a forest",
    "diagrams.from_json": "the reader of the diagram JSON export",
    "polynomials.minor": "the validated single minor, the public entry to the kernel",
    "polynomials.MatrixPolynomial.from_json": "the reader of the invariant JSON export",
    "grassmann.Extensor.basis": "the entry that builds an Extensor from an index word, used by the wedge-law tests",
}

# Public methods and properties whose name another class of the package also
# defines, as a method, a property or a field: an attribute ``x.name`` does
# not say which class it reads, so the scan counts no reference to them.
# Each is listed here with the caller that reads it, or in KEPT_WITHOUT_CALLER.
SHARED_NAME_CALLERS = {
    "partitions.OrderedSetPartition.d": "partition.d, read throughout the package",
    "specht.SpechtShape.nu": "specht.spanning_set reads shape.nu",
    "specht.SpechtShape.dimension": "verification.check_specht_membership and specht.hook_basis call it",
    "specht.SpanChecker.rank": "specht.exact_rank and specht.spanning_rank read it",
    "specht.HookBasis.basis": "cli's hook-basis command and verification.check_hook_basis read it",
    "tableaux.JellyfishTableau.nu": "the tableau's own checks, grid and minor_product read self.nu",
}


def _foreign_modules(tree: ast.Module, in_package: bool) -> set[str]:
    """The names a file binds by importing from outside ``flamingo``: an
    attribute of one of them, such as the benchmark's ``pace.scale``, is
    never a reference to a package name.  A relative import is the
    package's own only inside the package."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            tops = [(alias.asname, alias.name.split(".")[0]) for alias in node.names]
            found |= {asname or top for asname, top in tops if top != "flamingo"}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            package = in_package if node.level else (node.module or "").split(".")[0] == "flamingo"
            if not package:
                found |= {alias.asname or alias.name for alias in node.names}
    return found


def _references(node: ast.AST, foreign: set[str], member: bool) -> Counter:
    """How often each name appears under ``node`` as the attribute of an
    Attribute, and unless ``member`` also as a Name or an imported name.
    An attribute of a module in ``foreign`` does not count."""
    found = Counter()
    for ref in ast.walk(node):
        if isinstance(ref, ast.Attribute):
            if not (isinstance(ref.value, ast.Name) and ref.value.id in foreign):
                found[ref.attr] += 1
        elif isinstance(ref, ast.Name) and not member:
            found[ref.id] += 1
        elif isinstance(ref, ast.alias) and not member:
            found[ref.name] += 1
    return found


def _public_definitions(module: str, tree: ast.Module):
    """(dotted name, node, is a member) for each public module-level
    function or class of a module, and each public method or property of
    its classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{module}.{node.name}", node, False
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, functions) and not member.name.startswith("_"):
                    yield f"{module}.{node.name}.{member.name}", member, True


def _shared_names(trees) -> set[str]:
    """The public names that two or more classes of the given modules
    define, each as a method, a property, a field or a class attribute."""
    defined = Counter()
    for tree in trees:
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                names = set()
                for member in node.body:
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        names.add(member.name)
                    elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                        names.add(member.target.id)
                    elif isinstance(member, ast.Assign):
                        names |= {target.id for target in member.targets if isinstance(target, ast.Name)}
                defined.update(name for name in names if not name.startswith("_"))
    return {name for name, count in defined.items() if count > 1}


@pytest.mark.parametrize(
    "source, shared",
    [
        ("class A:\n    def lam(self): ...\nclass B:\n    lam: int", {"lam"}),
        ("class A:\n    @property\n    def nu(self): ...\nclass B:\n    def nu(self): ...", {"nu"}),
        ("class A:\n    def f(self): ...\n    def f(self, x): ...\nclass B:\n    _f = 1", set()),
        ("class A:\n    x = 1\ndef x(): ...", set()),
    ],
    ids=["method-and-field", "property-and-method", "one-class-and-private", "class-and-module"],
)
def test_the_shared_name_scan_finds_what_it_should(source, shared):
    assert _shared_names([ast.parse(source)]) == shared


def test_every_public_name_has_a_caller():
    """Every public module-level function or class of the package, and
    every public method or property of its classes, is referred to outside
    its own definition by the package, the scripts or the benchmark, or is
    listed in KEPT_WITHOUT_CALLER; an entry there that has gained a caller,
    or is gone, is stale.

    A module-level name counts as referred to by a Name, an import or an
    attribute of its name; a method or property only by an attribute
    ``x.name``, so a local variable of its name is no caller.  An attribute
    of a module imported from outside the package is no caller of either:
    the benchmark's ``pace.scale`` does not call an ``Extensor.scale``.
    Nor does an attribute vouch for a method or property whose name another
    package class also defines: ``HookBasis.basis`` read in the CLI is no
    caller of ``Extensor.basis``.  Such a member is listed in
    KEPT_WITHOUT_CALLER, or in SHARED_NAME_CALLERS with its caller; a
    member listed there still needs an attribute of its name somewhere."""
    callers = SOURCES + sorted((ROOT / "scripts").glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in callers}
    foreign = {path: _foreign_modules(tree, path in SOURCES) for path, tree in trees.items()}
    everywhere = {
        member: sum((_references(tree, foreign[path], member) for path, tree in trees.items()), Counter())
        for member in (False, True)
    }
    shared_names = _shared_names(trees[path] for path in SOURCES)
    definitions = [
        (path, name, node, member)
        for path in SOURCES
        for name, node, member in _public_definitions(path.stem, trees[path])
    ]
    shared = {name for _, name, node, member in definitions if member and node.name in shared_names}
    unreferenced = {
        name
        for path, name, node, member in definitions
        if everywhere[member][node.name] == _references(node, foreign[path], member)[node.name]
    }
    uncalled = unreferenced | (shared - SHARED_NAME_CALLERS.keys())
    assert sorted(uncalled - KEPT_WITHOUT_CALLER.keys()) == [], "public names without a caller"
    assert sorted(KEPT_WITHOUT_CALLER.keys() - uncalled) == [], "stale entries in KEPT_WITHOUT_CALLER"
    assert sorted(SHARED_NAME_CALLERS.keys() - shared) == [], "stale entries in SHARED_NAME_CALLERS"
    assert sorted(SHARED_NAME_CALLERS.keys() & unreferenced) == [], "SHARED_NAME_CALLERS entries without a reference"
    assert sorted(SHARED_NAME_CALLERS.keys() & KEPT_WITHOUT_CALLER.keys()) == [], "listed twice"


# A module-level list, dict or set is state every caller shares and any
# caller can change: one run's leftovers would reach the next, and a memo
# kept there would outlive the sweep it belongs to.  ``__all__`` is the one
# list allowed.
MUTABLE_CALLS = {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}


def _module_level_mutables(tree: ast.Module) -> list[str]:
    """Names bound at module level to a list, dict or set display or
    comprehension, or to a call of a mutable container type."""
    found = []
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        call = value.func if isinstance(value, ast.Call) else None
        mutable = isinstance(value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)) or (
            (isinstance(call, ast.Name) and call.id in MUTABLE_CALLS)
            or (isinstance(call, ast.Attribute) and call.attr in MUTABLE_CALLS)
        )
        if mutable:
            found += [
                f"{name.id} (line {node.lineno})"
                for target in targets
                for name in ast.walk(target)
                if isinstance(name, ast.Name) and name.id != "__all__"
            ]
    return found


@pytest.mark.parametrize(
    "source, found",
    [
        ("X = []\nY = {}\nZ = {1}", ["X (line 1)", "Y (line 2)", "Z (line 3)"]),
        ("A = B = dict()\nC: list = list(range(3))", ["A (line 1)", "B (line 1)", "C (line 2)"]),
        ("D = collections.defaultdict(int)\nE = [i for i in range(3)]", ["D (line 1)", "E (line 2)"]),
        ("__all__ = ['f']\nT = (1, 2)\nF = frozenset()\nN: int", []),
    ],
)
def test_the_mutable_state_scan_finds_what_it_should(source, found):
    assert _module_level_mutables(ast.parse(source)) == found


def test_no_module_level_mutable_state():
    paths = sorted((ROOT / "src" / "flamingo").glob("*.py"))
    found = [
        f"{path.name}: {name}"
        for path in paths
        for name in _module_level_mutables(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


# The one place that forks: the helper that both split sweeps of
# verification.py share (the two-shard sweep and the layer sweep), which
# reaps its child on every path.  A fork anywhere else would need the same
# care, so it has to be added here on purpose.
FORKING = [("verification.py", "_fork_child")]


def _fork_references(tree: ast.Module) -> list[tuple[ast.stmt, ast.AST]]:
    """(enclosing top-level statement, node) for every reference to
    ``os.fork``, by attribute or by a name imported from os."""
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "os"
        for alias in node.names
        if alias.name == "fork"
    }
    return [
        (top, node)
        for top in tree.body
        for node in ast.walk(top)
        if (isinstance(node, ast.Attribute) and node.attr == "fork" and isinstance(node.value, ast.Name))
        or (isinstance(node, ast.Name) and node.id in aliases)
    ]


def _forks(tree: ast.Module) -> list[str]:
    """The enclosing top-level function (or "module") of every reference
    to ``os.fork``."""
    return [
        top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "module"
        for top, _ in _fork_references(tree)
    ]


def _fork_calls(tree: ast.Module) -> int:
    """The number of calls of ``os.fork``, by attribute or by a name
    imported from os."""
    references = {id(node) for _, node in _fork_references(tree)}
    return sum(isinstance(node, ast.Call) and id(node.func) in references for node in ast.walk(tree))


@pytest.mark.parametrize(
    "source, found",
    [
        ("import os\ndef f():\n    return os.fork()", ["f"]),
        ("from os import fork as spawn\npid = spawn()", ["module"]),
        ("class C:\n    def m(self):\n        os.fork()", ["C"]),
        ("import os\ndef f():\n    return os.forkpty, os.getpid()", []),
    ],
)
def test_the_fork_scan_finds_what_it_should(source, found):
    assert _forks(ast.parse(source)) == found


def test_only_the_split_sweep_forks():
    paths = sorted((ROOT / "src" / "flamingo").glob("*.py"))
    found = [(path.name, where) for path in paths for where in _forks(ast.parse(path.read_text(encoding="utf-8")))]
    assert found == FORKING


@pytest.mark.parametrize(
    "source, calls",
    [
        ("import os\ndef f():\n    return os.fork()", 1),
        ("from os import fork as spawn\npid = spawn() or spawn()", 2),
        ("import os\nfork = os.fork", 0),
        ("import os\ndef f():\n    return os.forkpty(), os.getpid()", 0),
    ],
)
def test_the_fork_call_count_is_what_it_should_be(source, calls):
    assert _fork_calls(ast.parse(source)) == calls


def test_the_package_calls_os_fork_once():
    # README's "the one place that forks": both split sweeps go through
    # one call, so the fork, the pipe and the reaping are written once
    paths = sorted((ROOT / "src" / "flamingo").glob("*.py"))
    assert sum(_fork_calls(ast.parse(path.read_text(encoding="utf-8"))) for path in paths) == 1


# cli.py states the JSON-or-text choice and the 0/1 exit once, in _report:
# no other code of it reads ``args.json`` (or any ``.json`` attribute),
# refers to ``json.dumps``, or returns 1, alone or as a branch of a
# conditional.
REPORTER = "_report"


def _report_bypasses(tree: ast.Module) -> list[str]:
    """'where: what' for each such read, reference or return outside the
    top-level function REPORTER, sorted."""
    dumps = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "json"
        for alias in node.names
        if alias.name == "dumps"
    }
    found = []
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "module"
        if where == REPORTER:
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Attribute) and node.attr == "json":
                found.append(f"{where}: reads .json")
            elif isinstance(node, ast.Attribute) and node.attr == "dumps" and getattr(node.value, "id", None) == "json":
                found.append(f"{where}: json.dumps")
            elif isinstance(node, ast.Name) and node.id in dumps:
                found.append(f"{where}: json.dumps")
            elif isinstance(node, ast.Return) and node.value is not None:
                value = node.value
                branches = [value.body, value.orelse] if isinstance(value, ast.IfExp) else [value]
                if any(isinstance(b, ast.Constant) and type(b.value) is int and b.value == 1 for b in branches):
                    found.append(f"{where}: returns 1")
    return sorted(found)


@pytest.mark.parametrize(
    "source, found",
    [
        (
            "def _report(args, ok, payload, *lines):\n"
            "    print(json.dumps(payload) if args.json else '\\n'.join(lines))\n"
            "    return 0 if ok else 1\n"
            "def cmd(args):\n"
            "    return _report(args, len(args.items) == 1, {}, 'one')",
            [],
        ),
        (
            "from json import dumps as show\n"
            "def cmd(args):\n"
            "    if args.json:\n"
            "        print(json.dumps({}), show([]))\n"
            "        return 0 if args.ok else 1\n"
            "    return 1",
            ["cmd: json.dumps", "cmd: json.dumps", "cmd: reads .json", "cmd: returns 1", "cmd: returns 1"],
        ),
    ],
    ids=["through-the-reporter", "around-it"],
)
def test_the_report_scan_finds_what_it_should(source, found):
    assert _report_bypasses(ast.parse(source)) == found


def test_only_the_reporter_picks_json_or_text_and_exits_1():
    tree = ast.parse((ROOT / "src" / "flamingo" / "cli.py").read_text(encoding="utf-8"))
    assert REPORTER in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert _report_bypasses(tree) == []


# The two leaf kernels of polynomials.py and the top-level functions that
# call them, as the README states.  add_minor_product looks each term up
# and drops what cancels, for phi_star alone.  store_minor_product writes
# with no lookup, so each caller adds the count it returns to a tally and
# later raises when ``len`` of its dict differs from that tally; a caller
# without that check could overwrite a term and return a wrong polynomial.
KERNEL_CALLERS = {
    "add_minor_product": [("grassmann.py", "phi_star", False)],
    "store_minor_product": [
        ("invariants.py", "_invariant_cached", True),
        ("verification.py", "signed_minor_expansion", True),
    ],
}


def _kernel_references(tree: ast.Module, kernel: str) -> list[tuple[str, bool]]:
    """(enclosing top-level function, or "module", checked) for every
    reference to ``kernel``, by attribute or by name, an imported alias
    too.  It is checked when it is a call whose value ``tally += ...``
    adds to a name and, on a later line of the same top-level statement,
    ``if len(...) != tally:`` ends by raising."""
    names = {kernel} | {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name == kernel
    }
    found = []
    for top in tree.body:
        where = top.name if isinstance(top, (ast.FunctionDef, ast.ClassDef)) else "module"
        nodes = list(ast.walk(top))
        tallies = {
            id(node.value): node.target.id
            for node in nodes
            if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add) and isinstance(node.target, ast.Name)
        }
        guards = [
            (node.lineno, node.test.comparators[0].id)
            for node in nodes
            if isinstance(node, ast.If)
            and isinstance(node.test, ast.Compare)
            and [type(op) for op in node.test.ops] == [ast.NotEq]
            and isinstance(node.test.left, ast.Call)
            and getattr(node.test.left.func, "id", None) == "len"
            and isinstance(node.test.comparators[0], ast.Name)
            and isinstance(node.body[-1], ast.Raise)
        ]
        calls = {id(node.func): node for node in nodes if isinstance(node, ast.Call)}
        for node in nodes:
            if (isinstance(node, ast.Attribute) and node.attr == kernel) or (
                isinstance(node, ast.Name) and node.id in names
            ):
                call = calls.get(id(node))
                tally = tallies.get(id(call)) if call else None
                checked = any(line > node.lineno and name == tally for line, name in guards)
                found.append((where, checked))
    return found


@pytest.mark.parametrize(
    "source, found",
    [
        (
            "def f(acc):\n    stored = 0\n    stored += store(acc)\n    if len(acc) != stored:\n        raise E",
            [("f", True)],
        ),
        (
            "def f(acc):\n    stored = 0\n    def walk():\n        nonlocal stored\n        stored += p.store(acc)\n"
            "    walk()\n    if len(acc) != stored:\n        raise E",
            [("f", True)],
        ),
        ("def f(acc):\n    store(acc)\n    return acc", [("f", False)]),
        ("def f(acc, n):\n    if len(acc) != n:\n        raise E\n    n += store(acc)", [("f", False)]),
        ("def f(acc, n, m):\n    n += store(acc)\n    if len(acc) != m:\n        raise E", [("f", False)]),
        ("def f(acc, n):\n    n += store(acc)\n    if len(acc) != n:\n        return acc", [("f", False)]),
        (
            "from p import store as put\nfill = put\nclass C:\n    def m(self):\n        p.store(1)",
            [("module", False), ("C", False)],
        ),
    ],
    ids=["checked", "in-a-nested-walk", "count-dropped", "check-before", "other-tally", "no-raise", "elsewhere"],
)
def test_the_kernel_scan_finds_what_it_should(source, found):
    assert _kernel_references(ast.parse(source), "store") == found


def test_each_leaf_kernel_has_only_its_stated_callers():
    paths = sorted((ROOT / "src" / "flamingo").glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}
    found = {
        kernel: [(name, *reference) for name, tree in trees.items() for reference in _kernel_references(tree, kernel)]
        for kernel in KERNEL_CALLERS
    }
    assert found == KERNEL_CALLERS

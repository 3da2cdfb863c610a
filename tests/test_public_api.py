"""The public surface: exported names resolve, each per-layer metric of the
benchmark names a traced function, README's quick start runs, no source
module imports a name it neither uses nor re-exports, no private definition
goes unread, no handler that raises a usage error wraps the program's own
calls, no cached property goes unread, and no cache is unbounded or escapes
the memory test; nor does a test module hold an unused import, or
``tests/helpers.py`` a function no test reads."""

from __future__ import annotations

import ast
import builtins
import importlib
import json
import pkgutil
import re
from collections import Counter
from pathlib import Path

import pytest

import bellswap
from bellswap import zoo
from test_verdict_path import GRID_CACHES

README = Path(__file__).resolve().parent.parent / "README.md"
BENCHMARK = README.with_name("BENCHMARK.json")
SRC = Path(bellswap.__file__).resolve().parent

MODULES = ["bellswap"] + [
    f"bellswap.{info.name}"
    for info in pkgutil.iter_modules(bellswap.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def _traced_functions(module) -> set[str]:
    """The names perfbench traces in a layer module: public callables,
    classes excluded, defined in the module itself (its
    ``tracing.public_functions`` rule)."""
    return {
        name
        for name, value in vars(module).items()
        if not name.startswith("_")
        and callable(value)
        and not isinstance(value, type)
        and getattr(value, "__module__", None) == module.__name__
    }


def test_every_per_layer_metric_names_a_traced_function():
    # a listed function that is deleted, renamed or made private drops its
    # metrics from the traced run's result line, which then lists them as
    # absent: the benchmark's names must move in the same change
    names = [m["name"] for m in json.loads(BENCHMARK.read_text())["per_layer"]]
    functions = dict.fromkeys(name.removeprefix("setup.").rsplit(".", 1)[0]
                              for name in names if name.endswith((".calls", ".self_s")))
    assert functions
    unresolved = []
    for function in functions:
        layer, _, fname = function.partition(".")
        try:
            traced = _traced_functions(importlib.import_module(f"bellswap.{layer}"))
        except ImportError:
            traced = set()
        if fname not in traced:
            unresolved.append(function)
    assert not unresolved, f"per-layer metrics name no traced function: {unresolved}"


def test_readme_library_quick_start_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], str(README), "exec"), {"__name__": "readme"})
    # the quick start's last line prints the 1x1 census: empty
    assert capsys.readouterr().out == "0\n"


def test_the_library_writes_nothing(capsys):
    # the benchmark reads each run's result from the last line of stdout:
    # the calls its workloads make must print nothing, on either stream
    kinds = set()
    for model in (zoo.synthetic_factorizable(1, density=0.6, kappa="mixed"),
                  zoo.parity_split_robust(4), zoo.evasive_nonrobust(4)):
        text = bellswap.dumps(model)
        for document in (text, text + "\n", json.dumps(json.loads(text))):
            model = bellswap.loads(document)
        if not bellswap.is_robust(model, minus_row=False).is_robust:
            kinds.add("not_robust")
            continue
        verdict = bellswap.run_verdict(model)
        kinds.add(verdict.kind)
        if verdict.kind == "inconsistent":
            assert bellswap.replay(verdict.trace, model)
    # the first sector map of the benchmark's census slice
    space = bellswap.SearchSpace(family="two_source", denominator=4, size1=2, size4=2,
                                 cursor=2_304_000)
    assert bellswap.search_two_source(space, stop_after=1).models_examined
    assert kinds == {"not_robust", "alarm", "inconsistent"}
    assert capsys.readouterr() == ("", "")

def _unused_imports(tree: ast.Module) -> list[str]:
    """Names a module imports but neither reads nor lists in ``__all__``."""
    imported = []
    exported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            exported += ast.literal_eval(node.value)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in used | set(exported)]


def test_no_unused_imports_in_src():
    unused = {
        path.name: names
        for path in sorted(SRC.glob("*.py"))
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert not unused, f"imported but never used: {unused}"


def _private_definitions(tree: ast.Module) -> list[str]:
    """Top-level ``_name`` functions, classes and assignment targets."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def _read_names(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attributes and imported names."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.alias):
            read.add(node.name)
    return read


def test_no_unreferenced_private_definitions_in_src():
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    read = set().union(*map(_read_names, trees.values()))
    unread = {
        name: names
        for name, tree in trees.items()
        if (names := [d for d in _private_definitions(tree) if d not in read])
    }
    assert not unread, f"private definitions nothing in src/ reads: {unread}"


def _loads(node: ast.AST) -> Counter:
    """How often each name is read under ``node``, as a loaded name or an
    attribute."""
    return Counter(
        n.attr if isinstance(n, ast.Attribute) else n.id
        for n in ast.walk(node)
        if isinstance(n, (ast.Attribute, ast.Name)) and isinstance(n.ctx, ast.Load)
    )


def _unread_cached_properties(trees) -> list[str]:
    """Cached properties that nothing in ``trees`` reads by name outside
    their own definition."""
    forms = ("cached_property", "functools.cached_property")
    read = sum(map(_loads, trees), Counter())
    return [
        node.name
        for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any(ast.unparse(d) in forms for d in node.decorator_list)
        and read[node.name] == _loads(node)[node.name]
    ]


def test_every_cached_property_in_src_is_read():
    """A cached property that src/ never reads is a table built for no one."""
    trees = [ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))]
    unread = _unread_cached_properties(trees)
    assert not unread, f"cached properties nothing in src/ reads: {unread}"


def test_the_cached_property_lint_sees_an_unread_one():
    source = (
        "import functools\nfrom functools import cached_property\n"
        "class A:\n"
        "    @cached_property\n    def read(self): return 1\n"
        "    @functools.cached_property\n    def unread(self): return 2\n"
        "    @cached_property\n    def only_itself(self): return self.only_itself\n"
        "    @property\n    def plain(self): return self.read\n"
    )
    assert _unread_cached_properties([ast.parse(source)]) == ["unread", "only_itself"]


def _usage_error_classes(trees) -> set[str]:
    """``UsageError`` and every class in src/ derived from it, by name."""
    classes = [node for tree in trees for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    names = {"UsageError"}
    while fresh := {c.name for c in classes if any(
            isinstance(b, ast.Name) and b.id in names for b in c.bases)} - names:
        names |= fresh
    return names


def _absolute_imports(tree: ast.Module) -> set[str]:
    """Names a module binds by ``import x`` or ``from x import y``."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names |= {a.asname or a.name for a in node.names}
    return names


def _called_name(func: ast.expr) -> str | None:
    """The name a call's target is reached through: ``json`` in ``json.loads``."""
    while isinstance(func, (ast.Attribute, ast.Call)):
        func = func.func if isinstance(func, ast.Call) else func.value
    return func.id if isinstance(func, ast.Name) else None


def test_usage_error_handlers_wrap_only_library_calls():
    """A ``try`` whose handler raises a usage error calls only builtins and
    absolutely imported names: wrapped around the program's own code, it
    would report an internal failure as the user's mistake."""
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    usage = _usage_error_classes(trees.values())
    wrapped = []
    for name, tree in trees.items():
        allowed = set(dir(builtins)) | _absolute_imports(tree)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try):
                continue
            raised = {_called_name(r.exc) for h in node.handlers
                      for r in ast.walk(h) if isinstance(r, ast.Raise) and r.exc}
            if usage.isdisjoint(raised):
                continue
            wrapped += [
                f"{name}:{call.lineno} {ast.unparse(call.func)}"
                for stmt in node.body for call in ast.walk(stmt)
                if isinstance(call, ast.Call) and _called_name(call.func) not in allowed
            ]
    assert not wrapped, f"usage-error handlers around the program's own calls: {wrapped}"


def _unbounded_caches(tree: ast.Module) -> list[str]:
    """``lru_cache(maxsize=None)``, ``lru_cache(None)`` and ``functools.cache``
    uses in a module, by line: each keeps every entry for the life of the
    process."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) \
                and ast.unparse(node.func) in ("lru_cache", "functools.lru_cache"):
            sizes = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
            if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                found.append(f"{node.lineno} {ast.unparse(node)}")
        elif isinstance(node, ast.Attribute) and node.attr == "cache" \
                and isinstance(node.value, ast.Name) and node.value.id == "functools":
            found.append(f"{node.lineno} functools.cache")
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{node.lineno} from functools import cache"
                      for alias in node.names if alias.name == "cache"]
    return found


def test_every_cache_in_src_is_bounded():
    unbounded = {
        path.name: found
        for path in sorted(SRC.glob("*.py"))
        if (found := _unbounded_caches(ast.parse(path.read_text())))
    }
    assert not unbounded, f"caches that never evict: {unbounded}"


def test_the_cache_lint_sees_every_unbounded_form():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\ndef a(): pass\n"
        "@lru_cache(None)\ndef b(): pass\n"
        "@functools.cache\ndef c(): pass\n"
        "@lru_cache(maxsize=4)\ndef d(): pass\n"
        "@lru_cache\ndef e(): pass\n"
    )
    lines = sorted(int(entry.split()[0]) for entry in _unbounded_caches(ast.parse(source)))
    assert lines == [2, 3, 5, 7]


# the caches ``test_grid_caches_keep_the_last_two_grids`` does not measure,
# each with what bounds the memory it keeps
UNMEASURED_CACHES = {
    "model._parsed_weights": "keyed by weight vector: 256 vectors of Fractions,"
                             " a few digits a weight",
    "model._table_layout": "keyed by table shape: 32 layouts, a byte per leaf",
    "search._class_side": "keyed by value domain and size: the 4 pi/4 class tables",
    "cli._parser": "one argument parser per process",
    "zoo.single_source_efficient_50": "keyed by n, 2 entries: each keeps one"
                                      " model and the product tensor it verified",
}


def _lru_cached(tree: ast.Module) -> list[str]:
    """Functions a module decorates with ``lru_cache`` or ``cache``, by name."""
    forms = ("lru_cache", "functools.lru_cache", "cache", "functools.cache")
    return [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(ast.unparse(d.func if isinstance(d, ast.Call) else d) in forms
                for d in node.decorator_list)
    ]


def test_every_lru_cache_in_src_is_measured_or_listed():
    """A per-grid cache outside ``GRID_CACHES`` would escape the memory test."""
    measured = {f"{f.__module__.rpartition('.')[2]}.{f.__name__}" for f in GRID_CACHES}
    assert measured.isdisjoint(UNMEASURED_CACHES)
    cached = {
        f"{path.stem}.{name}"
        for path in sorted(SRC.glob("*.py"))
        for name in _lru_cached(ast.parse(path.read_text()))
    }
    unaccounted = sorted(cached - measured - UNMEASURED_CACHES.keys())
    assert not unaccounted, f"caches neither in GRID_CACHES nor listed: {unaccounted}"
    assert cached >= measured | UNMEASURED_CACHES.keys(), "a listed cache is gone"


def test_the_cache_account_sees_every_decorator_form():
    source = (
        "import functools\nfrom functools import cache, lru_cache\n"
        "@functools.lru_cache(maxsize=2)\ndef a(): pass\n"
        "@lru_cache(4)\ndef b(): pass\n"
        "@functools.cache\ndef c(): pass\n"
        "@lru_cache\ndef d(): pass\n"
        "@cache\ndef e(): pass\n"
        "@staticmethod\ndef f(): pass\n"
    )
    assert _lru_cached(ast.parse(source)) == ["a", "b", "c", "d", "e"]


TESTS = Path(__file__).resolve().parent
HELPERS = TESTS / "helpers.py"


def test_no_unused_imports_in_test_helpers():
    """The helpers and every test module import only names they use."""
    paths = sorted(TESTS.glob("*.py"))
    assert HELPERS in paths
    unused = {
        path.name: names
        for path in paths
        if (names := _unused_imports(ast.parse(path.read_text())))
    }
    assert not unused, f"test modules import but never use: {unused}"


def test_every_test_helper_is_read():
    """Each top-level function in helpers.py is read by a test module, or by
    a helper that is: an oracle its comparisons stopped reading is dead."""
    functions = {
        node.name: node
        for node in ast.parse(HELPERS.read_text()).body
        if isinstance(node, ast.FunctionDef)
    }
    tests = [ast.parse(path.read_text()) for path in sorted(TESTS.glob("test_*.py"))]
    frontier = list(functions.keys() & set().union(*map(_read_names, tests)))
    reached = set(frontier)
    while frontier:
        fresh = _read_names(functions[frontier.pop()]) & functions.keys() - reached
        reached |= fresh
        frontier += fresh
    unread = sorted(functions.keys() - reached)
    assert not unread, f"tests/helpers.py functions no test reads: {unread}"

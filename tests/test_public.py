"""The public surface: the exported names, the README quick start, the
names the benchmark's tracer wraps, and four source rules: every import
is used, every private function and method is called, only `orderings`
reads an ordering's tuple key, and outside `field` only `PolyRing.element`
refuses a field element."""

import ast
import importlib.util
import inspect
import re
from pathlib import Path

import gbfan

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def test_all_names_are_attributes_without_duplicates():
    assert len(set(gbfan.__all__)) == len(gbfan.__all__)
    assert [name for name in gbfan.__all__ if not hasattr(gbfan, name)] == []


def test_readme_quick_start_prints_its_comments(capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines()[:2] == ["2 10", "1 1"]


def test_every_traced_entry_point_resolves():
    # the traced benchmark run wraps these names; a missing one would fail
    # only there, minutes into the run
    spec = importlib.util.spec_from_file_location("_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for owner, attr, *_ in tracing.ENTRY_POINTS:
        try:
            inspect.getattr_static(owner, attr)
        except AttributeError:
            missing.append(f"{owner.__name__}.{attr}")
    assert tracing.ENTRY_POINTS and missing == []


def _modules():
    src = Path(gbfan.__file__).resolve().parent
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in src.glob("*.py")}


def _loaded(tree) -> set:
    """The names a module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_no_module_imports_a_name_it_does_not_use():
    # __init__ imports to re-export; every other module reads what it imports
    unused = []
    for stem, tree in _modules().items():
        if stem == "__init__":
            continue
        loaded = _loaded(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    if name not in loaded:
                        unused.append(f"{stem}: {name}")
    assert unused == []


def test_every_private_function_has_a_caller():
    # module-level functions and methods alike: a `_` name that no module
    # reads is dead; dunder methods are called by the language
    modules = _modules()
    loaded = set().union(*map(_loaded, modules.values()))
    private = [
        f"{stem}.{node.name}"
        for stem, tree in modules.items()
        for scope in [tree, *(c for c in tree.body if isinstance(c, ast.ClassDef))]
        for node in scope.body
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("_")
        and (scope is tree or not node.name.endswith("__"))
    ]
    methods = {"field._coerce", "field._mixed", "groebner._reduce", "groebner._packed"}
    assert methods <= set(private)
    assert [name for name in private if name.split(".")[1] not in loaded] == []


def test_only_orderings_reads_a_tuple_key():
    # the library ranks terms by `TermOrder.rank_key` ints; `TermOrder.key`
    # is the ordering's definition, read in `orderings` and by the tests.
    # No other type in the package has an attribute named key.
    readers = sorted(
        f"{stem}:{node.lineno}"
        for stem, tree in _modules().items()
        if stem != "orderings"
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "key"
    )
    assert readers == []


def _scoped(tree, scope=""):
    """Each node below tree, with the dotted name of the class or function
    that holds it."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            inner = f"{scope}.{node.name}" if scope else node.name
        yield scope, node
        yield from _scoped(node, inner)


def test_only_the_ring_refuses_a_field_element():
    # `field` checks the operands of its own arithmetic; everywhere else a
    # value becomes a field element through `PolyRing.element`, the one
    # place that raises FieldMismatch
    raisers = sorted(
        f"{stem}.{scope}"
        for stem, tree in _modules().items()
        if stem != "field"
        for scope, node in _scoped(tree)
        if isinstance(node, ast.Raise) and "FieldMismatch" in _loaded(node)
    )
    assert raisers == ["ring.PolyRing.element"]

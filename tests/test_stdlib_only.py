"""The package imports nothing outside the standard library, runs
generated code in one place only, and keeps no import that its module
never reads and no private helper that nothing calls."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "newtcomm").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 1


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_stdlib_or_relative(path):
    """Every import is relative or names a standard-library module."""
    outside = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            names = [node.module]
        else:
            continue
        outside += [n for n in names if n.split(".")[0] not in sys.stdlib_module_names]
    assert outside == [], f"{path.name} imports {outside}"


def test_no_dataclasses():
    """The records are named tuples and the derivation a slotted class, so
    no module pays for creating dataclasses at import."""
    users = [path.name for path in SOURCES for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
             or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"]
    assert users == []


DYNAMIC = {"exec", "eval", "compile"}


def _dynamic_calls(tree: ast.AST, where: str = "<module>"):
    """(enclosing function, name) of each call of a DYNAMIC builtin."""
    for node in ast.iter_child_nodes(tree):
        inner = where
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            inner = node.name
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in DYNAMIC:
            yield where, node.func.id
        yield from _dynamic_calls(node, inner)


def test_generated_code_runs_only_in_compile_evaluator():
    """exec, eval and compile are called only inside flows.compile_evaluator,
    whose source holds nothing but float reprs."""
    calls = {(path.stem, where, name) for path in SOURCES
             for where, name in _dynamic_calls(ast.parse(path.read_text()))}
    assert calls == {("flows", "compile_evaluator", "exec")}


def _private_definitions(stmt: ast.stmt) -> set[str]:
    """Private (single-underscore, not dunder) names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = {stmt.name}
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(node: ast.AST) -> set[str]:
    """Names read, attributes taken and names imported anywhere under node."""
    refs = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            refs.add(n.id)
        elif isinstance(n, ast.Attribute):
            refs.add(n.attr)
        elif isinstance(n, ast.alias):
            refs.add(n.name)
    return refs


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_every_imported_name_is_used(path):
    """Every name a module imports is read in that module, so no import
    outlives its last use (__init__ imports to re-export)."""
    tree = ast.parse(path.read_text())
    imported = {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
                if isinstance(node, ast.Import)
                or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                for alias in node.names}
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    assert sorted(imported - read) == [], f"{path.name} imports them and never reads them"


def test_every_private_module_name_is_used():
    """A module-level private name is referenced somewhere in the package
    outside its own definition, so no helper outlives its last caller."""
    defined, used = set(), set()
    for path in SOURCES:
        for stmt in ast.parse(path.read_text()).body:
            own = _private_definitions(stmt)
            defined |= {(path.stem, n) for n in own}
            used |= _references(stmt) - own
    assert sorted(n for n in defined if n[1] not in used) == []

"""The package imports nothing outside the standard library, and runs
generated code in one place only."""

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

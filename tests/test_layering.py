"""The package's modules import one another without a cycle.

Every import of a package module counts, at any depth: module level,
`TYPE_CHECKING` blocks and function bodies alike, since a lazy import that
breaks a cycle at load time still ties the two modules together. Imports
of other packages (numpy, scipy) are not part of the graph.
"""

from __future__ import annotations

import ast
from pathlib import Path

import tlssvm

PACKAGE = "tlssvm"
SRC = Path(tlssvm.__file__).parent


def package_imports(source: str, package: str = PACKAGE) -> set[str]:
    """Names of the package modules one module's source imports, at any depth."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0:
                names = [node.module or ""]
            elif node.module is None:  # from . import a, b
                names = [f"{package}.{alias.name}" for alias in node.names]
            else:
                names = [f"{package}.{node.module}"]
        else:
            continue
        for name in names:
            parts = name.split(".")
            if parts[0] == package and len(parts) > 1:
                found.add(parts[1])
    return found


def import_graph() -> dict[str, set[str]]:
    return {
        path.stem: package_imports(path.read_text(encoding="utf-8")) - {path.stem}
        for path in sorted(SRC.glob("*.py"))
    }


def find_cycle(graph: dict[str, set[str]]) -> list[str] | None:
    """One import cycle as a closed path [a, b, ..., a], or None."""
    done: set[str] = set()
    path: list[str] = []

    def visit(node: str) -> list[str] | None:
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return None
        path.append(node)
        for dep in sorted(graph.get(node, ())):
            cycle = visit(dep)
            if cycle:
                return cycle
        path.pop()
        done.add(node)
        return None

    for node in sorted(graph):
        cycle = visit(node)
        if cycle:
            return cycle
    return None


def test_collector_sees_lazy_and_type_checking_imports():
    source = """
from typing import TYPE_CHECKING
import numpy as np
from . import kernels
from .errors import DataError
import tlssvm.textio

if TYPE_CHECKING:
    from .data import MtlDataset

def f():
    from .model import TrainedModel
    from scipy.linalg.lapack import dpotrf
"""
    assert package_imports(source) == {"kernels", "errors", "textio", "data", "model"}


def test_cycle_finder():
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": set()}) is None
    assert find_cycle({"a": {"b"}, "b": {"c"}, "c": {"a"}}) == ["a", "b", "c", "a"]


def test_package_imports_form_no_cycle():
    graph = import_graph()
    assert {"data", "model", "solver", "taskgrid", "linsys"} <= set(graph)
    assert find_cycle(graph) is None, " -> ".join(find_cycle(graph))


def test_the_solve_layer_imports_no_package_module_but_errors():
    # linsys solves block structures and member arrays; it knows no dataset
    assert import_graph()["linsys"] == {"errors"}

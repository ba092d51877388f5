"""The import layering of the package, read from its source with ast."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "aarlcp"


def package_imports(source: str) -> set[tuple[str, str | None]]:
    """(module, function) of every import of a package module in source:
    the module's name within the package, and the name of the innermost
    function holding the import, None at module level.  Imports under
    ``if TYPE_CHECKING:`` are left out; their else branch is not."""
    found = set()

    def add(dotted: str, func):
        parts = dotted.split(".")
        if parts[0] == "aarlcp" and len(parts) > 1:
            found.add((parts[1], func))

    def walk(nodes, func):
        for node in nodes:
            if isinstance(node, ast.If) and ast.unparse(node.test) in (
                "TYPE_CHECKING",
                "typing.TYPE_CHECKING",
            ):
                walk(node.orelse, func)
                continue
            if isinstance(node, ast.Import):
                for alias in node.names:
                    add(alias.name, func)
            elif isinstance(node, ast.ImportFrom):
                module = ".".join(filter(None, ["aarlcp" if node.level else None, node.module]))
                if module == "aarlcp":  # from . import lp, from aarlcp import lp
                    for alias in node.names:
                        add(f"aarlcp.{alias.name}", func)
                else:
                    add(module, func)
            inner = node.name if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            walk(ast.iter_child_nodes(node), inner)

    walk(ast.parse(source).body, None)
    return found


def imports_of(name: str) -> set[tuple[str, str | None]]:
    return package_imports((SRC / f"{name}.py").read_text())


def test_scanner_reads_every_import_form():
    source = """
from typing import TYPE_CHECKING
import numpy as np
from . import lp
from .core import Instance
import aarlcp.errors
from aarlcp.linhull import LinHullBasis
if TYPE_CHECKING:
    from .milp import SolveReport
else:
    from . import psd

def solve():
    from .milp import bnb_solve

class Wrapper:
    def run(self):
        from aarlcp import export
"""
    assert package_imports(source) == {
        ("lp", None),
        ("core", None),
        ("errors", None),
        ("linhull", None),
        ("psd", None),
        ("milp", "solve"),
        ("export", "run"),
    }


@pytest.mark.parametrize(
    "name, allowed",
    [("lp", {"errors"}), ("core", {"lp", "errors"})],
)
def test_low_layers_import_only_below(name, allowed):
    """lp imports only errors, and core only lp and errors."""
    modules = {module for module, _ in imports_of(name)}
    assert modules <= allowed, modules - allowed


def test_milp_never_imports_export():
    assert "export" not in {module for module, _ in imports_of("milp")}


@pytest.mark.parametrize("name, func", [("verify", "oracle_enumerate"), ("psd", "psd_solve")])
def test_milp_imported_only_inside_pinned_functions(name, func):
    """verify and psd sit below milp; each reaches it only inside the one
    function the benchmark traces in that module."""
    holders = {where for module, where in imports_of(name) if module == "milp"}
    assert holders <= {func}, holders

"""Static checks on the package's imports: no module imports a name it
never uses, and every name the package re-exports resolves."""

import ast
import importlib
from pathlib import Path

import pytest

import otalign

PACKAGE = Path(otalign.__file__).parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """{bound name: line} of every import in the tree."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                names[a.asname or a.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for a in node.names:
                names[a.asname or a.name] = node.lineno
    return names


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports but never uses {unused}"


def test_every_exported_name_resolves():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"otalign.{node.module}")
            for a in node.names:
                assert hasattr(module, a.name), f"otalign.{node.module} has no {a.name}"
                assert getattr(otalign, a.asname or a.name) is getattr(module, a.name)

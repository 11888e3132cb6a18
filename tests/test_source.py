"""Checks on the source of the package itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "eddyopt"


def _imported_names(tree):
    """(name, line) for every name an import statement of ``tree`` binds, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported_names(tree):
    """The string entries of a module-level ``__all__`` list or tuple."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts if isinstance(elt, ast.Constant)}
    return set()


# __init__.py is left out: its imports are the package's re-exports
@pytest.mark.parametrize(
    "path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.name
)
def test_no_module_imports_a_name_it_never_uses(path):
    tree = ast.parse(path.read_text())
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exempt = used | _exported_names(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in _imported_names(tree) if name not in exempt
    )
    assert not unused, f"{path.name} imports names it never uses: {', '.join(unused)}"

"""The physics (model) and the solver (mncp) are leaves of the package's import graph."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "combust"


def imported_modules(path: Path) -> set:
    """The absolute names of every module the file at path imports."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # a relative import reaches into the package itself
            names.add("combust" if node.level else node.module)
    return names


@pytest.mark.parametrize("module", ["model", "mncp"])
def test_leaf_module_imports_no_other_combust_module(module):
    imports = imported_modules(PACKAGE / f"{module}.py")
    assert imports, module
    assert not {name for name in imports if name == "combust" or name.startswith("combust.")}, module

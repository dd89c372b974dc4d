"""Every module of `src/gcmb` but `__init__.py`, which re-exports, uses each
name it imports, so code that leaves a module takes its imports with it.

Names are read with `ast`: a use is any load of the name, also inside a
quoted annotation.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "gcmb"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line."""
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                found[alias.asname or alias.name.split(".")[0]] = node.lineno
    return found


def used_names(tree: ast.AST) -> set[str]:
    """The names loaded anywhere in the tree, quoted annotations parsed."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        annotations = []
        if isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in filter(None, annotations):
            for part in ast.walk(annotation):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    used |= used_names(ast.parse(part.value, mode="eval"))
    return used


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_a_name_it_never_uses(module):
    tree = ast.parse((SRC / module).read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = sorted(
        f"{name} (line {line})" for name, line in imported_names(tree).items() if name not in used
    )
    assert not unused, f"{module} imports names it never uses: {', '.join(unused)}"


def test_the_check_sees_an_unused_import():
    tree = ast.parse(
        "from typing import Optional, Sequence\nimport numpy as np\n"
        "def f(x: 'Optional[int]') -> None:\n    return np.zeros(1)\n"
    )
    names = imported_names(tree)
    assert sorted(names) == ["Optional", "Sequence", "np"]
    assert sorted(set(names) - used_names(tree)) == ["Sequence"]

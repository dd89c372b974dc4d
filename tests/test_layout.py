"""Every module of `src/gcmb` but `__init__.py`, which re-exports, uses each
name it imports, so code that leaves a module takes its imports with it.
And the package ships no code that only the tests call: every module-level
definition is used in `src/gcmb`, named in `gcmb.__all__`, or used by the
scripts or demos.

Names are read with `ast`: a use is any load of the name, also inside a
quoted annotation.
"""

import ast
from pathlib import Path

import pytest

import gcmb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gcmb"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


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
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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
    tree = parse(SRC / module)
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


def defined_names(tree: ast.Module) -> dict[str, int]:
    """Each name a module-level def, class or assignment binds, with its line."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            found[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Name):
                        found[part.id] = node.lineno
    return found


def referenced_names(tree: ast.AST) -> set[str]:
    """The names a tree uses: loads, attributes and names imported from a
    module."""
    found = used_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            found.update(alias.name for alias in node.names)
    return found


def test_the_package_ships_no_test_only_code():
    users = [SRC / module for module in MODULES]
    users += [*(ROOT / "scripts").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    used = set(gcmb.__all__).union(*(referenced_names(parse(path)) for path in users))
    unused = sorted(
        f"{module}: {name} (line {line})"
        for module in MODULES
        for name, line in defined_names(parse(SRC / module)).items()
        if name not in used
    )
    assert not unused, f"definitions only the tests can use: {', '.join(unused)}"


def test_the_check_sees_a_definition_nothing_uses():
    tree = ast.parse(
        "import m\nLIMIT: int = 3\nA, B = 1, 2\nclass C: pass\n"
        "def f(): return LIMIT + m.g(A)\ndef h(): pass\n"
    )
    assert sorted(defined_names(tree)) == ["A", "B", "C", "LIMIT", "f", "h"]
    assert sorted(set(defined_names(tree)) - referenced_names(tree)) == ["B", "C", "f", "h"]
    assert "g" in referenced_names(tree)

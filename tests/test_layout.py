"""Every module of `src/gcmb` but `__init__.py`, which re-exports, uses each
name it imports, so code that leaves a module takes its imports with it.
And the package ships no code that only the tests call: every module-level
definition is used in `src/gcmb`, named in `gcmb.__all__`, or used by the
scripts or demos, and so is every method and property of a class, but
dunders and overrides of a base class from outside the package.  A
property, or a cached one, is used only where it is read: as an attribute
that is not called.

Names are read with `ast`: a use is any load of the name, also inside a
quoted annotation, and a use of a class member is an attribute of its name.
"""

import ast
import importlib
from pathlib import Path

import pytest

import gcmb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "gcmb"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")
#: The code that ships or runs the package: its modules, the scripts and the demos.
USERS = [*(SRC / module for module in MODULES), *ROOT.glob("scripts/*.py"),
         *ROOT.glob("demos/*.py")]


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
    used = set(gcmb.__all__).union(*(referenced_names(parse(path)) for path in USERS))
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


def class_members(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(class, name, line) of each method or property that a module-level
    class defines, dunders left out."""
    return [
        (node.name, item.name, item.lineno)
        for node in tree.body if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (item.name.startswith("__") and item.name.endswith("__"))
    ]


def overrides_a_foreign_base(cls: type, name: str) -> bool:
    """Whether a base class from outside the package defines `name`."""
    return any(name in vars(base) for base in cls.__mro__[1:]
               if not base.__module__.startswith("gcmb"))


def attribute_names(tree: ast.AST) -> set[str]:
    """The names a tree reads or writes as an attribute, the way a member is reached."""
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}


def test_the_package_ships_no_test_only_class_members():
    used = set().union(*(attribute_names(parse(path)) for path in USERS))
    unused = []
    for module in MODULES:
        namespace = importlib.import_module(f"gcmb.{module.removesuffix('.py')}")
        for cls, name, line in class_members(parse(SRC / module)):
            if name not in used and not overrides_a_foreign_base(getattr(namespace, cls), name):
                unused.append(f"{module}: {cls}.{name} (line {line})")
    assert not unused, f"class members only the tests can use: {', '.join(unused)}"


def test_the_check_sees_a_class_member_nothing_uses():
    tree = ast.parse(
        "class C:\n    kind = 'c'\n    def __init__(self): self.f()\n"
        "    def f(self): pass\n    @property\n    def p(self): return 1\n"
        "    @classmethod\n    def make(cls): return cls()\n"
    )
    members = class_members(tree)
    assert [(cls, name) for cls, name, _ in members] == [("C", "f"), ("C", "p"), ("C", "make")]
    assert sorted({name for _, name, _ in members} - attribute_names(tree)) == ["make", "p"]
    from gcmb.cli import _Parser
    from gcmb.solver import Labeling
    assert overrides_a_foreign_base(_Parser, "error")
    assert not overrides_a_foreign_base(Labeling, "label_index")


def class_properties(tree: ast.Module) -> list[tuple[str, str, int]]:
    """(class, name, line) of each `property` or `cached_property` that a
    module-level class defines, under either decorator's plain or dotted name."""
    return [
        (node.name, item.name, item.lineno)
        for node in tree.body if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and any(getattr(d, "id", getattr(d, "attr", None)) in ("property", "cached_property")
                for d in item.decorator_list)
    ]


def read_attributes(tree: ast.AST) -> set[str]:
    """The names a tree reaches as an attribute that it does not call."""
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}
    return {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and id(node) not in called}


def test_every_property_is_read():
    """Calls of a method that shares a property's name do not read the property."""
    read = set().union(*(read_attributes(parse(path)) for path in USERS))
    unread = [f"{module}: {cls}.{name} (line {line})"
              for module in MODULES
              for cls, name, line in class_properties(parse(SRC / module))
              if name not in read]
    assert not unread, f"properties nothing reads: {', '.join(unread)}"


def test_the_check_sees_a_property_only_called_by_name():
    tree = ast.parse(
        "import functools\nclass C:\n    @property\n    def p(self): return 1\n"
        "    @functools.cached_property\n    def q(self): return 2\n"
        "    @cached_property\n    def s(self): return self.q\n"
        "    def m(self): return 3\n"
        "def f(c, d): return c.p(), d.s, c.m()\n"
    )
    assert [(cls, name) for cls, name, _ in class_properties(tree)] == [
        ("C", "p"), ("C", "q"), ("C", "s")]
    assert read_attributes(tree) == {"cached_property", "q", "s"}


def attribute_reads(tree: ast.AST, name: str) -> list[int]:
    """The lines where a tree reaches the attribute `name`."""
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == name)


def test_only_groups_reads_the_invariant_factors():
    """`groups.IndexArithmetic` is the one code that splits an element index
    into residues, so no other module reads the factors it splits them by."""
    readers = [f"{module} (line {line})" for module in MODULES if module != "groups.py"
               for line in attribute_reads(parse(SRC / module), "invariant_factors")]
    assert not readers, f"invariant_factors read outside groups.py: {', '.join(readers)}"


def test_the_check_sees_a_read_of_the_invariant_factors():
    tree = ast.parse(
        "def f(group, factors):\n    return group.order, factors\n"
        "def g(group):\n    return math.prod(group.invariant_factors)\n"
    )
    assert attribute_reads(tree, "invariant_factors") == [4]
    assert attribute_reads(tree, "order") == [2]

"""Group elements cross the public API as canonical indices.

`GroupElement` is the printable form of an element.  Only the helpers of
`GroupSpec` that turn text into indices and indices into text may take or
return one; every other public function, method and dataclass field of
`gcmb.__all__` works on indices, and sets of elements are bitmasks.
"""

import dataclasses
import functools
import inspect
import typing

import gcmb
from gcmb.groups import GroupElement

#: The text edge: `GroupSpec.element_at` gives the printable element of an index.
TEXT_EDGES = {"GroupSpec.element_at"}


def mentions_element(hint) -> bool:
    return hint is GroupElement or any(map(mentions_element, typing.get_args(hint)))


def public_members():
    """(qualified name, callable or class) for every public function, method,
    property and dataclass of `gcmb.__all__`."""
    for name in gcmb.__all__:
        obj = getattr(gcmb, name)
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj) and obj.__module__.startswith("gcmb"):
            if dataclasses.is_dataclass(obj):
                yield name, obj
            for attr, member in vars(obj).items():
                if attr.startswith("_"):
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                elif isinstance(member, property):
                    member = member.fget
                elif isinstance(member, functools.cached_property):
                    member = member.func
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def taking_or_returning_elements() -> set[str]:
    found = set()
    for name, member in public_members():
        hints = typing.get_type_hints(member)
        if any(map(mentions_element, hints.values())):
            found.add(name)
    return found


def test_only_the_text_edges_take_or_return_group_elements():
    assert taking_or_returning_elements() == TEXT_EDGES


def test_the_walk_sees_fields_methods_and_returns():
    names = {name for name, _ in public_members()}
    assert {"SolveResult", "Witness", "LabelImage", "Signature.label", "Labeling.translate",
            "Labeling.constant", "solve_enum", "stabilizer", "GroupSpec.parse_index"} <= names
    assert mentions_element(typing.Optional[typing.Dict[int, GroupElement]])
    assert not mentions_element(typing.Optional[int])

"""The names that `bench/tracer.py` patches still exist in the package, no
subclass hides a patched method, and the scan kernel takes the arguments
that the tracer reads by position where it reads them.

The tracer wraps module attributes and class methods by name and counts
per-layer work through them; a rename, a changed lookup or an override in
`src/` would silently zero those counts.  The tracer's name tables are read
from its source with `ast`, so nothing under `bench/` is imported or written.
"""

import ast
import importlib
import itertools
import pkgutil
from pathlib import Path

import numpy as np
import pytest

import gcmb
import gcmb.lab as lab_mod
import gcmb.solver as solver_mod
from gcmb.catalog import BUILTINS
from gcmb.groups import GroupSpec
from gcmb.lab import isolation_scan
from gcmb.matroids import make_graphic
from gcmb.solver import Labeling, solve_enum, solve_proximity

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
TABLES = ("SPANS", "GENERATOR_SPANS", "METHOD_SPANS", "HOT")


def tracer_tables() -> dict[str, list[tuple]]:
    tree = ast.parse(TRACER.read_text(encoding="utf-8"))
    found = {}
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            name = getattr(node.targets[0], "id", None)
            if name in TABLES:
                found[name] = ast.literal_eval(node.value)
    return found


def test_tracer_tables_are_found():
    tables = tracer_tables()
    assert sorted(tables) == sorted(TABLES)
    assert all(tables.values())


@pytest.mark.parametrize(
    "entry",
    [
        (table, *entry)
        for table, entries in tracer_tables().items()
        for entry in entries
    ],
    ids=lambda e: ".".join(e[:-1]),
)
def test_traced_name_resolves(entry):
    table, module, *path, _span = entry
    owner = importlib.import_module(module)
    for attr in path:
        assert hasattr(owner, attr), f"{table}: {module}.{'.'.join(path)} is gone"
        owner = getattr(owner, attr)
    assert callable(owner)


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


@pytest.mark.parametrize(
    "entry",
    [(table, *entry) for table in ("METHOD_SPANS", "HOT") for entry in tracer_tables()[table]],
    ids=lambda e: ".".join(e[1:-1]),
)
def test_traced_method_is_not_overridden(entry):
    """The tracer wraps these methods on the base class only; an override in
    a subclass would bypass the wrapper and drop its calls from the counts."""
    for info in pkgutil.iter_modules(gcmb.__path__):
        importlib.import_module(f"gcmb.{info.name}")
    table, module, cls, attr, _span = entry
    owner = getattr(importlib.import_module(module), cls)
    for sub in subclasses(owner):
        if sub.__module__.split(".")[0] == "gcmb":
            assert attr not in vars(sub), f"{table}: {sub.__qualname__} redefines {cls}.{attr}"


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("mode", ["enum", "proximity"])
def test_search_calls_base_with_signature_by_its_module_name(monkeypatch, mode, weighted):
    """The tracer counts `solver.base_with_signature` spans at the module
    global; one call per counted intersection must go through it."""
    calls = []
    inner = solver_mod.base_with_signature

    def counting(*args, **kwargs):
        calls.append(args[2])
        return inner(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "base_with_signature", counting)
    group = GroupSpec.parse("Z3")
    m = make_graphic(list(itertools.combinations(range(5), 2)))
    labeling = Labeling.from_indices(group, [e % 3 for e in range(m.n)])
    weights = [(7 * e) % 5 - 2 for e in range(m.n)] if weighted else None
    target = group.parse_index("1")
    if mode == "enum":
        result = solve_enum(m, labeling, target, weights)
    else:
        result = solve_proximity(m, labeling, target, 2, weights, "heuristic")
    assert result.feasible
    assert len(calls) == result.stats.intersections >= 1


@pytest.mark.parametrize("predicate", ["block", "strong_block"])
def test_the_scan_kernel_takes_the_bases_and_offsets_where_the_tracer_reads_them(
    monkeypatch, predicate
):
    """The tracer reads `lab._scan_chunk`'s args[3] (the scanned base rows) and
    args[5] (one offset per labeling counted) by position; a swapped argument
    would garble its `lab.scan.*` counts without an error."""
    calls = []
    inner = lab_mod._scan_chunk

    def recording(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(lab_mod, "_scan_chunk", recording)
    monkeypatch.setattr(lab_mod, "_SCAN_CHUNK", 7)
    m = BUILTINS["k4"]().matroid
    rows, masks, blocks = m.block_table
    scanned = len(rows) if predicate == "block" else blocks  # 16 bases, 12 of them blocks
    # labeling 81 is the first isolating one, so every kernel call below counts in full
    line, = isolation_scan([("k4", m)], GroupSpec.of(4), predicate, index_range=(0, 81)).lines
    assert line.isolating_index is None and len(calls) == 12
    for args in calls:
        assert args[3].shape == (scanned, m.full_rank)
        assert np.shares_memory(args[6].masks, masks)  # the block table's, not a copy
    assert sum(args[5].size for args in calls) == line.checked == 81

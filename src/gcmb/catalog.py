"""Catalog ingestion and bundled instances.

Catalog files are line-oriented: `<id> <n> <r> <base>;<base>;...` with bases
as comma-joined element indices and `#` comments.  An import path converts
indicator-string datasets (n/r header, then one 0/1 string per matroid over
all C(n,r) subsets in colexicographic order) into this format.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from importlib import resources
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import ParseError, UsageError
from .groups import GroupSpec
from .matroids import (
    BaseSet,
    ExplicitMatroid,
    GraphicMatroid,
    Matroid,
    block_bases,
    make_explicit,
    make_graphic,
    make_uniform,
)
from .solver import Labeling


@dataclass(frozen=True)
class CatalogEntry:
    """One explicit matroid of a catalog file.

    Entries from the parsers carry the matroid the parser already built and
    validated; `matroid()` hands that one back instead of validating again.
    It takes no part in equality or hashing.
    """

    id: str
    n: int
    r: int
    bases: tuple[BaseSet, ...]
    validated: Optional[ExplicitMatroid] = field(default=None, compare=False, repr=False)

    def matroid(self, trust: bool = False) -> ExplicitMatroid:
        if self.validated is not None:
            return self.validated
        return make_explicit(self.n, self.bases, trust=trust)


def parse_catalog(
    text: str,
    lenient: bool = False,
    problems: Optional[list[tuple[int, str]]] = None,
) -> Iterator[CatalogEntry]:
    """Stream validated entries; bad entries raise, or are collected into
    `problems` and skipped when lenient."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        try:
            yield _parse_entry(stripped, lineno)
        except ParseError as exc:
            if not lenient:
                raise
            if problems is not None:
                problems.append((lineno, str(exc)))


def _parse_entry(line: str, lineno: int) -> CatalogEntry:
    parts = line.split(None, 3)
    if len(parts) != 4:
        raise ParseError("expected '<id> <n> <r> <bases>'", lineno)
    entry_id, n_text, r_text, bases_text = parts
    try:
        n, r = int(n_text), int(r_text)
    except ValueError:
        raise ParseError(f"bad n/r in entry {entry_id!r}", lineno) from None
    bases = []
    for chunk in bases_text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            base = tuple(sorted(int(tok) for tok in chunk.split(",")))
        except ValueError:
            raise ParseError(f"bad base {chunk!r} in entry {entry_id!r}", lineno) from None
        if len(base) != r:
            raise ParseError(
                f"entry {entry_id!r}: base {chunk!r} has size {len(base)}, expected {r}",
                lineno,
            )
        bases.append(base)
    try:
        matroid = make_explicit(n, bases)
    except UsageError as exc:
        raise ParseError(f"entry {entry_id!r}: {exc}", lineno) from None
    if matroid.full_rank != r:
        raise ParseError(f"entry {entry_id!r}: rank mismatch", lineno)
    return CatalogEntry(entry_id, n, r, tuple(sorted(bases)), matroid)


def load_catalog(
    path,
    lenient: bool = False,
    problems: Optional[list[tuple[int, str]]] = None,
) -> Iterator[CatalogEntry]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    yield from parse_catalog(text, lenient=lenient, problems=problems)


def format_entry(entry: CatalogEntry) -> str:
    bases = ";".join(",".join(str(e) for e in b) for b in entry.bases)
    return f"{entry.id} {entry.n} {entry.r} {bases}"


def filter_blocks(entries: Iterable[CatalogEntry]) -> Iterator[CatalogEntry]:
    """Keep entries whose ground set splits into two disjoint bases."""
    for entry in entries:
        if entry.n == 2 * entry.r > 0 and block_bases(entry.n, entry.bases):
            yield entry


# -- colexicographic indicator encoding ---------------------------------------


def subset_colex_rank(subset: Sequence[int]) -> int:
    return sum(math.comb(a, i + 1) for i, a in enumerate(sorted(subset)))


def subset_colex_unrank(position: int, r: int) -> BaseSet:
    out = []
    rest = position
    for i in range(r, 0, -1):
        a = i - 1
        while math.comb(a + 1, i) <= rest:
            a += 1
        out.append(a)
        rest -= math.comb(a, i)
    return tuple(sorted(out))


def entry_to_indicator(entry: CatalogEntry) -> str:
    total = math.comb(entry.n, entry.r)
    chars = ["0"] * total
    for base in entry.bases:
        chars[subset_colex_rank(base)] = "1"
    return "".join(chars)


def parse_indicator_file(
    text: str,
    lenient: bool = False,
    problems: Optional[list[tuple[int, str]]] = None,
) -> Iterator[CatalogEntry]:
    """Convert an indicator dataset to catalog entries.

    Expected layout: `n <n>` and `r <r>` header lines, then one entry per
    line, either `<id> <indicator>` or a bare indicator string (ids are then
    numbered from the line position)."""
    n: Optional[int] = None
    r: Optional[int] = None
    counter = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        tokens = stripped.split()
        if tokens[0] in ("n", "r") and len(tokens) == 2:
            try:
                value = int(tokens[1])
            except ValueError:
                raise ParseError(f"bad header value {tokens[1]!r}", lineno) from None
            if tokens[0] == "n":
                n = value
            else:
                r = value
            continue
        if n is None or r is None:
            raise ParseError("indicator data before n/r header", lineno)
        if len(tokens) == 1:
            counter += 1
            entry_id, indicator = f"m{counter:04d}", tokens[0]
        elif len(tokens) == 2:
            counter += 1
            entry_id, indicator = tokens
        else:
            raise ParseError("expected '<id> <indicator>' or '<indicator>'", lineno)
        expected = math.comb(n, r)
        if len(indicator) != expected or set(indicator) - {"0", "1"}:
            raise ParseError(
                f"indicator for {entry_id!r} must be {expected} chars of 0/1", lineno
            )
        bases = tuple(
            sorted(
                subset_colex_unrank(pos, r)
                for pos, char in enumerate(indicator)
                if char == "1"
            )
        )
        try:
            matroid = make_explicit(n, bases)
            if matroid.full_rank != r:
                raise UsageError("rank mismatch")
        except UsageError as exc:
            if lenient:
                if problems is not None:
                    problems.append((lineno, f"entry {entry_id!r}: {exc}"))
                continue
            raise ParseError(f"entry {entry_id!r}: {exc}", lineno) from None
        yield CatalogEntry(entry_id, n, r, bases, matroid)


def import_indicator_file(
    path,
    lenient: bool = False,
    problems: Optional[list[tuple[int, str]]] = None,
) -> Iterator[CatalogEntry]:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    yield from parse_indicator_file(text, lenient=lenient, problems=problems)


def bundled_path(name: str):
    """Path to a bundled data file (rank3_size6.cat, rank4_size8_blocks.cat/.rlx)."""
    return resources.files("gcmb").joinpath("data").joinpath(name)


def load_bundled_catalog(name: str) -> list[CatalogEntry]:
    text = bundled_path(name).read_text(encoding="utf-8")
    return list(parse_catalog(text))


# -- builtin instances ---------------------------------------------------------


@dataclass(frozen=True)
class BuiltinInstance:
    """A named matroid with its default group and labeling."""

    name: str
    matroid: Matroid
    group: GroupSpec
    labeling: Labeling
    note: str = ""


def tight_example(m: int) -> BuiltinInstance:
    """The uniform block matroid U_{m-1, 2(m-1)} whose first block is labeled
    1 and second 0 over Z_m: its unique 0-base sits at distance m-1 from the
    all-ones block, so (m-1)-closeness is sharp for cyclic groups."""
    if m < 2:
        raise UsageError(f"tight example needs modulus >= 2, got {m}")
    group = GroupSpec.of(m)
    matroid = make_uniform(2 * (m - 1), m - 1)
    labels = [1] * (m - 1) + [0] * (m - 1)
    return BuiltinInstance(
        name=f"tight{m}",
        matroid=matroid,
        group=group,
        labeling=Labeling.from_indices(group, labels),
        note=f"closeness lower-bound instance over Z{m}",
    )


def k4_graphic() -> GraphicMatroid:
    """The wheel on four vertices: hub 0, rim 1-2-3; spokes first."""
    return make_graphic([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def whirl3() -> ExplicitMatroid:
    """The rank-3 whirl: the wheel with its rim triangle relaxed into a base."""
    bases = list(k4_graphic().bases()) + [(3, 4, 5)]
    return make_explicit(6, bases)


def _direct_sum_bases(parts: Sequence[tuple[int, Sequence[BaseSet]]]) -> tuple[int, list[BaseSet]]:
    offset = 0
    pieces: list[list[BaseSet]] = []
    for n, bases in parts:
        pieces.append([tuple(e + offset for e in b) for b in bases])
        offset += n
    combined = [
        tuple(sorted(itertools.chain.from_iterable(combo)))
        for combo in itertools.product(*pieces)
    ]
    return offset, combined


def direct_sum(parts: Sequence[Matroid], trust: bool = False) -> ExplicitMatroid:
    n, bases = _direct_sum_bases([(m.n, m.bases()) for m in parts])
    return make_explicit(n, bases, trust=trust)


def _mod_labeling(group: GroupSpec, n: int) -> Labeling:
    return Labeling.from_indices(group, [e % group.order for e in range(n)])


def _instance(name: str, matroid: Matroid, order: int, note: str) -> BuiltinInstance:
    """An instance labeled e mod |G| over Z_order."""
    group = GroupSpec.of(order)
    return BuiltinInstance(name, matroid, group, _mod_labeling(group, matroid.n), note)


def _uniform_instance(n: int, r: int) -> BuiltinInstance:
    return _instance(f"u{r}{n}", make_uniform(n, r), 2, f"uniform U_{{{r},{n}}}")


#: The named instances the CLI and the acceptance suite refer to, as
#: factories, so that a caller builds only the one it names.
BUILTINS: dict[str, Callable[[], BuiltinInstance]] = {
    **{f"tight{m}": functools.partial(tight_example, m) for m in range(2, 7)},
    "k4": lambda: _instance("k4", k4_graphic(), 3, "graphic wheel on 4 vertices"),
    "w3": lambda: _instance("w3", whirl3(), 3, "rank-3 whirl (relaxed wheel)"),
    **{
        f"u{r}{n}": functools.partial(_uniform_instance, n, r)
        for n, r in [(2, 1), (3, 2), (4, 2), (6, 3), (8, 4)]
    },
    "s222": lambda: _instance(
        "s222", direct_sum([make_uniform(2, 1)] * 3), 2, "three parallel pairs"
    ),
    "s233": lambda: _instance(
        "s233",
        direct_sum([make_uniform(3, 2), make_uniform(3, 1)]),
        3,
        "U_{2,3} plus U_{1,3} (not a block matroid)",
    ),
}


def builtin_instances() -> dict[str, BuiltinInstance]:
    """Every named instance of `BUILTINS`, freshly built."""
    return {name: make() for name, make in BUILTINS.items()}


def bundled_matroids(max_n: int = 8, max_r: int = 4) -> list[tuple[str, Matroid]]:
    """Distinct matroids behind the builtin instances, size-filtered.

    Tight-example matroids are uniform and already covered by the u-entries.
    """
    ordered = ["u12", "u23", "u24", "k4", "w3", "u36", "s222", "s233", "u48"]
    out = []
    for name in ordered:
        m = BUILTINS[name]().matroid
        if m.n <= max_n and m.full_rank <= max_r:
            out.append((name, m))
    return out

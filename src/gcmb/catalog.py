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

import numpy as np

from .errors import CapacityError, ParseError, UsageError, content_lines, quote, read_text
from .groups import GroupSpec
from .matroids import (
    EXPLICIT_VALIDATE_MAX,
    BaseSet,
    ExplicitMatroid,
    GraphicMatroid,
    Matroid,
    find_blocks,
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

    def matroid(self) -> ExplicitMatroid:
        if self.validated is not None:
            return self.validated
        return make_explicit(self.n, self.bases)


#: Lines a lenient parse skipped, as (line number, "entry 'id': reason").
Problems = Optional[list[tuple[int, str]]]


def _entries(
    lines: Iterable[tuple[int, str]],
    fields: Callable[[str], tuple[int, int, np.ndarray | Sequence[BaseSet]]],
    lenient: bool,
    problems: Problems,
) -> Iterator[CatalogEntry]:
    """Validated entries of both catalog formats from `<id> <rest>` lines.

    `fields` turns the rest into (n, r, bases).  A bad line (a syntax error,
    a failing exchange axiom, a wrong rank or a size over a limit) raises a
    ParseError naming the line, or when lenient is skipped and appended to
    `problems`.
    """
    for lineno, line in lines:
        entry_id, *rest = line.split(None, 1)
        try:
            n, r, bases = fields("".join(rest))
            matroid = make_explicit(n, bases)
            if matroid.full_rank != r:
                raise UsageError("rank mismatch")
        except (ParseError, UsageError, CapacityError) as exc:
            reason = f"entry {quote(entry_id)}: {exc}"
            if not lenient:
                raise ParseError(reason, lineno) from None
            if problems is not None:
                problems.append((lineno, reason))
            continue
        yield CatalogEntry(entry_id, n, r, matroid.base_list, matroid)


#: int() of the plain element tokens, which a lookup reads faster.
_ELEMENT_TOKENS = {str(e): e for e in range(256)}


def _catalog_fields(rest: str) -> tuple[int, int, np.ndarray | list[tuple[int, ...]]]:
    """(n, r, bases) of `<n> <r> <bases>`.  Bases of one size whose elements
    fit in int64 are read in one pass, into the rows of an array; other bases
    as tuples, the first one that is not a list of integers refused."""
    parts = rest.split(None, 2)
    if len(parts) != 3:
        raise ParseError("expected '<id> <n> <r> <bases>'")
    try:
        n, r = int(parts[0]), int(parts[1])
    except ValueError:
        raise ParseError("bad n/r") from None
    chunks = list(filter(str.strip, parts[2].split(";")))
    if len({chunk.count(",") for chunk in chunks}) == 1:
        tokens = ",".join(chunks).split(",")
        values = list(map(_ELEMENT_TOKENS.get, tokens))
        try:
            if None in values:
                values = list(map(int, tokens))
            return n, r, np.array(values, dtype=np.int64).reshape(len(chunks), -1)
        except (ValueError, OverflowError):
            pass
    bases = []
    for chunk in chunks:
        try:
            bases.append(tuple(map(int, chunk.split(","))))
        except ValueError:
            raise ParseError(f"bad base {quote(chunk.strip())}") from None
    return n, r, bases


def parse_catalog(
    text: str, lenient: bool = False, problems: Problems = None
) -> Iterator[CatalogEntry]:
    """Stream validated entries of `<id> <n> <r> <bases>` lines (see `_entries`)."""
    return _entries(content_lines(text), _catalog_fields, lenient, problems)


def load_catalog(path, lenient: bool = False, problems: Problems = None) -> Iterator[CatalogEntry]:
    yield from parse_catalog(read_text(path), lenient=lenient, problems=problems)


def format_entry(entry: CatalogEntry) -> str:
    bases = ";".join(",".join(str(e) for e in b) for b in entry.bases)
    return f"{entry.id} {entry.n} {entry.r} {bases}"


def filter_blocks(entries: Iterable[CatalogEntry]) -> Iterator[CatalogEntry]:
    """Keep entries whose ground set splits into two disjoint bases."""
    for entry in entries:
        if find_blocks(entry.matroid()) is not None:
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
    text: str, lenient: bool = False, problems: Problems = None
) -> Iterator[CatalogEntry]:
    """Convert an indicator dataset to catalog entries (see `_entries`).

    Expected layout: a header of two adjacent lines `n <n>` and `r <r>`,
    then one entry per line, either `<id> <indicator>` or a bare indicator
    string (ids are then numbered from the line position); a later header
    applies to the entries after it.  A two-token line starting with `n` or
    `r` outside such a pair is refused, also when lenient: the ids `n` and `r`
    would read as headers.  Every entry is validated, so an entry under a
    header outside 0 <= r <= n <= EXPLICIT_VALIDATE_MAX is a bad line."""
    header: dict[str, int] = {}
    positions = itertools.count(1)

    def data_lines() -> Iterator[tuple[int, str]]:
        pending = None  # (line number, tokens) of a header line awaiting its pair
        for lineno, line in content_lines(text):
            tokens = line.split()
            if len(tokens) == 2 and tokens[0] in ("n", "r"):
                if pending is None:
                    pending = (lineno, tokens)
                    continue
                if pending[1][0] != tokens[0]:
                    for at, (name, value) in (pending, (lineno, tokens)):
                        try:
                            header[name] = int(value)
                        except ValueError:
                            raise ParseError(f"bad header value {quote(value)}", at) from None
                    pending = None
                    continue
            if pending is not None:
                break
            if len(header) < 2:
                raise ParseError("indicator data before n/r header", lineno)
            position = next(positions)
            yield lineno, line if len(tokens) > 1 else f"m{position:04d} {line}"
        if pending is not None:
            raise ParseError(
                f"{quote(' '.join(pending[1]))} is not in an n/r header pair; the ids 'n' "
                f"and 'r' are reserved for headers",
                pending[0],
            )

    def fields(indicator: str) -> tuple[int, int, list[BaseSet]]:
        n, r = header["n"], header["r"]
        if not 0 <= r <= n <= EXPLICIT_VALIDATE_MAX:  # before C(n, r) is computed
            raise ParseError(
                f"header n {quote(str(n))} and r {quote(str(r))} are outside 0 <= r <= n <= "
                f"{EXPLICIT_VALIDATE_MAX} (EXPLICIT_VALIDATE_MAX; every import is validated)"
            )
        expected = math.comb(n, r)
        if len(indicator) != expected or set(indicator) - {"0", "1"}:
            raise ParseError(f"indicator must be {expected} chars of 0/1")
        return n, r, [subset_colex_unrank(pos, r) for pos, c in enumerate(indicator) if c == "1"]

    return _entries(data_lines(), fields, lenient, problems)


def import_indicator_file(
    path, lenient: bool = False, problems: Problems = None
) -> Iterator[CatalogEntry]:
    yield from parse_indicator_file(read_text(path), lenient=lenient, problems=problems)


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
    return make_explicit(6, k4_graphic().bases() + [(3, 4, 5)])


def direct_sum(parts: Sequence[Matroid]) -> ExplicitMatroid:
    """The direct sum, each part's elements numbered after the parts before it."""
    offset, pieces = 0, []
    for m in parts:
        pieces.append([tuple(e + offset for e in b) for b in m.bases()])
        offset += m.n
    return make_explicit(offset, [sum(combo, ()) for combo in itertools.product(*pieces)])


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


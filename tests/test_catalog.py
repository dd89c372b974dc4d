import functools
import itertools
import math
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gcmb import catalog as catalog_mod
from gcmb import matroids as matroids_mod
from gcmb.catalog import (
    BUILTINS,
    BuiltinInstance,
    CatalogEntry,
    builtin_instances,
    bundled_path,
    direct_sum,
    entry_to_indicator,
    filter_blocks,
    format_entry,
    load_bundled_catalog,
    parse_catalog,
    parse_indicator_file,
    subset_colex_rank,
    tight_example,
)
from gcmb.cli import main
from gcmb.errors import ParseError, UsageError
from gcmb.lab import label_image
from gcmb.matroids import Matroid, find_blocks, make_explicit, make_uniform

from oracles import (
    ExplicitReference,
    block_bases_reference,
    bundled_matroids,
    oracles_equal,
    parse_catalog_reference,
    subset_colex_unrank,
    verify_axioms,
)


class TestCatalogFormat:
    def test_empty_file(self):
        assert list(parse_catalog("")) == []
        assert list(parse_catalog("# only a comment\n\n")) == []

    def test_roundtrip(self):
        u = make_uniform(4, 2)
        entry = CatalogEntry("u24", 4, 2, tuple(u.bases()))
        text = format_entry(entry)
        (back,) = parse_catalog(text)
        assert back == entry

    def test_corrupted_base_size(self):
        text = "bad 4 2 0,1;2,3,1\n"
        with pytest.raises(ParseError, match="'bad'"):
            list(parse_catalog(text))

    def test_repeated_element_in_base(self):
        text = "u24 4 2 0,1,1;0,2;0,3;1,2;1,3;2,3\n"
        with pytest.raises(ParseError, match="line 1: entry 'u24': base '0,1,1' repeats an element"):
            list(parse_catalog(text))

    def test_exchange_violation_reported(self):
        text = "broken 4 2 0,1;2,3\n"
        with pytest.raises(ParseError, match="exchange"):
            list(parse_catalog(text))

    def test_lenient_skips_and_reports(self):
        text = "broken 4 2 0,1;2,3\nu23 3 2 0,1;0,2;1,2\n"
        problems = []
        entries = list(parse_catalog(text, lenient=True, problems=problems))
        assert [e.id for e in entries] == ["u23"]
        assert len(problems) == 1 and problems[0][0] == 1

    def test_rank_mismatch_detected(self):
        text = "odd 4 3 0,1,2;0,1,3;0,2,3;1,2,3\n"  # claims r=3 but that's U_{3,4}
        (entry,) = parse_catalog(text)  # fine: rank really is 3
        bad = "odd 4 2 0,1;0,2;0,3;1,2;1,3;2,3\n".replace(" 2 ", " 3 ", 1)
        with pytest.raises(ParseError):
            list(parse_catalog(bad))


class TestBundledCatalogs:
    def test_rank3_loads_with_wheel(self):
        entries = load_bundled_catalog("rank3_size6.cat")
        by_id = {e.id: e for e in entries}
        assert "mk4" in by_id
        assert len(by_id["mk4"].bases) == 16  # Cayley: 4^2 spanning trees
        for e in entries:
            assert e.n == 6 and e.r == 3
            verify_axioms(e.matroid())

    def test_rank4_blocks(self):
        entries = load_bundled_catalog("rank4_size8_blocks.cat")
        assert len(entries) >= 20
        for e in entries:
            assert e.n == 8 and e.r == 4
        # spot-check blockness on a sample (full check is the generator's job)
        for e in entries[:5]:
            assert find_blocks(e.matroid()) is not None

    def test_rank4_indicator_matches_cat(self):
        from_cat = load_bundled_catalog("rank4_size8_blocks.cat")
        text = __import__("gcmb.catalog", fromlist=["bundled_path"]).bundled_path(
            "rank4_size8_blocks.rlx"
        ).read_text(encoding="utf-8")
        from_rlx = list(parse_indicator_file(text))
        assert [e.id for e in from_rlx] == [e.id for e in from_cat]
        assert [e.bases for e in from_rlx] == [e.bases for e in from_cat]


class TestFilterBlocks:
    def test_wrong_shape_filtered(self):
        u23 = CatalogEntry("u23", 3, 2, tuple(make_uniform(3, 2).bases()))
        assert list(filter_blocks([u23])) == []

    def test_wheel_kept(self):
        entries = load_bundled_catalog("rank3_size6.cat")
        kept = {e.id for e in filter_blocks(entries)}
        assert "mk4" in kept

    def test_shared_element_filtered(self):
        # n = 2r but every base contains element 0: no disjoint pair
        entries = load_bundled_catalog("rank3_size6.cat")
        by_id = {e.id: e for e in entries}
        assert "c0u25" in by_id
        assert all(0 in b for b in by_id["c0u25"].bases)
        kept = {e.id for e in filter_blocks(entries)}
        assert "c0u25" not in kept


class TestColexEncoding:
    def test_rank_unrank_roundtrip(self):
        for n, r in [(4, 2), (6, 3), (8, 4)]:
            for pos, subset in enumerate(
                sorted(itertools.combinations(range(n), r), key=subset_colex_rank)
            ):
                assert subset_colex_rank(subset) == pos
                assert subset_colex_unrank(pos, r) == subset

    def test_colex_listing_is_the_unranking(self):
        """An import reads each base from one colex listing per (n, r), as
        `subset_colex_unrank` of its position, for every n an import takes."""
        for n in range(matroids_mod.EXPLICIT_VALIDATE_MAX + 1):
            for r in range(n + 1):
                listing = catalog_mod._colex_subsets(n, r)
                assert listing == tuple(subset_colex_unrank(p, r) for p in range(len(listing)))
                assert len(listing) == math.comb(n, r)

    def test_indicator_roundtrip(self):
        u = make_uniform(6, 3)
        entry = CatalogEntry("u36", 6, 3, tuple(u.bases()))
        indicator = entry_to_indicator(entry)
        assert indicator == "1" * 20  # every triple is a base
        text = f"n 6\nr 3\nu36 {indicator}\n"
        (back,) = parse_indicator_file(text)
        assert back.bases == entry.bases

    def test_indicator_errors(self):
        with pytest.raises(ParseError, match="header"):
            list(parse_indicator_file("x 101010\n"))
        with pytest.raises(ParseError, match="0/1"):
            list(parse_indicator_file("n 4\nr 2\nx 10102\n"))


class TestBuiltins:
    def test_tight4(self):
        inst = tight_example(4)
        assert inst.matroid.n == 6 and inst.matroid.full_rank == 3
        assert [str(inst.group.element_at(g)) for g in inst.labeling.indices] == ["1", "1", "1", "0", "0", "0"]

    def test_tight2(self):
        inst = tight_example(2)
        assert inst.matroid.n == 2 and inst.matroid.full_rank == 1

    def test_k4(self):
        inst = builtin_instances()["k4"]
        assert inst.matroid.n == 6 and inst.matroid.full_rank == 3

    def test_unique_zero_base_small(self):
        for m in range(2, 7):
            inst = tight_example(m)
            img = label_image(inst.matroid, inst.labeling)
            zero = 0  # the identity's index
            assert img.multiplicity[zero] == 1
            zero_bases = [
                b
                for b in inst.matroid.bases()
                if inst.labeling.label_index(b) == zero
            ]
            assert zero_bases == [tuple(range(m - 1, 2 * (m - 1)))]

    def test_builtin_instances_come_from_the_table(self):
        instances = builtin_instances()
        assert list(instances) == list(BUILTINS) == [
            "tight2", "tight3", "tight4", "tight5", "tight6", "k4", "w3",
            "u12", "u23", "u24", "u36", "u48", "s222", "s233",
        ]
        for name, inst in instances.items():
            assert inst.name == name
            assert inst.labeling.n == inst.matroid.n
            again = BUILTINS[name]()
            assert again.matroid is not inst.matroid  # built fresh each call
            assert again.matroid.bases() == inst.matroid.bases()
            assert (again.group, again.labeling.indices, again.note) == (
                inst.group, inst.labeling.indices, inst.note
            )

    def test_bundled_matroids_shapes(self):
        for name, m in bundled_matroids():
            assert m.n <= 8 and m.full_rank <= 4, name
        names = [name for name, _ in bundled_matroids()]
        assert "k4" in names and "u48" in names

    def test_direct_sum(self):
        s = direct_sum([make_uniform(2, 1), make_uniform(2, 1)])
        assert s.full_rank == 2 and s.n == 4
        assert len(s.bases()) == 4

    def test_bad_tight(self):
        with pytest.raises(UsageError):
            tight_example(1)


# -- ingestion against the base-by-base reference --------------------------------

#: Base lists of three shapes, by ground size, so that a batch mixes shapes.
FAMILIES = {
    4: [tuple(make_uniform(4, 2).bases()), ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3))],
    6: [e.bases for e in load_bundled_catalog("rank3_size6.cat")],
    8: [e.bases for e in load_bundled_catalog("rank4_size8_blocks.cat")],
}


@st.composite
def catalog_lines(draw, entry_id):
    """One catalog line: a matroid's bases or a near miss, under mutations
    that each break one rule of the format or of the base list."""
    if draw(st.booleans()):
        n = draw(st.sampled_from(sorted(FAMILIES)))
        family = draw(st.sampled_from(FAMILIES[n]))
    else:
        n = draw(st.integers(1, 7))
        r = draw(st.integers(1, n))
        subsets = list(itertools.combinations(range(n), r))
        dropped = draw(st.sets(st.sampled_from(subsets), max_size=min(2, len(subsets) - 1)))
        family = [s for s in subsets if s not in dropped]
    bases = [list(b) for b in draw(st.permutations(family))]
    r = len(bases[0]) if bases else 0
    mutations = draw(st.sets(st.sampled_from([
        "shuffle", "duplicate", "repeat", "outside", "huge", "empty", "sizes", "loop",
        "large n", "rank", "bad token", "spaces", "short", "no bases", "drop",
    ]), max_size=3))
    if "no bases" in mutations:
        bases = []
    if "drop" in mutations:  # mostly an exchange failure
        bases = bases[: len(bases) // 2] + bases[len(bases) // 2 + 1 :]
    if "shuffle" in mutations:
        bases = [draw(st.permutations(b)) for b in bases]
    if "duplicate" in mutations and bases:
        bases.insert(draw(st.integers(0, len(bases))), draw(st.sampled_from(bases)))
    if "loop" in mutations:
        n += 1
    if "large n" in mutations:
        n = draw(st.sampled_from([13, 16]))
    if "sizes" in mutations and bases:
        at = draw(st.integers(0, len(bases) - 1))
        bases[at] = bases[at][:-1] if draw(st.booleans()) else [*bases[at], n - 1]
    for name, value in [("outside", draw(st.sampled_from([-1, n, n + 3]))), ("huge", 10**20),
                        ("repeat", None)]:
        if name in mutations and bases and bases[0]:
            at = draw(st.integers(0, len(bases) - 1))
            base = bases[at]
            if base:
                spot = draw(st.integers(0, len(base) - 1))
                base[spot] = base[(spot + 1) % len(base)] if value is None else value
    chunks = [",".join(map(str, b)) for b in bases]
    if "bad token" in mutations and chunks:
        at = draw(st.integers(0, len(chunks) - 1))
        chunks[at] = draw(st.sampled_from(["x", "1.5", "", "0,,1", "1_0", "+1", "٣"]))
    if "spaces" in mutations and chunks:
        at = draw(st.integers(0, len(chunks) - 1))
        chunks[at] = " " + chunks[at].replace(",", ", ") + " "
    if "empty" in mutations:
        chunks.insert(draw(st.integers(0, len(chunks))), draw(st.sampled_from(["", " "])))
    if "rank" in mutations:
        r += draw(st.sampled_from([-1, 1]))
    fields = [str(n), str(r), ";".join(chunks) or ";"]
    if "short" in mutations:
        n_text, r_text, rest = fields
        fields = draw(st.sampled_from([[n_text], ["x", r_text, rest], [n_text, "y", rest]]))
    return " ".join([entry_id, *fields])


@st.composite
def catalog_texts(draw):
    count = draw(st.integers(1, 12))
    lines = [draw(catalog_lines(f"e{i}")) for i in range(count)]
    return "".join(f"{line}\n" for line in lines)


def ingested(parse, shape, text, lenient):
    """The entries as `shape` gives them, or the error, and the skipped lines."""
    problems: list = []
    try:
        entries = [shape(entry) for entry in parse(text, lenient=lenient, problems=problems)]
    except ParseError as exc:
        return ("error", str(exc), exc.line), problems
    return entries, problems


def package_shape(entry):
    m = entry.matroid()
    blocks = m.block_table[0][: m.block_table[2]].tolist() if entry.n == 2 * entry.r > 0 else []
    return entry.id, entry.n, entry.r, entry.bases, [tuple(b) for b in blocks]


def reference_shape(entry):
    entry_id, n, r, m = entry
    return entry_id, n, r, m.base_list, block_bases_reference(n, m.base_list)


#: Batch sizes in array cells: one line a batch, a few lines, and the default.
DEFAULT_CELLS = catalog_mod._BATCH_CELLS
BATCH_CELLS = [1, 600, 4000, DEFAULT_CELLS]
U24 = "4 2 0,1;0,2;0,3;1,2;1,3;2,3"


@settings(max_examples=300, deadline=None)
@given(catalog_texts(), st.sampled_from(BATCH_CELLS))
@example("e 4 2 0,9;0,1,2\n", DEFAULT_CELLS)  # a size fault before a range fault in sorted order
@example("e 4 2 0,1;0,1,99;0,2\n", DEFAULT_CELLS)  # both faults in one base: the size is named
@example("e 4 2 0,1;-1,2\n", DEFAULT_CELLS)
@example("e 4 2 0,1;0,99999999999999999999999\n", DEFAULT_CELLS)
@example("e 4 2 0,0;x,1\n", DEFAULT_CELLS)  # a repeat before a bad token
@example("e 13 2 0,x\n", DEFAULT_CELLS)  # a bad token before the ground size limit
@example("e 4 2 ;;\n", DEFAULT_CELLS)
@example(f"e 6 3 0,1,2;3,4,5;0,1,3\ne {U24}\n", DEFAULT_CELLS)
@example(f"a 4 2 0,1;2,3\nb {U24}\n", DEFAULT_CELLS)  # a bad list, then one of its shape
@example(f"a {U24}\nb 4 2 2,3\n", DEFAULT_CELLS)  # a's last base is b's only one
def test_ingestion_matches_the_reference(text, cells):
    with mock.patch.object(catalog_mod, "_BATCH_CELLS", cells):
        for lenient in (False, True):
            got = ingested(parse_catalog, package_shape, text, lenient)
            assert got == ingested(parse_catalog_reference, reference_shape, text, lenient)


@pytest.mark.parametrize("cells", BATCH_CELLS)
def test_a_strict_parse_yields_the_entries_before_the_first_bad_line(cells, monkeypatch):
    monkeypatch.setattr(catalog_mod, "_BATCH_CELLS", cells)
    entries = parse_catalog(f"a {U24}\nb {U24}\nbad 4 2 0,1;2,3\nc {U24}\n")
    assert [next(entries).id, next(entries).id] == ["a", "b"]
    with pytest.raises(ParseError, match="^line 3: entry 'bad': base exchange axiom fails"):
        next(entries)
    imported = parse_indicator_file("n 4\nr 2\na 111111\nb 111111\nn 4\nc 111111\n")
    assert [next(imported).id, next(imported).id] == ["a", "b"]
    with pytest.raises(ParseError, match="^line 5: 'n 4' is not in an n/r header pair"):
        next(imported)


def test_every_line_of_the_bundled_catalogs_matches_the_reference():
    for name in ("rank3_size6.cat", "rank4_size8_blocks.cat"):
        text = bundled_path(name).read_text(encoding="utf-8")
        got = [package_shape(e) for e in parse_catalog(text)]
        assert got == [reference_shape(e) for e in parse_catalog_reference(text)]


def test_a_catalog_entry_answers_the_oracle_as_the_reference():
    entries = [e for name in ("rank3_size6.cat", "rank4_size8_blocks.cat")
               for e in load_bundled_catalog(name)]
    for e in entries[:20]:
        m, reference = e.matroid(), ExplicitReference(e.n, e.bases)
        assert "_base_lookup" not in vars(m)  # built on the oracle's first call
        assert oracles_equal(m, reference)


def test_batch_block_tables_equal_the_tables_built_by_sorting_complements():
    """A catalog entry reads its block flags from its batch's base table; the
    table equals the one `Matroid._block_table` builds by sorting the
    complements.  A trusted list past EXPLICIT_VALIDATE_MAX has no base
    table and takes that sorting path."""
    for name in ("rank3_size6.cat", "rank4_size8_blocks.cat"):
        for e in load_bundled_catalog(name):
            m = e.matroid()
            if m.n == 2 * m.r:
                rows, masks, blocks = m.block_table
                sorted_rows, sorted_masks, sorted_blocks = Matroid._block_table(m)
                assert (rows.tolist(), masks.tolist(), blocks) == (
                    sorted_rows.tolist(), sorted_masks.tolist(), sorted_blocks)
    bases = [b for b in itertools.combinations(range(14), 7) if 0 in b or {1, 2} <= set(b)]
    m = make_explicit(14, bases, trust=True)
    rows, _, blocks = m.block_table
    assert [tuple(r) for r in rows[:blocks].tolist()] == block_bases_reference(14, m.base_list)
    assert 0 < blocks < len(rows) == len(bases)


def test_a_catalog_scan_finds_the_blocks_of_each_entry_once(monkeypatch, capsys):
    """The block flags of a catalog come from its batches' base tables: one
    block table per entry, built once for the filter and the scan, and no
    per-entry search for complements."""
    built, searched = [], []

    class CountingTables(matroids_mod._BlockTables):
        @functools.cached_property
        def tables(self):
            tables = super().tables
            built.append(len(tables))
            return tables

    inner = matroids_mod._complements_found

    def counting(n, masks):
        searched.append(masks)
        return inner(n, masks)

    monkeypatch.setattr(matroids_mod, "_BlockTables", CountingTables)
    monkeypatch.setattr(matroids_mod, "_complements_found", counting)
    path = bundled_path("rank4_size8_blocks.cat")
    assert main(["scan", "--catalog", str(path), "--group", "Z4", "--predicate", "block",
                 "--range", "0..64"]) == 0
    entries = load_bundled_catalog("rank4_size8_blocks.cat")
    assert len(capsys.readouterr().out.splitlines()) == len(entries) + 2
    assert sum(built) == len(entries)
    assert searched == []

"""The isolation-scan kernel against per-labeling brute force, at every split
of a labeling index into low digits and a high block, at both ends of the
labeling index space, and the bound on scan worker processes."""

import concurrent.futures
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmb import cli
from gcmb import lab as lab_mod
from gcmb.catalog import bundled_path, load_bundled_catalog
from gcmb.errors import CapacityError
from gcmb.groups import GroupSpec
from gcmb.lab import (
    is_block_isolating,
    is_strong_block_isolating,
    isolation_scan,
    labeling_from_index,
    render_scan_report,
)
from gcmb.matroids import make_uniform

from oracles import bundled_matroids

BLOCK_CANDIDATES = [(name, m) for name, m in bundled_matroids() if m.n == 2 * m.full_rank]
DIRECT = {"block": is_block_isolating, "strong_block": is_strong_block_isolating}


def brute_scan(m, group, predicate, reduction, start, stop):
    """(checked, first isolating index) from the per-labeling predicates."""
    step = group.order if reduction == "translation" else 1
    indices = [i for i in range(start, stop) if i % step == 0]
    hits = (
        i for i in indices
        if DIRECT[predicate](m, labeling_from_index(group, m.n, i)) is not None
    )
    return len(indices), next(hits, None)


KERNEL_GROUPS = [GroupSpec.of(q) for q in (2, 3, 4, 5, 6, 16, 64, 256, 1024)] + [
    GroupSpec.of(2, 2),
    GroupSpec.of(2, 4),
    GroupSpec.of(2, 32),
]


def pools(data):
    """One to four block candidates, which may differ in n, base count and
    block count, scanned together: entries of one n share shard tables."""
    candidates = st.sampled_from(BLOCK_CANDIDATES)
    return data.draw(st.lists(candidates, min_size=1, max_size=4, unique_by=lambda c: c[0]))


def assert_lines_match(report, pool, group, predicate, reduction, start, stop):
    assert [line.matroid_id for line in report.lines] == [name for name, _ in pool]
    for (_, m), line in zip(pool, report.lines):
        checked, first = brute_scan(m, group, predicate, reduction, start, stop)
        assert (line.checked, line.isolating_index) == (checked, first)
        if first is not None:
            assert labeling_from_index(group, m.n, first).indices == line.isolating_labels


def recording_counts():
    """A patch that records (count, spans more than one high block) for each
    call of the kernel's two counts, and the list it records into."""
    seen = []

    def spy(count):
        def recording(ar, stack, tables, *sums):
            seen.append((count.__name__, tables.last > tables.first))
            return count(ar, stack, tables, *sums)

        return recording

    counts = {name: spy(getattr(lab_mod, name)) for name in ("_product_hits", "_sparse_hits")}
    return seen, patch.multiple(lab_mod, **counts)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_kernel_matches_per_labeling_predicates(data):
    """Each draw steers the cost weights onto one of three counts, at every
    order drawn: the product, with the sparse count priced out and a range
    whose one-hot table fits; the fold, with the product priced out; or the
    sparse count one high block at a time, with the product priced out, no
    weight on blocks (so L = 1) and a range across a multiple of |G|."""
    pool = pools(data)
    group = data.draw(st.sampled_from(KERNEL_GROUPS))
    order = group.order
    predicate = data.draw(st.sampled_from(["block", "strong_block"]))
    reduction = data.draw(st.sampled_from(["none", "translation"]))
    step = order if reduction == "translation" else 1
    total = order ** min(m.n for _, m in pool)
    path = data.draw(st.sampled_from(["product", "fold", "spans"]))
    weights = {
        "product": {"_COUNT_WEIGHT": 10**12},
        "fold": {"_PRODUCT_CELLS": 0},
        "spans": {"_PRODUCT_CELLS": 0, "_BLOCK_WEIGHT": 0},
    }[path]
    if path == "spans":
        boundary = order * data.draw(st.integers(1, total // order - 1))
        below = step * data.draw(st.integers(1, 4)) + data.draw(st.integers(0, step - 1))
        start = max(0, boundary - below)
        width = min(total, boundary + step * data.draw(st.integers(1, 4))) - start
    else:
        # at L = 1 the product's one-hot table, 2 |G|^2 x width cells, fills
        # at most half of its cap
        most = min(total, 48, lab_mod._PRODUCT_CELLS // (4 * order**2))
        width = data.draw(st.integers(path == "product", most))
        # index 0 labels every element with the identity: never isolating when
        # there are two blocks, so a hit from 0 on lies past the first labeling
        start = data.draw(st.one_of(st.just(0), st.integers(0, total - width)))
    # a chunk across the boundary holds its whole range
    chunk = 1 << 15 if path == "spans" else data.draw(st.sampled_from([1, 3, 7, 1 << 15]))
    # counts go a few labelings, down to one, at a time below the default, and
    # label and product batches hold a few count slices or blocks, or a single one
    cells = data.draw(st.sampled_from([1, 100, lab_mod._COUNT_CELLS]))
    batch = data.draw(st.sampled_from([1, 7, lab_mod._LABEL_CELLS]))
    seen, spies = recording_counts()
    with (
        patch.multiple(lab_mod, _COUNT_CELLS=cells, _LABEL_CELLS=batch, _SCAN_CHUNK=chunk),
        patch.multiple(lab_mod, **weights),
        spies,
    ):
        report = isolation_scan(pool, group, predicate, reduction, (start, start + width))
    assert_lines_match(report, pool, group, predicate, reduction, start, start + width)
    if lab_mod._scanned(start, start + width, step) and any(m.block_table[2] for _, m in pool):
        count = "_product_hits" if path == "product" else "_sparse_hits"
        assert {name for name, _ in seen} == {count}
        assert any(spanned for _, spanned in seen) or path != "spans"


STACK_GROUPS = [GroupSpec.of(*f) for f in [(2,), (3,), (4,), (5,), (6,), (16,), (2, 2), (2, 4)]]
# the bundled catalogs' block candidates, with and without blocks, under ids
# of their own beside the builtins
CATALOG_CANDIDATES = [
    (f"{name[:5]}:{e.id}", e.matroid())
    for name in ("rank3_size6.cat", "rank4_size8_blocks.cat")
    for e in load_bundled_catalog(name)
    if e.n == 2 * e.r
]


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_stacked_scans_match_per_labeling_predicates(data):
    """Pools of catalog entries and builtins of several ground sizes, some
    without blocks, scanned in stacks cut small, in small chunks, count
    slices and label batches.  Starts near 0 reach the first hits of many
    entries (21 to 273 over Z4-Z6 and Z2xZ4 at n = 6), so entries hit in
    the first chunk, in a later one, or never."""
    candidates = CATALOG_CANDIDATES + BLOCK_CANDIDATES
    if data.draw(st.booleans()):  # one ground size, where more entries hit in one shard
        candidates = [(name, m) for name, m in candidates if m.n == 6]
    pool = data.draw(
        st.lists(st.sampled_from(candidates), min_size=2, max_size=8, unique_by=lambda c: c[0])
    )
    group = data.draw(st.sampled_from(STACK_GROUPS))
    predicate = data.draw(st.sampled_from(["block", "strong_block"]))
    reduction = data.draw(st.sampled_from(["none", "translation"]))
    total = group.order ** min(m.n for _, m in pool)
    width = data.draw(st.integers(0, min(total, 200)))
    start = data.draw(st.one_of(
        st.just(0), st.integers(0, min(total - width, 1400)), st.integers(0, total - width)
    ))
    with (
        patch.object(lab_mod, "_SCAN_CHUNK", data.draw(st.sampled_from([1, 3, 7, 1 << 15]))),
        patch.object(lab_mod, "_COUNT_CELLS", data.draw(st.sampled_from([1, 100, 1 << 16]))),
        patch.object(lab_mod, "_LABEL_CELLS", data.draw(st.sampled_from([1, 7, 300, 1 << 18]))),
        patch.object(lab_mod, "_STACK_ROWS", data.draw(st.sampled_from([1, 40, 100, 1 << 10]))),
    ):
        report = isolation_scan(pool, group, predicate, reduction, (start, start + width))
    assert_lines_match(report, pool, group, predicate, reduction, start, start + width)


def test_a_catalog_scan_makes_one_kernel_call_per_chunk(monkeypatch, capsys):
    """The 24 entries of the rank-4 catalog, 802 rows, form one stack: a
    range of one chunk is one kernel call, not one per entry."""
    calls = []
    kernel = lab_mod._scan_chunk

    def recording(*args):
        calls.append(args[4].ids)
        return kernel(*args)

    monkeypatch.setattr(lab_mod, "_scan_chunk", recording)
    path = str(bundled_path("rank4_size8_blocks.cat"))
    code, out, err = run(capsys, "scan", "--catalog", path, "--group", "Z4", "--predicate",
                         "block", "--range", "0..4096")
    assert code == 0 and err == "" and out.endswith("summary matroids=24 checked=98304 isolating=0\n")
    assert [len(ids) for ids in calls] == [24]


SPLIT_GROUPS = [GroupSpec.of(*f) for f in [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 4), (3, 3), (2, 2, 2)]]
U48 = make_uniform(8, 4)
Z256 = GroupSpec.of(256)


def max_low(order, n):
    """The most low digits the kernel may take: q^L must stay in int64."""
    return max(low for low in range(1, n + 1) if order**low <= lab_mod._LOW_PLACE_LIMIT)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_split_matches_per_labeling_predicates(data):
    """Forces each number L of low digits, from 1 to its maximum, and either
    count, on a range that crosses at least one high-block boundary (q^L
    divides it) with partial blocks at both ends, over a pool of entries.
    U_{4,8} over Z256 has 2^64 labelings, more than q^L <= 2^62 can split
    into int64 low parts: there the high block numbers and most indices lie
    past 2^63."""
    if data.draw(st.booleans()):
        pool = pools(data)
        group = data.draw(st.sampled_from(SPLIT_GROUPS))
    else:
        pool, group = [("u48", U48)], Z256
    n = min(m.n for _, m in pool)
    predicate = data.draw(st.sampled_from(["block", "strong_block"]))
    reduction = data.draw(st.sampled_from(["none", "translation"]))
    low = data.draw(st.integers(1, max_low(group.order, n)))
    place, total = group.order**low, group.order**n
    width = data.draw(st.integers(2, min(total, 40)))
    if place < total:
        boundary = data.draw(st.integers(1, (total - 1) // place)) * place
        start = min(boundary - data.draw(st.integers(1, min(width - 1, boundary))), total - width)
    else:  # L = n: one high block holds every labeling
        start = data.draw(st.integers(0, total - width))
    chunk = data.draw(st.sampled_from([1, 3, 7, 1 << 15]))
    cells = data.draw(st.sampled_from([1, 100, lab_mod._COUNT_CELLS]))
    batch = data.draw(st.sampled_from([1, 7, lab_mod._LABEL_CELLS]))
    # the product only where its one-hot table, under 2^L |G|^2 x width cells, stays small
    product = 2**low * group.order**2 * width <= lab_mod._PRODUCT_CELLS and data.draw(st.booleans())
    check_split(pool, group, predicate, reduction, low, start, width, chunk, cells, batch, product)


def check_split(
    pool, group, predicate, reduction, low, start, width, chunk, cells, batch, product
):
    with (
        patch.object(lab_mod, "_split", lambda *args: (low, product)),
        patch.object(lab_mod, "_COUNT_CELLS", cells),
        patch.object(lab_mod, "_LABEL_CELLS", batch),
        patch.object(lab_mod, "_SCAN_CHUNK", chunk),
    ):
        report = isolation_scan(pool, group, predicate, reduction, (start, start + width))
    assert_lines_match(report, pool, group, predicate, reduction, start, start + width)


def test_entries_of_one_size_share_the_shard_tables(monkeypatch):
    """One table object per ground size, and per chunk one set of tables for
    each split that some stack picks: the four entries of n = 6 with blocks
    form one stack here, and its tables are built once."""
    made = []

    class Recording(lab_mod._ShardTables):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(lab_mod, "_ShardTables", Recording)
    pool = [(name, m) for name, m in BLOCK_CANDIDATES if m.n in (4, 6)]
    group = GroupSpec.of(5)
    report = isolation_scan(pool, group, "block", "none", (100, 600))
    assert sorted(shard.n for shard in made) == [4, 6]
    six = next(shard for shard in made if shard.n == 6)
    assert len(six._spans) == len(six._tables) == 1
    assert_lines_match(report, pool, group, "block", "none", 100, 600)


def test_least_hit_of_a_block_may_come_from_a_later_slice(k4):
    """At L = 1 over Z6, 46375..46407 spans six high blocks.  The least hit,
    46376, lies in the first block at low part 2, and a hit in the second
    block, 46381, at the lesser low part 1: both counts take blocks before
    low parts, the product within a batch of blocks and the sparse count
    one block at a time."""
    for product in (False, True):
        check_split([("k4", k4)], GroupSpec.of(6), "block", "none", 1, 46375, 33, 1 << 15, 100,
                    lab_mod._LABEL_CELLS, product)


def test_a_shard_stops_at_its_first_hit(monkeypatch, k4):
    """Over Z4 in chunks of 7, w3 hits in chunk 3 (labeling 21) and k4 in
    chunk 11 (labeling 81).  Both are scanned as one stack until w3 hits;
    w3 is then left out of the later chunks while k4 is still counted, no
    call follows k4's hit, and `checked` still counts the whole range.  k4
    is first in the smaller stack and second in the pool: its hit is still
    its own."""
    calls = []
    kernel = lab_mod._scan_chunk

    def recording(*args):
        calls.append((args[4].ids, kernel(*args)))
        return calls[-1][1]

    monkeypatch.setattr(lab_mod, "_scan_chunk", recording)
    monkeypatch.setattr(lab_mod, "_SCAN_CHUNK", 7)
    pool = [("w3", dict(BLOCK_CANDIDATES)["w3"]), ("k4", k4)]
    lines = isolation_scan(pool, GroupSpec.of(4), "block").lines
    assert [(line.checked, line.isolating_index) for line in lines] == [(4096, 21), (4096, 81)]
    both, alone = ("w3", "k4"), ("k4",)
    assert calls == (
        [(both, [None, None])] * 3 + [(both, [21, None])]
        + [(alone, [None])] * 7 + [(alone, [81])]
    )


def test_split_follows_the_cost_estimate():
    """The product costs |G|^2 per (low class, labeling), so over Z256 and
    Z1024 a chunk of U_{4,8} inside one high block folds into the sparse
    count, and one across the edge of the largest L's block, which spans two
    blocks at every L, counts sparsely one block at a time.  Over Z4 the
    product wins at a middle L: on U_{5,10}'s blocks in one chunk, and on
    the rank-4 catalog's strong-block translation scan of 0..2^16, where the
    sparse fold measured about 20 times slower than the product."""
    rows = len(U48.block_table[0])
    for order, top in [(256, 7), (1024, 6)]:  # top: the largest L, q^L <= 2^62
        shard = lab_mod._ShardTables(order, 8, 1)
        for start, spanned in [(3 * order**5 + 12, 0), (5 * order**top - 100, 1)]:
            end = start + lab_mod._SCAN_CHUNK - 1
            low, product = lab_mod._split(shard, start, end, rows, 1)
            assert not product and end // order**low - start // order**low == spanned
    u510 = make_uniform(10, 5).block_table[2]
    assert lab_mod._split(lab_mod._ShardTables(4, 10, 1), 0, (1 << 15) - 1, u510, 1) == (4, True)
    blocks = sum(e.matroid().block_table[2] for e in load_bundled_catalog("rank4_size8_blocks.cat"))
    low, product = lab_mod._split(lab_mod._ShardTables(4, 8, 4), 0, 65532, blocks, 24)
    assert product and 2 < low < 6


def test_a_stack_counts_blocks_once_and_other_bases_twice():
    """Each entry's rows come blocks first, and the counts weigh them 1 and
    the other bases 2, so that a value counts 1 only for a lone block."""
    entries = [(e.id, *e.matroid().block_table)
               for e in load_bundled_catalog("rank4_size8_blocks.cat")[:5]]
    stack = lab_mod._stack(entries)
    for (_, rows, _, blocks), a, b in zip(entries, stack.bounds, stack.bounds[1:]):
        assert stack.weights[a:b].tolist() == [1.0] * blocks + [2.0] * (len(rows) - blocks)


def test_float32_counts_are_exact_under_the_enumeration_guard():
    """A count of the product is at most twice an entry's bases, which
    LAB_ENUM_LIMIT bounds: every such integer is exact in float32."""
    assert 2 * lab_mod.LAB_ENUM_LIMIT < 2 ** (np.finfo(np.float32).nmant + 1)


U612 = make_uniform(12, 6)
Z64 = GroupSpec.of(64)
TOP = 64**12  # > 2^63: labeling indices no longer fit a C long
# digits 63 on elements 0..5 and 62 on 6..11: the block {0..5} is the only
# base whose label sum is 6 * 63 mod 64, so this labeling is isolating
NEAR_TOP_HIT = TOP - 1 - sum(64**i for i in range(6, 12))


@pytest.mark.parametrize(
    "start, stop",
    [(0, 8), (TOP - 8, TOP), (NEAR_TOP_HIT - 4, NEAR_TOP_HIT + 4), (2**63 - 4, 2**63 + 4)],
)
def test_scan_at_both_ends_of_a_wide_index_space(start, stop):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = isolation_scan([("u612", U612)], Z64, "strong_block", index_range=(start, stop))
    line = report.lines[0]
    assert (line.checked, line.isolating_index) == brute_scan(
        U612, Z64, "strong_block", "none", start, stop
    )
    if start < NEAR_TOP_HIT < stop:
        assert line.isolating_index is not None


def run(capsys, *argv):
    code = cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("start, stop", [(0, 64), (256**8 - 64, 256**8)])
def test_cli_scans_both_ends_of_a_wide_index_space(capsys, start, stop):
    code, out, err = run(
        capsys, "scan", "--builtin", "u48", "--group", "Z256",
        "--predicate", "block", "--range", f"{start}..{stop}",
    )
    assert err == ""
    assert code in (0, 2)
    assert f"matroid=u48 range={start}..{stop} checked=64 " in out
    library = isolation_scan(
        [("u48", make_uniform(8, 4))], GroupSpec.of(256), "block", index_range=(start, stop)
    )
    assert out == render_scan_report(library)


def test_oversized_group_is_a_capacity_error(capsys):
    with pytest.raises(CapacityError, match="4096"):
        isolation_scan([("u24", make_uniform(4, 2))], GroupSpec.of(4097), "block")
    code, out, err = run(capsys, "scan", "--builtin", "u24", "--group", "Z4097")
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "4096" in err and "Traceback" not in err


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers, runs in-process."""

    created: list[int] = []

    def __init__(self, max_workers):
        RecordingExecutor.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


@pytest.mark.parametrize(
    "jobs, cpus, index_range, workers",
    [
        (10**6, 3, None, [3]),  # capped by the CPU count
        (2, 8, None, [2]),  # capped by --jobs
        (8, 8, (0, 2), [2]),  # capped by the task count
        (1, 8, None, []),  # one job runs in-process
    ],
)
def test_scan_workers_are_clamped(monkeypatch, k4, jobs, cpus, index_range, workers):
    Z3 = GroupSpec.of(3)
    expected = render_scan_report(
        isolation_scan([("mk4", k4)], Z3, "strong_block", index_range=index_range)
    )
    RecordingExecutor.created = []
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(lab_mod.os, "cpu_count", lambda: cpus)
    report = isolation_scan(
        [("mk4", k4)], Z3, "strong_block", index_range=index_range, jobs=jobs
    )
    assert RecordingExecutor.created == workers
    assert render_scan_report(report) == expected

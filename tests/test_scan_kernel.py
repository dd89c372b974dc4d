"""The isolation-scan kernel against per-labeling brute force, at every split
of a labeling index into low digits and a high block, at both ends of the
labeling index space, and the bound on scan worker processes."""

import concurrent.futures
import warnings
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcmb import cli
from gcmb import lab as lab_mod
from gcmb.catalog import load_bundled_catalog
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


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_kernel_matches_per_labeling_predicates(data):
    pool = pools(data)
    group = data.draw(st.sampled_from(KERNEL_GROUPS))
    predicate = data.draw(st.sampled_from(["block", "strong_block"]))
    reduction = data.draw(st.sampled_from(["none", "translation"]))
    total = group.order ** min(m.n for _, m in pool)
    width = data.draw(st.integers(0, min(total, 48)))
    # index 0 labels every element with the identity: never isolating when
    # there are two blocks, so a hit from 0 on lies past the first labeling
    start = data.draw(st.one_of(st.just(0), st.integers(0, total - width)))
    chunk = data.draw(st.sampled_from([1, 3, 7, 1 << 15]))
    # counts go a few labelings, down to one, at a time below the default, and
    # label batches hold a few count slices or a single one
    cells = data.draw(st.sampled_from([1, 100, lab_mod._COUNT_CELLS]))
    batch = data.draw(st.sampled_from([1, 7, lab_mod._LABEL_CELLS]))
    with (
        patch.object(lab_mod, "_COUNT_CELLS", cells),
        patch.object(lab_mod, "_LABEL_CELLS", batch),
        patch.object(lab_mod, "_SCAN_CHUNK", chunk),
    ):
        report = isolation_scan(pool, group, predicate, reduction, (start, start + width))
    assert_lines_match(report, pool, group, predicate, reduction, start, start + width)


SPLIT_GROUPS = [GroupSpec.of(*f) for f in [(2,), (3,), (4,), (5,), (6,), (2, 2), (2, 4), (3, 3), (2, 2, 2)]]
U48 = make_uniform(8, 4)
Z256 = GroupSpec.of(256)


def max_low(order, n):
    """The most low digits the kernel may take: q^L must stay in int64."""
    return max(low for low in range(1, n + 1) if order**low <= lab_mod._LOW_PLACE_LIMIT)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_split_matches_per_labeling_predicates(data):
    """Forces each number L of low digits, from 1 to its maximum, on a range
    that crosses at least one high-block boundary (q^L divides it) with
    partial blocks at both ends, over a pool of entries.  U_{4,8} over Z256
    has 2^64 labelings, more than q^L <= 2^62 can split into int64 low parts:
    there the high block numbers and most indices lie past 2^63."""
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
    check_split(pool, group, predicate, reduction, low, start, width, chunk, cells, batch)


def check_split(
    pool, group, predicate, reduction, low, start, width, chunk, cells, batch=lab_mod._LABEL_CELLS
):
    with (
        patch.object(lab_mod, "_split", lambda *args: low),
        patch.object(lab_mod, "_COUNT_CELLS", cells),
        patch.object(lab_mod, "_LABEL_CELLS", batch),
        patch.object(lab_mod, "_SCAN_CHUNK", chunk),
    ):
        report = isolation_scan(pool, group, predicate, reduction, (start, start + width))
    assert_lines_match(report, pool, group, predicate, reduction, start, start + width)


def test_entries_of_one_size_share_the_shard_tables(monkeypatch):
    """One table object per ground size, and per chunk one set of tables for
    each split that some entry picks: the four entries of n = 6 with blocks
    all pick one split here, and its tables are built once."""
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
    """Slices ascend over the low parts and count every high block at once:
    the slice of low part 1 finds a hit in the second block (46381), and the
    later slice of low part 2 a lesser one in the first block (46376)."""
    check_split([("k4", k4)], GroupSpec.of(6), "block", "none", 1, 46375, 33, 1 << 15, 100)


def test_a_shard_stops_at_its_first_hit(monkeypatch, k4):
    """No kernel call follows the chunk that hits, and `checked` still counts
    the whole range."""
    hits = []
    kernel = lab_mod._scan_chunk

    def counting(*args):
        hits.append(kernel(*args))
        return hits[-1]

    monkeypatch.setattr(lab_mod, "_scan_chunk", counting)
    monkeypatch.setattr(lab_mod, "_SCAN_CHUNK", 7)
    line = isolation_scan([("k4", k4)], GroupSpec.of(4), "block").lines[0]
    assert (line.checked, line.isolating_index) == (4096, 81)
    assert hits[-1] == 81 and hits[:-1] == [None] * (len(hits) - 1)


def test_split_follows_the_cost_estimate():
    """Over a large group the kernel keeps a chunk inside one high block and
    folds; over a small group the estimate prefers shifted class histograms
    across blocks, since 70 bases outweigh 4 values times a few classes.
    Over Z16 the fold's dense count, two bincounts of 16 values per
    labeling, outweighs the sparse count of 16 blocks: every chunk of a
    strong-block scan of such a catalog entry over 5 * 2^20..6 * 2^20 splits."""
    classes = lab_mod._scan_bases(8, *U48.block_table[:2]).classes
    for order, folds in [(64, True), (4, False)]:
        start = 3 * order**5 + 12
        end = start + (1 << 15) - 1
        spans = lab_mod._ShardTables(order, 8, 1).spans(start, end)
        place = order ** lab_mod._split(order, spans, len(U48.bases()), classes)
        assert (start // place == end // place) == folds
    m = next(e.matroid() for e in load_bundled_catalog("rank4_size8_blocks.cat")
             if e.matroid().block_table[2] == 16)
    rows, masks, blocks = m.block_table
    classes = lab_mod._scan_bases(8, rows[:blocks], masks[:blocks]).classes
    tables = lab_mod._ShardTables(16, 8, 1)
    for start in range(5 << 20, 6 << 20, lab_mod._SCAN_CHUNK):
        end = start + lab_mod._SCAN_CHUNK - 1
        place = 16 ** lab_mod._split(16, tables.spans(start, end), blocks, classes)
        assert start // place < end // place


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

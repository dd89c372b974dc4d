"""Every refusal of the package, one input each: the CLI ends in exit 1 and
one `error:` line, and a file, constructor or library call raises its own
error class with its own message."""

import errno
import os

import pytest

from gcmb.catalog import parse_indicator_file
from gcmb.cli import main
from gcmb.errors import ParseError, UsageError, quote
from gcmb.groups import GroupElement, GroupSpec
from gcmb.intersection import min_weight_common_base
from gcmb.lab import (
    check_strongly_k_close,
    isolation_scan,
    label_image,
    merge_scan_reports,
    parse_scan_report,
)
from gcmb.matroids import (
    delete,
    find_exchange,
    is_k_replaceable,
    make_linear,
    make_partition,
    make_uniform,
    parse_matroid,
)
from gcmb.solver import Labeling, Signature, base_with_signature, find_optimum_base, solve_enum

Z3, Z4 = GroupSpec.of(3), GroupSpec.of(4)
LABELS = Labeling.from_indices(Z3, [0, 1, 2, 0, 1, 2])
SHORT = Labeling.from_indices(Z3, [0] * 5)
STAR, RIM = (0, 1, 2), (3, 4, 5)  # the spokes of k4 are a base, its rim a triangle
NINES = "9" * 4000  # a value of 13288 bits
HUGE = "9" * 5000  # past the 4300 digits that int() reads and str() writes
BIG = 10**5000  # a value of 16610 bits
HUGE_RANGE = f"matroid=x range=0..{HUGE} checked=9 verdict=none example=- labels=-"


def shard(group: str, reduction: str = "none") -> str:
    return f"# gcmb scan group={group} predicate=block reduction={reduction} seed=0\n"


#: Files a CLI case names by their keys, as {m} or {z3}.
FILES = {"m": "matroid uniform\nn 4\nr 2\n", "z3": shard("Z3"), "z4": shard("Z4"),
         "z5000": shard("Z5000"),
         "huge_range": shard("Z3") + HUGE_RANGE + "\n",
         "huge_seed": shard("Z3").replace("seed=0", f"seed={HUGE}"),
         "huge_n": f"x {HUGE} 2 0,1;0,2\n"}
DIGITS_PAST = "of 5000 digits exceeds the limit of 4300 digits (INTEGER_DIGITS_LIMIT)"
LONG_PATH = "x" * 5000  # one path component past any file system's name limit
K4_Z4 = ["scan", "--builtin", "k4", "--group", "Z4"]


@pytest.mark.parametrize("argv, message", [
    pytest.param(["solve", "--builtin", "k4", "--matroid", "{m}", "--group", "Z3", "--target", "0"],
                 "pass either --builtin or --matroid, not both", id="builtin-and-matroid"),
    pytest.param(["solve", "--group", "Z3", "--target", "0"],
                 "an instance is required: --builtin NAME or --matroid PATH", id="no-instance"),
    pytest.param(["solve", "--matroid", "{m}", "--target", "0"],
                 "--group is required with --matroid", id="matroid-without-group"),
    pytest.param(["solve", "--builtin", "k4", "--group", "Z1", "--target", "0"],
                 "a labeling is required: pass --labels (no default labels)", id="no-labeling"),
    pytest.param(["verify", "--builtin", "k4"], "--k is required for verify",
                 id="verify-without-k"),
    pytest.param(["scan", "--builtin", "k4"], "--group is required for scan",
                 id="scan-without-group"),
    pytest.param(["scan", "--group", "Z4"], "scan needs --catalog PATH or --builtin NAME",
                 id="scan-without-pool"),
    pytest.param(["scan", "--merge", "{z3}", "{z4}"],
                 "cannot merge scan reports with different parameters", id="merge-two-groups"),
    pytest.param([*K4_Z4, "--range=-" + NINES + "..3"],
                 "scan range negative start of 13288 bits outside [0, 4096) for k4",
                 id="huge-negative-start"),
    pytest.param([*K4_Z4, "--range=0.." + NINES],
                 "scan range end of 13288 bits outside [0, 4096) for k4", id="huge-end"),
    pytest.param([*K4_Z4, "--range", "5..5000"], "scan range 5..5000 outside [0, 4096) for k4",
                 id="range-past-the-end"),
    pytest.param([*K4_Z4, "--range", "0.." + HUGE], f"scan range end {DIGITS_PAST}",
                 id="range-end-digits"),
    pytest.param(["scan", "--merge", "{huge_range}"],
                 f"line 2: bad scan report line {quote(HUGE_RANGE)}: 'range' {DIGITS_PAST}",
                 id="shard-range-digits"),
    pytest.param(["scan", "--merge", "{huge_seed}"],
                 f"line 1: bad scan report line {quote(FILES['huge_seed'].strip())}: "
                 f"'seed' {DIGITS_PAST}", id="shard-seed-digits"),
    pytest.param(["scan", "--merge", "{z5000}"],
                 f"line 1: bad scan report line {quote(shard('Z5000').strip())}: "
                 "group order 5000 exceeds the limit |G| <= 4096 (GROUP_TABLE_LIMIT)",
                 id="shard-group-order"),
    pytest.param(["scan", "--catalog", "{huge_n}", "--group", "Z3"],
                 f"line 1: entry 'x': 'n' {DIGITS_PAST}", id="catalog-n-digits"),
    pytest.param(["bases", "--matroid", LONG_PATH],
                 f"[Errno {errno.ENAMETOOLONG}] {os.strerror(errno.ENAMETOOLONG)}: "
                 f"{quote(LONG_PATH)}", id="long-path"),
    pytest.param(["bases", "--matroid", "no-such.mat"],
                 f"[Errno {errno.ENOENT}] {os.strerror(errno.ENOENT)}: 'no-such.mat'",
                 id="missing-path"),
])
def test_cli_refusal(capsys, tmp_path, argv, message):
    paths = {name: tmp_path / name for name in FILES}
    for name, path in paths.items():
        path.write_text(FILES[name])
    assert main([arg.format(**paths) for arg in argv]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("call, error, message", [
    # files
    pytest.param(lambda k4: parse_matroid("matroid explicit\nn 2\nbase 0 x\n"), ParseError,
                 "line 3: base lines need integer indices", id="base-line-token"),
    pytest.param(lambda k4: parse_matroid(f"matroid explicit\nn 2\nbase 0 {HUGE}\n"), ParseError,
                 f"line 3: base index {DIGITS_PAST}", id="base-line-digits"),
    pytest.param(lambda k4: parse_matroid(f"matroid linear\nfield 3\nrows 1\n1 {HUGE} 0\n"),
                 ParseError, f"line 4: matrix entry {DIGITS_PAST}", id="matrix-entry-digits"),
    pytest.param(lambda k4: parse_matroid("matroid linear\nfield 3\nrows 2\n1 1\n"), ParseError,
                 "expected '2' matrix rows, got 1", id="linear-rows-missing"),
    pytest.param(lambda k4: list(parse_indicator_file("n x\nr 2\n")), ParseError,
                 "line 1: bad header value 'x'", id="indicator-header"),
    pytest.param(lambda k4: parse_scan_report(shard("Z3", "foo")), ParseError,
                 "line 1: bad scan report line "
                 "'# gcmb scan group=Z3 predicate=block reduction=foo seed=0': "
                 "unknown reduction 'foo'", id="shard-reduction"),
    # constructors
    pytest.param(lambda k4: GroupSpec((1,)), UsageError, "invariant factor must be >= 2, got 1",
                 id="group-factor"),
    pytest.param(lambda k4: GroupElement(Z3, (0, 0)), UsageError,
                 "residue vector (0, 0) does not match Z3", id="element-length"),
    pytest.param(lambda k4: GroupElement(Z3, (3,)), UsageError, "residue 3 not reduced modulo 3",
                 id="element-unreduced"),
    pytest.param(lambda k4: make_linear([], 3), UsageError,
                 "linear matroid needs at least one matrix row", id="linear-empty"),
    pytest.param(lambda k4: make_linear([[1, 0], [1]], 3), UsageError,
                 "matrix rows must all have the same length", id="linear-ragged"),
    pytest.param(lambda k4: make_partition([[0, 1]], [1, 1]), UsageError,
                 "one capacity per class is required", id="partition-capacities"),
    pytest.param(lambda k4: make_partition([[0, 1], [1, 2]], [1, 1]), UsageError,
                 "partition classes must be disjoint", id="partition-overlap"),
    pytest.param(lambda k4: make_partition([[0], [2]], [1, 1]), UsageError,
                 "partition classes must cover 0..n-1 without gaps", id="partition-gap"),
    pytest.param(lambda k4: make_partition([[0, 1]], [3]), UsageError,
                 "capacity 3 outside [0, 2] for class of size 2", id="partition-capacity"),
    pytest.param(lambda k4: delete(k4, [k4.n]), UsageError,
                 "cannot delete 6: outside parent ground set", id="delete-outside"),
    pytest.param(lambda k4: Labeling(Z3, (0, 3)), UsageError, "element index 3 out of range for Z3",
                 id="labeling-index"),
    pytest.param(lambda k4: Signature(Z3, (1, 1)), UsageError,
                 "signature needs one count per group element", id="signature-length"),
    pytest.param(lambda k4: Signature(Z3, (2, -1, 2)), UsageError,
                 "signature counts must be nonnegative", id="signature-negative"),
    # library calls
    pytest.param(lambda k4: solve_enum(k4, SHORT, 0), UsageError,
                 "labeling covers 5 elements, matroid has 6", id="solve-labeling-size"),
    pytest.param(lambda k4: label_image(k4, SHORT), UsageError,
                 "labeling covers 5 elements, matroid has 6", id="image-labeling-size"),
    pytest.param(lambda k4: base_with_signature(k4, SHORT, Signature(Z3, (1, 1, 1))), UsageError,
                 "labeling covers 5 elements, matroid has 6", id="signature-labeling-size"),
    pytest.param(lambda k4: base_with_signature(k4, LABELS, Signature(Z4, (3, 0, 0, 0))),
                 UsageError, "signature and labeling use different groups", id="signature-group"),
    pytest.param(lambda k4: find_optimum_base(k4, [0] * 5), UsageError, "need 6 weights, got 5",
                 id="optimum-weights"),
    pytest.param(lambda k4: check_strongly_k_close(k4, LABELS, [0] * 5, 1), UsageError,
                 "need 6 weights, got 5", id="strong-closeness-weights"),
    pytest.param(lambda k4: min_weight_common_base(k4, k4, [0] * 5), UsageError,
                 "need 6 weights, got 5", id="common-base-weights"),
    pytest.param(lambda k4: min_weight_common_base(k4, make_uniform(5, 2), [0] * 6), UsageError,
                 "ground sets differ: 6 vs 5 elements", id="common-base-ground-sets"),
    pytest.param(lambda k4: isolation_scan([("k4", k4)], Z3, "foo"), UsageError,
                 "unknown predicate 'foo'", id="scan-predicate"),
    pytest.param(lambda k4: isolation_scan([("k4", k4)], Z3, "block", "foo"), UsageError,
                 "unknown reduction 'foo'", id="scan-reduction"),
    pytest.param(lambda k4: merge_scan_reports([]), UsageError, "nothing to merge",
                 id="merge-nothing"),
    pytest.param(lambda k4: find_exchange(k4, (0, 1), (), (), 0), UsageError,
                 "first argument must be a base", id="exchange-base"),
    pytest.param(lambda k4: find_exchange(k4, STAR, (5,), (), 0), UsageError,
                 "A1 must be a subset of the base", id="exchange-a1"),
    pytest.param(lambda k4: find_exchange(k4, STAR, (), (2, 5), 0), UsageError,
                 "B1 must be disjoint from the base", id="exchange-b1-disjoint"),
    pytest.param(lambda k4: find_exchange(k4, STAR, (), RIM, 0), UsageError,
                 "B1 must be independent", id="exchange-b1-independent"),
    pytest.param(lambda k4: find_exchange(k4, STAR, (0,), (5,), -1), UsageError,
                 "exchange size must be nonnegative, got -1", id="exchange-size"),
    pytest.param(lambda k4: is_k_replaceable(k4, STAR, RIM, 1), UsageError,
                 "both arguments must be bases", id="replaceable-bases"),
    # library calls with a value past the 4300 digits that str() writes
    pytest.param(lambda k4: Labeling.from_indices(Z3, [BIG]), UsageError,
                 "element index of 16610 bits out of range for Z3", id="labeling-index-huge"),
    pytest.param(lambda k4: Z3.element_at(BIG), UsageError,
                 "element index of 16610 bits out of range for Z3", id="element-at-huge"),
    pytest.param(lambda k4: solve_enum(k4, LABELS, BIG), UsageError,
                 "target index of 16610 bits out of range for Z3", id="target-huge"),
    pytest.param(lambda k4: delete(make_uniform(2, 1), [BIG]), UsageError,
                 "cannot delete an element of 16610 bits: outside parent ground set",
                 id="delete-huge"),
    pytest.param(lambda k4: make_uniform(3, BIG), UsageError,
                 "uniform matroid needs 0 <= r <= n, got r=a value of 16610 bits, n='3'",
                 id="uniform-rank-huge"),
    pytest.param(lambda k4: find_exchange(make_uniform(2, 1), (0,), (0,), (1,), -BIG),
                 UsageError,
                 "exchange size must be nonnegative, got a negative value of 16610 bits",
                 id="exchange-size-huge"),
    pytest.param(lambda k4: make_partition([[0, 1]], [BIG]), UsageError,
                 "capacity of 16610 bits outside [0, 2] for class of size 2",
                 id="partition-capacity-huge"),
    pytest.param(lambda k4: GroupElement(Z3, (BIG,)), UsageError,
                 "residue of 16610 bits not reduced modulo 3", id="element-residue-huge"),
])
def test_refusal(k4, call, error, message):
    with pytest.raises(error) as info:
        call(k4)
    assert type(info.value) is error and str(info.value) == message

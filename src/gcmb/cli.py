"""Command-line surface: solve, verify, scan, check-ss, catalog, bases.

Exit codes: 0 success (feasible / ok / nothing found), 1 error (usage
errors included), 2 negative result (infeasible target, closeness witness,
isolating labeling found), 3 label-image inequality violated.  All
randomness flows from --seed and is recorded in report headers; --jobs never
changes output bytes.
"""

from __future__ import annotations

import argparse
import functools
import random
import sys
from typing import Iterable, Optional, Sequence

from . import catalog as catalog_mod
from . import lab as lab_mod
from .errors import CapacityError, GcmbError, UsageError, magnitude, quote, read_text
from .groups import GroupSpec
from .matroids import Matroid, load_matroid
from .solver import (
    Labeling,
    load_labeling,
    load_weights,
    solve_enum,
    solve_proximity,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NEGATIVE = 2
EXIT_SS_VIOLATION = 3

#: Most labelings `check-ss --random` checks in one run.
RANDOM_LABELINGS_LIMIT = 100_000


def _emit(text: str, out_path: Optional[str]) -> None:
    sys.stdout.write(text)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _builtin(name: str) -> catalog_mod.BuiltinInstance:
    if name not in catalog_mod.BUILTINS:
        known = ", ".join(sorted(catalog_mod.BUILTINS))
        raise UsageError(f"unknown builtin {quote(name)}; known: {known}")
    return catalog_mod.BUILTINS[name]()


def _load_instance(args) -> tuple[str, Matroid, Optional[GroupSpec], Optional[Labeling]]:
    """Resolve --builtin/--matroid plus --group/--labels, which `bases` does not take."""
    if args.builtin and args.matroid:
        raise UsageError("pass either --builtin or --matroid, not both")
    if args.builtin:
        if getattr(args, "trust", False):
            raise UsageError("--trust applies to --matroid files only, not --builtin")
        inst = _builtin(args.builtin)
        group = GroupSpec.parse(args.group) if getattr(args, "group", None) else inst.group
        if getattr(args, "labels", None):
            labeling = load_labeling(args.labels, group, inst.matroid.n)
        elif group == inst.group:
            labeling = inst.labeling
        else:
            labeling = None  # default labeling lives in the builtin's own group
        return args.builtin, inst.matroid, group, labeling
    if not args.matroid:
        raise UsageError("an instance is required: --builtin NAME or --matroid PATH")
    matroid = load_matroid(args.matroid, trust=getattr(args, "trust", False))
    if "group" not in args:
        return args.matroid, matroid, None, None
    if not args.group:
        raise UsageError("--group is required with --matroid")
    group = GroupSpec.parse(args.group)
    labeling = None
    if getattr(args, "labels", None):
        labeling = load_labeling(args.labels, group, matroid.n)
    return args.matroid, matroid, group, labeling


def _require_labeling(labeling: Optional[Labeling]) -> Labeling:
    if labeling is None:
        raise UsageError("a labeling is required: pass --labels (no default labels)")
    return labeling


def cmd_solve(args) -> int:
    name, matroid, group, labeling = _load_instance(args)
    labeling = _require_labeling(labeling)
    if args.target is None:
        raise UsageError("--target is required for solve")
    target = group.parse_index(args.target)
    weights = load_weights(args.weights, matroid.n) if args.weights else None
    if args.mode == "enum":
        if args.k is not None or args.heuristic is not None:
            flag = "--k" if args.k is not None else "--heuristic" if args.heuristic else "--certified"
            raise UsageError(f"{flag} applies to --mode proximity only, not --mode enum")
        result = solve_enum(matroid, labeling, target, weights)
        k_text = "-"
    else:
        k = args.k if args.k is not None else group.order - 1
        mode = "heuristic" if args.heuristic else "certified_only"
        result = solve_proximity(matroid, labeling, target, k, weights, mode)
        k_text = str(k)
    target_text = str(group.element_at(target))
    lines = [
        f"# gcmb solve matroid={name} group={group} target={target_text} "
        f"mode={args.mode} k={k_text} seed={args.seed}"
    ]
    base_text = ",".join(map(str, result.base)) if result.base else "-"
    label_text = target_text if result.feasible else "-"
    weight_text = str(result.weight) if result.weight is not None else "-"
    lines.append(
        f"status={result.status} base={base_text} label={label_text} "
        f"weight={weight_text} certified={'yes' if result.certified else 'no'} "
        f"signatures={result.stats.signatures} candidates={result.stats.candidates} "
        f"intersections={result.stats.intersections} "
        f"oracle-calls={result.stats.oracle_calls}"
    )
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK if result.feasible else EXIT_NEGATIVE


def cmd_verify(args) -> int:
    name, matroid, group, labeling = _load_instance(args)
    labeling = _require_labeling(labeling)
    if args.k is None:
        raise UsageError("--k is required for verify")
    strong = args.weights is not None
    header = (
        f"# gcmb verify matroid={name} group={group} k={args.k} "
        f"strong={'yes' if strong else 'no'} seed={args.seed}"
    )
    if strong:
        weights = load_weights(args.weights, matroid.n)
        witness = lab_mod.check_strongly_k_close(matroid, labeling, weights, args.k)
    else:
        witness = lab_mod.check_k_close(matroid, labeling, args.k)
    lines = [header]
    if witness is None:
        lines.append("verdict=ok")
        _emit("\n".join(lines) + "\n", args.out)
        return EXIT_OK
    lines.append(f"verdict=witness {witness.describe()}")
    reduced = lab_mod.reduce_witness(witness)
    lines.append(f"reduced n={reduced.matroid.n} {reduced.describe()}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_NEGATIVE


def _parse_range(text: Optional[str]) -> Optional[tuple[int, int]]:
    if text is None:
        return None
    try:
        lo, hi = text.split("..")
        start, stop = int(lo), int(hi)
    except ValueError:
        raise UsageError(f"bad range {quote(text)}; expected 'a..b'") from None
    if stop < start:
        raise UsageError(f"bad range {quote(text)}; expected 'a..b' with a <= b")
    return start, stop


def cmd_scan(args) -> int:
    if args.merge:
        for name in ("catalog", "builtin", "group", "predicate", "reduction", "range", "lenient"):
            if getattr(args, name):
                raise UsageError(f"pass either --merge or --{name}, not both")
        merged = lab_mod.merge_scan_reports([read_text(path) for path in args.merge])
        _emit(merged, args.out)
        return EXIT_NEGATIVE if "verdict=isolating" in merged else EXIT_OK
    predicate = lab_mod.PREDICATE_FROM_NAME[args.predicate or "strong-block"]
    if not args.group:
        raise UsageError("--group is required for scan")
    group = GroupSpec.parse(args.group)
    pool: list[tuple[str, Matroid]] = []
    if args.catalog and args.builtin:
        raise UsageError("pass either --catalog or --builtin, not both")
    if args.catalog:
        entries = _catalog_entries(catalog_mod.load_catalog, args.catalog, args.lenient)
        pool = [(e.id, e.matroid()) for e in catalog_mod.filter_blocks(entries)]
        if not pool:
            raise UsageError("no block matroids in the catalog")
    elif args.builtin:
        pool = [(args.builtin, _builtin(args.builtin).matroid)]
    else:
        raise UsageError("scan needs --catalog PATH or --builtin NAME")
    report = lab_mod.isolation_scan(
        pool,
        group,
        predicate,
        reduction=args.reduction or "none",
        index_range=_parse_range(args.range),
        jobs=args.jobs,
        seed=args.seed,
    )
    text = lab_mod.render_scan_report(report)
    _emit(text, args.out)
    return EXIT_NEGATIVE if report.isolating_count else EXIT_OK


def cmd_check_ss(args) -> int:
    if args.random is not None and args.labels:
        raise UsageError("pass either --labels or --random, not both")
    name, matroid, group, labeling = _load_instance(args)
    lines = [f"# gcmb check-ss matroid={name} group={group} seed={args.seed}"]
    labelings: Iterable[tuple[str, Labeling]]
    if args.random is not None:
        if args.random < 1:
            raise UsageError(f"--random must be at least 1, got {args.random}")
        if args.random > RANDOM_LABELINGS_LIMIT:
            raise CapacityError(f"--random {magnitude(args.random)} exceeds the limit N <= "
                                f"{RANDOM_LABELINGS_LIMIT} (RANDOM_LABELINGS_LIMIT)")
        rng = random.Random(args.seed)
        labelings = (
            (f"random-{i}", lab_mod.random_labeling(rng, group, matroid.n))
            for i in range(args.random)
        )
    else:
        labelings = [("given", _require_labeling(labeling))]
    checked = violations = 0
    for source, lab in labelings:
        report = lab_mod.check_schrijver_seymour(matroid, lab)
        holds = "yes" if report.holds else "no"
        lines.append(
            f"labeling={source} image={report.image_size} "
            f"stabilizer={report.stabilizer.bit_count()} cosets={report.num_cosets} "
            f"rank-sum={report.rank_sum} bound={report.bound} holds={holds}"
        )
        checked += 1
        if not report.holds:
            violations += 1
    lines.append(f"summary checked={checked} violations={violations}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_SS_VIOLATION if violations else EXIT_OK


def _catalog_entries(read, path, lenient: bool) -> list[catalog_mod.CatalogEntry]:
    """The entries `read` takes from a file; `lenient` skips and reports bad lines."""
    problems: list[tuple[int, str]] = []
    entries = list(read(path, lenient=lenient, problems=problems))
    for lineno, reason in problems:
        sys.stderr.write(f"skipped line {lineno}: {reason}\n")
    return entries


def cmd_catalog(args) -> int:
    if args.catalog_command == "import":
        entries = _catalog_entries(catalog_mod.import_indicator_file, args.input, args.lenient)
    else:  # filter-blocks
        entries = _catalog_entries(catalog_mod.load_catalog, args.input, args.lenient)
        entries = list(catalog_mod.filter_blocks(entries))
    _emit("".join(catalog_mod.format_entry(e) + "\n" for e in entries), args.out)
    return EXIT_OK


def cmd_bases(args) -> int:
    name, matroid, _, _ = _load_instance(args)
    listing = matroid.bases()
    lines = [f"# gcmb bases matroid={name} n={matroid.n} r={matroid.full_rank}"]
    lines.extend(",".join(map(str, b)) for b in listing)
    lines.append(f"summary bases={len(listing)}")
    _emit("\n".join(lines) + "\n", args.out)
    return EXIT_OK


def _add_instance_flags(parser, grouped=True) -> None:
    parser.add_argument("--matroid", help="matroid file path")
    parser.add_argument("--builtin", help="builtin instance name (see README)")
    if grouped:
        parser.add_argument("--group", help="group spec string, e.g. Z4 or Z2xZ2")
        parser.add_argument("--labels", help="labeling file path")
    parser.add_argument("--trust", action="store_true", help="skip validation of large explicit matroids")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise UsageError, so that they
    exit 1, not 2, the negative result.  Subparsers are of the same class."""

    def error(self, message: str):
        if len(message) > 300:  # argparse quotes a bad token whole, however long
            message = f"{message[:300]}... ({len(message)} characters)"
        raise UsageError(f"{self.prog}: {message}")


@functools.cache  # parsing leaves the tree unchanged, so one build serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="gcmb",
        description="Group-constrained matroid base solvers and verification lab",
    )
    parser.add_argument("--seed", type=int, help="seed for all randomness (default 0)")
    parser.add_argument("--jobs", type=int, help="parallel workers for scans (default 1)")
    parser.add_argument("--out", help="also write the report to this file")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="find a base with a target label sum")
    _add_instance_flags(p_solve)
    p_solve.add_argument("--weights", help="weight file (optimization variant)")
    p_solve.add_argument("--target", help="target group element, e.g. 0 or 1,1")
    p_solve.add_argument("--mode", choices=["enum", "proximity"], default="enum")
    p_solve.add_argument("--k", type=int, help="move bound for proximity mode")
    certified = p_solve.add_mutually_exclusive_group()
    certified.add_argument("--certified", dest="heuristic", action="store_false")
    certified.add_argument("--heuristic", dest="heuristic", action="store_true")
    p_solve.set_defaults(heuristic=None, func=cmd_solve)

    p_verify = sub.add_parser("verify", help="closeness check, with witness on failure")
    _add_instance_flags(p_verify)
    p_verify.add_argument("--weights", help="weight file (strong closeness variant)")
    p_verify.add_argument("--k", type=int, help="closeness bound to test")
    p_verify.set_defaults(func=cmd_verify)

    p_scan = sub.add_parser("scan", help="exhaustive isolation scan over labelings")
    p_scan.add_argument("--catalog", help="catalog file to scan (block entries only)")
    p_scan.add_argument("--builtin", help="builtin matroid to scan")
    p_scan.add_argument("--group", help="group spec string")
    p_scan.add_argument(
        "--predicate", choices=list(lab_mod.PREDICATE_FROM_NAME),
        help="default strong-block",
    )
    p_scan.add_argument("--reduction", choices=["none", "translation"], help="default none")
    p_scan.add_argument("--range", help="labeling index range a..b for sharding")
    p_scan.add_argument("--lenient", action="store_true", help="skip invalid catalog entries")
    p_scan.add_argument("--merge", nargs="+", help="merge shard reports instead of scanning")
    p_scan.set_defaults(func=cmd_scan)

    p_ss = sub.add_parser("check-ss", help="label-image cardinality inequality check")
    _add_instance_flags(p_ss)
    p_ss.add_argument("--random", type=int, help="check N seeded random labelings")
    p_ss.set_defaults(func=cmd_check_ss)

    p_cat = sub.add_parser("catalog", help="catalog conversion and filtering")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    p_import = cat_sub.add_parser("import", help="convert an indicator dataset")
    p_import.add_argument("input")
    p_import.add_argument("--lenient", action="store_true")
    p_import.set_defaults(func=cmd_catalog)
    p_filter = cat_sub.add_parser("filter-blocks", help="keep only block matroids")
    p_filter.add_argument("input")
    p_filter.add_argument("--lenient", action="store_true")
    p_filter.set_defaults(func=cmd_catalog)

    p_bases = sub.add_parser("bases", help="enumerate all bases")
    _add_instance_flags(p_bases, grouped=False)
    p_bases.set_defaults(func=cmd_bases)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in range(len(argv) - 1, 0, -1):  # argparse takes "-1..3" for an option
        if argv[i - 1] == "--range" and argv[i][:1] == "-" and argv[i][1:2].isdigit():
            argv[i - 1 : i + 1] = [f"--range={argv[i]}"]
    try:
        args = build_parser().parse_args(argv)
        for name, default in (("seed", 0), ("jobs", 1)):  # None: not given
            if getattr(args, name) is None:
                setattr(args, name, default)
            elif getattr(args, "merge", None):  # a merge takes its shards' seed, scans nothing
                raise UsageError(f"pass either --merge or --{name}, not both")
        if args.jobs < 1:
            raise UsageError(f"--jobs must be at least 1, got {args.jobs}")
        return args.func(args)
    except (GcmbError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_ERROR


if __name__ == "__main__":
    raise SystemExit(main())

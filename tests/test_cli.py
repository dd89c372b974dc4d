import math
import shlex
import time
from pathlib import Path

import pytest

from gcmb import catalog as catalog_mod
from gcmb import cli
from gcmb.catalog import bundled_path
from gcmb.cli import build_parser, main
from gcmb.errors import UsageError


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_tight4_enum(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--builtin", "tight4", "--target", "0", "--mode", "enum"
        )
        assert code == 0
        assert "status=feasible" in out
        assert "base=3,4,5" in out

    def test_tight4_proximity_same_answer(self, capsys):
        code, out, _ = run(
            capsys,
            "solve",
            "--builtin",
            "tight4",
            "--target",
            "0",
            "--mode",
            "proximity",
            "--k",
            "3",
        )
        assert code == 0
        assert "base=3,4,5" in out
        intersections = int(out.split("intersections=")[1].split()[0])
        assert intersections <= math.comb(3 + 3, 3) ** 2

    def test_infeasible_target_exit_2(self, capsys, tmp_path):
        labels = tmp_path / "l.txt"
        labels.write_text("".join(f"{e} 0\n" for e in range(4)))
        code, out, _ = run(
            capsys, "solve", "--builtin", "u24", "--labels", str(labels),
            "--target", "1",
        )
        assert code == 2
        assert "status=infeasible" in out

    @pytest.mark.parametrize("flags", [
        ["--mode", "enum", "--k", "3"], ["--mode", "enum", "--heuristic"], ["--certified"],
    ], ids=["k", "heuristic", "certified-default-mode"])
    def test_enum_mode_refuses_the_proximity_flags(self, capsys, flags):
        """Enum search takes no move bound, so these flags would go unread."""
        flag = next(f for f in flags if f in ("--k", "--heuristic", "--certified"))
        code, out, err = run(capsys, "solve", "--builtin", "tight4", "--target", "0", *flags)
        expected = f"error: {flag} applies to --mode proximity only, not --mode enum\n"
        assert (code, out, err) == (1, "", expected)

    def test_missing_target_is_error(self, capsys):
        code, _, err = run(capsys, "solve", "--builtin", "tight4")
        assert code == 1 and "target" in err

    def test_unknown_builtin(self, capsys):
        """solve and scan resolve builtins alike and list the known names."""
        known = (
            "error: unknown builtin 'nope'; known: k4, s222, s233, tight2, tight3, "
            "tight4, tight5, tight6, u12, u23, u24, u36, u48, w3\n"
        )
        code, out, err = run(capsys, "solve", "--builtin", "nope", "--target", "0")
        assert (code, out, err) == (1, "", known)
        code, out, err = run(capsys, "scan", "--builtin", "nope", "--group", "Z2")
        assert (code, out, err) == (1, "", known)

    @pytest.mark.parametrize(
        "argv",
        [["verify", "--builtin", "tight4", "--k", "3"],
         ["scan", "--builtin", "tight4", "--group", "Z2", "--range", "0..8"]],
        ids=["verify", "scan"],
    )
    def test_only_the_named_builtin_is_built(self, capsys, monkeypatch, argv):
        built = []
        for name, make in list(catalog_mod.BUILTINS.items()):
            monkeypatch.setitem(
                catalog_mod.BUILTINS, name, lambda name=name, make=make: built.append(name) or make()
            )
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert built == ["tight4"]

    @pytest.mark.parametrize("field", ["n", "r"])
    def test_integer_past_the_string_limit(self, capsys, tmp_path, field):
        """4401 digits is past the 4300 that int() converts."""
        values = {"n": "4", "r": "2", field: "1" + "0" * 4400}
        matroid, labels = tmp_path / "m.mat", tmp_path / "l.txt"
        matroid.write_text(f"matroid uniform\nn {values['n']}\nr {values['r']}\n")
        labels.write_text("0 0\n1 1\n2 1\n3 0\n")
        code, out, err = run(
            capsys, "solve", "--matroid", str(matroid), "--group", "Z2", "--labels", str(labels),
            "--target", "1",
        )
        assert (code, out) == (1, "")
        assert err == (
            f"error: '{field}' of 4401 digits exceeds the limit of 4300 digits "
            "(INTEGER_DIGITS_LIMIT)\n"
        )

    @pytest.mark.parametrize("command", ["bases", "solve"])
    def test_ground_size_past_the_limit(self, capsys, tmp_path, command):
        matroid, labels = tmp_path / "m.mat", tmp_path / "l.txt"
        matroid.write_text("matroid uniform\nn 4000000000\nr 2\n")
        labels.write_text("0 0\n1 1\n")
        extra = ["--group", "Z2", "--labels", str(labels), "--target", "1"]
        code, out, err = run(
            capsys, command, "--matroid", str(matroid), *(extra if command == "solve" else [])
        )
        assert (code, out) == (1, "")
        assert err == (
            "error: ground size n = 4000000000 exceeds the limit n <= 100000 "
            "(GROUND_SIZE_LIMIT)\n"
        )

    def test_weighted_solve(self, capsys, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("".join(f"{e} {w}\n" for e, w in enumerate([5, 1, 1, 1, 2, 2])))
        code, out, _ = run(
            capsys,
            "solve",
            "--builtin",
            "tight4",
            "--target",
            "0",
            "--weights",
            str(weights),
        )
        assert code == 0
        assert "weight=5" in out  # the zero block costs 1+2+2

    def test_proximity_refusal(self, capsys, tmp_path):
        labels = tmp_path / "l.txt"
        labels.write_text("".join(f"{e} 0\n" for e in range(6)))
        code, _, err = run(
            capsys,
            "solve",
            "--builtin",
            "u36",
            "--group",
            "Z12",
            "--labels",
            str(labels),
            "--target",
            "0",
            "--mode",
            "proximity",
            "--k",
            "11",
        )
        assert code == 1 and "not certified" in err

    def test_matroid_file_instance(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("matroid uniform\nn 4\nr 2\n")
        labels = tmp_path / "l.txt"
        labels.write_text("0 1\n1 1\n2 0\n3 0\n")
        code, out, _ = run(
            capsys,
            "solve",
            "--matroid",
            str(mat),
            "--group",
            "Z2",
            "--labels",
            str(labels),
            "--target",
            "1",
        )
        assert code == 0 and "status=feasible" in out


    @pytest.mark.parametrize(
        "mode, counts",
        [
            ((), "certified=yes signatures=20 candidates=0 intersections=1 oracle-calls=10"),
            (
                ("--mode", "proximity", "--heuristic"),
                "certified=no signatures=0 candidates=1 intersections=1 oracle-calls=16",
            ),
        ],
        ids=["enum", "proximity"],
    )
    def test_group_of_order_1000(self, capsys, tmp_path, mode, counts):
        # One fiber cap per group element: the signature walk must not
        # recurse per element.  The counts are those of the same solve over Z900.
        labels = tmp_path / "l.txt"
        labels.write_text("".join(f"{e} {e + 1}\n" for e in range(6)))
        code, out, err = run(
            capsys, "solve", "--builtin", "k4", "--group", "Z1000", "--labels", str(labels),
            "--target", "6", *mode,
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1] == f"status=feasible base=0,1,2 label=6 weight=- {counts}"

    @pytest.mark.parametrize("order", [100003, 10**18 + 3])
    def test_oversized_group_is_refused_at_once(self, capsys, tmp_path, order):
        labels = tmp_path / "l.txt"
        labels.write_text("".join(f"{e} {e + 1}\n" for e in range(6)))
        start = time.monotonic()
        code, out, err = run(
            capsys, "solve", "--builtin", "k4", "--group", f"Z{order}", "--labels", str(labels),
            "--target", "0",
        )
        assert time.monotonic() - start < 2
        assert (code, out) == (1, "")
        assert err == f"error: group order {order} exceeds the limit |G| <= 4096 (GROUP_TABLE_LIMIT)\n"

    @pytest.mark.parametrize(
        "p, shown",
        [(10**18 + 3, str(10**18 + 3)), (10**399 + 1, "of 1326 bits"),
         ("1" + "0" * 4400, "of 4401 digits")],
        ids=["19-digit", "400-digit", "4401-digit"],
    )
    def test_oversized_field_order_is_refused_at_once(self, capsys, tmp_path, p, shown):
        matroid, labels = tmp_path / "m.mat", tmp_path / "l.txt"
        matroid.write_text(f"matroid linear\nfield {p}\nrows 2\n1 0 1\n0 1 1\n")
        labels.write_text("0 0\n1 1\n2 1\n")
        start = time.monotonic()
        code, out, err = run(
            capsys, "solve", "--matroid", str(matroid), "--group", "Z2", "--labels", str(labels),
            "--target", "1",
        )
        assert time.monotonic() - start < 2
        assert (code, out) == (1, "")
        assert err == (
            f"error: field order {shown} exceeds the limit p <= 2147483648 (FIELD_ORDER_LIMIT)\n"
        )


class TestVerify:
    def test_tight4_witness_at_k2(self, capsys):
        code, out, _ = run(capsys, "verify", "--builtin", "tight4", "--k", "2")
        assert code == 2
        assert "verdict=witness distance=3" in out
        assert "reduced n=6 distance=3" in out

    def test_tight4_ok_at_k3(self, capsys):
        code, out, _ = run(capsys, "verify", "--builtin", "tight4", "--k", "3")
        assert code == 0 and "verdict=ok" in out

    def test_zero_weights_match_plain(self, capsys, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("".join(f"{e} 0\n" for e in range(6)))
        plain = run(capsys, "verify", "--builtin", "tight4", "--k", "2")
        strong = run(
            capsys, "verify", "--builtin", "tight4", "--k", "2", "--weights", str(weights)
        )
        assert plain[0] == strong[0] == 2
        assert "distance=3" in plain[1] and "distance=3" in strong[1]

    def test_negative_k_is_refused(self, capsys):
        code, out, err = run(capsys, "verify", "--builtin", "tight4", "--k", "-1")
        assert (code, out, err) == (1, "", "error: closeness bound k must be nonnegative, got -1\n")


class TestScan:
    def test_group_factor_past_the_integer_string_limit(self, capsys):
        """5000 digits is past the 4300 that int() converts; the factor is
        refused by its length first."""
        code, out, err = run(capsys, "scan", "--builtin", "k4", "--group", "Z" + "9" * 5000)
        assert (code, out) == (1, "")
        assert err == (
            "error: group order of 5000 digits exceeds the limit |G| <= 4096 (GROUP_TABLE_LIMIT)\n"
        )

    def test_k4_z3_strong_block(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--builtin", "k4", "--group", "Z3",
            "--predicate", "strong-block",
        )
        assert code == 0
        assert "checked=729" in out
        assert "isolating=0" in out

    def test_shard_merge_equals_full(self, capsys, tmp_path):
        full = tmp_path / "full.txt"
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "--out", str(full), "scan", "--builtin", "k4", "--group", "Z3")
        run(capsys, "--out", str(a), "scan", "--builtin", "k4", "--group", "Z3",
            "--range", "0..400")
        run(capsys, "--out", str(b), "scan", "--builtin", "k4", "--group", "Z3",
            "--range", "400..729")
        merged = tmp_path / "merged.txt"
        code, _, _ = run(
            capsys, "--out", str(merged), "scan", "--merge", str(a), str(b)
        )
        assert code == 0
        assert merged.read_text() == full.read_text()

    @pytest.mark.parametrize("flag, value", [
        ("--catalog", "nothing.cat"), ("--builtin", "u24"), ("--group", "Z5"),
        ("--predicate", "block"), ("--reduction", "translation"), ("--range", "0..1"),
        ("--lenient", None),
    ])
    def test_merge_refuses_the_scan_flags(self, capsys, tmp_path, flag, value):
        """A merge reads its shards' own headers, so a scan flag would go unread."""
        shard = tmp_path / "s0.txt"
        run(capsys, "--out", str(shard), "scan", "--builtin", "k4", "--group", "Z3")
        given = [flag] if value is None else [flag, value]
        code, out, err = run(capsys, "scan", "--merge", str(shard), *given)
        assert (code, out, err) == (1, "", f"error: pass either --merge or {flag}, not both\n")

    @pytest.mark.parametrize("flag, value", [("--seed", "5"), ("--seed", "0"), ("--jobs", "4")])
    def test_merge_refuses_seed_and_jobs(self, capsys, tmp_path, flag, value):
        """A merge prints its shards' seed and runs no scan, so either flag
        would go unread, even when it names the default."""
        shard = tmp_path / "s0.txt"
        run(capsys, "--out", str(shard), "scan", "--builtin", "k4", "--group", "Z3")
        code, out, err = run(capsys, flag, value, "scan", "--merge", str(shard))
        assert (code, out, err) == (1, "", f"error: pass either --merge or {flag}, not both\n")

    def test_overlapping_merge_rejected(self, capsys, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        run(capsys, "--out", str(a), "scan", "--builtin", "k4", "--group", "Z3",
            "--range", "0..400")
        run(capsys, "--out", str(b), "scan", "--builtin", "k4", "--group", "Z3",
            "--range", "300..729")
        code, _, err = run(capsys, "scan", "--merge", str(a), str(b))
        assert code == 1 and "overlap" in err

    def test_repeated_catalog_id_is_error(self, capsys, tmp_path):
        u24 = "0,1;0,2;0,3;1,2;1,3;2,3"
        cat = tmp_path / "dup.cat"
        cat.write_text(f"x 4 2 {u24}\nx 4 2 {u24}\n")
        code, out, err = run(
            capsys, "scan", "--catalog", str(cat), "--group", "Z3"
        )
        assert code == 1 and out == ""
        assert err.startswith("error:") and "'x'" in err

    @pytest.mark.parametrize(
        "reduction,line",
        [
            ("none", "matroid=mk4 range=0..9 verdict=none example=- labels=-"),
            ("none", "matroid=mk4 range=0..9 checked=9 verdict=none stray example=- labels=-"),
            ("none", "matroid=mk4 range=0-9 checked=9 verdict=none example=- labels=-"),
            ("none", "matroid=u24 range=0..9 checked=9 verdict=isolating example=3 labels=0;4"),
            ("none", "matroid=u24 range=0..9 checked=9 verdict=isolating example=3 labels=1;2"),
            ("none", "matroid=u24 range=0..3 checked=3 verdict=isolating example=3 labels=0;1"),
            ("none", "matroid=u24 range=0..20 checked=20 verdict=isolating example=9 labels=0;0"),
            ("none", "matroid=u24 range=-5..9 checked=14 verdict=none example=- labels=-"),
            ("none", "matroid=u24 range=9..5 checked=0 verdict=none example=- labels=-"),
            ("none", "matroid=u24 range=0..9 checked=8 verdict=none example=- labels=-"),
            ("translation", "matroid=u24 range=0..9 checked=9 verdict=none example=- labels=-"),
            ("translation", "matroid=u24 range=1..7 checked=3 verdict=none example=- labels=-"),
            ("translation", "matroid=u24 range=0..81 checked=27 verdict=isolating example=5 labels=2;1;0;0"),
        ],
        ids=[
            "no-checked", "no-equals", "bad-range", "unreduced-label",
            "labels-not-digits", "example-outside-range", "example-past-index-space",
            "negative-start", "stop-before-start", "checked-not-range-size",
            "checked-not-translation-count", "checked-counts-unscanned",
            "example-not-translation-step",
        ],
    )
    def test_malformed_shard_line_is_error(self, capsys, tmp_path, reduction, line):
        shard = tmp_path / "shard.txt"
        header = f"# gcmb scan group=Z3 predicate=strong-block reduction={reduction} seed=0"
        shard.write_text(f"{header}\n{line}\nsummary matroids=1 checked=9 isolating=0\n")
        code, out, err = run(capsys, "scan", "--merge", str(shard))
        assert code == 1 and out == ""
        assert err.startswith("error: line 2:") and line in err

    def test_translation_shard_counts_multiples_of_the_order(self, capsys, tmp_path):
        """Under translation only multiples of |G| are scanned: 1..7 over Z3
        holds 3 and 6, and an example must be one of them."""
        shard = tmp_path / "shard.txt"
        header = "# gcmb scan group=Z3 predicate=strong-block reduction=translation seed=0"
        line = "matroid=u24 range=1..7 checked=2 verdict=isolating example=3 labels=0;1"
        shard.write_text(f"{header}\n{line}\n")
        code, out, _ = run(capsys, "scan", "--merge", str(shard))
        assert code == 2 and line in out

    @pytest.mark.parametrize(
        "header",
        [
            "# gcmb scan group=Z3 predicate=weak-block reduction=none seed=0",
            "# gcmb scan group=Q8 predicate=block reduction=none seed=0",
        ],
        ids=["predicate", "group"],
    )
    def test_unknown_shard_header_is_error(self, capsys, tmp_path, header):
        shard = tmp_path / "shard.txt"
        shard.write_text(f"{header}\nmatroid=mk4 range=0..9 checked=9 verdict=none example=- labels=-\n")
        code, out, err = run(capsys, "scan", "--merge", str(shard))
        assert code == 1 and out == ""
        assert err.startswith("error: line 1:") and header in err

    def test_catalog_scan_filters_blocks(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--catalog", str(bundled_path("rank3_size6.cat")),
            "--group", "Z2", "--predicate", "strong-block",
        )
        assert code == 0
        assert "matroid=mk4" in out
        assert "matroid=c0u25" not in out  # not a block matroid

    def test_jobs_identical_output(self, capsys, tmp_path):
        one, eight = tmp_path / "one.txt", tmp_path / "eight.txt"
        run(capsys, "--jobs", "1", "--out", str(one), "scan", "--builtin", "k4",
            "--group", "Z3")
        run(capsys, "--jobs", "8", "--out", str(eight), "scan", "--builtin", "k4",
            "--group", "Z3")
        assert one.read_text() == eight.read_text()

    @pytest.mark.parametrize("jobs", ["-3", "0"])
    def test_jobs_must_be_positive(self, capsys, jobs):
        code, out, err = run(capsys, "--jobs", jobs, "scan", "--builtin", "u24", "--group", "Z3")
        assert (code, out, err) == (1, "", f"error: --jobs must be at least 1, got {jobs}\n")

    def test_bad_range(self, capsys):
        code, _, err = run(
            capsys, "scan", "--builtin", "k4", "--group", "Z3", "--range", "10-20"
        )
        assert code == 1 and "range" in err

    @pytest.mark.parametrize("given", [["--range", "-1..3"], ["--range=-1..3"]])
    def test_negative_range_start_names_the_range(self, capsys, given):
        """argparse takes a separate "-1..3" for an option; it must reach the
        range check all the same."""
        code, out, err = run(capsys, "scan", "--builtin", "k4", "--group", "Z4", *given)
        assert (code, out, err) == (1, "", "error: scan range -1..3 outside [0, 4096) for k4\n")

    @pytest.mark.parametrize("source", [
        ["--catalog", str(bundled_path("rank4_size8_blocks.cat"))], ["--builtin", "k4"],
    ])
    def test_reversed_range_names_the_range(self, capsys, source):
        code, out, err = run(capsys, "scan", *source, "--group", "Z4", "--range", "5..3")
        expected = "error: bad range '5..3'; expected 'a..b' with a <= b\n"
        assert (code, out, err) == (1, "", expected)

    def test_catalog_and_builtin_are_refused_together(self, capsys):
        code, out, err = run(
            capsys, "scan", "--catalog", str(bundled_path("rank3_size6.cat")),
            "--builtin", "k4", "--group", "Z2",
        )
        assert (code, out, err) == (1, "", "error: pass either --catalog or --builtin, not both\n")

    def test_isolating_found_exit_2(self, capsys):
        code, out, _ = run(
            capsys, "scan", "--builtin", "tight3", "--group", "Z3"
        )
        assert code == 2
        assert "verdict=isolating" in out


class TestCheckSs:
    def test_single_instance(self, capsys):
        code, out, _ = run(capsys, "check-ss", "--builtin", "k4")
        assert code == 0
        assert "holds=yes" in out and "violations=0" in out

    def test_random_batch(self, capsys):
        code, out, _ = run(
            capsys, "--seed", "3", "check-ss", "--builtin", "u36", "--group", "Z6",
            "--random", "10",
        )
        assert code == 0
        assert "checked=10" in out

    def test_seed_changes_batch(self, capsys):
        _, out_a, _ = run(capsys, "--seed", "1", "check-ss", "--builtin", "k4",
                          "--random", "3")
        _, out_b, _ = run(capsys, "--seed", "2", "check-ss", "--builtin", "k4",
                          "--random", "3")
        _, out_a2, _ = run(capsys, "--seed", "1", "check-ss", "--builtin", "k4",
                           "--random", "3")
        assert out_a != out_b  # with overwhelming probability
        assert out_a == out_a2


    def test_a_violated_bound_exits_3(self, capsys, monkeypatch):
        """The command looks the check up on `gcmb.lab` when it runs, where a
        tracer or this test replaces it."""
        from gcmb.lab import ImageBoundReport

        report = ImageBoundReport(image_size=1, stabilizer=0b1, num_cosets=3, rank_sum=2,
                                  bound=2, holds=False)
        checked = []
        monkeypatch.setattr("gcmb.lab.check_schrijver_seymour",
                            lambda m, labeling: checked.append((m.n, labeling.group)) or report)
        code, out, err = run(capsys, "check-ss", "--builtin", "k4", "--random", "2")
        line = "image=1 stabilizer=1 cosets=3 rank-sum=2 bound=2 holds=no"
        assert (code, err) == (3, "")
        assert out == ("# gcmb check-ss matroid=k4 group=Z3 seed=0\n"
                       f"labeling=random-0 {line}\nlabeling=random-1 {line}\n"
                       "summary checked=2 violations=2\n")
        assert [(n, str(group)) for n, group in checked] == [(6, "Z3"), (6, "Z3")]

    def test_labels_and_random_are_refused_together(self, capsys, tmp_path):
        """Random labelings replace the given one, which would go unchecked."""
        labels = tmp_path / "k4.lab"
        labels.write_text("".join(f"{e} 1\n" for e in range(6)))
        code, out, err = run(capsys, "check-ss", "--builtin", "k4", "--labels", str(labels),
                             "--random", "2")
        assert (code, out, err) == (1, "", "error: pass either --labels or --random, not both\n")

    @pytest.mark.parametrize("count", ["-3", "0"])
    def test_random_count_must_be_positive(self, capsys, count):
        code, out, err = run(capsys, "check-ss", "--builtin", "k4", "--random", count)
        assert (code, out, err) == (1, "", f"error: --random must be at least 1, got {count}\n")

    def test_random_count_past_the_limit_is_refused_at_once(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "check-ss", "--builtin", "k4", "--random", str(10**12))
        assert time.perf_counter() - start < 5
        expected = ("error: --random 1000000000000 exceeds the limit N <= 100000 "
                    "(RANDOM_LABELINGS_LIMIT)\n")
        assert (code, out, err) == (1, "", expected)
        assert cli.RANDOM_LABELINGS_LIMIT == 100_000


class TestCatalogCommands:
    def test_import_matches_bundled(self, capsys, tmp_path):
        out_file = tmp_path / "imported.cat"
        code, _, _ = run(
            capsys, "--out", str(out_file), "catalog", "import",
            str(bundled_path("rank4_size8_blocks.rlx")),
        )
        assert code == 0
        bundled = bundled_path("rank4_size8_blocks.cat").read_text()
        bundled_lines = [l for l in bundled.splitlines() if not l.startswith("#")]
        assert out_file.read_text().splitlines() == bundled_lines

    def test_filter_blocks(self, capsys, tmp_path):
        out_file = tmp_path / "blocks.cat"
        code, _, _ = run(
            capsys, "--out", str(out_file), "catalog", "filter-blocks",
            str(bundled_path("rank3_size6.cat")),
        )
        assert code == 0
        text = out_file.read_text()
        assert "mk4" in text and "c0u25" not in text


class TestBases:
    def test_u24(self, capsys):
        code, out, _ = run(capsys, "bases", "--builtin", "u24")
        assert code == 0
        assert "summary bases=6" in out

    def test_matroid_file(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("matroid uniform\nn 4\nr 2\n")
        code, out, _ = run(capsys, "bases", "--matroid", str(mat))
        assert code == 0 and "0,1" in out

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "bases", "--matroid", "/nonexistent")
        assert code == 1 and "/nonexistent" in err

    @pytest.mark.parametrize("instance", [["--builtin", "k4"], ["--matroid", "F"]])
    @pytest.mark.parametrize("flag", ["--group", "--labels"])
    def test_group_and_labels_are_refused(self, capsys, instance, flag):
        """A base list reads no labels, so a group or labeling given to it is
        refused rather than ignored."""
        code, out, err = run(capsys, "bases", *instance, flag, "Z3")
        assert (code, out) == (1, "")
        assert err == f"error: gcmb: unrecognized arguments: {flag} Z3\n"

    def test_matroid_file_needs_no_group(self, capsys, tmp_path):
        mat = tmp_path / "m.txt"
        mat.write_text("matroid uniform\nn 4\nr 2\n")
        code, out, err = run(capsys, "bases", "--matroid", str(mat))
        assert (code, err) == (0, "")
        assert out == (
            f"# gcmb bases matroid={mat} n=4 r=2\n0,1\n0,2\n0,3\n1,2\n1,3\n2,3\n"
            "summary bases=6\n"
        )


@pytest.mark.parametrize("argv", [
    ["verify", "--builtin", "tight4", "--k", "3"],
    ["solve", "--builtin", "tight4", "--target", "0"],
    ["check-ss", "--builtin", "k4"],
    ["bases", "--builtin", "u24"],
])
def test_trust_is_refused_with_a_builtin(capsys, argv):
    """`--trust` skips the validation of a matroid file; a builtin has none to skip."""
    code, out, err = run(capsys, *argv, "--trust")
    assert (code, out, err) == (1, "", "error: --trust applies to --matroid files only, not --builtin\n")


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_repeated_calls_in_one_process_repeat_the_first(capsys):
    argvs = [
        ["solve", "--builtin", "tight4", "--target", "0", "--mode", "proximity", "--k", "1",
         "--heuristic"],
        ["solve", "--builtin", "tight4", "--target", "0", "--mode", "proximity", "--k", "1"],
        ["--seed", "2", "verify", "--builtin", "tight4", "--k", "2"],
        ["scan", "--builtin", "tight3", "--group", "Z3", "--range", "0..81"],
        ["check-ss", "--builtin", "k4", "--random", "2"],
    ]
    first = [run(capsys, *argv) for argv in argvs]
    assert [code for code, _, _ in first] == [2, 1, 2, 2, 0]
    for _ in range(2):
        assert [run(capsys, *argv) for argv in argvs] == first


def test_readme_commands_parse(capsys):
    readme = Path(__file__).resolve().parents[1] / "README.md"
    lines = [ln for ln in readme.read_text(encoding="utf-8").splitlines() if ln.startswith("gcmb ")]
    assert lines
    for line in lines:
        try:
            build_parser().parse_args(shlex.split(line)[1:])
        except UsageError as exc:
            pytest.fail(f"README command does not parse: {line}\n{exc}")


@pytest.mark.parametrize("argv, message", [
    (["solve", "--builtin", "tight4", "--target", "0", "--bogus"],
     "gcmb: unrecognized arguments: --bogus"),
    (["solve", "--builtin", "tight4", "--target", "0", "--mode", "bogus"],
     "gcmb solve: argument --mode: invalid choice: 'bogus'"),
    ([], "gcmb: the following arguments are required: command"),
    (["catalog"], "gcmb catalog: the following arguments are required: catalog_command"),
])
def test_usage_errors_exit_1_not_the_negative_code(capsys, argv, message):
    """Exit 2 is a negative verdict (an infeasible target), so a typo must
    not share it.  The choices' wording differs across Python versions."""
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--help"])
    assert exc.value.code == 0
    assert "--target" in capsys.readouterr().out

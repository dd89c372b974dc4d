"""The shared input layer: oversized and malformed input ends at once in one
short error line, `--lenient` skips and reports a bad catalog line the same
way in every command, and every parser survives extreme tokens."""

import inspect
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import Verbosity, given, settings
from hypothesis import strategies as st

from gcmb.catalog import CatalogEntry, parse_catalog, parse_indicator_file
from gcmb.cli import main
from gcmb.errors import GcmbError, ParseError, UsageError, content_lines
from gcmb.groups import GroupSpec
from gcmb.lab import parse_scan_report
from gcmb.matroids import make_explicit, parse_matroid
from gcmb.solver import parse_labeling, parse_weights

MESSAGE_LIMIT = 1000
U24 = "0,1;0,2;0,3;1,2;1,3;2,3"


def run(capsys, *argv):
    start = time.perf_counter()
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err, time.perf_counter() - start


def one_line(err: str, prefix: str) -> str:
    assert err.count("\n") == 1 and err.startswith(prefix), err[:300]
    assert len(err) <= MESSAGE_LIMIT
    return err


class TestReproductions:
    """Each input ends within a second in a single short error line, or
    under --lenient in a single `skipped line`."""

    @pytest.mark.parametrize("n", [3_000_000, 30_000_000])
    @pytest.mark.parametrize("command", ["filter-blocks", "scan"])
    def test_catalog_ground_size(self, capsys, tmp_path, n, command):
        cat = tmp_path / "big.cat"
        cat.write_text(f"big {n} 1 0\n")
        reason = f"entry 'big': ground size n = {n} exceeds the limit n <= 100000 " \
                 f"(GROUND_SIZE_LIMIT)"
        for lenient in ([], ["--lenient"]):
            argv = (["catalog", "filter-blocks", *lenient, str(cat)] if command == "filter-blocks"
                    else ["scan", *lenient, "--catalog", str(cat), "--group", "Z4"])
            code, out, err, seconds = run(capsys, *argv)
            assert out == "" and seconds < 1
            if lenient:
                # scan then has no block matroid left, which is its own error
                assert err.splitlines()[0] == f"skipped line 1: {reason}"
            else:
                assert code == 1
                assert one_line(err, "error: ") == f"error: line 1: {reason}\n"

    @pytest.mark.parametrize("header", ["n -3\nr 1\n", "n 20000\nr 10000\n"])
    def test_indicator_header(self, capsys, tmp_path, header):
        rlx = tmp_path / "bad.rlx"
        rlx.write_text(header + "x 1\n")
        code, out, err, seconds = run(capsys, "catalog", "import", str(rlx))
        assert (code, out) == (1, "") and seconds < 1
        one_line(err, "error: line 3: entry 'x': header n ")
        assert "(EXPLICIT_VALIDATE_MAX" in err
        code, out, err, seconds = run(capsys, "catalog", "import", "--lenient", str(rlx))
        assert (code, out) == (0, "") and seconds < 1
        one_line(err, "skipped line 3: entry 'x': header n ")

    @pytest.mark.parametrize("text, line", [
        ("n 4\nr 2\nn 111111\n", "line 3: 'n 111111'"),
        ("n 4\nr 2\nu24 111111\nr 2\n", "line 4: 'r 2'"),
        ("n 4\nn 111111\nr 2\nu24 111111\n", "line 1: 'n 4'"),
    ])
    def test_indicator_ids_n_and_r_are_refused(self, capsys, tmp_path, text, line):
        """A line `n X` or `r X` outside an adjacent n/r pair would be an
        entry with the id n or r; it is refused, also under --lenient."""
        rlx = tmp_path / "ids.rlx"
        rlx.write_text(text)
        reason = f"{line} is not in an n/r header pair; the ids 'n' and 'r' are reserved"
        for lenient in ([], ["--lenient"]):
            code, out, err, _ = run(capsys, "catalog", "import", *lenient, str(rlx))
            assert code == 1 and err.startswith(f"error: {reason}"), err
            assert err.count("\n") == 1
        with pytest.raises(ParseError, match="reserved for headers"):
            list(parse_indicator_file(text, lenient=True))

    def test_indicator_headers_pair_in_either_order(self):
        text = "r 2\nn 4\nu24 111111\nn 3\nr 1\nu13 111\n"
        assert [(e.id, e.n, e.r) for e in parse_indicator_file(text)] == [
            ("u24", 4, 2), ("u13", 3, 1)]

    @pytest.mark.parametrize("parse, start", [
        (lambda: list(parse_catalog("x 4 2 0,1;0," + "9" * 4000)),
         "line 1: entry 'x': base element '999"),
        (lambda: parse_matroid("matroid uniform\nn 4\nr " + "9" * 4000 + "\n"),
         "uniform matroid needs 0 <= r <= n, got r='999"),
        (lambda: parse_scan_report(
            "# gcmb scan group=Z3 predicate=block reduction=none seed=0\n"
            "matroid=x range=0.." + "9" * 4000 + " checked=9 verdict=none example=- labels=-\n"),
         "line 2: bad scan report line 'matroid=x range=0..999"),
    ])
    def test_huge_integers_are_quoted(self, parse, start):
        with pytest.raises(GcmbError) as info:
            parse()
        message = str(info.value)
        assert message.startswith(start) and "(4000 characters)" in message
        assert len(message) <= 400

    @pytest.mark.parametrize("argv", [
        ["scan", "--builtin", "u24", "--group", "x".join(["Z9999"] * 2100)],
        ["check-ss", "--builtin", "k4", "--random", "9" * 4000],
        ["check-ss", "--builtin", "k4", "--random", "9" * 5000],
        ["scan", "--builtin", "u24", "--group", "Z3", "--range", "0.." + "9" * 4000],
    ])
    def test_huge_values_are_shortened(self, capsys, argv):
        code, out, err, _ = run(capsys, *argv)
        assert (code, out) == (1, "") and len(one_line(err, "error: ")) <= 400

    def test_a_huge_group_order_is_shortened(self):
        with pytest.raises(GcmbError) as info:
            GroupSpec.of(*[9999] * 2100)
        message = str(info.value)
        assert message.startswith("group order of 27904 bits exceeds the limit |G| <= 4096")
        assert "\n" not in message and len(message) <= 400

    @pytest.mark.parametrize("trust", [False, True])
    def test_explicit_matroid_with_loops(self, capsys, tmp_path, trust):
        mat = tmp_path / "m.mat"
        mat.write_text("matroid explicit\nn 100000\nbase 0\n")
        extra = ["--trust"] if trust else []
        code, out, err, seconds = run(capsys, "bases", "--matroid", str(mat), *extra)
        assert (code, out) == (1, "") and seconds < 1
        one_line(err, "error: ")
        if trust:
            assert err == (
                "error: elements [1, 2, 3, 4, 5, 6, 7, 8, ...] appear in no base (loops); "
                "matroids here are loopless\n"
            )
        else:
            assert "only accepted with trust enabled" in err


class TestRepeatedElements:
    """Six size-3 bases that each repeat an element, whose sets are the bases
    of U_{2,4}, are refused from every source with the same reason."""

    BASES = [(0, 1, 1), (0, 2, 2), (0, 3, 3), (1, 2, 2), (1, 3, 3), (2, 3, 3)]
    REASON = "base '0,1,1' repeats an element"

    def test_matroid_file(self, capsys, tmp_path):
        mat = tmp_path / "m.mat"
        mat.write_text("matroid explicit\nn 4\n" + "".join(
            f"base {' '.join(map(str, b))}\n" for b in reversed(self.BASES)))
        code, out, err, _ = run(capsys, "bases", "--matroid", str(mat))
        assert (code, out, err) == (1, "", f"error: {self.REASON}\n")

    @pytest.mark.parametrize("shape", [list, np.array])
    def test_library(self, shape):
        bases = [b[::-1] for b in self.BASES]
        with pytest.raises(UsageError, match=f"^{self.REASON}$"):
            make_explicit(4, shape(bases))

    def test_catalog_line(self, capsys, tmp_path):
        cat = tmp_path / "rep.cat"
        cat.write_text("rep 4 2 " + ";".join(",".join(map(str, b[::-1])) for b in self.BASES) + "\n")
        code, out, err, _ = run(capsys, "catalog", "filter-blocks", str(cat))
        assert (code, out, err) == (1, "", f"error: line 1: entry 'rep': {self.REASON}\n")
        code, out, err, _ = run(capsys, "catalog", "filter-blocks", "--lenient", str(cat))
        assert (code, out, err) == (0, "", f"skipped line 1: entry 'rep': {self.REASON}\n")


class TestLenient:
    BAD_CATALOG = {
        "malformed": ("bad 4 2 0,1;x", "bad base 'x'"),
        "axiom": ("axiom 4 2 0,1;2,3",
                  "base exchange axiom fails: no swap for element 0 of (0, 1) toward (2, 3)"),
        "over-limit": ("big 13 1 0", "explicit base lists with n > 12 are only accepted"),
        "repeated": ("rep 4 2 0,1,1;0,2;0,3;1,2;1,3;2,3", "base '0,1,1' repeats an element"),
    }

    @pytest.mark.parametrize("case", sorted(BAD_CATALOG))
    def test_catalog_commands_agree(self, capsys, tmp_path, case):
        line, reason = self.BAD_CATALOG[case]
        good = tmp_path / "good.cat"
        good.write_text(f"u24 4 2 {U24}\n")
        mixed = tmp_path / "mixed.cat"
        mixed.write_text(f"u24 4 2 {U24}\n# comment\n{line}\n")
        _, _, err, _ = run(capsys, "catalog", "filter-blocks", str(mixed))
        assert err.startswith(f"error: line 3: entry '{line.split()[0]}': {reason}")
        code, out, err, _ = run(capsys, "catalog", "filter-blocks", "--lenient", str(mixed))
        assert (code, out) == (0, f"u24 4 2 {U24}\n")
        assert err.startswith(f"skipped line 3: entry '{line.split()[0]}': {reason}")
        assert err.count("\n") == 1
        scan = ["scan", "--group", "Z3", "--catalog"]
        code, out, scan_err, _ = run(capsys, *scan, str(mixed), "--lenient")
        assert scan_err == err
        assert (code, out) == run(capsys, *scan, str(good))[:2]

    @pytest.mark.parametrize("case", ["malformed", "axiom", "over-limit"])
    def test_indicator_lines(self, capsys, tmp_path, case):
        header, line, reason = {
            "malformed": ("n 4\nr 2\n", "bad 11x111", "indicator must be 6 chars of 0/1"),
            "axiom": ("n 4\nr 2\n", "axiom 100001", self.BAD_CATALOG["axiom"][1]),
            "over-limit": ("n 13\nr 1\n", "big 1" + "0" * 12, "header n '13' and r '1'"),
        }[case]
        rlx = tmp_path / "mixed.rlx"
        rlx.write_text(f"n 4\nr 2\nu24 111111\n{header}{line}\n")
        _, _, err, _ = run(capsys, "catalog", "import", str(rlx))
        assert err.startswith(f"error: line 6: entry '{line.split()[0]}': {reason}")
        code, out, err, _ = run(capsys, "catalog", "import", "--lenient", str(rlx))
        assert (code, out) == (0, f"u24 4 2 {U24}\n")
        assert err.startswith(f"skipped line 6: entry '{line.split()[0]}': {reason}")
        assert err.count("\n") == 1

    def test_problems_are_entry_reasons(self):
        problems = []
        text = f"bad 4 2 0,1;x\nn 4\nu24 4 2 {U24}\n"
        assert [e.id for e in parse_catalog(text, lenient=True, problems=problems)] == ["u24"]
        assert problems == [(1, "entry 'bad': bad base 'x'"),
                            (2, "entry 'n': expected '<id> <n> <r> <bases>'")]

    def test_bare_indicator_ids_count_data_lines(self):
        text = "n 2\nr 1\nfirst 11\n11\n# comment\n11\n"
        assert [e.id for e in parse_indicator_file(text)] == ["first", "m0002", "m0003"]


def test_entry_matroid_takes_no_trust():
    assert list(inspect.signature(CatalogEntry.matroid).parameters) == ["self"]


def test_content_lines():
    text = "  a b # c\n\n# d\n\te\n"
    assert list(content_lines(text)) == [(1, "a b"), (4, "e")]


class TestProximityMoves:
    def test_move_bound_past_the_rank(self, capsys, tmp_path):
        weights = tmp_path / "w.txt"
        weights.write_text("".join(f"{e} {w}\n" for e, w in enumerate([3, 1, 4, 1, 5, 9])))
        base = ["solve", "--builtin", "k4", "--target", "1", "--weights", str(weights),
                "--mode", "proximity", "--heuristic"]
        code, out, _, _ = run(capsys, *base, "--k", "3")  # k = r
        huge_code, huge_out, _, seconds = run(capsys, *base, "--k", str(10**9))
        assert seconds < 1
        assert huge_code == code
        assert huge_out.splitlines()[1] == out.splitlines()[1]


class TestWeightValues:
    @pytest.mark.parametrize("value", ["1e10000000", "1e-10000000", "1" * 4301, "1e4300"])
    def test_oversized_value_is_refused_at_once(self, value):
        start = time.perf_counter()
        with pytest.raises(ParseError) as info:
            parse_weights(f"0 {value}\n", 1)
        assert time.perf_counter() - start < 1
        assert str(info.value).startswith("line 1: weight ")
        assert "INTEGER_DIGITS_LIMIT" in str(info.value) and len(str(info.value)) < 300

    def test_values_within_the_limit_parse(self):
        text = "0 5\n1 -3\n2 7/2\n3 2.5\n4 1e3\n5 " + "9" * 4300 + "\n6 1e4299\n"
        got = parse_weights(text, 7)
        assert got[:5] == (5, -3, Fraction(7, 2), Fraction(5, 2), 1000)
        assert got[5] == 10**4300 - 1 and got[6] == 10**4299


# -- robustness of every parser -------------------------------------------------

#: "9" * 4000 is a value int() still parses (its limit is 4300 digits), "7" * 5000
#: one it refuses.
EXTREMES = ["-1", "0", "13", str(10**5 + 1), str(10**9), "9" * 4000, "7" * 5000, "1e999999"]


def texts(vocabulary, headers=("",)):
    """Short texts: an optional header, then lines of the format's own tokens
    and extreme integers."""
    token = st.sampled_from(list(vocabulary) + EXTREMES)
    line = st.lists(token, min_size=1, max_size=4).map(" ".join)
    return st.builds(
        lambda head, lines: "\n".join([head, *lines]),
        st.sampled_from(headers),
        st.lists(line, max_size=6),
    )


def parses_or_fails_short(parse, text):
    try:
        parse(text)
    except GcmbError as exc:
        assert len(str(exc)) <= MESSAGE_LIMIT, f"{len(str(exc))} characters: {str(exc)[:300]}"


def scan_tokens():
    keys = ["matroid", "range", "checked", "verdict", "example", "labels", "seed", "group",
            "predicate", "reduction"]
    values = ["x", "0..9", "9", "none", "isolating", "-", "3", "0;1", "Z3", "block",
              *(f"0..{e}" for e in EXTREMES), *EXTREMES]
    return [f"{k}={v}" for k in keys for v in values] + ["summary", "stray"]


GROUP_TOKENS = ["Z", "x", "Z2", "Z4", "X", "z3", "Z0", "Z1", *(f"Z{e}" for e in EXTREMES)]

PARSERS = {
    "matroid": (
        texts(["n", "r", "vertices", "field", "rows", "edge", "base", "1", "2", "3", "a"],
              ["", "matroid uniform", "matroid graphic", "matroid linear",
               "matroid explicit", "matroid other"]),
        lambda text: (parse_matroid(text), parse_matroid(text, trust=True)),
    ),
    "labeling": (
        texts(["0", "1", "2", "1,0", "0,1", "x", "#"]),
        lambda text: (parse_labeling(text, GroupSpec.parse("Z2xZ2"), 3),
                      parse_labeling(text, GroupSpec.parse("Z4"), 3)),
    ),
    "weights": (
        texts(["0", "1", "2", "7/2", "-3", "1/0", "2.5", "1e3", "x"]),
        lambda text: parse_weights(text, 3),
    ),
    "catalog": (
        texts(["x", "2", "3", "4", "0,1", "0,1;0,2;1,2", U24, "0,1;2,3", ";", "0,,1"]),
        lambda text: (list(parse_catalog(text)), list(parse_catalog(text, lenient=True))),
    ),
    "indicator": (
        texts(["n", "r", "x", "1", "2", "3", "4", "111", "101", "111111", "100001"],
              ["", "n 4\nr 2", "n 3\nr 2", "n 13\nr 1"]),
        lambda text: (list(parse_indicator_file(text)),
                      list(parse_indicator_file(text, lenient=True))),
    ),
    "scan report": (
        texts(scan_tokens(), ["", "# gcmb scan group=Z3 predicate=block reduction=none seed=0",
                              "# gcmb scan group=Z4 predicate=strong-block "
                              "reduction=translation seed=1"]),
        parse_scan_report,
    ),
    "group spec": (
        st.lists(st.sampled_from(GROUP_TOKENS), min_size=1, max_size=4).map("".join),
        GroupSpec.parse,
    ),
}


@pytest.mark.parametrize("name", sorted(PARSERS))
def test_parser_survives_extreme_tokens(name):
    strategy, parse = PARSERS[name]

    @settings(max_examples=150, deadline=1000, verbosity=Verbosity.quiet)
    @given(strategy)
    def check(text):
        parses_or_fails_short(parse, text)

    check()

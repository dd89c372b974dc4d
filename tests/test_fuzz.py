"""One mutation fuzz test over every reader and the CLI.

Each example takes a valid `gcmb` command line and the files it reads (a
matroid file of each of the four kinds, labelings, weights, a catalog, an
indicator dataset and a scan shard), changes one to three tokens or lines of
them to values from a fixed hostile pool, and runs `gcmb.cli.main` in
process.  Whatever the input, the CLI exits 0-3 (argparse refuses a command
line with 2), an exit 1 prints one `error:` line no longer than its quotes
allow, and no other exception escapes.  The examples are derandomized, so
every run draws the same ones.  A refusal fix adds its input to POOL, beside
its line in `test_refusals.py`.
"""

import contextlib
import io
import tempfile
from datetime import timedelta
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from gcmb import cli

HUGE = "9" * 5000  # past the 4300 digits that int() reads
#: Hostile values: empty and blank tokens, signs, floats and fractions that
#: integers refuse, integers past every limit and past int64, non-ASCII
#: digits, control characters, separators of the file formats and their
#: keywords, and ranges and groups that are malformed or too large.
POOL = [
    "", " ", "\t", "\r", "0", "-1", "-0", "+1", "1", "2", "4096", "0.5", "3/2", "1/0",
    "1e999999", "nan", "inf", "-inf", HUGE, "-" + HUGE, "x" * 5000, "18446744073709551616",
    "-9223372036854775809", "0x10", "1_000", "٣", "１", "é", "﻿", "\x00",
    "#", ";", ",", ",,", "0,1", "..", "0..", "..5", "5..3", "Z0", "Z1", "Z4097", "Z2xZ",
    "Z" + HUGE, "matroid", "base", "edge", "n", "r",
]
#: A command line cannot hold a NUL byte.
ARGV_POOL = [value for value in POOL if "\x00" not in value]
#: An error line: the prefix, a message and at most a few cut quotes.
MESSAGE_LIMIT = 600

K4_EDGES = "".join(f"edge {u} {v}\n" for u, v in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
U24_BASES = "0,1;0,2;0,3;1,2;1,3;2,3"
FILES = {
    "uniform": "matroid uniform\nn 4\nr 2\n",
    "graphic": "matroid graphic\nvertices 4\n" + K4_EDGES,
    "linear": "matroid linear\nfield 3\nrows 2\n1 0 1 1\n0 1 1 2\n",
    "explicit": "matroid explicit\nn 4\n" + "".join(
        f"base {u} {v}\n" for u, v in [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    "labels4": "0 0\n1 1\n2 2\n3 1\n",
    "labels6": "0 0\n1 1\n2 2\n3 0\n4 1\n5 2\n",
    "pairs4": "0 0,1\n1 1,0\n2 1,1\n3 0,0\n",
    "weights4": "0 1\n1 -2\n2 3/2\n3 0\n",
    "weights6": "0 5\n1 1\n2 1\n3 1\n4 2\n5 2\n",
    "catalog": f"u12 2 1 0;1\nu24 4 2 {U24_BASES}\n",
    "indicator": "n 4\nr 2\n111111\n011111\n",
    "shard": "# gcmb scan group=Z3 predicate=strong-block reduction=none seed=0\n"
             "matroid=u24 range=0..40 checked=40 verdict=isolating example=4 labels=1;1;0;0\n"
             "summary matroids=1 checked=40 isolating=1\n",
}
#: One valid command line per command and reader; {name} is the path of FILES[name].
COMMANDS = [
    ["solve", "--matroid", "{uniform}", "--group", "Z3", "--labels", "{labels4}", "--target", "1"],
    ["solve", "--matroid", "{graphic}", "--group", "Z3", "--labels", "{labels6}", "--target", "0",
     "--mode", "proximity"],
    ["solve", "--matroid", "{linear}", "--group", "Z3", "--labels", "{labels4}", "--target", "2",
     "--weights", "{weights4}"],
    ["solve", "--matroid", "{explicit}", "--group", "Z2xZ2", "--labels", "{pairs4}",
     "--target", "1,1", "--mode", "proximity", "--heuristic"],
    ["verify", "--matroid", "{graphic}", "--group", "Z3", "--labels", "{labels6}", "--k", "2"],
    ["verify", "--builtin", "k4", "--group", "Z3", "--labels", "{labels6}", "--k", "1",
     "--weights", "{weights6}"],
    ["check-ss", "--matroid", "{linear}", "--group", "Z3", "--labels", "{labels4}"],
    ["check-ss", "--builtin", "k4", "--group", "Z4", "--random", "3", "--seed", "7"],
    ["bases", "--matroid", "{explicit}"],
    ["scan", "--catalog", "{catalog}", "--group", "Z3", "--range", "0..81"],
    ["scan", "--builtin", "k4", "--group", "Z2", "--predicate", "strong-block",
     "--reduction", "translation"],
    ["scan", "--merge", "{shard}"],
    ["catalog", "import", "{indicator}"],
    ["catalog", "filter-blocks", "{catalog}"],
]


@st.composite
def mutated_runs(draw):
    """(argv, files): a command line and the texts of the files it names,
    after one to three mutations of an argv token, a file token or a file
    line (replaced, or repeated)."""
    argv = list(draw(st.sampled_from(COMMANDS)))
    files = {arg[1:-1]: FILES[arg[1:-1]] for arg in argv if arg.startswith("{")}
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from(["argv", *files]))
        if target == "argv":  # the command word stays
            argv[draw(st.integers(1, len(argv) - 1))] = draw(st.sampled_from(ARGV_POOL))
            continue
        lines = files[target].split("\n")
        at = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["token", "line", "repeat"]))
        if kind == "repeat":
            lines.insert(at, lines[at])
        elif kind == "line":
            lines[at] = draw(st.sampled_from(POOL))
        else:
            tokens = lines[at].split(" ")
            tokens[draw(st.integers(0, len(tokens) - 1))] = draw(st.sampled_from(POOL))
            lines[at] = " ".join(tokens)
        files[target] = "\n".join(lines)
    return argv, files


@settings(
    derandomize=True,
    database=None,
    max_examples=800,
    deadline=timedelta(seconds=10),
    suppress_health_check=[HealthCheck.too_slow],
)
@given(mutated_runs())
def test_mutated_inputs_exit_with_a_code_or_one_error_line(run):
    argv, files = run
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        paths = {}
        for name, text in files.items():
            paths["{" + name + "}"] = path = Path(tmp) / name
            path.write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main([str(paths.get(arg, arg)) for arg in argv])
            except SystemExit as exc:  # argparse's refusal of the command line
                code = exc.code
    assert code in (0, 1, 2, 3)
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), lines
        assert len(lines[0]) <= MESSAGE_LIMIT, lines[0][:300]

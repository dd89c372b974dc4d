"""Golden CLI reports: the exact stdout and exit code of a fixed set of runs.

The expected transcripts live in `reports_expected.txt` next to this file.
A change that must keep every report byte-identical keeps this test green;
a change that alters a report on purpose regenerates the file with

    PYTHONPATH=src python tests/test_reports.py

and says in its record which reports moved and why.
"""

import contextlib
import io
import itertools
import os
import tempfile
from pathlib import Path

import pytest

from gcmb import cli

EXPECTED = Path(__file__).with_name("reports_expected.txt")

GF3_ROWS = [
    [1, 0, 0, 0, 1, 1, 0, 2, 1],
    [0, 1, 0, 0, 1, 0, 1, 1, 2],
    [0, 0, 1, 0, 0, 1, 1, 1, 1],
    [0, 0, 0, 1, 2, 1, 1, 0, 1],
]


def input_files() -> dict[str, str]:
    k6 = list(itertools.combinations(range(6), 2))
    k7 = list(itertools.combinations(range(7), 2))
    return {
        "k6.mat": "matroid graphic\nvertices 6\n" + "".join(f"edge {u} {v}\n" for u, v in k6),
        "gf3.mat": "matroid linear\nfield 3\nrows 4\n"
        + "".join(" ".join(map(str, row)) + "\n" for row in GF3_ROWS),
        "k6-z4.lab": "".join(f"{e} {(3 * e + 1) % 4}\n" for e in range(15)),
        "k6-even.lab": "".join(f"{e} {2 * (e % 2)}\n" for e in range(15)),
        "k6-z3.lab": "".join(f"{e} {e * e % 3}\n" for e in range(15)),
        "k6-z2z4.lab": "".join(f"{e} {e % 2},{(3 * e + 1) % 4}\n" for e in range(15)),
        "k6-z2z4-even.lab": "".join(f"{e} {e % 2},{2 * (e // 2 % 2)}\n" for e in range(15)),
        "k6.w": "".join(f"{e} {5 * e % 7 - 3}\n" for e in range(15)),
        "gf3-z2z2.lab": "".join(f"{e} {e % 2},{e // 2 % 2}\n" for e in range(9)),
        "gf3-z3.lab": "".join(f"{e} {e % 3}\n" for e in range(9)),
        "gf3-z6.lab": "".join(f"{e} {(5 * e) % 6}\n" for e in range(9)),
        "gf3.w": "".join(f"{e} {e % 4 - 1}/3\n" for e in range(9)),
        "tight4.w": "".join(f"{e} {(e * 2) % 5}\n" for e in range(6)),
        "k7.mat": "matroid graphic\nvertices 7\n" + "".join(f"edge {u} {v}\n" for u, v in k7),
        "k7-z2z4.lab": "".join(f"{e} {e % 2},{(e + e // 3) % 4}\n" for e in range(21)),
        "k7-tie.w": "".join(f"{e} {e % 2}\n" for e in range(21)),
    }


SCENARIOS = [
    # K6 graphic file over Z4: enum and proximity, feasibility and optimization
    "solve --matroid k6.mat --group Z4 --labels k6-z4.lab --target 2 --mode enum",
    "solve --matroid k6.mat --group Z4 --labels k6-z4.lab --target 2 --mode enum --weights k6.w",
    "solve --matroid k6.mat --group Z4 --labels k6-z4.lab --target 3 --mode proximity",
    "solve --matroid k6.mat --group Z4 --labels k6-z4.lab --target 3 --mode proximity --weights k6.w",
    # even labels never sum to an odd target
    "solve --matroid k6.mat --group Z4 --labels k6-even.lab --target 1 --mode enum",
    # GF(3) linear file, rational weights
    "solve --matroid gf3.mat --group Z3 --labels gf3-z3.lab --target 1 --mode enum",
    "solve --matroid gf3.mat --group Z2xZ2 --labels gf3-z2z2.lab --target 1,0 --mode enum --weights gf3.w",
    "solve --matroid gf3.mat --group Z2xZ2 --labels gf3-z2z2.lab --target 0,1 --mode proximity --weights gf3.w",
    "solve --matroid gf3.mat --group Z6 --labels gf3-z6.lab --target 4 --mode proximity --k 2 --heuristic --weights gf3.w",
    # the tight example with its own labels
    "solve --builtin tight4 --target 0 --mode enum --weights tight4.w",
    "solve --builtin tight4 --target 3 --mode proximity",
    "verify --builtin tight4 --k 2",
    "verify --matroid k6.mat --group Z3 --labels k6-z3.lab --k 1 --weights k6.w",
    # plain K6 closeness: the witness pins the A/B tie-breaks, and a clean verdict
    "verify --matroid k6.mat --group Z3 --labels k6-z3.lab --k 1",
    "verify --matroid k6.mat --group Z4 --labels k6-z4.lab --k 1",
    "--seed 5 check-ss --matroid k6.mat --group Z4 --random 2",
    "scan --builtin k4 --group Z3 --predicate block",
    # ranges that cross several high blocks of the scan kernel's split, each with a hit
    "scan --builtin u48 --group Z5 --predicate strong-block --range 9973..14973",
    "scan --builtin u48 --group Z3xZ3 --predicate block --reduction translation --range 2000000..2030000",
    # Z2xZ4: a heuristic proximity optimization, and an enum optimization whose
    # labels keep the second residue even, so signatures= is the whole stream
    "solve --matroid k6.mat --group Z2xZ4 --labels k6-z2z4.lab --target 1,2 --mode proximity --heuristic --weights k6.w",
    "solve --matroid k6.mat --group Z2xZ4 --labels k6-z2z4-even.lab --target 1,1 --mode enum --weights k6.w",
    # K7 over Z2xZ4 with 0/1 weights: twelve signatures reach the optimum with
    # twelve different bases, and the stream rank picks the one reported
    "solve --matroid k7.mat --group Z2xZ4 --labels k7-z2z4.lab --target 1,1 --mode proximity --heuristic --weights k7-tie.w",
    "solve --matroid k7.mat --group Z2xZ4 --labels k7-z2z4.lab --target 1,1 --mode enum --weights k7-tie.w",
]


def transcript(command: str) -> str:
    """The command, its stdout and its exit code, as one block of text."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(command.split())
    if err.getvalue():
        raise AssertionError(f"{command!r} wrote to stderr: {err.getvalue()}")
    return f"$ gcmb {command}\n{out.getvalue()}[exit {code}]\n"


def expected_blocks() -> list[str]:
    text = EXPECTED.read_text(encoding="utf-8")
    return ["$ gcmb " + block for block in text.split("$ gcmb ")[1:]]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("reports")
    for name, text in input_files().items():
        (root / name).write_text(text, encoding="utf-8")
    return root


def test_every_scenario_has_one_expected_block():
    assert [b.splitlines()[0] for b in expected_blocks()] == [f"$ gcmb {c}" for c in SCENARIOS]


@pytest.mark.parametrize("index", range(len(SCENARIOS)))
def test_report_is_unchanged(inputs, monkeypatch, index):
    monkeypatch.chdir(inputs)  # reports name their input files; keep the names short
    assert transcript(SCENARIOS[index]) == expected_blocks()[index]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as root:
        for name, text in input_files().items():
            Path(root, name).write_text(text, encoding="utf-8")
        here = os.getcwd()
        os.chdir(root)
        try:
            blocks = [transcript(c) for c in SCENARIOS]
        finally:
            os.chdir(here)
    EXPECTED.write_text("".join(blocks), encoding="utf-8")

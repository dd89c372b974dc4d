"""Each CLI command imports only the code it runs: a solve loads neither the
lab nor the catalog nor a process pool, and a one-job scan starts no pool.
Each case runs one op through `gcmb.cli.main` in a fresh interpreter and
reads its `sys.modules`; the package's names resolve on first access to the
objects their modules hold."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gcmb
from gcmb import cli, lab

SRC = Path(__file__).resolve().parent.parent / "src"
#: Modules a command loads only when it runs them.
WATCHED = ["gcmb.lab", "gcmb.catalog", "concurrent.futures", "multiprocessing"]
#: Runs `gcmb.cli.main` on argv, then prints its exit code and the watched modules it loaded.
PROBE = f"""
import contextlib, io, json, sys
from gcmb.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(json.dumps([code, [m for m in {WATCHED!r} if m in sys.modules]]))
"""


def fresh(script: str, *argv: str) -> str:
    """stdout of `script` run on argv by a new interpreter that finds the package in src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", script, *argv], env=env, capture_output=True,
                          text=True, timeout=120, check=True)
    return done.stdout


@pytest.fixture
def graphic_instance(tmp_path):
    matroid, labels = tmp_path / "k4.mat", tmp_path / "k4.lab"
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    matroid.write_text("matroid graphic\nvertices 4\n" + "".join(f"edge {u} {v}\n" for u, v in edges))
    labels.write_text("".join(f"{e} {e % 3}\n" for e in range(6)))
    return ["--matroid", str(matroid), "--group", "Z3", "--labels", str(labels)]


def test_a_solve_loads_neither_the_lab_nor_the_catalog_nor_a_pool(graphic_instance):
    code, loaded = json.loads(fresh(PROBE, "solve", *graphic_instance, "--target", "0"))
    assert (code, loaded) == (0, [])


@pytest.mark.parametrize("argv, code", [
    (["verify", "--builtin", "k4", "--k", "2"], 0),
    (["--jobs", "1", "scan", "--builtin", "k4", "--group", "Z3"], 0),
], ids=["verify", "scan-one-job"])
def test_a_command_without_workers_starts_no_pool(argv, code):
    got, loaded = json.loads(fresh(PROBE, *argv))
    assert got == code
    assert "gcmb.lab" in loaded and "concurrent.futures" not in loaded


def test_every_public_name_is_the_object_its_module_holds():
    script = """
import importlib, json, sys
import gcmb
loaded = sorted(m for m in sys.modules if m.startswith("gcmb"))
homes = {name: getattr(gcmb, name).__module__ for name in gcmb.__all__}
same = all(getattr(importlib.import_module(homes[name]), name) is getattr(gcmb, name)
           for name in gcmb.__all__)
print(json.dumps([loaded, same, set(gcmb.__all__) <= set(dir(gcmb))]))
"""
    loaded, same, listed = json.loads(fresh(script))
    assert loaded == ["gcmb"]  # `import gcmb` alone loads no module of the package
    assert same and listed
    star: dict = {}
    exec("from gcmb import *", star)
    assert sorted(name for name in star if name != "__builtins__") == sorted(gcmb.__all__)
    assert all(star[name] is getattr(sys.modules[star[name].__module__], name)
               for name in gcmb.__all__)


def test_the_parser_lists_the_lab_predicates_in_their_order():
    """The parser spells the `--predicate` choices, so that it builds without the lab."""
    assert cli.PREDICATE_CHOICES == list(lab.PREDICATE_FROM_NAME)
    for name in lab.PREDICATE_FROM_NAME:
        assert cli.build_parser().parse_args(["scan", "--predicate", name]).predicate == name

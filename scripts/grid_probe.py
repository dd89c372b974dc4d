#!/usr/bin/env python3
"""Paper-scale probe: time `gcmb solve` on seeded grid graphs.

A w x h grid graph has w(h-1) + h(w-1) edges and rank wh - 1, so the 12x12
grid has n = 264 and r = 143, the 8x8 grid n = 112 and r = 63.  Each instance
(grid, group, seed) gets uniform random labels, integer weights in [-9, 9]
and a random target, all drawn from one `random.Random`; it is solved in both
modes (proximity with the default k = |G| - 1 and `--heuristic`, so that the
regimes without a proven bound run too), with and without weights.
The probe runs `gcmb.cli.main` in-process and prints each report line with
its wall seconds.  Run from the root of a checkout:

    python3 scripts/grid_probe.py

The instances come from seed `SEED`; a case still running after `LIMIT`
seconds is stopped and printed as such.
"""

from __future__ import annotations

import contextlib
import io
import random
import signal
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from gcmb import cli  # noqa: E402

GRIDS = [(12, 12, "Z3"), (8, 8, "Z4"), (8, 8, "Z5"), (8, 8, "Z6")]
SEED = 1
LIMIT = 300


class Overtime(Exception):
    pass


def grid_edges(w: int, h: int) -> list[tuple[int, int]]:
    edges = []
    for row in range(h):
        for col in range(w):
            v = row * w + col
            if col + 1 < w:
                edges.append((v, v + 1))
            if row + 1 < h:
                edges.append((v, v + w))
    return edges


def write_instance(root: Path, w: int, h: int, group: str, seed: int) -> tuple[list[str], str]:
    """The instance files of one grid, group and seed: the solve argv without
    weights, and the weight file."""
    rng = random.Random(f"grid:{w}x{h}:{group}:{seed}")
    order = int(group[1:])
    edges = grid_edges(w, h)
    stem = root / f"grid{w}x{h}-{group}"
    matroid = stem.with_suffix(".mat")
    matroid.write_text(f"matroid graphic\nvertices {w * h}\n"
                       + "".join(f"edge {u} {v}\n" for u, v in edges))
    labels = stem.with_suffix(".lab")
    labels.write_text("".join(f"{e} {rng.randrange(order)}\n" for e in range(len(edges))))
    weights = stem.with_suffix(".w")
    weights.write_text("".join(f"{e} {rng.randint(-9, 9)}\n" for e in range(len(edges))))
    argv = ["solve", "--matroid", str(matroid), "--group", group, "--labels", str(labels),
            "--target", str(rng.randrange(order))]
    return argv, str(weights)


def run_case(argv: list[str], limit: int) -> tuple[float, str]:
    def stop(signum, frame):
        raise Overtime

    out = io.StringIO()
    previous = signal.signal(signal.SIGALRM, stop)
    signal.alarm(limit)
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        lines = out.getvalue().splitlines()
        report = lines[1] if len(lines) > 1 else f"exit {code}, no report"
    except Overtime:
        report = f"stopped after {limit} s"
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    return time.perf_counter() - start, report


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for w, h, group in GRIDS:
            argv, weights = write_instance(Path(tmp), w, h, group, SEED)
            for mode in ("proximity", "enum"):
                for weighted in (False, True):
                    name = f"{w}x{h} {group} {mode}{' weights' if weighted else ''}"
                    case = argv + ["--mode", mode]
                    if weighted:
                        case += ["--weights", weights]
                    if mode == "proximity":
                        case.append("--heuristic")
                    seconds, report = run_case(case, LIMIT)
                    print(f"{name:<26} {seconds:8.2f} s  {report}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

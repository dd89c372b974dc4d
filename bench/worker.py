"""One benchmark process: import gcmb, warm up, then run the op pool as a
closed loop with one client, each op an in-process `gcmb.cli.main` call.

Modes:
  setup   import gcmb and run one warm-up op of each kind, then stop;
  timed   after set-up, run whole passes over the pool until --seconds elapse;
  passes  after one untraced warm pass, run whole passes until --seconds
          elapse, traced when --trace is given (per-layer counts are then the
          same on every pass).
The calibration kernel is timed after set-up and between the ops of a pass.  Writes
a JSON result to --result.  Run from the root of a gcmb checkout.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import calibration  # noqa: E402


def run_op(main, argv: list[str]) -> tuple[int, str]:
    """Exit code and report of one CLI call; -1 when it raised."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except SystemExit as exc:  # argparse rejected the arguments
        return -1, f"usage error {exc.code}: {err.getvalue()}"
    except Exception:  # the loop must go on and count the failure
        return -1, traceback.format_exc()
    return code, out.getvalue() if code != 1 else out.getvalue() + err.getvalue()


class Loop:
    """Runs passes over the pool, keeping latencies and each op's first result."""

    def __init__(self, main, ops: list[dict], tracer=None):
        self.main = main
        self.ops = ops
        self.tracer = tracer
        self.latencies: list[float] = []
        self.first: dict[int, tuple[int, str]] = {}
        self.differing = 0
        self.pass_seconds: list[float] = []
        self.calibration: list[list[float]] = []  # kernel timings during each pass

    def one_pass(self) -> None:
        samples: list[float] = []
        calibrating = 0.0  # time spent on the kernel, left out of the pass time
        start = time.perf_counter()
        for i, op in enumerate(self.ops):
            # One kernel timing per EVERY_S of pass time, taken between ops.
            while len(samples) * calibration.EVERY_S <= time.perf_counter() - start - calibrating:
                samples.append(calibration.sample())
                calibrating += samples[-1]
            if self.tracer:
                self.tracer.op = i
            t = time.perf_counter()
            result = run_op(self.main, op["argv"])
            self.latencies.append(time.perf_counter() - t)
            if i not in self.first:
                self.first[i] = result
            elif result != self.first[i]:
                self.differing += 1
        self.pass_seconds.append(time.perf_counter() - start - calibrating)
        self.calibration.append(samples)

    def until(self, seconds: float) -> None:
        start = time.perf_counter()
        while True:
            self.one_pass()
            if time.perf_counter() - start >= seconds:
                return


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--ops", required=True)
    parser.add_argument("--mode", choices=["setup", "timed", "passes"], required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    sys.path.insert(0, "src")
    import gcmb.cli

    ops = json.loads(Path(args.ops).read_text(encoding="utf-8"))
    warm: dict[str, int] = {}
    for i, op in enumerate(ops):
        warm.setdefault(op["kind"], i)
    for i in warm.values():
        run_op(gcmb.cli.main, ops[i]["argv"])
    result: dict = {"setup_s": time.perf_counter() - T0,
                    "setup_calibration": [calibration.sample() for _ in range(5)]}

    if args.mode != "setup":
        tracer = None
        if args.mode == "passes":
            Loop(gcmb.cli.main, ops).one_pass()
            if args.trace:
                from tracer import Tracer

                tracer = Tracer()
                tracer.install()
        cli_main = tracer.span("cli.main", gcmb.cli.main) if tracer else gcmb.cli.main
        loop = Loop(cli_main, ops, tracer)
        loop.until(args.seconds)
        if tracer is not None:
            tracer.uninstall()
            result["counts"] = dict(tracer.counts)
            Path(args.spans).write_text(json.dumps(tracer.spans), encoding="utf-8")
        result.update(
            latencies=loop.latencies,
            pass_seconds=loop.pass_seconds,
            calibration=loop.calibration,
            first={str(i): r for i, r in loop.first.items()},
            differing=loop.differing,
        )
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()

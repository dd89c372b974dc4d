"""gcmb benchmark: seeded CLI workloads, timed end to end or traced by layer.

Run from the root of a gcmb checkout:

    python3 bench/run.py --workload solve-mix --seed 1 --seconds 30 --trace 0

Each workload is a pool of `gcmb` CLI operations generated from the seed and
run in a fresh process as a closed loop with one client (`--jobs 1`, numpy,
BLAS and OpenMP capped at one thread).  `--trace 0` reports the end-to-end
metrics; `--trace 1` reports per-layer metrics from an outside-in traced run.
Times are scaled to a reference machine speed measured in the same process
by a fixed calibration kernel (see calibration.py); raw times go to the run
record.  Every op's report is checked against an independent reference; the last
line of standard output is the JSON result.  A run record with the
environment goes to `.bench_out/<workload>-seed<n>-trace<t>.json`, and the
spans of a traced run to `.bench_out/<workload>-seed<n>-spans.json`.
"""

from __future__ import annotations

import os

# Thread caps take effect only if set before numpy is first imported, here
# and in the worker processes, which inherit this environment.
THREAD_CAPS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
os.environ.update(THREAD_CAPS, PYTHONHASHSEED="0")

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

import reference  # noqa: E402
import workloads  # noqa: E402
from calibration import speed_factor  # noqa: E402
from tracer import layer_metrics  # noqa: E402

BENCH = Path(__file__).resolve().parent

#: Extra processes that only set up, so setup_s is a median of several.
SETUP_PROBES = 4
#: The whole run must end within this many seconds.
RUN_LIMIT_S = 170
#: A tail percentile needs at least this many samples beyond it.
TAIL_BEYOND = 10


class BenchError(Exception):
    pass


def git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    text = head.read_text().strip()
    if not text.startswith("ref: "):
        return text
    ref = text[5:]
    loose = root / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown"


class Runner:
    def __init__(self, root: Path, work: Path, started: float):
        self.root, self.work, self.started = root, work, started
        self.count = 0

    def worker(self, mode: str, seconds: float = 0.0, trace: bool = False) -> dict:
        self.count += 1
        result = self.work / f"worker-{self.count}.json"
        cmd = [sys.executable, str(BENCH / "worker.py"), "--ops", str(self.work / "ops.json"),
               "--mode", mode, "--seconds", str(seconds), "--result", str(result)]
        if trace:
            cmd += ["--trace", "--spans", str(self.work / "spans.json")]
        remaining = RUN_LIMIT_S - (time.monotonic() - self.started)
        if remaining <= 0:
            raise BenchError("out of time before starting a worker")
        try:
            subprocess.run(cmd, cwd=self.root, check=True, timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"worker ({mode}) did not finish in time") from None
        except subprocess.CalledProcessError as exc:
            raise BenchError(f"worker ({mode}) exited with {exc.returncode}") from None
        return json.loads(result.read_text(encoding="utf-8"))


def check_ops(wl, firsts: dict, seed: int) -> dict[int, str]:
    """Reason for each op whose report disagrees with the reference."""
    checkers = {"solve": reference.check_solve, "verify": reference.check_verify,
                "ss": reference.check_ss}
    catalogs: dict = {}
    wrong = {}
    for key, (code, out) in firsts.items():
        op = wl.ops[int(key)]
        if code not in (0, 2, 3):
            wrong[int(key)] = f"exit {code}: {out.strip()[-300:]}"
            continue
        try:
            if op.check == "scan":
                reason = reference.check_scan(op.ref, code, out, seed, catalogs)
            else:
                reason = checkers[op.check](op.ref, wl.matroids[op.matroid], code, out)
        except (KeyError, ValueError, IndexError) as exc:
            reason = f"unparseable report ({exc!r}): {out.strip()[-200:]}"
        if reason:
            wrong[int(key)] = reason
    return wrong


def tally(wl, run: dict, wrong: dict[int, str]) -> tuple[int, int]:
    """(attempted, failed) over every op execution of a worker run."""
    attempted = len(run["latencies"])
    failed = run["differing"]
    for j in range(attempted):
        if j % len(wl.ops) in wrong:
            failed += 1
    return attempted, failed


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) at the highest percentile that
    still has TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    beyond = min(TAIL_BEYOND, n - 1)
    return ordered[n - 1 - beyond], 100.0 * (n - beyond) / n, beyond


def scaled(run: dict) -> tuple[list[float], list[float]]:
    """Pass times and op latencies of a worker run, each divided by the speed
    factor calibrated during its pass."""
    factors = [speed_factor(samples) for samples in run["calibration"]]
    per_pass = len(run["latencies"]) // len(factors)
    latencies = [t / factors[j // per_pass] for j, t in enumerate(run["latencies"])]
    return [t / f for t, f in zip(run["pass_seconds"], factors)], latencies


def report_totals(wl, firsts: dict) -> dict[str, int]:
    """The solve reports' own counters, summed over one pass."""
    names = ("signatures", "candidates", "intersections", "oracle-calls")
    totals = {"solver.report_" + name.replace("-", "_"): 0 for name in names}
    for key, (code, out) in firsts.items():
        if wl.ops[int(key)].check != "solve" or code not in (0, 2):
            continue
        f = reference.fields(out.splitlines()[1])
        for name in names:
            totals["solver.report_" + name.replace("-", "_")] += int(f[name])
    return totals


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    started = time.monotonic()
    root = Path.cwd()
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}")
    if not (root / "src" / "gcmb" / "cli.py").is_file():
        raise BenchError("run from the root of a gcmb checkout (src/gcmb is missing)")
    sys.path.insert(0, str(root / "src"))  # the scan check re-runs gcmb's predicates
    out_dir = root / ".bench_out"
    work = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    wl = workloads.build(args.workload, args.seed, work.relative_to(root) / "inputs")
    (work / "ops.json").write_text(
        json.dumps([{"kind": op.kind, "argv": op.argv} for op in wl.ops]), encoding="utf-8")
    runner = Runner(root, work, started)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_commit": git_commit(root),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "thread_caps": THREAD_CAPS, "jobs": 1,
        "clients": 1, "ops_per_pass_by_kind": dict(Counter(op.kind for op in wl.ops)),
    }
    if args.trace == 0:
        probes = [runner.worker("setup") for _ in range(SETUP_PROBES)]
        run = runner.worker("timed", args.seconds)
        probes.append(run)
        setups = [p["setup_s"] / speed_factor(p["setup_calibration"]) for p in probes]
        passes, latencies = scaled(run)
        value, pct, beyond = tail(latencies)
        metrics = {
            "setup_s": statistics.median(setups),
            "ops_per_s": len(wl.ops) / statistics.median(passes),
            "op_p50_ms": 1000 * statistics.median(latencies),
            "op_tail_ms": 1000 * value,
            "peak_rss_mb": run["peak_rss_mb"],
        }
        runs = [run]
        record.update(
            raw={"setup_s": statistics.median(p["setup_s"] for p in probes),
                 "ops_per_s": len(wl.ops) / statistics.median(run["pass_seconds"]),
                 "op_p50_ms": 1000 * statistics.median(run["latencies"]),
                 "op_tail_ms": 1000 * tail(run["latencies"])[0]},
            setup_samples_s=setups, pass_seconds=passes, raw_pass_seconds=run["pass_seconds"],
            calibration=run["calibration"],
            tail={"percentile": pct, "samples": len(latencies), "beyond": beyond})
    else:
        plain = runner.worker("passes", args.seconds / 2)
        traced = runner.worker("passes", args.seconds / 2, trace=True)
        runs = [plain, traced]
        spans = json.loads((work / "spans.json").read_text(encoding="utf-8"))
        layers = layer_metrics(spans, Counter(traced["counts"]), len(traced["pass_seconds"]))
        layers.update(report_totals(wl, traced["first"]))
        layers["trace.overhead_frac"] = (statistics.median(scaled(traced)[0])
                                         / statistics.median(scaled(plain)[0]) - 1)
        metrics = layers
        record.update(plain_pass_seconds=plain["pass_seconds"],
                      traced_pass_seconds=traced["pass_seconds"], spans=len(spans))

    declared = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = declared["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"metrics declared in BENCHMARK.json but not measured: {missing}")
    metrics = {m["name"]: (metrics[m["name"]], m["unit"]) for m in declared}

    attempted = failed = 0
    wrong: dict[int, str] = {}
    for run in runs:
        wrong.update(check_ops(wl, run["first"], args.seed))
        a, f = tally(wl, run, wrong)
        attempted, failed = attempted + a, failed + f
    record.update(
        ops_by_kind=dict(Counter(wl.ops[j % len(wl.ops)].kind
                                 for run in runs for j in range(len(run["latencies"])))),
        attempted=attempted, failed=failed, failed_frac=failed / attempted,
        failures={str(i): reason for i, reason in sorted(wrong.items())[:20]},
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    )
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")
    if args.trace:
        (work / "spans.json").replace(out_dir / f"{args.workload}-seed{args.seed}-spans.json")
    shutil.rmtree(work)

    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {failed / attempted:.6g} ({failed}/{attempted})")
    for i, reason in sorted(wrong.items())[:5]:
        print(f"{args.workload} wrong op {i} ({wl.ops[i].kind}): {reason}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        sys.exit(2)

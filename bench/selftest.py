"""The benchmark's own tests.  Run from the repository root:

    python3 -m pytest -q bench/selftest.py

They run the benchmark itself, so they take a minute or two.  Operation
counts are deterministic: at the default seed every per-layer count is pinned
exactly, and a change to gcmb that moves one shows up here as a failure to
re-baseline, not as noise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import calibration  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

#: Per-pass counts of a traced run at the default seed.
PINNED: dict[str, dict[str, int]] = {
    "solve-mix": {
        "catalog.entries_parsed": 0,
        "cli.ops": 108,
        "groups.add_calls": 46600,
        "intersection.calls": 1004,
        "intersection.exchange_arcs": 156093,
        "intersection.exchange_graphs": 5637,
        "intersection.oracle_calls": 446691,
        "lab.checks": 0,
        "lab.scan.labelings": 0,
        "lab.scan.lookups_computed": 0,
        "lab.witnesses": 0,
        "matroids.bases_listed": 0,
        "matroids.oracle_calls": 471599,
        "matroids.oracle_calls.dual": 0,
        "matroids.oracle_calls.explicit_bases": 0,
        "matroids.oracle_calls.graphic": 143066,
        "matroids.oracle_calls.linear": 16248,
        "matroids.oracle_calls.minor": 156722,
        "matroids.oracle_calls.partition": 155563,
        "matroids.oracle_calls.uniform": 0,
        "matroids.rank_calls": 2140,
        "solver.candidates": 3319,
        "solver.intersections": 1083,
        "solver.oracle_calls": 471599,
        "solver.report_candidates": 3319,
        "solver.report_intersections": 1083,
        "solver.report_oracle_calls": 159314,
        "solver.report_signatures": 3585,
        "solver.signatures": 3585,
        "solver.solves": 108,
    },
    "lab-closeness": {
        "catalog.entries_parsed": 0,
        "cli.ops": 120,
        "groups.add_calls": 106959,
        "intersection.calls": 0,
        "intersection.exchange_arcs": 0,
        "intersection.exchange_graphs": 0,
        "intersection.oracle_calls": 0,
        "lab.checks": 120,
        "lab.scan.labelings": 0,
        "lab.scan.lookups_computed": 0,
        "lab.witnesses": 8,
        "matroids.bases_listed": 23198,
        "matroids.oracle_calls": 47642,
        "matroids.oracle_calls.dual": 0,
        "matroids.oracle_calls.explicit_bases": 1107,
        "matroids.oracle_calls.graphic": 41807,
        "matroids.oracle_calls.linear": 0,
        "matroids.oracle_calls.minor": 0,
        "matroids.oracle_calls.partition": 0,
        "matroids.oracle_calls.uniform": 4728,
        "matroids.rank_calls": 359,
        "solver.candidates": 0,
        "solver.intersections": 0,
        "solver.oracle_calls": 0,
        "solver.report_candidates": 0,
        "solver.report_intersections": 0,
        "solver.report_oracle_calls": 0,
        "solver.report_signatures": 0,
        "solver.signatures": 0,
        "solver.solves": 0,
    },
    "scan-blocks": {
        "catalog.entries_parsed": 73,
        "cli.ops": 4,
        "groups.add_calls": 0,
        "intersection.calls": 73,
        "intersection.exchange_arcs": 5737,
        "intersection.exchange_graphs": 366,
        "intersection.oracle_calls": 45180,
        "lab.checks": 0,
        "lab.scan.labelings": 327680,
        "lab.scan.lookups_computed": 77135872,
        "lab.witnesses": 0,
        "matroids.bases_listed": 2658,
        "matroids.oracle_calls": 50472,
        "matroids.oracle_calls.dual": 6193,
        "matroids.oracle_calls.explicit_bases": 44279,
        "matroids.oracle_calls.graphic": 0,
        "matroids.oracle_calls.linear": 0,
        "matroids.oracle_calls.minor": 0,
        "matroids.oracle_calls.partition": 0,
        "matroids.oracle_calls.uniform": 0,
        "matroids.rank_calls": 6193,
        "solver.candidates": 0,
        "solver.intersections": 0,
        "solver.oracle_calls": 0,
        "solver.report_candidates": 0,
        "solver.report_intersections": 0,
        "solver.report_oracle_calls": 0,
        "solver.report_signatures": 0,
        "solver.signatures": 0,
        "solver.solves": 0,
    },
}


def bench(workload: str, seed: int, trace: int, seconds: float = 0.1) -> dict:
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_are_pinned(workload):
    result = bench(workload, DEFAULT_SEED, trace=1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    counts = {k: v["value"] for k, v in metrics.items() if v["unit"] == "count"}
    assert counts == PINNED[workload]
    assert isinstance(metrics["trace.overhead_frac"]["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_second_seed_changes_inputs_and_stays_correct(workload, tmp_path):
    def inputs(seed):
        wl = workloads.build(workload, seed, tmp_path / str(seed))
        return [(op.kind, op.ref) for op in wl.ops]

    assert inputs(DEFAULT_SEED) == inputs(DEFAULT_SEED)
    assert inputs(DEFAULT_SEED) != inputs(DEFAULT_SEED + 1)
    result = bench(workload, DEFAULT_SEED + 1, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [m["name"] for m in BENCHMARK["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_outside_a_checkout(tmp_path):
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""


# -- pieces -------------------------------------------------------------------------


def span(i, name, start, end, parent=None, hot_s=0.0):
    return {"id": i, "name": name, "start": start, "end": end, "parent": parent,
            "op": 0, "hot": {}, "hot_s": hot_s}


def test_self_time_subtracts_children_and_hot_calls():
    spans = [span(0, "cli.main", 0.0, 10.0, hot_s=1.0),
             span(1, "solver.solve_enum", 2.0, 8.0, parent=0, hot_s=2.5),
             span(2, "intersection.max_common_independent", 3.0, 4.0, parent=1)]
    assert tracer.self_times(spans) == {0: 3.0, 1: 2.5, 2: 1.0}


def test_tail_keeps_ten_samples_beyond():
    value, percentile, beyond = run.tail([float(i) for i in range(100)])
    assert (value, percentile, beyond) == (89.0, 90.0, 10)


def test_times_scale_by_the_speed_of_their_own_pass():
    ref = calibration.REFERENCE_S
    worker = {"pass_seconds": [4.0, 6.0], "latencies": [1.0, 3.0, 2.0, 4.0],
              "calibration": [[ref, ref, 9 * ref], [2 * ref]]}
    assert run.scaled(worker) == ([4.0, 3.0], [1.0, 3.0, 1.0, 2.0])


def test_solve_checker_rejects_a_wrong_optimum():
    m = workloads.graphic(4)
    group = reference.GROUPS["Z3"]
    labels = [(e % 3,) for e in range(m.n)]
    weights = [1, 2, 3, 4, 5, 6]
    ref = {"group": "Z3", "labels": labels, "target": "0", "heuristic": False,
           "weights": weights}
    codes = reference.label_codes(m, group, labels)
    totals = reference.base_weights(m, weights)
    hits = [i for i in range(len(codes)) if codes[i] == 0]
    best = min(hits, key=lambda i: totals[i])
    worse = max(hits, key=lambda i: totals[i])

    def report(i):
        base = ",".join(map(str, m.bases[i]))
        return f"# header\nstatus=feasible base={base} weight={totals[i]} certified=yes\n"

    assert reference.check_solve(ref, m, 0, report(best)) is None
    assert totals[worse] > totals[best]
    assert "optimum" in reference.check_solve(ref, m, 0, report(worse))
    assert reference.check_solve(ref, m, 2, "# header\nstatus=infeasible base=-\n")

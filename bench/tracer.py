"""Outside-in tracing of gcmb's layers.

The tracer replaces module attributes and class methods with timing wrappers,
at the names the callers look up (for example `gcmb.cli.solve_enum` and
`gcmb.solver.max_common_independent`), and restores them on `uninstall`.
Nothing inside `src/` changes.

Layer boundaries become spans (name, start, end, parent span, op id) kept in
memory.  The innermost, hottest calls (independence oracle, rank, group
addition, signature labels) are too frequent for one span each: they are
aggregated into their nearest enclosing span as call counts and self times.
Self times of spans are derived from the span list afterwards.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import Counter, defaultdict
from typing import Optional

# Wrapped public names: (module, attribute, span name).  Each is patched in
# the module where its caller looks it up.
SPANS = [
    ("gcmb.cli", "solve_enum", "solver.solve_enum"),
    ("gcmb.cli", "solve_proximity", "solver.solve_proximity"),
    ("gcmb.solver", "base_with_signature", "solver.base_with_signature"),
    ("gcmb.solver", "find_optimum_base", "solver.greedy"),
    ("gcmb.solver", "max_common_independent", "intersection.max_common_independent"),
    ("gcmb.solver", "min_weight_common_base", "intersection.min_weight_common_base"),
    # find_blocks imports max_common_independent from this module at call time.
    ("gcmb.intersection", "max_common_independent", "intersection.max_common_independent"),
    ("gcmb.intersection", "build_exchange_graph", "intersection.build_exchange_graph"),
    ("gcmb.lab", "check_k_close", "lab.check_k_close"),
    ("gcmb.lab", "check_strongly_k_close", "lab.check_strongly_k_close"),
    ("gcmb.lab", "check_schrijver_seymour", "lab.check_schrijver_seymour"),
    ("gcmb.lab", "label_image", "lab.label_image"),
    ("gcmb.lab", "reduce_witness", "lab.reduce_witness"),
    ("gcmb.lab", "isolation_scan", "lab.scan.isolation_scan"),
    ("gcmb.lab", "_scan_chunk", "lab.scan.kernel"),
]
GENERATOR_SPANS = [
    ("gcmb.catalog", "load_catalog", "catalog.load_catalog"),
    ("gcmb.catalog", "filter_blocks", "catalog.filter_blocks"),
]
METHOD_SPANS = [
    ("gcmb.matroids", "Matroid", "bases", "matroids.bases"),
    ("gcmb.catalog", "CatalogEntry", "matroid", "catalog.entry_matroid"),
]
HOT = [
    ("gcmb.matroids", "Matroid", "is_independent", "matroids.oracle"),
    ("gcmb.matroids", "Matroid", "rank", "matroids.rank"),
    ("gcmb.groups", "GroupElement", "__add__", "groups.add"),
    ("gcmb.solver", "Signature", "label", "solver.signature_label"),
]
ORACLE_KINDS = ["graphic", "linear", "explicit_bases", "uniform", "partition", "minor", "dual"]
LAB_CHECKS = ("lab.check_k_close", "lab.check_strongly_k_close", "lab.check_schrijver_seymour")
SOLVE_MODES = {"solver.solve_enum": "enum", "solver.solve_proximity": "proximity"}
INTERSECTION_TOP = ("intersection.max_common_independent", "intersection.min_weight_common_base")


class Tracer:
    def __init__(self):
        self.op: Optional[int] = None
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        # Open frames: [name, start, span record, oracle calls at entry] for spans
        # and [name, start, None, child time] for hot calls.
        self._stack: list[list] = []
        self._restore: list[tuple[object, str, object]] = []
        self._solve_mode = ""

    # -- frames ------------------------------------------------------------------

    def _nearest_span(self) -> Optional[dict]:
        for frame in reversed(self._stack):
            if frame[2] is not None:
                return frame[2]
        return None

    def _open(self, name: str) -> list:
        parent = self._nearest_span()
        record = {"id": len(self.spans), "name": name, "parent": parent["id"] if parent else None,
                  "op": self.op, "start": 0.0, "end": 0.0, "hot": {}, "hot_s": 0.0}
        self.spans.append(record)
        frame = [name, 0.0, record, self.counts["matroids.oracle_calls"]]
        self._stack.append(frame)
        frame[1] = record["start"] = time.perf_counter()
        return frame

    def _close(self, frame: list) -> None:
        frame[2]["end"] = time.perf_counter()
        self._stack.pop()
        frame[2]["oracle_calls"] = self.counts["matroids.oracle_calls"] - frame[3]

    def span(self, name: str, fn):
        mode = SOLVE_MODES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if mode:
                self._solve_mode = mode
            frame = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(frame)
            self._observe(name, frame[2], args, result)
            return result

        return wrapper

    def generator_span(self, name: str, fn):
        """Time each step of a generator as its own span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close(frame)
                self.counts[name + ".items"] += 1
                yield item

        return wrapper

    def hot(self, name: str, fn):
        """Aggregate a frequent call into its enclosing span: calls, self time,
        and (for outermost hot frames) inclusive time to subtract from the span."""
        stack = self._stack
        counts = self.counts
        clock = time.perf_counter
        is_oracle = name == "matroids.oracle"

        @functools.wraps(fn)
        def wrapper(obj, *args):
            if is_oracle:
                counts["matroids.oracle_calls"] += 1
                counts["matroids.oracle_calls." + obj.kind] += 1
            elif name == "solver.signature_label":
                counts["solver.labels." + self._solve_mode] += 1
            frame = [name, 0.0, None, 0.0]  # [name, start, None, child time]
            stack.append(frame)
            start = frame[1] = clock()
            try:
                return fn(obj, *args)
            finally:
                dur = clock() - start
                stack.pop()
                own = dur - frame[3]
                span = self._nearest_span()
                parent = stack[-1] if stack else None
                if parent is not None and parent[2] is None:
                    parent[3] += dur  # nested inside another hot frame
                elif span is not None:
                    span["hot_s"] += dur
                if span is not None:
                    agg = span["hot"].setdefault(name, [0, 0.0])
                    agg[0] += 1
                    agg[1] += own

        return wrapper

    def _observe(self, name: str, record: dict, args, result) -> None:
        c = self.counts
        if name == "intersection.build_exchange_graph":
            c["intersection.exchange_arcs"] += sum(
                len(v) for v in (*result.repair_first.values(), *result.repair_second.values()))
        elif name == "solver.base_with_signature":
            c["solver.hits"] += result is not None
        elif name == "matroids.bases":
            record["bases"] = len(result)
            c["matroids.bases_listed"] += len(result)
        elif name in ("lab.check_k_close", "lab.check_strongly_k_close"):
            c["lab.witnesses"] += result is not None
        elif name == "lab.scan.kernel":
            bases, indices = args[3], args[5]
            c["lab.scan.labelings"] += int(indices.size)
            c["lab.scan.lookups_computed"] += int(indices.size) * sum(len(b) for b in bases)

    # -- install -------------------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        for module, attr, name in SPANS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.span(name, getattr(mod, attr)))
        for module, attr, name in GENERATOR_SPANS:
            mod = importlib.import_module(module)
            self._patch(mod, attr, self.generator_span(name, getattr(mod, attr)))
        for module, cls, attr, name in METHOD_SPANS:
            owner = getattr(importlib.import_module(module), cls)
            self._patch(owner, attr, self.span(name, owner.__dict__[attr]))
        for module, cls, attr, name in HOT:
            owner = getattr(importlib.import_module(module), cls)
            self._patch(owner, attr, self.hot(name, owner.__dict__[attr]))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)


# -- analysis ------------------------------------------------------------------------


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span duration minus its child spans and the hot calls directly under it."""
    own = {s["id"]: s["end"] - s["start"] - s["hot_s"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict], counts: Counter, passes: int) -> dict[str, float]:
    """Per-pass layer metrics from the spans and boundary counts of `passes`
    identical passes over the pool."""
    own = self_times(spans)
    incl = defaultdict(float)
    self_by = defaultdict(float)
    calls = Counter()
    hot_calls = Counter()
    hot_self = defaultdict(float)
    for s in spans:
        incl[s["name"]] += s["end"] - s["start"]
        self_by[s["name"]] += own[s["id"]]
        calls[s["name"]] += 1
        for name, (n, t) in s["hot"].items():
            hot_calls[name] += n
            hot_self[name] += t

    def layer_self(prefix: str) -> float:
        return sum((v for k, v in self_by.items() if k.startswith(prefix)), 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    by_id = {s["id"]: s for s in spans}
    lab_bases = sum(s.get("bases", 0) for s in spans
                    if s["name"] == "matroids.bases" and under(s, LAB_CHECKS, by_id))
    oracle_calls = counts["matroids.oracle_calls"]
    lab_time = sum(incl[n] for n in LAB_CHECKS)
    m = {
        "matroids.oracle_calls": oracle_calls,
        **{f"matroids.oracle_calls.{k}": counts[f"matroids.oracle_calls.{k}"] for k in ORACLE_KINDS},
        "matroids.oracle_self_s": hot_self["matroids.oracle"],
        "matroids.oracle_ns_per_call": 1e9 * ratio(hot_self["matroids.oracle"], oracle_calls),
        "matroids.rank_calls": hot_calls["matroids.rank"],
        "matroids.bases_listed": counts["matroids.bases_listed"],
        "matroids.bases_s": incl["matroids.bases"],
        "intersection.calls": sum(calls[n] for n in INTERSECTION_TOP),
        "intersection.exchange_graphs": calls["intersection.build_exchange_graph"],
        "intersection.exchange_arcs": counts["intersection.exchange_arcs"],
        "intersection.oracle_calls": sum(
            s["oracle_calls"] for s in spans
            if s["name"] in INTERSECTION_TOP and not under(s, INTERSECTION_TOP, by_id)),
        "intersection.self_s": layer_self("intersection."),
        "solver.solves": calls["solver.solve_enum"] + calls["solver.solve_proximity"],
        "solver.signatures": counts["solver.labels.enum"],
        "solver.candidates": counts["solver.labels.proximity"],
        "solver.intersections": calls["solver.base_with_signature"],
        "solver.hit_ratio": ratio(counts["solver.hits"], calls["solver.base_with_signature"]),
        "solver.oracle_calls": sum(
            s["oracle_calls"] for s in spans
            if s["name"] in ("solver.solve_enum", "solver.solve_proximity")),
        "solver.greedy_s": incl["solver.greedy"],
        "solver.self_s": layer_self("solver.") + hot_self["solver.signature_label"],
        "groups.add_calls": hot_calls["groups.add"],
        "groups.add_s": hot_self["groups.add"],
        "lab.checks": sum(calls[n] for n in LAB_CHECKS),
        "lab.bases_per_s": ratio(lab_bases, lab_time),
        "lab.label_image_s": incl["lab.label_image"],
        "lab.witnesses": counts["lab.witnesses"],
        "lab.reduce_s": incl["lab.reduce_witness"],
        "lab.self_s": sum((v for k, v in self_by.items()
                           if k.startswith("lab.") and not k.startswith("lab.scan.")), 0.0),
        "lab.scan.labelings": counts["lab.scan.labelings"],
        "lab.scan.labelings_per_s": ratio(counts["lab.scan.labelings"], incl["lab.scan.kernel"]),
        "lab.scan.lookups_computed": counts["lab.scan.lookups_computed"],
        "lab.scan.self_s": layer_self("lab.scan."),
        "catalog.entries_parsed": counts["catalog.load_catalog.items"],
        "catalog.parse_s": incl["catalog.load_catalog"],
        "catalog.self_s": layer_self("catalog."),
        "cli.ops": calls["cli.main"],
        "cli.self_s": self_by["cli.main"],
    }
    per_pass = {}
    for key, value in m.items():
        if key.endswith(("_per_s", "_ratio", "_per_call")):
            per_pass[key] = value
        elif isinstance(value, int):
            if value % passes:
                raise ValueError(f"{key}={value} is not the same on each of {passes} passes")
            per_pass[key] = value // passes
        else:
            per_pass[key] = value / passes
    return per_pass


def under(span: dict, names, by_id: dict) -> bool:
    """Whether some ancestor of `span` is named in `names`."""
    p = span["parent"]
    while p is not None:
        if by_id[p]["name"] in names:
            return True
        p = by_id[p]["parent"]
    return False

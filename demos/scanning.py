"""Walkthrough: isolation scans over whole labeling spaces, and the
label-image inequality.

Run:  python3 demos/scanning.py
"""

import random

from gcmb import check_schrijver_seymour, isolation_scan, tight_example
from gcmb.catalog import builtin_instances, filter_blocks, load_bundled_catalog
from gcmb.groups import GroupSpec
from gcmb.lab import labeling_from_index, random_labeling, render_scan_report

z3 = GroupSpec.parse("Z3")
z4 = GroupSpec.parse("Z4")

print("== a labeling strongly isolates a block when it is the unique block")
print("== with its label sum; no Z3-labeling of the wheel does ==")
k4 = builtin_instances()["k4"].matroid
report = isolation_scan([("mk4", k4)], z3, "strong_block")
print(render_scan_report(report))

print("== translation orbits cut the work by |G| without changing verdicts ==")
reduced = isolation_scan([("mk4", k4)], z3, "strong_block", reduction="translation")
print(f"full scan: {report.total_checked} labelings; orbit reps: {reduced.total_checked}")

print()
print("== the extremal instance is isolating, and the scan pinpoints it ==")
inst = tight_example(3)
found = isolation_scan([("tight3", inst.matroid)], z3, "strong_block")
line = found.lines[0]
labeling = labeling_from_index(z3, inst.matroid.n, line.isolating_index)
print(
    f"first isolating labeling index: {line.isolating_index} -> labels "
    f"{[str(z3.element_at(g)) for g in labeling.indices]}"
)

print()
print("== scanning a catalog shard (rank-4 blocks over Z4, 65536 labelings each) ==")
entries = list(filter_blocks(load_bundled_catalog("rank4_size8_blocks.cat")))[:3]
pool = [(e.id, e.matroid()) for e in entries]
catalog_report = isolation_scan(pool, z4, "strong_block", jobs=2)
print(render_scan_report(catalog_report))

print("== the label image of any matroid obeys a stabilizer-weighted lower bound ==")
rng = random.Random(5)
for group_text in ("Z3", "Z4", "Z6", "Z2xZ2"):
    group = GroupSpec.parse(group_text)
    labeling = random_labeling(rng, group, 6)
    r = check_schrijver_seymour(k4, labeling)
    print(
        f"{group_text}: image={r.image_size} stabilizer={r.stabilizer.bit_count()} "
        f"rank-sum={r.rank_sum} bound={r.bound} holds={r.holds}"
    )

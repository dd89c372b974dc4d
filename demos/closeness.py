"""Walkthrough: closeness checks, witnesses, and witness reduction.

Run:  python3 demos/closeness.py
"""

import random

from gcmb import (
    check_k_close,
    check_strongly_k_close,
    is_strongly_base_orderable,
    label_image,
    make_uniform,
    reduce_witness,
    sbo_strong_closeness_suite,
    tight_example,
)
from gcmb.catalog import builtin_instances
from gcmb.groups import GroupSpec
from gcmb.lab import random_labeling, random_weights

print("== a labeling is k-close when every base sits within k swaps of a")
print("== g-base, for every attainable g; the extremal family is sharp")
for m in range(2, 7):
    inst = tight_example(m)
    witness = check_k_close(inst.matroid, inst.labeling, m - 2)
    ok = check_k_close(inst.matroid, inst.labeling, m - 1)
    print(
        f"Z{m}: k={m-2} gives a witness at distance {witness.distance}; "
        f"k={m-1} is {'ok' if ok is None else 'violated'}"
    )

print()
print("== witnesses live on block matroids after reduction ==")
inst = tight_example(4)
witness = check_k_close(inst.matroid, inst.labeling, 2)
print("witness:", witness.describe())
image = label_image(inst.matroid, inst.labeling)
print("label image of the instance:", [str(inst.group.element_at(g)) for g in sorted(image.multiplicity)])
reduced = reduce_witness(witness)
print("reduced:", reduced.describe(), f"(n={reduced.matroid.n}, already a block pair)")

print()
print("== strong closeness: the same game under an arbitrary weight function ==")
k4 = builtin_instances()["k4"].matroid
z3 = GroupSpec.parse("Z3")
rng = random.Random(7)
violations = 0
for _ in range(200):
    labeling = random_labeling(rng, z3, 6)
    weights = random_weights(rng, 6)
    if check_strongly_k_close(k4, labeling, weights, 2) is not None:
        violations += 1
print(f"wheel, 200 random (labeling, weight) pairs at k=2: {violations} violations")

print()
print("== strongly base orderable matroids are strongly (D(G)-1)-close ==")
u36 = make_uniform(6, 3)
print("U_{3,6} strongly base orderable:", is_strongly_base_orderable(u36).is_sbo)
for group_text in ("Z2", "Z3", "Z4", "Z2xZ2"):
    group = GroupSpec.parse(group_text)
    report = sbo_strong_closeness_suite(u36, group, trials=50, seed=1)
    print(
        f"{group_text}: k={report.k}, {report.checks_run} checks, "
        f"violations={len(report.violations)}"
    )

print()
print("== below D(G)-1 the suite catches the sharp instances ==")
inst = tight_example(4)
report = sbo_strong_closeness_suite(
    inst.matroid, inst.group, trials=10, seed=2, k=2, include=[inst.labeling]
)
print(
    f"Z4 at k=2: violations={len(report.violations)} "
    f"(expected below the proven bound; fatal={report.fatal})"
)

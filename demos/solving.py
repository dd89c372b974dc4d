"""Walkthrough: finding bases with a prescribed label sum.

Run:  python3 demos/solving.py
"""

from gcmb import (
    GroupSpec,
    Labeling,
    find_optimum_base,
    make_graphic,
    solve_enum,
    solve_proximity,
    tight_example,
)

# The wheel on four vertices: spokes are elements 0-2, rim edges 3-5.
wheel = make_graphic([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
z3 = GroupSpec.parse("Z3")
labels = Labeling.from_indices(z3, [0, 1, 2, 0, 1, 2])

print("== feasibility by signature enumeration ==")
# Targets are canonical element indices; element_at turns one into text.
for target in range(z3.order):
    result = solve_enum(wheel, labels, target)
    print(
        f"target {z3.element_at(target)}: {result.status:10s} base={result.base} "
        f"(signatures tried: {result.stats.signatures}, "
        f"intersections: {result.stats.intersections})"
    )

print()
print("== minimum-weight variant ==")
weights = [4, 1, 1, -2, 3, 0]
print("unconstrained optimum base:", find_optimum_base(wheel, weights))
for target in range(z3.order):
    result = solve_enum(wheel, labels, target, weights)
    print(f"target {z3.element_at(target)}: base={result.base} weight={result.weight}")

print()
print("== bounded-move search agrees where closeness is proven ==")
# Z3 is cyclic of prime order, so radius |G|-1 = 2 is certified for feasibility.
for target in range(z3.order):
    exact = solve_enum(wheel, labels, target)
    prox = solve_proximity(wheel, labels, target, k=2)
    assert exact.feasible == prox.feasible
    print(
        f"target {z3.element_at(target)}: proximity found {prox.status} with "
        f"{prox.stats.intersections} intersection calls (certified={prox.certified})"
    )

print()
print("== the extremal instance: why radius |G|-1 cannot shrink ==")
inst = tight_example(4)  # U_{3,6} over Z4, one block labeled 1, the other 0
zero = 0  # the identity has canonical index 0
result = solve_enum(inst.matroid, inst.labeling, zero)
print("unique 0-base:", result.base, "(the all-zeros block)")
# The greedy starting base is the all-ones block, a full 3 moves away from
# that 0-base.  At radius 2 the bounded search misses it entirely: a false
# negative, which is exactly what certified_only mode refuses to risk.
short = solve_proximity(inst.matroid, inst.labeling, zero, k=2, mode="heuristic")
full = solve_proximity(inst.matroid, inst.labeling, zero, k=3)
print(f"radius 2 (heuristic): {short.status}, certified={short.certified}")
print(f"radius 3 (certified): {full.status}, base={full.base}")

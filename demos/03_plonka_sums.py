"""Plonka sums of racks and the converse decomposition.

A Plonka system is a semilattice with one rack per point and gluing rack
homomorphisms downward; products are pushed to the meet fiber.  The sum
is always a quasi rack satisfying (*) and (***), and every quasi rack
with those two conditions splits back into such a system, whose sum is
the quasi rack relabeled class by class.
"""

from yaxl.plonka import PlonkaSystem, decompose, plonka_sum, roundtrip, sum_structure_check
from yaxl.shelves import quasi_rack_structure

dihedral3 = tuple(tuple((2 * x - y) % 3 for y in range(3)) for x in range(3))
point = ((0,),)

# a two-point chain: dihedral quandle on top, a single point below
system = PlonkaSystem(
    meet=((0, 0), (0, 1)),
    fibers=(point, dihedral3),
    homs={(0, 0): (0,), (1, 1): (0, 1, 2), (1, 0): (0, 0, 0)},
)

table = plonka_sum(system)
print("sum table:")
for row in table:
    print("  ", row)

print()
print("structure report:", sum_structure_check(system))

q = quasi_rack_structure(table)
back = decompose(q)
print()
print(f"decomposed into {back.points} fibers of sizes {[len(f) for f in back.fibers]}")
print("sum equals the table relabeled class by class:", roundtrip(q))

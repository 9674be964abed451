"""Weak braces over Clifford semigroups and their solutions.

A Clifford semigroup is an inverse semigroup with central idempotents,
equivalently a strong semilattice of groups.  A weak brace is a pair of
compatible inverse-semigroup operations; its associated map
r(x, y) = (-x + x o y, (-x + x o y)^- o x o y) is always a quasi
bijective solution.
"""

from yaxl.constructions import (
    SemilatticeSystem,
    brace_solution,
    brace_structure_shelf_check,
    clifford_from_system,
    cyclic_group,
    lambda_rho_clifford_check,
    opposite_brace,
    trivial_brace,
)
from yaxl.fnmap import compose
from yaxl.solutions import is_solution, pair_map, quasi_bijective

# Z2 glued over Z2 along the identity: a 4-element Clifford semigroup
z2 = cyclic_group(2)
system = SemilatticeSystem(
    meet=((0, 0), (0, 1)),
    fibers=(z2, z2),
    homs={(0, 0): (0, 1), (1, 1): (0, 1), (1, 0): (0, 1)},
)
c = clifford_from_system(system)
print("Clifford multiplication table:")
for row in c.mul:
    print("  ", row)
print("idempotents:", sorted(c.idems))

b = trivial_brace(c)
s = brace_solution(b)
print()
print("trivial brace solution is a solution:", is_solution(s))
print("quasi bijective:", quasi_bijective(s) is not None)
print("lambda/rho families are Clifford:", lambda_rho_clifford_check(b))
print("structure shelf is conjugation -x+y+x:", brace_structure_shelf_check(b))

r = pair_map(s)
rop = pair_map(brace_solution(opposite_brace(b)))
print("r r^op r == r:", compose(compose(r, rop), r) == r)
print("r r^op == r^op r:", compose(r, rop) == compose(rop, r))

"""Plonka sums of racks: construction over a semilattice of fiber racks
with gluing homomorphisms, and the converse decomposition of any quasi
rack satisfying (*) and (***) into such a system.

Global carrier elements are the fibers concatenated in semilattice-point
order; fiber elements keep their ascending original order throughout so
that roundtrips are deterministic.
"""

from __future__ import annotations

from .constructions import (
    SemilatticeSystem,
    is_semilattice,
    semilattice_geq,
    semilattice_sum,
    sum_blocks,
    validate_system,
)
from .fnmap import compose, idempotents_central
from .shelves import (
    Magma,
    QuasiRack,
    are_isomorphic,
    check_star,
    check_starstarstar,
    derived_map,
    is_hom,
    is_left_shelf,
    is_quasi_quandle,
    is_rack,
)

# A Plonka system is a semilattice system whose fibers are racks.
PlonkaSystem = SemilatticeSystem


def plonka_sum(p: PlonkaSystem) -> Magma:
    """a |> b := phi_{alpha, alpha^beta}(a) |> phi_{beta, alpha^beta}(b)
    computed in the meet fiber.  The result is asserted to be a left shelf."""
    validate_system(p, is_rack)
    table = semilattice_sum(p)
    assert is_left_shelf(table)
    return table


def checked_sum(p: PlonkaSystem) -> QuasiRack:
    """The validated sum, with every theorem guarantee on it asserted:

    the sum is a quasi rack satisfying (*) and (***) whose relative
    inverses are the closed forms
    L_a^0(b) = phi_{beta, alpha^beta}(b) and
    L_a^-(b) = (L_{phi(a)} in the meet fiber)^{-1}(phi_{beta, alpha^beta}(b));
    quandle fibers give a quasi quandle.

    The table and the closed forms are built in one walk, then certified:
    each L_a lies in the group of L_a^0 with inverse L_a^-.  Nothing is cached.
    """
    validate_system(p, is_rack)
    off, fibers = p.offsets(), p.fibers
    # the inverses of the fiber translations, permutations since fibers are racks
    back = [[sorted(range(len(row)), key=row.__getitem__) for row in fiber] for fiber in fibers]
    table, zero, inv = [], [], []
    for blocks in sum_blocks(p):
        table.append(tuple([off[c] + fibers[c][u][v] for c, u, h in blocks for v in h]))
        zero.append(tuple([off[c] + v for c, u, h in blocks for v in h]))
        inv.append(tuple([off[c] + back[c][u][v] for c, u, h in blocks for v in h]))
    assert is_left_shelf(table), "Plonka sum must be a quasi rack"
    # f i == z == i f and z f == f put f in the group of z (then z z == z
    # and f z == f); i z == i puts i there, as the inverse of f
    for f, z, i in zip(table, zero, inv):
        for y, w, j in zip(f, z, i):
            assert f[j] == w == i[y] and z[y] == y and i[w] == j
    assert idempotents_central(zero, table)
    q = QuasiRack(tuple(table), tuple(inv), tuple(zero))
    assert check_star(q) and check_starstarstar(q)
    # the fibers are racks, so each is a quandle iff its diagonal is fixed
    if all(f[i][i] == i for f in fibers for i in range(len(f))):
        assert is_quasi_quandle(q)
    return q


def sum_structure_check(p: PlonkaSystem) -> dict:
    """The report of the guarantees ``checked_sum`` asserts."""
    q = checked_sum(p)
    return {
        "quasi_rack": True,
        "star": True,
        "starstarstar": True,
        "closed_forms": True,
        "quasi_quandle": is_quasi_quandle(q),
    }


def decompose(q: QuasiRack) -> PlonkaSystem:
    """Split a quasi rack with (*) and (***) into a Plonka system.

    The semilattice is the set of distinct idempotents L_a^0 under
    composition; fibers are the L^0-classes with the restricted
    operation; the gluing maps are x |-> L_b^0(x) for any b in the lower
    class.
    """
    if not (check_star(q) and check_starstarstar(q)):
        raise ValueError("decomposition requires (*) and (***)")
    n = q.n
    zeros = []
    for a in range(n):
        if q.L_zero[a] not in zeros:
            zeros.append(q.L_zero[a])
    m = len(zeros)
    index = {z: i for i, z in enumerate(zeros)}
    meet = tuple(tuple(index[compose(zeros[i], zeros[j])] for j in range(m)) for i in range(m))
    assert is_semilattice(meet)
    classes = [[a for a in range(n) if q.L_zero[a] == zeros[i]] for i in range(m)]
    local = {}
    for i, cls in enumerate(classes):
        for k, a in enumerate(cls):
            local[a] = (i, k)
    fibers = []
    for i, cls in enumerate(classes):
        table = []
        for a in cls:
            row = []
            for b in cls:
                j, k = local[q.table[a][b]]
                assert j == i, "class is not closed under the operation"
                row.append(k)
            table.append(tuple(row))
        fibers.append(tuple(table))
    homs = {}
    for i in range(m):
        for j in range(m):
            if not semilattice_geq(meet, i, j):
                continue
            f = []
            for a in classes[i]:
                jj, k = local[zeros[j][a]]
                assert jj == j
                f.append(k)
            homs[(i, j)] = tuple(f)
    # the projection onto classes is a shelf homomorphism into the meet
    proj = tuple(local[a][0] for a in range(n))
    assert is_hom(proj, q.table, meet)
    p = PlonkaSystem(meet, tuple(fibers), homs)
    validate_system(p, is_rack)
    return p


def roundtrip(q: QuasiRack) -> bool:
    """The sum of decompose(q) is isomorphic to the original table."""
    return are_isomorphic(semilattice_sum(decompose(q)), q.table)


def solution_as_strong_semilattice(p: PlonkaSystem) -> bool:
    """The derived map of the sum equals the fiberwise derived solutions
    evaluated after projecting both arguments into the meet fiber.

    Every L^0 of a rack is the identity, so a fiber's derived solution
    is r(u, v) = (v, v |> u).
    """
    s = derived_map(checked_sum(p))
    off, fibers = p.offsets(), p.fibers
    rho_at = list(zip(*s.rho))  # rho_at[x][y] = rho_y(x)
    for x, blocks in enumerate(sum_blocks(p)):
        if s.lam[x] != tuple([off[c] + v for c, u, h in blocks for v in h]):
            return False
        if rho_at[x] != tuple([off[c] + fibers[c][v][u] for c, u, h in blocks for v in h]):
            return False
    return True

"""Plonka sums of racks: construction over a semilattice of fiber racks
with gluing homomorphisms, and the converse decomposition of any quasi
rack satisfying (*) and (***) into such a system.

Global carrier elements are the fibers concatenated in semilattice-point
order; fiber elements keep their ascending original order throughout, so
a decomposition sums back to its quasi rack under one known relabeling.
"""

from __future__ import annotations

from .constructions import (
    SemilatticeSystem,
    semilattice_sum,
    sum_blocks,
    validate_system,
)
from .fnmap import compose, guarantee, idempotents_central
from .shelves import (
    Magma,
    QuasiRack,
    check_star,
    check_starstarstar,
    derived_map,
    is_left_shelf,
    is_quasi_quandle,
    is_rack,
    relabel,
)

# A Plonka system is a semilattice system whose fibers are racks.
PlonkaSystem = SemilatticeSystem


def plonka_sum(p: PlonkaSystem) -> Magma:
    """a |> b := phi_{alpha, alpha^beta}(a) |> phi_{beta, alpha^beta}(b)
    computed in the meet fiber.  The result is guaranteed a left shelf."""
    validate_system(p, is_rack)
    table = semilattice_sum(p)
    guarantee(is_left_shelf(table), "a Plonka sum of racks is not a left shelf")
    return table


def checked_sum(p: PlonkaSystem) -> QuasiRack:
    """The validated sum, with every theorem guarantee on it checked:

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
    guarantee(is_left_shelf(table), "a Plonka sum of racks is not a left shelf")
    # f i == z == i f and z f == f put f in the group of z (then z z == z
    # and f z == f); i z == i puts i there, as the inverse of f
    for f, z, i in zip(table, zero, inv):
        for y, w, j in zip(f, z, i):
            if not (f[j] == w == i[y] and z[y] == y and i[w] == j):
                guarantee(False, "an L_a of a Plonka sum is not in the group of L_a^0 with inverse L_a^-")
    guarantee(idempotents_central(zero, table), "the idempotents L^0 of a Plonka sum are not central")
    q = QuasiRack(tuple(table), tuple(inv), tuple(zero))
    guarantee(check_star(q) and check_starstarstar(q), "a Plonka sum of racks fails (*) or (***)")
    # the fibers are racks, so each is a quandle iff its diagonal is fixed
    if all(f[i][i] == i for f in fibers for i in range(len(f))):
        guarantee(is_quasi_quandle(q), "a Plonka sum of quandles is not a quasi quandle")
    return q


def sum_structure_check(p: PlonkaSystem) -> dict:
    """The report of the guarantees ``checked_sum`` checks."""
    q = checked_sum(p)
    return {
        "quasi_rack": True,
        "star": True,
        "starstarstar": True,
        "closed_forms": True,
        "quasi_quandle": is_quasi_quandle(q),
    }


def _split(q: QuasiRack) -> tuple:
    """The Plonka system of q, and whether its sum is q's table relabeled
    by perm(a) = the offset of a's fiber + a's place in it.

    The class of a is the index of L_a^0 among the distinct idempotents
    in first-appearance order, and a's place is its rank in the class.
    The semilattice is the classes under composition of their
    idempotents; the fibers are the classes with the restricted
    operation; the gluing map from class i down to class j is
    x |-> L_b^0(x) for any b in class j.
    """
    if not (check_star(q) and check_starstarstar(q)):
        raise ValueError("decomposition requires (*) and (***)")
    if not q.n:  # a Plonka system has a semilattice point
        raise ValueError("decomposition requires a non-empty quasi rack")
    index: dict = {}  # the distinct L^0, in first-appearance order
    cls = [index.setdefault(z, len(index)) for z in q.L_zero]
    zeros = list(index)
    members = [[] for _ in zeros]
    place = []
    for a, c in enumerate(cls):
        place.append(len(members[c]))
        members[c].append(a)
    meet = tuple(tuple(index[compose(z, w)] for w in zeros) for z in zeros)
    fibers = tuple(tuple(tuple(place[q.table[a][b]] for b in ms) for a in ms) for ms in members)
    homs = {
        (i, j): tuple([place[zeros[j][a]] for a in members[i]])
        for i, row in enumerate(meet)
        for j, ij in enumerate(row)
        if ij == j
    }
    p = PlonkaSystem(meet, fibers, homs)
    try:  # built here from a quasi rack with (*) and (***), not read from input
        validate_system(p, is_rack)
    except ValueError as e:
        guarantee(False, f"the decomposition is not a Plonka system of racks: {e}")
    off = p.offsets()
    perm = [off[c] + k for c, k in zip(cls, place)]
    return p, relabel(q.table, perm) == semilattice_sum(p)


def decompose(q: QuasiRack) -> PlonkaSystem:
    """Split a quasi rack with (*) and (***) into a Plonka system whose
    sum is q relabeled class by class (``_split``), which is checked."""
    p, back = _split(q)
    guarantee(back, "the sum of the decomposition is not the quasi rack")
    return p


def roundtrip(q: QuasiRack) -> bool:
    """The sum of decompose(q) equals q's table, relabeled class by class."""
    return _split(q)[1]


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

"""Shared concrete fixtures: small quasi racks with known property
profiles, and generators for Plonka systems of small racks."""

import itertools

from yaxl.constructions import (
    SemilatticeSystem,
    clifford_from_system,
    cyclic_group,
    deformed_quasi_rack,
)
from yaxl.enumeration import enumerate_canonical
from yaxl.plonka import PlonkaSystem

# L_0 = L_1 = const 0, L_2 = id: satisfies (*) but not (**)
STAR_NOT_STARSTAR = ((0, 0, 0), (0, 0, 0), (0, 1, 2))

# L_0 fixes 0 and 2, collapses 1; L_1 = L_2 = id: (***) but not (*)
SSS_NOT_STAR = ((0, 0, 2), (0, 1, 2), (0, 1, 2))

# 4-element quasi rack whose derived map is a solution although none of
# the three sufficient conditions holds
DS_NO_CONDITIONS = (
    (0, 0, 0, 0),
    (0, 1, 2, 3),
    (0, 1, 2, 0),
    (0, 0, 0, 0),
)


def dihedral_quandle(n):
    return tuple(tuple((2 * x - y) % n for y in range(n)) for x in range(n))


def trivial_quandle(n):
    """x |> y = y."""
    return tuple(tuple(range(n)) for _ in range(n))


def two_chain_clifford():
    """Z2 over Z2 along the identity homomorphism: elements 0, 1 in the
    bottom fiber (0 the identity) and 2, 3 in the top fiber."""
    meet = ((0, 0), (0, 1))
    z2 = cyclic_group(2)
    homs = {(0, 0): (0, 1), (1, 1): (0, 1), (1, 0): (0, 1)}
    return clifford_from_system(SemilatticeSystem(meet, (z2, z2), homs))


def deformed_fixture():
    """x |> y = x^- y x e with e the bottom identity of two_chain_clifford:
    satisfies (*) and (**) but not (***)."""
    return deformed_quasi_rack(two_chain_clifford(), 0)


def rack_homs(a, b):
    na, nb = len(a), len(b)
    return [
        f
        for f in itertools.product(range(nb), repeat=na)
        if all(f[a[x][y]] == b[f[x]][f[y]] for x in range(na) for y in range(na))
    ]


def all_rack_systems(max_fiber_two_points=4, max_fiber_three_points=3):
    """Every Plonka system over the semilattices with <= 3 points.

    Fibers range over all racks with at most max_fiber_two_points points
    for one- and two-point semilattices, and at most
    max_fiber_three_points points for the three-point ones (the fully
    exhaustive three-point space is combinatorially much larger; the
    bound keeps the sweep in the tens of thousands).
    """
    racks2 = [
        r for n in range(1, max_fiber_two_points + 1) for n_r in [enumerate_canonical(n, "rack")] for r in n_r
    ]
    racks3 = [
        r for n in range(1, max_fiber_three_points + 1) for n_r in [enumerate_canonical(n, "rack")] for r in n_r
    ]

    def ident(r):
        return tuple(range(len(r)))

    for f in racks2:
        yield PlonkaSystem(((0,),), (f,), {(0, 0): ident(f)})
    meet2 = ((0, 0), (0, 1))
    for top in racks2:
        for bot in racks2:
            for h in rack_homs(top, bot):
                yield PlonkaSystem(
                    meet2,
                    (bot, top),
                    {(0, 0): ident(bot), (1, 1): ident(top), (1, 0): h},
                )
    meet3 = tuple(tuple(min(i, j) for j in range(3)) for i in range(3))
    meet_v = ((0, 0, 0), (0, 1, 0), (0, 0, 2))
    for f0 in racks3:
        for f1 in racks3:
            for f2 in racks3:
                base = {(i, i): ident(f) for i, f in enumerate((f0, f1, f2))}
                for h21 in rack_homs(f2, f1):
                    for h10 in rack_homs(f1, f0):
                        homs = dict(base)
                        homs[(2, 1)] = h21
                        homs[(1, 0)] = h10
                        homs[(2, 0)] = tuple(h10[v] for v in h21)
                        yield PlonkaSystem(meet3, (f0, f1, f2), homs)
                for h10 in rack_homs(f1, f0):
                    for h20 in rack_homs(f2, f0):
                        homs = dict(base)
                        homs[(1, 0)] = h10
                        homs[(2, 0)] = h20
                        yield PlonkaSystem(meet_v, (f0, f1, f2), homs)

"""Shared concrete fixtures: small quasi racks with known property
profiles, and generators for Plonka systems of small racks."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

from yaxl.constructions import (
    SemilatticeSystem,
    all_systems,
    clifford_from_system,
    cyclic_group,
    deformed_quasi_rack,
)
from yaxl.enumeration import enumerate_canonical
from yaxl.solutions import Solution

SRC = Path(__file__).resolve().parent.parent / "src"


def run_python(*args):
    """Run this interpreter on ``args`` with the checkout's ``src`` on the
    path and no bytecode written; the finished process, output captured."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, timeout=120)


def rebind(monkeypatch, fn, replacement):
    """Replace ``fn`` under every name that a yaxl module binds it to."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("yaxl."):
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    monkeypatch.setattr(mod, attr, replacement)


def count_calls(monkeypatch, *fns):
    """{name: calls} for each of ``fns``, counted under every name that a
    yaxl module binds it to; the counts run until the test ends."""
    calls = dict.fromkeys((fn.__name__ for fn in fns), 0)

    def counting(fn):
        def wrapper(*args):
            calls[fn.__name__] += 1
            return fn(*args)

        return wrapper

    for fn in fns:
        rebind(monkeypatch, fn, counting(fn))
    return calls


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

# 4-point solution r(x, y) = (lambda_x(y), rho_y(x)), quasi left and
# right non-degenerate, whose pair map has a relative inverse r^- that
# fails the braid identity at (x, y, z) = (2, 0, 1)
INVERSE_NOT_A_SOLUTION = Solution(
    lam=((0, 1, 1, 1), (0, 1, 2, 3), (0, 1, 2, 3), (0, 1, 2, 3)),
    rho=((2, 2, 2, 2), (0, 1, 2, 3), (0, 3, 2, 1), (0, 1, 2, 3)),
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


def all_rack_systems(max_fiber_two_points=4, max_fiber_three_points=3):
    """Every Plonka system over the semilattices with <= 3 points.

    Fibers range over all racks with at most max_fiber_two_points points
    for one- and two-point semilattices, and at most
    max_fiber_three_points points for the three-point ones (the fully
    exhaustive three-point space is combinatorially much larger; the
    bound keeps the sweep in the tens of thousands).
    """
    racks = [
        r
        for n in range(1, max(max_fiber_two_points, max_fiber_three_points) + 1)
        for r in enumerate_canonical(n, "rack")
    ]

    def fibers(m):
        bound = max_fiber_two_points if m <= 2 else max_fiber_three_points
        return itertools.product([r for r in racks if len(r) <= bound], repeat=m)

    return all_systems(fibers, max_points=3)

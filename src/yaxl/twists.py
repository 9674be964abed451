"""Generalized twists of shelves and the solutions they induce.

A twist family assigns to every carrier element ``a`` a shelf
endomorphism ``phi_a`` that is completely regular; the relative
inverses and idempotents are cached eagerly since every identity below
reuses them.
"""

from __future__ import annotations

from typing import NamedTuple

from .fnmap import compose, guarantee, idempotents_central, relative_inverse, zeros_multiplicative
from .shelves import Magma, is_hom, is_left_shelf, validate_table
from .solutions import Solution, abc_family, derived_shelf


class TwistFamily(NamedTuple):
    table: Magma  # base left shelf
    phi: tuple
    phi_inv: tuple
    phi_zero: tuple

    @property
    def n(self) -> int:
        return len(self.table)


def make_twist_family(table: Magma, phi) -> TwistFamily:
    """Validate and cache: each phi_a must be an endomorphism of the base
    shelf and completely regular."""
    table = validate_table(table)
    n = len(table)
    # n maps on n points: the same shape as a table
    try:
        phi = validate_table(phi)
    except ValueError:
        phi = None
    if phi is None or len(phi) != n:
        raise ValueError(f"phi must be {n} maps of the shelf's {n} points to themselves")
    if not is_left_shelf(table):
        raise ValueError("base table is not a left shelf")
    return _cache_family(table, phi)


def _cache_family(table: Magma, phi) -> TwistFamily:
    """The family over a left shelf, once each phi_a is checked to be an
    endomorphism and completely regular."""
    invs, zeros = [], []
    for p in phi:
        if not is_hom(p, table, table):
            raise ValueError("phi_a is not a shelf endomorphism")
        t = relative_inverse(p)
        if t is None:
            raise ValueError("phi_a is not completely regular")
        invs.append(t.inv)
        zeros.append(t.zero)
    return TwistFamily(table, phi, tuple(invs), tuple(zeros))


def phi_triple_is_endomorphic(t: TwistFamily) -> bool:
    """phi_a^0 and phi_a^- are shelf endomorphisms whenever phi_a^0
    commutes with every translation (checked on all a)."""
    return all(is_hom(f, t.table, t.table) for f in t.phi_zero + t.phi_inv)


def l0_com_holds(t: TwistFamily) -> bool:
    """The three (L0-com) compatibility identities:

    - phi_a^0 L_b == L_b phi_a^0
    - phi^0_{phi_a(b)} == phi_a^0 phi_b^0, the identity of (A)
    - phi^0_{phi_a^0(b)}( L_{phi_a^0(b)}(a) ) == L_b(a)
    """
    n = t.n
    L, zero = t.table, t.phi_zero
    if not idempotents_central(zero, L):
        return False
    for a in range(n):
        za = zero[a]
        for b in range(n):
            zab = za[b]
            if zero[zab][L[zab][a]] != L[b][a]:
                return False
    return zeros_multiplicative(t.phi, zero)


def twisted_composition_holds(t: TwistFamily) -> bool:
    """phi_a phi_b == phi_{phi_a(b)} phi_{phi^-_{phi_a(b)}(L_{phi_a(b)}(a))}."""
    n = t.n
    L, phi, inv = t.table, t.phi, t.phi_inv
    for a in range(n):
        for b in range(n):
            pab = phi[a][b]
            other = inv[pab][L[pab][a]]
            if compose(phi[a], phi[b]) != compose(phi[pab], phi[other]):
                return False
    return True


def phi_idempotents_central(t: TwistFamily) -> bool:
    """phi_a^0 phi_b == phi_b phi_a^0 for all pairs.

    Not part of the g-twist conditions, but necessary for r_phi to be
    quasi left non-degenerate (its lambda family is phi itself), so the
    twist/solution equivalence only holds with it.  Witness without it:
    the right-trivial shelf x |> y = y with phi_a constant at a is a
    g-twist whose r_phi(a, b) = (a, a) is not quasi left non-degenerate.
    """
    return idempotents_central(t.phi_zero, t.phi)


def is_g_twist(t: TwistFamily) -> bool:
    """(L0-com) plus the twisted composition law, on all pairs."""
    return l0_com_holds(t) and twisted_composition_holds(t)


def solution_from_twist(t: TwistFamily) -> Solution:
    """r(a, b) = (phi_a(b), phi^-_{phi_a(b)}(phi_a(b) |> a)).

    Requires a g-twist; the result is guaranteed to be a quasi left
    non-degenerate solution satisfying (A), (B) and (C).
    """
    if not is_g_twist(t):
        raise ValueError("family is not a g-twist")
    if not phi_idempotents_central(t):
        raise ValueError("phi idempotents are not central in the family")
    s = _twist_map(t)
    guarantee(abc_family(s) is not None, "g-twist map is not a quasi-lnd (A)(B)(C) solution")
    return s


def _twist_map(t: TwistFamily) -> Solution:
    """r(a, b) = (phi_a(b), phi^-_p(p |> a)) with p = phi_a(b); column b
    of phi gives rho_b."""
    rho = tuple(tuple(t.phi_inv[p][t.table[p][a]] for a, p in enumerate(col)) for col in zip(*t.phi))
    return Solution(lam=t.phi, rho=rho)


def twist_theorem_roundtrip(t: TwistFamily) -> bool:
    """The twist equivalence, computed blindly on both sides.

    Within the theorem's scope -- families satisfying (L0-com) with
    central idempotents -- [r_phi is a quasi left non-degenerate
    solution with (A), (B), (C)] must coincide with [the twisted
    composition law holds].  Families outside the scope return True
    vacuously (their r_phi can be a perfectly fine solution without the
    family being a g-twist for this base shelf).  The result should
    always be True.
    """
    if not (l0_com_holds(t) and phi_idempotents_central(t)):
        return True
    return (abc_family(_twist_map(t)) is not None) == twisted_composition_holds(t)


def twist_from_solution(s: Solution) -> TwistFamily:
    """Extract the twist presentation of a quasi-lnd (A)(B)(C) solution:
    the lambda family over its structure magma, which ``derived_shelf``
    has already checked to be a left shelf."""
    return _cache_family(derived_shelf(s), validate_table(s.lam))

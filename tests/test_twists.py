import itertools
import random

import pytest

from fixtures import dihedral_quandle, trivial_quandle
from yaxl.enumeration import _search_labeled, abc_solutions, enumerate_canonical
from yaxl.fnmap import identity, relative_inverse
from yaxl.shelves import (
    check_star,
    check_starstar,
    derived_map,
    endomorphisms,
    is_left_shelf,
    quasi_rack_structure,
)
from yaxl.solutions import abc_family, is_solution, quasi_left_nondeg, structure_magma
from yaxl.twists import (
    TwistFamily,
    _twist_map,
    is_g_twist,
    l0_com_holds,
    make_twist_family,
    phi_idempotents_central,
    phi_triple_is_endomorphic,
    solution_from_twist,
    twist_from_solution,
    twist_theorem_roundtrip,
    twisted_composition_holds,
)


def identity_family(table):
    n = len(table)
    return make_twist_family(table, tuple(identity(n) for _ in range(n)))


def test_make_twist_family_validation():
    t = dihedral_quandle(3)
    with pytest.raises(ValueError):
        make_twist_family(t, ((0, 1, 2),))  # wrong family length
    with pytest.raises(ValueError):
        make_twist_family(((1, 0), (1, 1)), ((0, 1), (0, 1)))  # not a shelf
    with pytest.raises(ValueError):
        # (0, 0, 1) is not completely regular
        make_twist_family(trivial_quandle(3), ((0, 0, 1),) * 3)
    with pytest.raises(ValueError):
        # a transposition is not an endomorphism of the dihedral quandle? it is
        # (inner); use a non-endomorphism map instead on the 3-cycle shelf
        make_twist_family(dihedral_quandle(4), ((1, 0, 2, 3),) * 4)


def test_identity_family_is_g_twist():
    t = identity_family(dihedral_quandle(3))
    assert is_g_twist(t)
    assert phi_idempotents_central(t) and phi_triple_is_endomorphic(t)
    s = solution_from_twist(t)
    assert is_solution(s)
    # identity phi gives r(a, b) = (b, b |> a)
    q = dihedral_quandle(3)
    assert all(
        s.apply(a, b) == (b, q[b][a]) for a in range(3) for b in range(3)
    )


def test_translation_family_on_rack():
    # phi_a = L_a on a rack satisfying (*) and (**) is a g-twist
    q = quasi_rack_structure(dihedral_quandle(3))
    t = make_twist_family(q.table, q.table)
    assert is_g_twist(t)
    s = solution_from_twist(t)
    assert is_solution(s) and quasi_left_nondeg(s) is not None


def test_idempotent_translation_family_gives_derived_map():
    # phi_a = L_a^0 reproduces the derived map exactly when (*), (**) hold
    for n in range(1, 4):
        for table in enumerate_canonical(n, "quasi_rack"):
            q = quasi_rack_structure(table)
            if not (check_star(q) and check_starstar(q)):
                continue
            t = make_twist_family(table, q.L_zero)
            assert is_g_twist(t) and phi_idempotents_central(t)
            assert solution_from_twist(t) == derived_map(q)


def test_constant_family_counterexample():
    # x |> y = y with phi_a = const a passes the g-twist conditions but
    # has non-central idempotents; solution_from_twist must refuse
    n = 2
    table = trivial_quandle(n)
    phi = tuple(tuple(a for _ in range(n)) for a in range(n))
    t = make_twist_family(table, phi)
    assert is_g_twist(t)
    assert not phi_idempotents_central(t)
    with pytest.raises(ValueError):
        solution_from_twist(t)
    # the roundtrip check is vacuous outside the centrality scope
    assert twist_theorem_roundtrip(t)


def test_non_g_twist_rejected():
    # on the dihedral quandle the constant family at 0 is an endomorphism
    # family but fails (L0-com)
    n = 3
    phi = (tuple(0 for _ in range(n)),) * n
    t = make_twist_family(dihedral_quandle(n), phi)
    assert not l0_com_holds(t)
    with pytest.raises(ValueError):
        solution_from_twist(t)


def test_twist_extraction_roundtrip():
    q = quasi_rack_structure(dihedral_quandle(3))
    s = derived_map(q)
    t = twist_from_solution(s)
    assert t.table == q.table and t.phi == s.lam
    assert solution_from_twist(t) == s


def test_twist_extraction_checks_the_shelf_once(monkeypatch):
    from yaxl import shelves, solutions, twists

    calls = []

    def counted(table):
        calls.append(table)
        return shelves.is_left_shelf(table)

    monkeypatch.setattr(solutions, "is_left_shelf", counted)
    monkeypatch.setattr(twists, "is_left_shelf", counted)
    twist_from_solution(derived_map(quasi_rack_structure(dihedral_quandle(3))))
    assert len(calls) == 1


@pytest.mark.parametrize("n, solutions, quasi_racks", [(1, 1, 1), (2, 18, 14), (3, 552, 372)])
def test_every_abc_solution_is_a_g_twist(n, solutions, quasi_racks):
    # every quasi left non-degenerate solution with (A), (B), (C) on n
    # points, from the rho placement behind Q2: its structure magma is a
    # left shelf, it has a twist presentation over that shelf, and the
    # presentation gives the solution back
    found = racks = 0
    for s, d in abc_solutions(n):
        assert d == abc_family(s)
        table = structure_magma(s, d)
        assert is_left_shelf(table), s
        t = twist_from_solution(s)
        assert t.table == table and is_g_twist(t), s
        assert solution_from_twist(t) == s
        found += 1
        racks += quasi_rack_structure(table) is not None
    assert (found, racks) == (solutions, quasi_racks)


@pytest.mark.parametrize("n, families, g_twists", [(1, 1, 1), (2, 70, 18), (3, 51960, 552)])
def test_every_g_twist_gives_an_abc_solution(n, families, g_twists):
    # the converse of test_every_abc_solution_is_a_g_twist, not sampled:
    # over every labeled left shelf on n points, every family phi of its
    # completely regular endomorphisms; the g-twists with central phi
    # idempotents induce exactly the (A)(B)(C) solutions, one each
    tried, found = 0, []
    for table in _search_labeled(n, "shelf"):
        triples = [t for t in map(relative_inverse, endomorphisms(table)) if t is not None]
        for combo in itertools.product(triples, repeat=n):
            tried += 1
            t = TwistFamily(table, *map(tuple, zip(*combo)))  # phi, phi^- and phi^0
            if is_g_twist(t) and phi_idempotents_central(t):
                found.append(_twist_map(t))
    assert (tried, len(found)) == (families, g_twists)
    assert set(found) == {s for s, _ in abc_solutions(n)}


def test_twist_from_solution_rejects():
    # flip fails nothing; use a degenerate table failing quasi-lnd
    from yaxl.solutions import Solution

    s = Solution(lam=((0, 0), (0, 0)), rho=((0, 1), (0, 1)))
    assert is_solution(s)
    with pytest.raises(ValueError):
        twist_from_solution(s)


def test_roundtrip_on_random_families():
    rnd = random.Random(2024)
    from yaxl.shelves import endomorphisms
    from yaxl.fnmap import is_completely_regular

    for n in (2, 3):
        for table in enumerate_canonical(n, "quasi_rack"):
            pool = [f for f in endomorphisms(table) if is_completely_regular(f)]
            for _ in range(200):
                phi = tuple(rnd.choice(pool) for _ in range(n))
                t = make_twist_family(table, phi)
                assert twist_theorem_roundtrip(t)

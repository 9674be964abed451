import itertools

import pytest
from hypothesis import given, strategies as st

from fixtures import (
    DS_NO_CONDITIONS,
    SSS_NOT_STAR,
    STAR_NOT_STARSTAR,
    count_calls,
    dihedral_quandle,
    trivial_quandle,
)
from oracles import (
    comp,
    is_right_self_distributive,
    is_self_distributive,
    naive_canonical_form,
    naive_is_quasi_rack,
    rack_homs,
)
from yaxl import shelves
from yaxl.fnmap import compose, identity
from yaxl.shelves import (
    are_isomorphic,
    canonical_form,
    check_star,
    check_starstar,
    check_starstarstar,
    derived_map,
    derived_relative_inverse,
    endomorphisms,
    homomorphisms,
    is_canonical,
    is_left_shelf,
    is_quandle,
    is_quasi_quandle,
    is_rack,
    opposite_right_quasi_rack,
    quasi_rack_structure,
    relabel,
    validate_table,
    verify_translation_lemma,
)
from yaxl.solutions import is_solution


def test_validate_table_errors():
    with pytest.raises(ValueError):
        validate_table(((0, 1), (0,)))
    with pytest.raises(ValueError):
        validate_table(((0, 2), (0, 1)))
    # tables and rows that are not sequences
    with pytest.raises(ValueError):
        validate_table([5])
    with pytest.raises(ValueError):
        validate_table(5)


def test_dihedral_quandle():
    t = dihedral_quandle(3)
    assert is_quandle(t) and is_rack(t) and is_left_shelf(t)
    q = quasi_rack_structure(t)
    assert q is not None and is_quasi_quandle(q)
    # rack translations are bijections, so every idempotent is the identity
    assert all(z == identity(3) for z in q.L_zero)
    assert check_star(q) and check_starstar(q) and check_starstarstar(q)
    assert verify_translation_lemma(q)
    assert is_solution(derived_map(q))


def test_non_shelf_rejected():
    t = ((1, 0), (1, 1))  # L_0 L_0 != L_{0|>0} L_0
    assert not is_left_shelf(t)
    assert quasi_rack_structure(t) is None


def test_property_fixtures():
    q = quasi_rack_structure(STAR_NOT_STARSTAR)
    assert q is not None
    assert check_star(q) and not check_starstar(q)
    q = quasi_rack_structure(SSS_NOT_STAR)
    assert q is not None
    assert check_starstarstar(q) and not check_star(q)
    # (***) always implies (**)
    assert check_starstar(q)


def test_translation_lemma_on_fixtures():
    for table in (STAR_NOT_STARSTAR, SSS_NOT_STAR, DS_NO_CONDITIONS):
        assert verify_translation_lemma(quasi_rack_structure(table))


def test_derived_relative_inverse_requires_sss():
    q = quasi_rack_structure(STAR_NOT_STARSTAR)
    with pytest.raises(ValueError):
        derived_relative_inverse(q)
    q = quasi_rack_structure(SSS_NOT_STAR)
    s = derived_relative_inverse(q)
    assert s.lam == q.L_inv and s.rho == q.L_zero


def test_derived_maps_share_the_quasi_racks_tables():
    # both pair maps are read off the quasi rack's own tuples, uncopied
    q = quasi_rack_structure(SSS_NOT_STAR)
    d, inv = derived_map(q), derived_relative_inverse(q)
    assert d.lam is q.L_zero and d.rho is q.table
    assert inv.lam is q.L_inv and inv.rho is q.L_zero


def test_opposite_right_quasi_rack():
    q = quasi_rack_structure(dihedral_quandle(3))
    t = opposite_right_quasi_rack(q)
    # y <| x = L_x^{-1}(y); dihedral translations are involutions
    assert t == tuple(
        tuple(q.table[x][y] for x in range(3)) for y in range(3)
    )
    with pytest.raises(ValueError):
        opposite_right_quasi_rack(quasi_rack_structure(STAR_NOT_STARSTAR))


def test_opposite_right_quasi_rack_on_every_sss_quasi_rack_n1_to_4():
    from yaxl.enumeration import enumerate_canonical

    tables = [t for n in range(1, 5) for t in enumerate_canonical(n, "quasi_rack", {"starstarstar"})]
    assert len(tables) == 108  # 1 + 3 + 13 + 91, Table 1's (***) column
    for table in tables:
        q = quasi_rack_structure(table)
        t = opposite_right_quasi_rack(q)
        n = q.n
        assert t == tuple(tuple(q.L_inv[x][y] for x in range(n)) for y in range(n))
        assert is_right_self_distributive(t)


def test_transposed_left_shelf_is_right_self_distributive_n0_to_2():
    # the kernel opposite_right_quasi_rack asserts with, on both verdicts
    verdicts = set()
    for n in range(3):
        rows = list(itertools.product(range(n), repeat=n))
        for table in itertools.product(rows, repeat=n):
            verdict = is_right_self_distributive(table)
            assert is_left_shelf(tuple(zip(*table))) == verdict
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_relabel_and_canonical():
    t = dihedral_quandle(3)
    for p in itertools.permutations(range(3)):
        r = relabel(t, p)
        assert are_isomorphic(t, r)
        assert canonical_form(r) == canonical_form(t)
    assert canonical_form(canonical_form(t)) == canonical_form(t)


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(st.integers(0, n - 1), min_size=n, max_size=n),
                       min_size=n, max_size=n)))
def test_canonical_form_matches_naive_on_random_tables(rows):
    table = tuple(tuple(r) for r in rows)
    least = naive_canonical_form(table)
    assert canonical_form(table) == least
    # a list-of-lists input gives the same tuple-of-tuples result
    assert canonical_form(rows) == least
    assert is_canonical(table) == is_canonical(rows) == (table == least)
    assert is_canonical(least)


@pytest.mark.parametrize("n, klass, labeled, classes", [
    (4, "quasi_rack", 5878, 325),
    (5, "rack", 1708, 74),
])
def test_is_canonical_matches_canonical_form_on_labeled_tables(n, klass, labeled, classes):
    from yaxl.enumeration import _search_labeled

    verdicts = [(is_canonical(t), t == canonical_form(t)) for t in _search_labeled(n, klass)]
    assert len(verdicts) == labeled
    assert all(a == b for a, b in verdicts)
    assert sum(a for a, _ in verdicts) == classes


def test_canonical_form_matches_naive_on_labeled_quasi_racks():
    from yaxl.enumeration import _search_labeled

    tables = list(_search_labeled(4, "quasi_rack"))
    assert len(tables) == 5878
    assert all(canonical_form(t) == naive_canonical_form(t) for t in tables)


def test_canonical_guard():
    big = trivial_quandle(9)
    with pytest.raises(ValueError):
        canonical_form(big)
    with pytest.raises(ValueError):
        is_canonical(big)


def test_not_isomorphic():
    assert not are_isomorphic(dihedral_quandle(3), trivial_quandle(3))
    assert not are_isomorphic(trivial_quandle(2), trivial_quandle(3))


def test_endomorphisms_of_trivial_quandle():
    # x |> y = y imposes no constraint: all maps are endomorphisms
    assert sorted(endomorphisms(trivial_quandle(2))) == sorted(
        itertools.product(range(2), repeat=2)
    )


@st.composite
def quasi_rack_tables(draw):
    from yaxl.enumeration import enumerate_canonical

    n = draw(st.integers(1, 3))
    tables = enumerate_canonical(n, "quasi_rack")
    return tables[draw(st.integers(0, len(tables) - 1))]


@given(quasi_rack_tables(), st.permutations(range(3)))
def test_quasi_structure_transports(table, perm):
    n = len(table)
    p = tuple(perm[:n]) if set(perm[:n]) == set(range(n)) else tuple(range(n))
    r = relabel(table, p)
    q1, q2 = quasi_rack_structure(table), quasi_rack_structure(r)
    assert q2 is not None
    # all three conditions are isomorphism-invariant
    assert check_star(q1) == check_star(q2)
    assert check_starstar(q1) == check_starstar(q2)
    assert check_starstarstar(q1) == check_starstarstar(q2)


def test_is_left_shelf_matches_oracle_on_every_table_n0_to_2():
    for n in range(3):
        rows = list(itertools.product(range(n), repeat=n))
        tables = list(itertools.product(rows, repeat=n))
        assert len(tables) == n ** (n * n)
        for table in tables:
            assert is_left_shelf(table) == is_self_distributive(table)


def test_kernels_match_oracles_on_every_table_n3():
    rows = list(itertools.product(range(3), repeat=3))
    for table in itertools.product(rows, repeat=3):
        assert is_left_shelf(table) == is_self_distributive(table)
        q = quasi_rack_structure(table)
        assert (q is not None) == naive_is_quasi_rack(table)
        if q is not None:
            z = q.L_zero
            assert check_star(q) == all(z[t] == comp(z[x], z[y]) for x, row in enumerate(table) for y, t in enumerate(row))


@st.composite
def tables_of_size(draw, low, high):
    """Random tables, and known shelves with at most one cell changed."""
    n = draw(st.integers(low, high))
    if draw(st.booleans()):
        return tuple(draw(st.lists(st.tuples(*[st.integers(0, n - 1)] * n), min_size=n, max_size=n)))
    base = draw(st.sampled_from([dihedral_quandle(n), trivial_quandle(n), tuple((0,) * n for _ in range(n))]))
    rows = [list(row) for row in base]
    if draw(st.booleans()):
        rows[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = draw(st.integers(0, n - 1))
    return tuple(tuple(row) for row in rows)


@given(tables_of_size(4, 6))
def test_is_left_shelf_matches_oracle_n4_to_6(table):
    assert is_left_shelf(table) == is_self_distributive(table)


@given(tables_of_size(7, 9))
def test_is_left_shelf_matches_oracle_n7_to_9(table):
    assert is_left_shelf(table) == is_self_distributive(table)


@pytest.mark.parametrize("n", [256, 257])
def test_is_left_shelf_matches_oracle_at_the_byte_bound(monkeypatch, n):
    # 256 points hold entry 255 in bytes; 257 points go by index
    calls = count_calls(monkeypatch, shelves._is_left_shelf_by_index)
    d = dihedral_quandle(n)
    assert max(d[0]) == n - 1
    changed = [list(row) for row in d]
    changed[1][2] = 1
    for table, verdict in ((d, True), (tuple(map(tuple, changed)), False)):
        assert is_left_shelf(table) == is_self_distributive(table) == verdict
    assert calls["_is_left_shelf_by_index"] == (2 if n > 256 else 0)


def test_homomorphisms_match_the_naive_filter():
    # is_hom decides homomorphisms; rack_homs is the pairwise definition
    tables = [trivial_quandle(1), trivial_quandle(2), dihedral_quandle(3), DS_NO_CONDITIONS, ((0, 0), (1, 1))]
    for src in tables:
        for dst in tables:
            assert list(homomorphisms(src, dst)) == rack_homs(src, dst)

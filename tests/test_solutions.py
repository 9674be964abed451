import itertools
import json
import random
import re

import pytest
from hypothesis import given, strategies as st

from fixtures import INVERSE_NOT_A_SOLUTION, SSS_NOT_STAR, count_calls, dihedral_quandle, trivial_quandle
from oracles import comp, naive_component_identities
from yaxl.constructions import SemilatticeSystem, clifford_table, make_weak_brace
from yaxl.enumeration import enumerate_canonical, search_question2
from yaxl.fnmap import compose, identity, regular_family, relative_inverse
from yaxl.shelves import QuasiRack, derived_map, is_left_shelf, quasi_rack_structure
from yaxl.solutions import (
    Solution,
    _braid_holds,
    abc_family,
    check_A,
    check_B,
    check_C,
    classify,
    constant_lambda_twist,
    derived_shelf,
    from_pair_map,
    is_solution,
    lyubashenko,
    pair_map,
    quasi_bijective,
    quasi_left_nondeg,
    quasi_nondeg,
    quasi_right_nondeg,
    structure_magma,
    verify_section3_identities,
)
from yaxl.twists import make_twist_family


def flip(n):
    """r(x, y) = (y, x): lambda_x = rho_y = id."""
    rows = tuple(identity(n) for _ in range(n))
    return Solution(lam=rows, rho=rows)


def test_flip_is_involutive_nondegenerate():
    s = flip(3)
    assert is_solution(s)
    f = classify(s)
    assert f.bijective and f.involutive and f.nondegenerate
    assert not f.idempotent


def test_pair_map_roundtrip():
    s = flip(3)
    r = pair_map(s)
    # flip sends x*n + y to y*n + x
    assert r == tuple((p % 3) * 3 + p // 3 for p in range(9))
    assert from_pair_map(r, 3) == s
    with pytest.raises(ValueError):
        from_pair_map(r, 2)


def test_not_a_solution():
    # lambda_0 = (1, 0), lambda_1 = id, rho = id rows: braid fails
    s = Solution(lam=((1, 0), (0, 1)), rho=((0, 1), (0, 1)))
    assert not is_solution(s)
    with pytest.raises(ValueError):
        classify(s)


def test_derived_map_of_quandle():
    s = derived_map(quasi_rack_structure(dihedral_quandle(3)))
    assert is_solution(s)
    f = classify(s)
    assert f.bijective and f.left_nd and f.right_nd


def test_quasi_bijective_of_projection():
    # r(x, y) = (y, y): idempotent, its own relative inverse
    n = 3
    s = Solution(
        lam=tuple(identity(n) for _ in range(n)),
        rho=tuple(tuple(y for _ in range(n)) for y in range(n)),
    )
    assert is_solution(s)
    inv = quasi_bijective(s)
    assert inv == s
    assert classify(s).idempotent


def test_quasi_bijective_none():
    # constant solution r(x, y) = (0, x) is not quasi bijective: the
    # pair map collapses column classes non-regularly
    n = 2
    s = Solution(
        lam=tuple((0, 0) for _ in range(n)),
        rho=tuple(identity(n) for _ in range(n)),
    )
    assert is_solution(s)
    assert quasi_bijective(s) is None


def test_relative_inverse_of_a_solution_need_not_be_a_solution():
    s = INVERSE_NOT_A_SOLUTION
    assert is_solution(s) and naive_component_identities(s.lam, s.rho)
    assert quasi_nondeg(s) is not None
    inv = quasi_bijective(s)
    r, g = pair_map(s), pair_map(inv)
    # fgf = f, gfg = g and fg = gf fix the relative inverse uniquely
    assert comp(comp(r, g), r) == r and comp(comp(g, r), g) == g and comp(r, g) == comp(g, r)
    assert not is_solution(inv) and not naive_component_identities(inv.lam, inv.rho)


def test_quasi_nondegeneracy_sides():
    s = derived_map(quasi_rack_structure(SSS_NOT_STAR))
    left = quasi_left_nondeg(s)
    right = quasi_right_nondeg(s)
    assert left is not None and right is not None
    assert quasi_nondeg(s) == (left, right)
    q = quasi_rack_structure(SSS_NOT_STAR)
    # for the derived map, lambda_x = L^0_x is idempotent: inverse = zero = itself
    assert left.inv == q.L_zero and left.zero == q.L_zero


def test_conditions_and_structure_magma():
    q = quasi_rack_structure(dihedral_quandle(3))
    s = derived_map(q)
    d = quasi_left_nondeg(s)
    assert check_A(s, d) and check_B(s, d) and check_C(s, d)
    assert structure_magma(s, d) == q.table
    assert derived_shelf(s) == q.table


def test_structure_magma_without_A():
    # (***) without (*): the structure magma still recovers the table,
    # but derived_shelf refuses because condition (A) fails
    q = quasi_rack_structure(SSS_NOT_STAR)
    s = derived_map(q)
    d = quasi_left_nondeg(s)
    assert not check_A(s, d) and check_B(s, d) and check_C(s, d)
    assert structure_magma(s, d) == q.table
    with pytest.raises(ValueError):
        derived_shelf(s)


def test_derived_shelf_rejects_bad_input():
    n = 2
    s = Solution(
        lam=tuple((0, 0) for _ in range(n)),
        rho=tuple(identity(n) for _ in range(n)),
    )
    # lambda^0 = const 0 does not commute with lambda itself? it does;
    # the failure here is condition (B)
    d = quasi_left_nondeg(s)
    if d is not None and not (check_A(s, d) and check_B(s, d) and check_C(s, d)):
        with pytest.raises(ValueError):
            derived_shelf(s)


def _all_pairs(n):
    tables = list(itertools.product(itertools.product(range(n), repeat=n), repeat=n))
    return [Solution(lam=lam, rho=rho) for lam in tables for rho in tables]


def test_abc_family_admits_only_solutions_n2():
    # 70 of the 256 pairs are quasi left non-degenerate with (A), (B), (C);
    # 52 of them fail the braid identity, and the gate refuses those
    pairs = _all_pairs(2)
    abc = [s for s in pairs if (d := quasi_left_nondeg(s)) is not None
           and check_A(s, d) and check_B(s, d) and check_C(s, d)]
    admitted = [s for s in pairs if abc_family(s) is not None]
    assert len(abc) == 70 and len(admitted) == 18
    assert admitted == [s for s in abc if is_solution(s)]
    assert all(abc_family(s) == quasi_left_nondeg(s) for s in admitted)


def test_derived_shelf_returns_a_shelf_or_refuses_n2():
    shelves = 0
    for s in _all_pairs(2):
        try:
            table = derived_shelf(s)
        except ValueError:
            assert abc_family(s) is None
            continue
        assert is_left_shelf(table)
        shelves += 1
    assert shelves == 18


def test_section3_identities_on_derived_maps():
    for table in (SSS_NOT_STAR, dihedral_quandle(3), trivial_quandle(4)):
        report = verify_section3_identities(derived_map(quasi_rack_structure(table)))
        assert report and all(report.values()), report


def test_section3_identities_need_a_quasi_left_nondegenerate_solution():
    # lambda_x = (0, 0, 1) for every x does not permute its image
    s = Solution(lam=((0, 0, 1),) * 3, rho=((0, 1, 2),) * 3)
    assert quasi_left_nondeg(s) is None
    with pytest.raises(ValueError, match="^not a quasi left non-degenerate solution$"):
        verify_section3_identities(s)


def test_lyubashenko():
    f = (0, 1, 1)
    s = lyubashenko(f, f)  # f idempotent, its own relative inverse
    assert is_solution(s)
    assert classify(s).cubic
    with pytest.raises(ValueError):
        lyubashenko((0, 1), (0, 1, 2))
    with pytest.raises(ValueError):
        lyubashenko((1, 0, 2), (0, 2, 1))  # permutations that do not commute
    with pytest.raises(ValueError):
        lyubashenko((0, 0, 1), (0, 0, 1))  # not completely regular
    # an entry off the carrier is named before the commutation test reads it
    with pytest.raises(ValueError, match=r"^map f = \(0, 5\) is not a map on 2 points$"):
        lyubashenko((0, 5), (0, 1))
    with pytest.raises(ValueError, match=r"^map g = \(2, 0\) is not a map on 2 points$"):
        lyubashenko((0, 1), (2, 0))


@pytest.mark.parametrize("f, g", [((0, 5), (0, 1)), ((0, 1), (2, 0)), ((0, 1), (0, 1, 2)), ((1, 0, 2), (0, 2, 1))])
def test_lyubashenko_names_list_maps_as_the_equal_tuples(f, g):
    def outcome(*args):
        with pytest.raises(ValueError) as e:
            lyubashenko(*args)
        return str(e.value)

    assert outcome(list(f), list(g)) == outcome(list(f), g) == outcome(f, list(g)) == outcome(f, g)


@pytest.mark.parametrize("f, g", [(5, (0, 1)), ((0, 1), None), ("01", (0, 1))])
def test_lyubashenko_refuses_maps_that_are_not_sequences(f, g):
    with pytest.raises(ValueError, match="^maps must be lists or tuples$"):
        lyubashenko(f, g)


def test_lyubashenko_checks_r_cubed_for_list_maps(monkeypatch):
    # g is f's relative inverse, so r^3 = r is guaranteed, on r = pair_map(s)
    calls = count_calls(monkeypatch, pair_map)
    assert lyubashenko([1, 2, 0], [2, 0, 1]) == lyubashenko((1, 2, 0), (2, 0, 1))
    assert calls == {"pair_map": 2}


def test_lyubashenko_conditions_profile():
    # f = (0,1,1), g = (1,1,2): commuting, completely regular, but the
    # solution fails condition (B) while (A) and (C) hold
    f, g = (0, 1, 1), (1, 1, 2)
    s = lyubashenko(f, g)
    d = quasi_left_nondeg(s)
    assert d is not None
    assert check_A(s, d) and check_C(s, d) and not check_B(s, d)
    assert structure_magma(s, d) == ((1, 1, 1),) * 3


def test_constant_lambda_twist():
    f = (0, 1, 1)
    s = lyubashenko(f, f)
    t = constant_lambda_twist(s)
    assert is_solution(t)
    zero = relative_inverse(f).zero
    assert all(row == zero for row in t.lam)
    # flip has lambda = rho = id, so its twist is flip again
    assert constant_lambda_twist(flip(3)) == flip(3)


def test_constant_lambda_twist_rejects_varying_lambda():
    s = derived_map(quasi_rack_structure(SSS_NOT_STAR))
    assert s.lam[0] != s.lam[1]
    with pytest.raises(ValueError):
        constant_lambda_twist(s)


@pytest.mark.parametrize(
    "lam, rho, message",
    [
        # (0, 0, 1) does not permute its image {0, 1}
        ((0, 0, 1), ((0, 1, 2),) * 3, "shared lambda is not completely regular"),
        # lambda^0 = (0, 1, 1) and rho_0 = (1, 0, 2) differ in order at 2
        ((0, 1, 1), ((1, 0, 2),) * 3, "lambda^0 does not commute with rho_x"),
        # rho_0 = id commutes with lambda^0, but lambda^0 rho_0 = lambda^0
        ((0, 1, 1), ((0, 1, 2),) * 3, "rho_x != lambda^0 rho_{lambda^0(x)}"),
    ],
    ids=["not-completely-regular", "zero-not-commuting", "rho-not-absorbing-zero"],
)
def test_constant_lambda_twist_refuses_each_precondition(lam, rho, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        constant_lambda_twist(Solution(lam=(lam,) * 3, rho=rho))


@given(st.integers(2, 4), st.randoms(use_true_random=False))
def test_random_tables_agree_with_braid(n, rnd):
    # the braid check against the component identities on arbitrary tables
    lam = tuple(tuple(rnd.randrange(n) for _ in range(n)) for _ in range(n))
    rho = tuple(tuple(rnd.randrange(n) for _ in range(n)) for _ in range(n))
    assert is_solution(Solution(lam=lam, rho=rho)) == naive_component_identities(lam, rho)


def test_braid_holds_matches_component_oracle_on_random_maps():
    # arbitrary maps, so most pairs are rejections, failing at any triple
    rng = random.Random(6)
    verdicts = {True: 0, False: 0}
    for n in (2, 3, 4):
        for _ in range(3000):
            lam = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
            rho = tuple(tuple(rng.randrange(n) for _ in range(n)) for _ in range(n))
            verdict = _braid_holds(Solution(lam=lam, rho=rho))
            assert verdict == naive_component_identities(lam, rho), (lam, rho)
            verdicts[verdict] += 1
    assert verdicts[True] and verdicts[False] > verdicts[True]


_POINT = ((0,),)


@pytest.mark.parametrize(
    "record, fields",
    [
        (Solution(_POINT, _POINT), ("lam", "rho")),
        (quasi_rack_structure(_POINT), ("table", "L_inv", "L_zero")),
        (make_twist_family(_POINT, _POINT), ("table", "phi", "phi_inv", "phi_zero")),
        (clifford_table(_POINT), ("mul", "inv", "idems")),
        (SemilatticeSystem(_POINT, (_POINT,), {(0, 0): (0,)}), ("meet", "fibers", "homs")),
        (make_weak_brace(_POINT, _POINT), ("add", "mul", "add_inv", "mul_inv")),
    ],
    ids=["Solution", "QuasiRack", "TwistFamily", "CliffordTable", "SemilatticeSystem", "WeakBrace"],
)
def test_records_are_frozen_tuples_of_their_fields(record, fields):
    # a record is the tuple of its fields, built by position or keyword
    assert isinstance(record, tuple) and record._fields == fields
    assert type(record)(*record) == record == type(record)(**record._asdict())
    with pytest.raises(AttributeError):
        setattr(record, fields[0], None)


def test_records_are_the_tuples_the_searches_pass():
    lam, rho = s = lyubashenko((0, 0), (0, 0))
    assert (lam, rho) == (s.lam, s.rho)
    for n in (1, 2, 3):
        for t in enumerate_canonical(n, "quasi_rack"):
            assert QuasiRack(t, *regular_family(t)) == quasi_rack_structure(t)
    report = search_question2(2)  # its candidates are Solutions, and json writes each as a pair
    assert report["candidates"] and all(type(c) is Solution for c in report["candidates"])
    pairs = {**report, "candidates": [(c.lam, c.rho) for c in report["candidates"]]}
    assert json.dumps(report) == json.dumps(pairs)

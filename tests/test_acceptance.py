"""End-to-end acceptance suite.

Each test here is a hard gate: the exact enumeration counts, the oracle
equivalences, the theorem guarantees over the complete small-order
enumerations, and the termination of the open-question searches.  All
checks are zero-tolerance.
"""

import hashlib
import itertools
import json
import random
import time

import pytest

from fixtures import (
    DS_NO_CONDITIONS,
    SSS_NOT_STAR,
    STAR_NOT_STARSTAR,
    all_rack_systems,
    deformed_fixture,
)
from oracles import (
    brute_relative_inverses,
    naive_canonical_form,
    naive_class_tables,
    naive_clifford_families,
    naive_component_identities,
)
from yaxl.constructions import dual_weak_brace_fixtures
from yaxl.constructions import (
    WeakBrace,
    all_systems,
    brace_lambda,
    brace_rho,
    brace_solution,
    brace_structure_shelf_check,
    lambda_rho_clifford_check,
    opposite_brace,
    semilattice_sum,
)
from yaxl.enumeration import (
    CLASSES,
    TABLE1_COLUMNS,
    TABLE1_EXPECTED,
    _search_labeled,
    cross_tabulate,
    enumerate_canonical,
    search_question1,
    search_question2,
    table1_row,
)
from yaxl.fnmap import compose, is_completely_regular, relative_inverse
from yaxl.plonka import (
    decompose,
    plonka_sum,
    roundtrip,
    solution_as_strong_semilattice,
    sum_structure_check,
)
from yaxl.shelves import (
    are_isomorphic,
    canonical_form,
    check_star,
    check_starstar,
    check_starstarstar,
    derived_map,
    derived_relative_inverse,
    endomorphisms,
    quasi_rack_structure,
    verify_translation_lemma,
)
from yaxl.solutions import (
    Solution,
    check_A,
    check_B,
    check_C,
    is_solution,
    pair_map,
    quasi_bijective,
    quasi_left_nondeg,
    verify_section3_identities,
)
from yaxl.twists import (
    is_g_twist,
    make_twist_family,
    phi_idempotents_central,
    solution_from_twist,
    twist_from_solution,
    twist_theorem_roundtrip,
)


def all_quasi_racks(max_n=4):
    for n in range(1, max_n + 1):
        for table in enumerate_canonical(n, "quasi_rack"):
            yield quasi_rack_structure(table)


def test_enumeration_table_counts():
    start = time.monotonic()
    for n in (2, 3):
        assert table1_row(n) == TABLE1_EXPECTED[n]
    assert time.monotonic() - start < 10
    start = time.monotonic()
    assert table1_row(4) == TABLE1_EXPECTED[4]
    assert time.monotonic() - start < 600


# the distinct Plonka sums of racks of total size n, for n = 1 ... 5
PLONKA_SUMS = (1, 3, 11, 48, 230)


def test_table1_row_at_5():
    # pinned next to three guards: the published count of 74 racks of
    # order 5 (here), the orbit-stabilizer identity for quasi racks and
    # quasi quandles at n = 5 (tests/test_enumeration.py) and the
    # Plonka-side count of the (*) and (***) cell (below)
    assert len(enumerate_canonical(5, "rack")) == 74
    start = time.monotonic()
    c = cross_tabulate(5)
    assert tuple(c[k] for k in TABLE1_COLUMNS) == TABLE1_EXPECTED[5]
    assert time.monotonic() - start < 60
    assert c["star_and_starstarstar"] == 230
    assert c["ds_minus_star_or_starstar"] == 239
    # observed at every n <= 5, not a theorem: no quasi rack has (***)
    # without (**)
    assert c["starstarstar_minus_starstar"] == 0


def test_plonka_side_count():
    # The quasi racks with (*) and (***) are exactly the Plonka sums of
    # racks, so the distinct sums of total size n count that cell of the
    # cross tabulation.  The count builds each sum from racks, gluing
    # homomorphisms and a generated semilattice; it shares
    # semilattice_sum and canonical_form with the library, but none of
    # the quasi-rack search and none of the (*) and (***) checks.
    racks = {k: enumerate_canonical(k, "rack") for k in range(1, len(PLONKA_SUMS) + 1)}
    for n, expected in enumerate(PLONKA_SUMS, start=1):

        def fibers(m):
            for sizes in itertools.product(range(1, n + 1), repeat=m):
                if sum(sizes) == n:
                    yield from itertools.product(*(racks[k] for k in sizes))

        sums = {canonical_form(semilattice_sum(p)) for p in all_systems(fibers, max_points=n)}
        assert len(sums) == expected
        assert cross_tabulate(n)["star_and_starstarstar"] == expected


def test_enumerator_matches_naive_oracle():
    for n in (1, 2, 3):
        for klass in CLASSES:
            naive = {naive_canonical_form(t) for t in naive_class_tables(n, klass)}
            assert sorted(naive) == enumerate_canonical(n, klass), (n, klass)


def test_relative_inverse_matches_brute_force():
    for n in range(1, 5):
        for f in itertools.product(range(n), repeat=n):
            brute = brute_relative_inverses(f)
            t = relative_inverse(f)
            if t is None:
                assert brute == [] and not is_completely_regular(f)
            else:
                # existence and uniqueness
                assert brute == [t.inv]


def test_derived_solution_theorems():
    for q in all_quasi_racks(4):
        assert verify_translation_lemma(q)
        s = derived_map(q)
        star = check_star(q)
        starstar = check_starstar(q)
        sss = check_starstarstar(q)
        if star or starstar or sss:
            assert is_solution(s)
        if sss:
            assert starstar  # (***) implies (**)
            inv = quasi_bijective(s)
            assert inv is not None
            assert inv == derived_relative_inverse(q)
            r, ri = pair_map(s), pair_map(inv)
            assert compose(compose(r, ri), r) == r
            assert compose(compose(ri, r), ri) == ri
            assert compose(r, ri) == compose(ri, r)


def test_braid_check_matches_component_oracle():
    # derived maps of every quasi rack with n <= 4, every dual weak brace
    # solution and its opposite, and every Q1 lambda x rho pair at n = 2
    fixtures = [derived_map(q) for q in all_quasi_racks(4)]
    for b in dual_weak_brace_fixtures(max_size=5, max_skew_order=4):
        fixtures += [brace_solution(b), brace_solution(opposite_brace(b))]
    families = list(_search_labeled(2, "quasi_rack", shelf=False))
    pairs = [Solution(lam=lam, rho=rho) for lam in families for rho in families]
    assert len(pairs) == 100
    fixtures += pairs
    verdicts = set()
    for s in fixtures:
        verdict = is_solution(s)
        assert verdict == naive_component_identities(s.lam, s.rho), s
        verdicts.add(verdict)
    assert verdicts == {True, False}


def test_plonka_suite():
    decomposed = 0
    for q in all_quasi_racks(4):
        if not (check_star(q) and check_starstarstar(q)):
            continue
        decomposed += 1
        p = decompose(q)
        assert roundtrip(q)
        # the canonical-form route is the oracle for the relabeled equality
        assert are_isomorphic(semilattice_sum(p), q.table)
        assert solution_as_strong_semilattice(p)
    assert decomposed == 63
    systems = 0
    for p in all_rack_systems():
        report = sum_structure_check(p)
        assert report["quasi_rack"] and report["closed_forms"]
        assert solution_as_strong_semilattice(p)
        systems += 1
    assert systems > 20000


def test_weak_brace_suite():
    count = 0
    for b in dual_weak_brace_fixtures(max_size=5, max_skew_order=4):
        count += 1
        s = brace_solution(b)
        assert is_solution(s)
        assert quasi_bijective(s) is not None
        r = pair_map(s)
        rop = pair_map(brace_solution(opposite_brace(b)))
        assert compose(compose(r, rop), r) == r
        assert compose(compose(rop, r), rop) == rop
        assert compose(r, rop) == compose(rop, r)
        assert lambda_rho_clifford_check(b)
        assert brace_structure_shelf_check(b)
    assert count == 84


def test_brace_families_match_the_naive_clifford_check():
    fixtures = list(dual_weak_brace_fixtures(max_size=5, max_skew_order=4))
    # lambda = {const 0, const 1}: closed, but the idempotents do not commute
    negative = WeakBrace(((0, 0), (1, 1)), ((0, 1), (0, 1)), (0, 1), (0, 1))
    for b in fixtures + [opposite_brace(b) for b in fixtures] + [negative]:
        expected = naive_clifford_families(brace_lambda(b), brace_rho(b))
        assert lambda_rho_clifford_check(b) == expected, b
    assert not lambda_rho_clifford_check(negative)


def test_twist_suite():
    # identities on every fixture where (A), (B), (C) all hold
    abc_fixtures = []
    for q in all_quasi_racks(4):
        s = derived_map(q)
        if not is_solution(s):
            continue
        d = quasi_left_nondeg(s)
        if d is None:
            continue
        report = verify_section3_identities(s)
        assert all(report.values()), report
        if check_A(s, d) and check_B(s, d) and check_C(s, d):
            abc_fixtures.append((s, d))
            from yaxl.solutions import derived_shelf

            derived_shelf(s)  # raises if the structure magma is not a shelf
    assert abc_fixtures
    # randomized twist families, 10^4 seeded samples per carrier size
    rnd = random.Random(12345)
    for n in (2, 3, 4):
        pools = []
        for table in enumerate_canonical(n, "quasi_rack"):
            fams = [f for f in endomorphisms(table) if is_completely_regular(f)]
            pools.append((table, fams))
        for _ in range(10000):
            table, fams = pools[rnd.randrange(len(pools))]
            phi = tuple(rnd.choice(fams) for _ in range(n))
            t = make_twist_family(table, phi)
            assert twist_theorem_roundtrip(t)
    # translation families phi_a = L_a over every (*)-and-(**) quasi rack
    # are g-twists, and the idempotent families phi_a = L_a^0 reproduce
    # the derived map bit-exactly
    checked = 0
    for q in all_quasi_racks(4):
        if not (check_star(q) and check_starstar(q)):
            continue
        checked += 1
        assert is_g_twist(make_twist_family(q.table, q.table))
        t0 = make_twist_family(q.table, q.L_zero)
        assert is_g_twist(t0) and phi_idempotents_central(t0)
        s = solution_from_twist(t0)
        assert s == derived_map(q)
        back = twist_from_solution(s)
        assert back.table == q.table and back.phi == q.L_zero
    assert checked == 98


def test_stored_counterexamples():
    q = quasi_rack_structure(STAR_NOT_STARSTAR)
    assert check_star(q) and not check_starstar(q)
    q = quasi_rack_structure(SSS_NOT_STAR)
    assert check_starstarstar(q) and not check_star(q)
    q = quasi_rack_structure(DS_NO_CONDITIONS)
    assert is_solution(derived_map(q))
    assert not check_star(q) and not check_starstar(q)
    q = quasi_rack_structure(deformed_fixture())
    assert check_star(q) and check_starstar(q) and not check_starstarstar(q)
    s = derived_map(q)
    assert is_solution(s)
    assert quasi_bijective(s) is not None


# SHA-256 of json.dumps(candidates) at n = 3, recorded from the unpruned searches
CANDIDATES_SHA256 = {
    search_question1: "c9c946c62f53d55440fccfb5a0e5bfd9d931d84bbd08c383c918831192084585",
    search_question2: "22c4f35841ae0806e99e6d449b4421c238557c53b4c2f0d8cbd0bb1bba2aa6ef",
}


def test_question_searches_terminate():
    # exhaustive (checked, candidates) per question and size
    expected = {
        (search_question1, "pairs_checked"): {1: (1, 0), 2: (100, 8), 3: (393129, 1008)},
        (search_question2, "solutions_meeting_hypotheses"): {1: (1, 0), 2: (14, 4), 3: (264, 78)},
    }
    for n in (1, 2, 3):
        for (fn, checked_key), counts in expected.items():
            start = time.monotonic()
            report = fn(n)
            assert time.monotonic() - start < 1800
            assert report["exhaustive"]
            assert (report[checked_key], len(report["candidates"])) == counts[n]
            if n == 3:
                digest = hashlib.sha256(json.dumps(report["candidates"]).encode()).hexdigest()
                assert digest == CANDIDATES_SHA256[fn]
            # the open status is preserved verbatim; no answer is asserted
            assert "open question" in report["status"]
            assert "asserts no answer" in report["status"]

import itertools

import pytest

from fixtures import (
    SSS_NOT_STAR,
    STAR_NOT_STARSTAR,
    all_rack_systems,
    dihedral_quandle,
    run_python,
    trivial_quandle,
)
from yaxl.constructions import semilattice_sum, validate_system
from yaxl.plonka import (
    PlonkaSystem,
    checked_sum,
    decompose,
    plonka_sum,
    roundtrip,
    solution_as_strong_semilattice,
    sum_structure_check,
)
from yaxl.serialization import magma_to_text, plonka_to_json
from yaxl.shelves import (
    are_isomorphic,
    check_star,
    check_starstarstar,
    homomorphisms,
    is_quasi_quandle,
    is_rack,
    quasi_rack_structure,
)


def two_chain(bottom, top, hom):
    meet = ((0, 0), (0, 1))
    return PlonkaSystem(
        meet,
        (bottom, top),
        {
            (0, 0): tuple(range(len(bottom))),
            (1, 1): tuple(range(len(top))),
            (1, 0): hom,
        },
    )


def test_validate_plonka_errors():
    d3 = dihedral_quandle(3)
    t1 = trivial_quandle(1)
    good = two_chain(t1, d3, (0, 0, 0))
    validate_system(good, is_rack)
    with pytest.raises(ValueError):
        validate_system(two_chain(t1, d3, (0, 0)), is_rack)  # wrong shape
    with pytest.raises(ValueError):
        # fiber that is not a rack (rows not bijective)
        validate_system(two_chain(((0, 0), (0, 0)), d3, (0, 0, 0)), is_rack)
    with pytest.raises(ValueError):
        # non-homomorphism gluing: collapses 0, 1 but not affinely
        validate_system(two_chain(d3, d3, (0, 0, 1)), is_rack)


def test_an_empty_fiber_is_refused():
    # is_rack holds vacuously on no points: the sum of this system would
    # be the one-point table, whose decomposition is a one-point system
    assert is_rack(())
    for p, k in ((two_chain(trivial_quandle(1), (), ()), 1), (two_chain((), trivial_quandle(1), ()), 0)):
        with pytest.raises(ValueError, match=f"^fiber {k} is empty$"):
            validate_system(p, is_rack)
        for build in (plonka_sum, checked_sum, sum_structure_check, solution_as_strong_semilattice):
            with pytest.raises(ValueError, match=f"^fiber {k} is empty$"):
                build(p)


def test_sum_over_point_is_fiber():
    d3 = dihedral_quandle(3)
    p = PlonkaSystem(((0,),), (d3,), {(0, 0): (0, 1, 2)})
    assert plonka_sum(p) == d3


def test_two_chain_sum():
    d3 = dihedral_quandle(3)
    t1 = trivial_quandle(1)
    p = two_chain(t1, d3, (0, 0, 0))
    table = plonka_sum(p)
    q = quasi_rack_structure(table)
    assert q is not None
    assert check_star(q) and check_starstarstar(q)
    assert is_quasi_quandle(q)  # both fibers are quandles
    report = sum_structure_check(p)
    assert all(report.values())
    assert solution_as_strong_semilattice(p)
    # mixed-fiber products land in the bottom fiber
    assert all(table[0][y] == 0 and table[y][0] == 0 for y in range(4))


def test_roundtrip_small():
    d3 = dihedral_quandle(3)
    t1 = trivial_quandle(1)
    p = two_chain(t1, d3, (0, 0, 0))
    table = plonka_sum(p)
    q = quasi_rack_structure(table)
    p2 = decompose(q)
    assert p2.points == 2
    assert sorted(len(f) for f in p2.fibers) == [1, 3]
    assert roundtrip(q)


# decompose with a semilattice_sum that reverses the rows of the true sum,
# run under python -O; the round-trip check must still raise
WRONG_SUM = """
import sys
from yaxl import plonka
from yaxl.shelves import quasi_rack_structure
if __debug__:
    sys.exit("not running under -O")
true_sum = plonka.semilattice_sum
plonka.semilattice_sum = lambda p: true_sum(p)[::-1]
q = quasi_rack_structure({table!r})
print("roundtrip", plonka.roundtrip(q))
try:
    plonka.decompose(q)
except AssertionError as e:
    print("raised:", e)
"""


def test_the_round_trip_check_fires_under_python_O():
    table = plonka_sum(two_chain(trivial_quandle(1), dihedral_quandle(3), (0, 0, 0)))
    done = run_python("-O", "-c", WRONG_SUM.format(table=table))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "roundtrip False",
        "raised: the sum of the decomposition is not the quasi rack",
    ]


# ``yaxl construct plonka-sum`` with the centrality test patched to fail,
# run under python -O; the broken guarantee must still exit 3
NOT_CENTRAL = """
import sys
from yaxl import cli, plonka
if __debug__:
    sys.exit("not running under -O")
plonka.idempotents_central = lambda *args: False
sys.exit(cli.main(["construct", "plonka-sum", sys.argv[1]]))
"""


def test_a_plonka_sum_guarantee_fires_under_python_O(tmp_path):
    path = tmp_path / "sum.json"
    path.write_text(plonka_to_json(two_chain(trivial_quandle(1), dihedral_quandle(3), (0, 0, 0))))
    done = run_python("-O", "-c", NOT_CENTRAL, str(path))
    assert done.returncode == 3, done.stderr
    assert done.stderr.splitlines() == [
        "internal error (theorem guarantee violated): the idempotents L^0 of a Plonka sum are not central"
    ]


# ``yaxl decompose`` with the fiber test patched to fail, run under
# python -O: the system is built by the decomposition, so a failed
# validation is a broken guarantee (exit 3), not bad input (exit 2)
NOT_A_RACK = """
import sys
from yaxl import cli, plonka
if __debug__:
    sys.exit("not running under -O")
def is_rack(table):
    return False
plonka.is_rack = is_rack
sys.exit(cli.main(["decompose", sys.argv[1]]))
"""


def test_a_decomposition_that_fails_validation_fires_under_python_O(tmp_path):
    path = tmp_path / "q.txt"
    path.write_text(magma_to_text(plonka_sum(two_chain(trivial_quandle(1), dihedral_quandle(3), (0, 0, 0)))))
    done = run_python("-O", "-c", NOT_A_RACK, str(path))
    assert done.returncode == 3, done.stderr
    assert done.stderr.splitlines() == [
        "internal error (theorem guarantee violated): "
        "the decomposition is not a Plonka system of racks: fiber 0 fails is_rack"
    ]


def test_decompose_requires_conditions():
    with pytest.raises(ValueError):
        decompose(quasi_rack_structure(STAR_NOT_STARSTAR))


def test_decompose_sss_not_star_requires_star():
    # (***) alone is not enough either
    with pytest.raises(ValueError):
        decompose(quasi_rack_structure(SSS_NOT_STAR))


def test_decompose_rack_is_single_fiber():
    q = quasi_rack_structure(dihedral_quandle(3))
    p = decompose(q)
    assert p.points == 1 and p.fibers == (dihedral_quandle(3),)
    assert roundtrip(q)


def test_rack_homs_helper():
    d3 = dihedral_quandle(3)
    # endomorphisms of the dihedral quandle on 3 points: 3 constants,
    # id and the other 5 affine maps x -> ax + b with a in {1, 2}
    homs = list(homomorphisms(d3, d3))
    assert len(homs) == 9
    assert (0, 1, 2) in homs and (0, 0, 0) in homs
    assert all(tuple(d3[f[x]][f[y]] for _ in [0])[0] == f[d3[x][y]] for f in homs for x in range(3) for y in range(3))


def test_nontrivial_gluing_roundtrip():
    d3 = dihedral_quandle(3)
    for hom in homomorphisms(d3, d3):
        p = two_chain(d3, d3, hom)
        table = plonka_sum(p)
        q = quasi_rack_structure(table)
        assert check_star(q) and check_starstarstar(q)
        p2 = decompose(q)
        assert are_isomorphic(plonka_sum(p2), table)
        assert solution_as_strong_semilattice(p)


def test_three_point_semilattice_v_shape():
    t2 = trivial_quandle(2)
    t1 = trivial_quandle(1)
    meet_v = ((0, 0, 0), (0, 1, 0), (0, 0, 2))
    p = PlonkaSystem(
        meet_v,
        (t1, t2, t2),
        {
            (0, 0): (0,),
            (1, 1): (0, 1),
            (2, 2): (0, 1),
            (1, 0): (0, 0),
            (2, 0): (0, 0),
        },
    )
    table = plonka_sum(p)
    assert len(table) == 5
    q = quasi_rack_structure(table)
    p2 = decompose(q)
    assert p2.points == 3
    assert roundtrip(q)
    # incomparable top points multiply into the bottom
    assert table[1][3] == 0


def test_checked_sum_is_the_general_quasi_rack_structure():
    # the closed forms checked_sum builds are what the generic
    # relative-inverse computation finds on the sum's table
    systems = one_point = 0
    for p in all_rack_systems(3, 2):
        assert checked_sum(p) == quasi_rack_structure(semilattice_sum(p))
        systems += 1
        one_point += any(len(f) == 1 for f in p.fibers)
    assert systems == 368
    # one-point racks are among the fibers (a one-cell translation to invert)
    assert one_point == 87


def test_each_call_checks_the_system_afresh():
    d3, t1 = dihedral_quandle(3), trivial_quandle(1)
    p = two_chain(d3, d3, (0, 1, 2))
    assert plonka_sum(p) and all(sum_structure_check(p).values())
    assert solution_as_strong_semilattice(p)
    # no verdict is kept: a gluing map edited after a check is seen
    p.homs[(1, 0)] = (0, 0, 1)
    for check in (plonka_sum, checked_sum, sum_structure_check, solution_as_strong_semilattice):
        with pytest.raises(ValueError):
            check(p)
    # an invalid system checked after a valid one still raises
    assert plonka_sum(two_chain(t1, d3, (0, 0, 0)))
    with pytest.raises(ValueError):
        sum_structure_check(two_chain(t1, d3, (0, 0)))

import collections
import itertools
import random
import re

import pytest

from yaxl import constructions
from fixtures import count_calls, deformed_fixture, dihedral_quandle, run_python, two_chain_clifford
from oracles import naive_cocycle_verdict, naive_is_group, naive_semilattices
from yaxl.constructions import (
    SemilatticeSystem,
    all_skew_braces,
    all_systems,
    brace_lambda,
    brace_rho,
    brace_solution,
    brace_structure_shelf_check,
    clifford_from_system,
    clifford_table,
    cocycle_extension,
    conjugation_quasi_quandle,
    constant_shelf,
    core_quasi_quandle,
    cyclic_group,
    deformed_quasi_rack,
    dual_weak_brace_fixtures,
    group_fibers,
    groups_of_order,
    is_clifford,
    is_group,
    is_inverse_semigroup,
    is_semilattice,
    klein_group,
    labeled_groups,
    lambda_rho_clifford_check,
    make_weak_brace,
    opposite_brace,
    opposite_trivial_brace,
    semigroup_inverses,
    semilattice_geq,
    semilattices_upto,
    trivial_brace,
    validate_system,
    weak_brace_validate,
)
from yaxl.shelves import (
    check_star,
    check_starstar,
    check_starstarstar,
    homomorphisms,
    is_quasi_quandle,
    is_rack,
    quasi_rack_structure,
)
from yaxl.serialization import system_to_json
from yaxl.solutions import is_solution, lyubashenko, pair_map, quasi_bijective
from yaxl.fnmap import compose, is_idempotent
from yaxl.plonka import checked_sum


def test_semilattices():
    for meet in semilattices_upto(5):
        assert is_semilattice(meet)
    assert len(semilattices_upto(1)) == 1
    assert len(semilattices_upto(2)) == 2
    assert len(semilattices_upto(3)) == 4
    chain2 = semilattices_upto(2)[1]
    assert semilattice_geq(chain2, 1, 0) and not semilattice_geq(chain2, 0, 1)
    assert not is_semilattice(cyclic_group(2))  # not idempotent
    # one per lattice on m + 1 nodes (OEIS A006966): 1, 1, 2, 5, 15 on
    # 1 ... 5 points
    sizes = [len(meet) for meet in semilattices_upto(5)]
    assert [sizes.count(m) for m in range(1, 6)] == [1, 1, 2, 5, 15]
    # the tables on <= 3 points: a point, the 2-chain, the V (one bottom
    # below two incomparable points) and the 3-chain
    assert semilattices_upto(3) == [
        ((0,),),
        ((0, 0), (0, 1)),
        ((0, 0, 0), (0, 1, 0), (0, 0, 2)),
        tuple(tuple(min(i, j) for j in range(3)) for i in range(3)),
    ]


@pytest.mark.parametrize("m", [1, 2, 3, 4])
def test_semilattices_match_the_naive_filter(m):
    expected = naive_semilattices(m)
    assert [t for t in semilattices_upto(m) if len(t) == m] == expected


def test_groups():
    for n in range(1, 5):
        for g in groups_of_order(n):
            assert is_group(g)
            assert clifford_table(g).idems == {0}
    assert not is_group(((0, 0), (0, 0)))
    assert len(list(homomorphisms(cyclic_group(4), cyclic_group(2)))) == 2
    assert len(list(homomorphisms(cyclic_group(2), klein_group()))) == 4
    # n! / |Aut|: 24/2 labelings of Z4 plus 24/6 of the Klein group
    assert len(labeled_groups(4)) == 16


@pytest.mark.parametrize("n", [0, 6])
def test_groups_of_unlisted_orders_are_refused(n):
    # Z_6 alone would leave out S_3, and () is not a group
    with pytest.raises(ValueError, match=f"^groups of order {n} are not listed; orders 1 to 5 are$"):
        groups_of_order(n)


def test_labeled_group_counts():
    # cross-check the small orders against the full n^(n^2) table space,
    # where is_group must agree with the Latin-square definition
    for n in range(1, 4):
        brute = 0
        for flat in itertools.product(range(n), repeat=n * n):
            t = tuple(flat[i * n : (i + 1) * n] for i in range(n))
            assert is_group(t) == naive_is_group(t), t
            brute += is_group(t)
        assert len(labeled_groups(n)) == brute


def test_clifford_table_two_chain():
    c = two_chain_clifford()
    assert c.n == 4
    assert is_clifford(c.mul)
    assert c.idems == frozenset({0, 2})
    # the fiber-2 identity maps down to the bottom identity
    assert c.mul[2][0] == 0
    assert c.inv[3] == 3 and c.inv[1] == 1


def test_clifford_table_rejects():
    with pytest.raises(ValueError):
        clifford_table(((0, 0), (0, 0)))  # left zero band: no unique inverses
    # a group is a Clifford semigroup
    c = clifford_table(cyclic_group(3))
    assert c.inv == (0, 2, 1)
    assert c.idems == frozenset({0})


def test_inverse_semigroup_predicates():
    assert is_inverse_semigroup(cyclic_group(5))
    assert semigroup_inverses(((0, 0), (0, 0))) is None
    # a semilattice is a Clifford semigroup of trivial groups
    assert is_clifford(((0, 1), (1, 1)))
    assert not is_inverse_semigroup(((0, 1), (0, 0)))  # not associative


def test_validate_system_errors():
    z2 = cyclic_group(2)
    meet = ((0, 0), (0, 1))
    good = {(0, 0): (0, 1), (1, 1): (0, 1), (1, 0): (0, 1)}
    validate_system(SemilatticeSystem(meet, (z2, z2), good), is_group)
    bad = dict(good)
    bad[(1, 0)] = (0, 0)  # constant map is a hom, still fine
    validate_system(SemilatticeSystem(meet, (z2, z2), bad), is_group)
    bad[(1, 1)] = (1, 0)  # phi[(a, a)] must be the identity
    with pytest.raises(ValueError):
        validate_system(SemilatticeSystem(meet, (z2, z2), bad), is_group)
    bad2 = dict(good)
    bad2[(1, 0)] = (1, 1)  # not a homomorphism (sends identity to 1)
    with pytest.raises(ValueError):
        validate_system(SemilatticeSystem(meet, (z2, z2), bad2), is_group)


_T2 = ((0, 1), (0, 1))  # x |> y = y
_SWAP = ((1, 0), (1, 0))  # x |> y = the other point; only constants map it into _T2
_SHAPES = {
    "V": ((0, 0, 0), (0, 1, 0), (0, 0, 2)),
    "3-chain": tuple(tuple(min(a, b) for b in range(3)) for a in range(3)),
}


def _refused(shape, maps, fibers=(_T2,) * 3):
    """The message validate_system raises on the rack system of ``shape``
    glued by identities, except for ``maps``."""
    meet = _SHAPES[shape]
    homs = {(a, b): (0, 1) for a in range(3) for b in range(3) if semilattice_geq(meet, a, b)}
    homs.update(maps)
    with pytest.raises(ValueError) as e:
        validate_system(SemilatticeSystem(meet, fibers, homs), is_rack)
    return str(e.value)


@pytest.mark.parametrize("shape", _SHAPES)
def test_validate_system_checks_every_map_in_order(shape):
    # (False, True) == (0, 1), so only the shape check refuses it
    assert _refused(shape, {(1, 1): (False, True)}) == "phi[(1, 1)] has the wrong shape"
    assert _refused(shape, {(1, 1): (1, 0)}) == "phi[(1, 1)] must be the identity"
    assert _refused(shape, {}, (_T2, _SWAP, _T2)) == "phi[(1, 0)] is not a homomorphism"
    if shape == "3-chain":
        assert _refused(shape, {(2, 0): (1, 0)}) == "gluing homomorphisms do not compose"


def _identities(meet):
    return {(a, b): (0, 1) for a in range(len(meet)) for b in range(len(meet)) if semilattice_geq(meet, a, b)}


def _as_lists(x):
    """x with every map (a tuple of ints, or a gluing map of a system) a list."""
    if isinstance(x, SemilatticeSystem):
        return SemilatticeSystem(x.meet, x.fibers, {k: _as_lists(f) for k, f in x.homs.items()})
    return list(x) if isinstance(x, tuple) and all(isinstance(v, int) for v in x) else x


def _outcome(fn, *args):
    try:
        return fn(*args)
    except ValueError as e:
        return str(e)


_CHAIN2 = ((0, 0), (0, 1))
_CHAIN3 = _SHAPES["3-chain"]


@pytest.mark.parametrize(
    "meet, fibers, maps, message",
    [
        (_CHAIN2, (_T2,) * 2, {(1, 0): (1, 0)}, None),
        (_CHAIN3, (_T2,) * 3, {}, None),
        (_CHAIN3, (_T2,) * 3, {(2, 1): (1, 0), (2, 0): (1, 0)}, None),  # (2, 0) is the composite
        (_CHAIN3, (_T2,) * 3, {(1, 1): (False, True)}, "phi[(1, 1)] has the wrong shape"),
        (_CHAIN3, (_T2,) * 3, {(1, 1): (1, 0)}, "phi[(1, 1)] must be the identity"),
        (_CHAIN3, (_T2,) * 3, {(1, 1): 5}, "phi[(1, 1)] must be the identity"),
        (_CHAIN2, (_T2,) * 2, {(1, 0): 5}, "phi[(1, 0)] has the wrong shape"),
        (_CHAIN2, (_T2,) * 2, {(1, 0): None}, "phi[(1, 0)] has the wrong shape"),
        (_CHAIN3, (_T2, _SWAP, _T2), {}, "phi[(1, 0)] is not a homomorphism"),
        (_CHAIN3, (_T2,) * 3, {(2, 0): (1, 0)}, "gluing homomorphisms do not compose"),
        (_SHAPES["V"], (_T2,) * 3, {}, None),
    ],
    ids=["2-chain-swap", "3-chain", "3-chain-composite", "shape", "identity", "not-a-sequence",
         "gluing-int", "gluing-none", "hom", "compose", "V"],
)
def test_validate_system_decides_list_maps_like_tuples(meet, fibers, maps, message):
    system = SemilatticeSystem(meet, fibers, {**_identities(meet), **maps})
    assert _outcome(validate_system, system, is_rack) == message
    assert _outcome(validate_system, _as_lists(system), is_rack) == message


@pytest.mark.parametrize(
    "meet, fibers, homs, message",
    [
        (((0, 5),), (((0,),),), {(0, 0): (0,)}, "operation table must be square"),
        (((0,), (0,)), (((0,),),) * 2, {(0, 0): (0,)}, "operation table must be square"),
        (((0,),), 5, {(0, 0): (0,)}, "fibers must be a list or a tuple"),
        (((0,),), (((0,),),), 5, "homs must be a dict of gluing maps"),
    ],
    ids=["meet-wide", "meet-tall", "fibers", "homs"],
)
def test_validate_system_refuses_malformed_parts(meet, fibers, homs, message):
    # a Python caller's system is not read through the JSON reader's checks
    assert _outcome(validate_system, SemilatticeSystem(meet, fibers, homs), is_rack) == message


@pytest.mark.parametrize(
    "fn, args",
    [
        (is_idempotent, ((0, 0),)),
        (is_idempotent, ((1, 0),)),
        (constant_shelf, (2, (0, 0))),
        (constant_shelf, (3, (1, 2, 0))),
        (lyubashenko, ((0, 0, 2), (0, 0, 2))),
        (lyubashenko, ((1, 2, 0), (2, 0, 1))),  # g is the relative inverse of f
        (lyubashenko, ((1, 0, 2), (0, 2, 1))),
        (lyubashenko, ((0, 0, 1), (0, 0, 1))),
        (checked_sum, (SemilatticeSystem(_CHAIN2, (_T2,) * 2, {**_identities(_CHAIN2), (1, 0): (1, 0)}),)),
        (checked_sum, (SemilatticeSystem(_CHAIN3, (_T2,) * 3, {**_identities(_CHAIN3), (2, 0): (1, 0)}),)),
    ],
    ids=lambda x: getattr(x, "__name__", ""),
)
def test_list_maps_give_the_tuple_result(fn, args):
    assert _outcome(fn, *map(_as_lists, args)) == _outcome(fn, *args)


# clifford_from_system with a semilattice_sum that reverses the rows of the
# true sum, run under python -O; the broken guarantee must still exit 3
WRONG_CLIFFORD_SUM = """
import sys
from yaxl import cli, constructions
if __debug__:
    sys.exit("not running under -O")
true_sum = constructions.semilattice_sum
constructions.semilattice_sum = lambda s: true_sum(s)[::-1]
sys.exit(cli.main(["construct", "clifford", sys.argv[1]]))
"""


def test_a_sum_that_is_not_clifford_fires_under_python_O(tmp_path):
    homs = {(0, 0): (0, 1), (1, 1): (0, 1), (1, 0): (0, 1)}
    path = tmp_path / "two_chain.json"
    path.write_text(system_to_json(SemilatticeSystem(((0, 0), (0, 1)), (cyclic_group(2),) * 2, homs)))
    done = run_python("-O", "-c", WRONG_CLIFFORD_SUM, str(path))
    assert done.returncode == 3, done.stderr
    assert done.stderr.splitlines() == [
        "internal error (theorem guarantee violated): "
        "a strong semilattice of groups did not sum to a Clifford semigroup"
    ]


def test_all_systems_are_clifford():
    count = 0
    for sys in all_systems(group_fibers(4)):
        c = clifford_from_system(sys)
        assert is_clifford(c.mul)
        count += 1
    assert count > 10


def test_conjugation_and_core():
    c = two_chain_clifford()
    conj = conjugation_quasi_quandle(c)
    core = core_quasi_quandle(c)
    for t in (conj, core):
        q = quasi_rack_structure(t)
        assert q is not None and is_quasi_quandle(q)
    # commutative multiplication makes conjugation collapse to x |> y = y y^- y e?
    # here conjugation is x^- y x = y (x^- x) which lands in the meet fiber
    assert conj[0][3] == 1  # conjugating a top element by a bottom one drops it


def test_deformed_quasi_rack():
    t = deformed_fixture()
    q = quasi_rack_structure(t)
    assert q is not None
    assert check_star(q) and check_starstar(q) and not check_starstarstar(q)
    with pytest.raises(ValueError):
        deformed_quasi_rack(two_chain_clifford(), 1)  # 1 is not idempotent


def test_constant_shelf():
    t = constant_shelf(3, (0, 0, 2))
    assert quasi_rack_structure(t) is not None
    with pytest.raises(ValueError):
        constant_shelf(3, (1, 2, 0))  # not idempotent
    with pytest.raises(ValueError):
        constant_shelf(2, (0, 0, 2))
    # an entry off the carrier is named before the idempotency check reads it
    with pytest.raises(ValueError, match=r"^map \(0, 5\) is not a map on 2 points$"):
        constant_shelf(2, (0, 5))


@pytest.mark.parametrize("f", [(0, 5), (0, 1, 1), (1, 0), (0, "a")])
def test_constant_shelf_names_a_list_map_as_the_equal_tuple(f):
    assert _outcome(constant_shelf, 2, list(f)) == _outcome(constant_shelf, 2, f)


@pytest.mark.parametrize("f", [5, None, "01", {0: 0, 1: 1}])
def test_constant_shelf_refuses_a_map_that_is_not_a_sequence(f):
    with pytest.raises(ValueError, match="^map must be a list or a tuple$"):
        constant_shelf(2, f)


def test_cocycle_extension():
    # constant cocycle alpha[i][j][s] = identity: the product quasi rack
    rack = dihedral_quandle(3)
    ident = (0, 1)
    alpha = tuple(tuple(tuple(ident for _ in range(2)) for _ in range(3)) for _ in range(3))
    t = cocycle_extension(rack, 2, alpha)
    assert len(t) == 6
    assert quasi_rack_structure(t) is not None
    # projection to the rack coordinate is a shelf homomorphism
    assert all(
        t[x][y] // 2 == rack[x // 2][y // 2] for x in range(6) for y in range(6)
    )
    # constant idempotent cocycle alpha = const 0 also passes
    const0 = (0, 0)
    alpha2 = tuple(
        tuple(tuple(const0 for _ in range(2)) for _ in range(3)) for _ in range(3)
    )
    t2 = cocycle_extension(rack, 2, alpha2)
    q2 = quasi_rack_structure(t2)
    assert q2 is not None and not check_starstarstar(q2)


def test_cocycle_extension_rejects():
    rack = dihedral_quandle(3)
    bad = (0, 0, 1)  # wait: fiber size 3, map not completely regular
    alpha = tuple(tuple(tuple(bad for _ in range(3)) for _ in range(3)) for _ in range(3))
    with pytest.raises(ValueError, match="condition 1"):
        cocycle_extension(rack, 3, alpha)


def over_a_point(*maps):
    """The cocycle alpha[0][0][s] = maps[s] over the one-point rack."""
    return ((tuple(maps),),)


@pytest.mark.parametrize(
    "maps", [(range(2), range(2)), (bytes(range(2)), bytes(range(2)))], ids=["range", "bytes"]
)
def test_cocycle_extension_takes_only_list_and_tuple_maps(maps):
    # like validate_table and constant_shelf: a map must be a list or a tuple
    with pytest.raises(ValueError, match=re.escape("alpha[0][0](0) is not a map on S")):
        cocycle_extension(((0,),), 2, [[list(maps)]])


def test_cocycle_extension_rejects_conditions_2_and_3():
    point = ((0,),)
    # alpha_1 = swap: alpha_1 alpha_0 = const 1, but alpha_{alpha_1(0)} alpha_1 = id
    with pytest.raises(ValueError, match="condition 2"):
        cocycle_extension(point, 2, over_a_point((0, 0), (1, 0)))
    # x |> y = x: the constant idempotents L^0_x do not commute
    with pytest.raises(ValueError, match="condition 3"):
        cocycle_extension(point, 2, over_a_point((0, 0), (1, 1)))
    assert len(cocycle_extension(point, 2, over_a_point((0, 1), (0, 1)))) == 2


def _cocycle_verdict(rack, s_size, alpha):
    """cocycle_extension's verdict: the number of the condition that
    fails, or the table."""
    try:
        return cocycle_extension(rack, s_size, alpha)
    except ValueError as e:
        return int(re.match(r"condition ([123]) fails", str(e)).group(1))


def _tally(verdicts):
    return collections.Counter(v if isinstance(v, int) else "accepted" for v in verdicts)


def test_cocycle_extension_matches_the_pointwise_oracle_over_a_point():
    # every alpha over the one-point rack with |S| = 3: 27^3 families
    point, maps = ((0,),), list(itertools.product(range(3), repeat=3))
    verdicts = []
    for family in itertools.product(maps, repeat=3):
        alpha = (tuple(family),),
        verdicts.append(_cocycle_verdict(point, 3, alpha))
        assert verdicts[-1] == naive_cocycle_verdict(point, 3, alpha), family
    assert _tally(verdicts) == {1: 10422, 2: 9088, 3: 31, "accepted": 142}


def test_cocycle_extension_matches_the_pointwise_oracle_over_two_points():
    # a seeded sample of the 2 * 4^8 alpha over the two racks on 2 points
    # with |S| = 2; every map on 2 points is completely regular
    racks, maps = (((0, 1), (0, 1)), ((1, 0), (1, 0))), list(itertools.product(range(2), repeat=2))
    rng = random.Random(33)
    verdicts = []
    for _ in range(4000):
        rack = rng.choice(racks)
        alpha = tuple(tuple(tuple(rng.choice(maps) for s in range(2)) for j in range(2)) for i in range(2))
        verdicts.append(_cocycle_verdict(rack, 2, alpha))
        assert verdicts[-1] == naive_cocycle_verdict(rack, 2, alpha), (rack, alpha)
    assert _tally(verdicts) == {2: 3984, 3: 2, "accepted": 14}


@pytest.mark.parametrize("base", [((0, 0), (1, 1)), ((1, 0, 2), (0, 2, 1), (2, 1, 0))])
def test_cocycle_extension_rejects_a_base_that_is_not_a_rack(base):
    # rows that are not permutations; permutation rows that do not distribute
    n = len(base)
    alpha = tuple(tuple(((0,),) for _ in range(n)) for _ in range(n))
    with pytest.raises(ValueError, match="must be a rack"):
        cocycle_extension(base, 1, alpha)


@pytest.mark.parametrize("bad", [(0, 2), (0,), (-1, 0)])
def test_cocycle_extension_rejects_alpha_that_is_not_a_map_on_s(bad):
    with pytest.raises(ValueError, match="not a map on S"):
        cocycle_extension(((0,),), 2, over_a_point(bad, (0, 1)))
    with pytest.raises(ValueError, match="one map on S per"):
        cocycle_extension(((0,),), 2, over_a_point((0, 1)))


@pytest.mark.parametrize(
    "alpha, message",
    [(5, "one map on S per"), ((5,), "one map on S per"), (((5,),), "one map on S per"),
     ((((0, 1),),), "not a map on S")],
)
def test_cocycle_extension_rejects_alpha_that_is_not_a_sequence(alpha, message):
    # over the one-point rack with |S| = 2; the last alpha gives the maps 0 and 1
    with pytest.raises(ValueError, match=message):
        cocycle_extension(((0,),), 2, alpha)


def test_weak_brace_validation():
    c = two_chain_clifford()
    report = weak_brace_validate(c.mul, c.mul)
    assert report["valid"]
    # standard Z4 with the Klein group on the same carrier is a skew brace
    assert weak_brace_validate(cyclic_group(4), klein_group())["valid"]
    # shifting the multiplicative identity away from 0 breaks both the
    # distributive law and the inverse compatibility
    shifted = tuple(tuple((i + j + 1) % 3 for j in range(3)) for i in range(3))
    report = weak_brace_validate(cyclic_group(3), shifted)
    assert not report["valid"]
    assert report["distributivity_failures"] and report["inverse_compat_failures"]
    with pytest.raises(ValueError):
        make_weak_brace(cyclic_group(3), shifted)


def test_make_weak_brace_checks_each_table_once(monkeypatch):
    c = two_chain_clifford()
    calls = count_calls(monkeypatch, constructions.semigroup_inverses, constructions.validate_table)
    b = make_weak_brace(c.mul, c.mul)
    # one of each per table: the report and the brace share them
    assert calls == {"semigroup_inverses": 2, "validate_table": 2}
    assert (b.add_inv, b.mul_inv) == (c.inv, c.inv)


def test_trivial_and_opposite_braces():
    c = two_chain_clifford()
    for b in (trivial_brace(c), opposite_trivial_brace(c)):
        assert is_clifford(b.mul)
        s = brace_solution(b)
        assert is_solution(s)
        assert quasi_bijective(s) is not None
        assert lambda_rho_clifford_check(b)
        assert brace_structure_shelf_check(b)


def test_brace_lambda_rho_shapes():
    c = clifford_table(cyclic_group(3))
    b = trivial_brace(c)
    lam, rho = brace_lambda(b), brace_rho(b)
    # trivial brace over a group: lambda_x(y) = -x + x + y = y
    assert all(lam[x] == (0, 1, 2) for x in range(3))
    # rho_y(x) = y^- x y = x in an abelian group
    assert all(rho[y] == (0, 1, 2) for y in range(3))


def test_opposite_brace_and_rop_identities():
    c = two_chain_clifford()
    b = opposite_trivial_brace(c)
    bop = opposite_brace(b)
    r = pair_map(brace_solution(b))
    rop = pair_map(brace_solution(bop))
    assert compose(compose(r, rop), r) == r
    assert compose(compose(rop, r), rop) == rop


def test_all_skew_braces_order_4():
    braces = all_skew_braces(4)
    assert len(braces) == 40
    for b in braces[:5]:
        assert is_clifford(b.mul)
        assert is_solution(brace_solution(b))


def test_dual_weak_brace_fixtures_are_the_trivial_then_skew_walk():
    # the trivial and opposite-trivial braces of each generated Clifford
    # semigroup, then the skew braces, each (add, mul) at its first place
    walk = []
    for sys in all_systems(group_fibers(5)):
        c = clifford_from_system(sys)
        walk += [trivial_brace(c), opposite_trivial_brace(c)]
    walk += [b for n in range(1, 5) for b in all_skew_braces(n)]
    fixtures = list(dual_weak_brace_fixtures())
    assert fixtures == list(dict.fromkeys(walk)) and len(fixtures) == 84


def test_dual_weak_brace_fixture_count():
    fixtures = list(dual_weak_brace_fixtures(max_size=4, max_skew_order=3))
    keys = {(b.add, b.mul) for b in fixtures}
    assert len(keys) == len(fixtures)  # deduplicated
    assert all(weak_brace_validate(b.add, b.mul)["valid"] for b in fixtures)

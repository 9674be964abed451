import json

import pytest

from fixtures import all_rack_systems, dihedral_quandle, trivial_quandle, two_chain_clifford
from yaxl.constructions import (
    SemilatticeSystem,
    all_systems,
    brace_solution,
    cyclic_group,
    dual_weak_brace_fixtures,
    group_fibers,
    trivial_brace,
)
from yaxl.enumeration import enumerate_canonical
from yaxl.fnmap import identity
from yaxl.plonka import PlonkaSystem, decompose, plonka_sum
from yaxl.serialization import (
    magma_from_json,
    magma_from_text,
    magma_to_json,
    magma_to_text,
    plonka_from_json,
    plonka_to_json,
    solution_from_json,
    solution_from_text,
    solution_to_json,
    solution_to_text,
    system_from_json,
    system_to_json,
    twist_from_json,
    twist_to_json,
    weak_brace_from_json,
    weak_brace_to_json,
)
from yaxl.shelves import check_star, check_starstarstar, derived_map, quasi_rack_structure
from yaxl.twists import make_twist_family


def test_magma_text_roundtrip():
    t = dihedral_quandle(3)
    text = magma_to_text(t)
    assert text == "3\n0 2 1\n2 1 0\n1 0 2\n"
    assert magma_from_text(text) == t
    # comment lines are skipped anywhere, and blank lines after the rows
    assert magma_from_text("# header\n" + text) == t
    assert magma_from_text(text + "\n# count: 1\n\n") == t


def test_magma_text_errors():
    with pytest.raises(ValueError):
        magma_from_text("")
    with pytest.raises(ValueError):
        magma_from_text("x\n0\n")
    with pytest.raises(ValueError):
        magma_from_text("2\n0 1\n")  # missing second row
    with pytest.raises(ValueError):
        magma_from_text("2\n0 1 0\n0 1\n")  # wrong row length
    with pytest.raises(ValueError):
        magma_from_text("2\n0 2\n0 1\n")  # entry out of range
    with pytest.raises(ValueError, match="^line 4: unexpected content after the last row$"):
        magma_from_text("2\n0 1\n0 1\n0 1\n")  # a third row


def test_magma_json_roundtrip():
    t = dihedral_quandle(4)
    assert magma_from_json(magma_to_json(t)) == t
    with pytest.raises(ValueError):
        magma_from_json('{"n": 3, "table": [[0, 1], [1, 0]]}')


def test_solution_text_roundtrip():
    s = derived_map(quasi_rack_structure(dihedral_quandle(3)))
    text = solution_to_text(s)
    assert solution_from_text(text) == s
    with pytest.raises(ValueError):
        solution_from_text("2\n0 1\n0 1\n0 1\n0 1\n")  # no blank separator
    assert solution_from_text(text + "\n") == s
    with pytest.raises(ValueError, match="^line 9: unexpected content after the last row$"):
        solution_from_text(text + "0 1 2\n")  # a fourth rho row
    with pytest.raises(ValueError, match="^line 2: "):
        solution_from_text("0\n0\n")  # no rows, so nothing may follow the size


def test_solution_json_roundtrip():
    s = derived_map(quasi_rack_structure(dihedral_quandle(3)))
    assert solution_from_json(solution_to_json(s)) == s


def test_twist_json_roundtrip():
    t = dihedral_quandle(3)
    fam = make_twist_family(t, tuple(identity(3) for _ in range(3)))
    back = twist_from_json(twist_to_json(fam))
    assert back == fam
    with pytest.raises(ValueError):
        twist_from_json('{"shelf": [[1, 0], [1, 1]], "phi": [[0, 1], [0, 1]]}')


def test_system_json_roundtrip():
    z2 = cyclic_group(2)
    meet = ((0, 0), (0, 1))
    sys = SemilatticeSystem(
        meet, (z2, z2), {(0, 0): (0, 1), (1, 1): (0, 1), (1, 0): (0, 1)}
    )
    assert system_from_json(system_to_json(sys)) == sys


def test_weak_brace_json_roundtrip():
    b = trivial_brace(two_chain_clifford())
    back = weak_brace_from_json(weak_brace_to_json(b))
    assert back == b
    with pytest.raises(ValueError):
        weak_brace_from_json('{"n": 2, "add": [[0, 0], [0, 0]], "mul": [[0, 0], [0, 0]]}')


def test_plonka_json_roundtrip():
    d3 = dihedral_quandle(3)
    t1 = trivial_quandle(1)
    p = PlonkaSystem(
        ((0, 0), (0, 1)),
        (t1, d3),
        {(0, 0): (0,), (1, 1): (0, 1, 2), (1, 0): (0, 0, 0)},
    )
    back = plonka_from_json(plonka_to_json(p))
    assert back == p
    assert plonka_sum(back) == plonka_sum(p)


def _rows(table):
    return [list(row) for row in table]


def _system(sys, fiber_key):
    return {
        "semilattice": {"m": sys.points, "meet": _rows(sys.meet)},
        fiber_key: [_rows(f) for f in sys.fibers],
        "homs": [{"from": a, "to": b, "map": list(f)} for (a, b), f in sorted(sys.homs.items())],
    }


# each writer's object with every row copied into a list, which
# json.dumps writes as the same array a tuple gives
LISTED = {
    "magma": (magma_to_json, lambda t: {"n": len(t), "table": _rows(t)}),
    "solution": (solution_to_json, lambda s: {"n": s.n, "lambda": _rows(s.lam), "rho": _rows(s.rho)}),
    "twist": (twist_to_json, lambda t: {"shelf": _rows(t.table), "phi": _rows(t.phi)}),
    "system": (system_to_json, lambda sys: _system(sys, "groups")),
    "weak_brace": (weak_brace_to_json, lambda b: {"n": b.n, "add": _rows(b.add), "mul": _rows(b.mul)}),
    "plonka": (plonka_to_json, lambda p: _system(p, "fibers")),
}


def _writer_fixtures(kind):
    tables = [t for n in (1, 2, 3) for t in enumerate_canonical(n, "quasi_rack")]
    quasi_racks = [quasi_rack_structure(t) for t in tables]
    braces = list(dual_weak_brace_fixtures(max_size=3, max_skew_order=3))
    if kind == "magma":
        return [()] + tables
    if kind == "solution":
        return [derived_map(q) for q in quasi_racks] + [brace_solution(b) for b in braces]
    if kind == "twist":
        return [make_twist_family(t, t) for t in tables]  # a quasi rack's translations
    if kind == "system":
        return list(all_systems(group_fibers(4)))
    if kind == "weak_brace":
        return braces
    split = [decompose(q) for q in quasi_racks if check_star(q) and check_starstarstar(q)]
    return split + list(all_rack_systems(3, 2))


@pytest.mark.parametrize("kind", LISTED)
def test_json_writers_match_the_listed_objects(kind):
    write, listed = LISTED[kind]
    fixtures = _writer_fixtures(kind)
    assert len(fixtures) > 10
    for obj in fixtures:
        assert write(obj) == json.dumps(listed(obj))

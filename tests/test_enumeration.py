import concurrent.futures
import hashlib
import itertools
import random
from math import factorial

import pytest

from fixtures import count_calls, rebind, run_python
from oracles import (
    choice_question1,
    choice_question2,
    comp,
    naive_abc_solutions,
    naive_automorphism_count,
    naive_canonical_form,
    naive_class_tables,
    naive_first_row_minimum,
    naive_quasi_families,
    naive_question1,
    naive_question2,
)
from yaxl import cli, enumeration, fnmap, shelves, solutions
from yaxl.enumeration import (
    CLASSES,
    FILTERS,
    TABLE1_COLUMNS,
    cross_tabulate,
    enumerate_canonical,
    search_question1,
    search_question2,
    table1_row,
    TABLE1_EXPECTED,
    abc_solutions,
    _candidates,
    _choices,
    _compat_masks,
    _compatible,
    _first_row_minima,
    _not_below,
    _orbits,
    _place,
    _rho_placements,
    _search_labeled,
    _translation_checks,
    _value_index,
    quasi_rack_profile,
)
from yaxl.fnmap import commutes, regular_family
from yaxl.shelves import (
    canonical_form,
    is_canonical,
    is_left_shelf,
    is_quandle,
    is_rack,
    quasi_rack_structure,
)
from yaxl.solutions import Solution, is_solution


def test_spec_validation():
    with pytest.raises(ValueError):
        enumerate_canonical(0, "rack")
    with pytest.raises(ValueError):
        enumerate_canonical(3, "loop")
    with pytest.raises(ValueError):
        enumerate_canonical(3, "rack", frozenset({"star"}))  # filters need quasi
    with pytest.raises(ValueError):
        enumerate_canonical(3, "quasi_rack", frozenset({"bogus"}))


def test_size_guard(monkeypatch):
    assert enumeration.SIZE_GUARD == 5
    with pytest.raises(ValueError):
        enumerate_canonical(6, "quandle")
    # the override bypasses the guard (shown on a lowered guard, since a
    # real n = 6 enumeration is slow)
    monkeypatch.setattr(enumeration, "SIZE_GUARD", 2)
    with pytest.raises(ValueError):
        enumerate_canonical(3, "quandle")
    assert len(enumerate_canonical(3, "quandle", override=True)) == 3


def test_known_rack_and_quandle_counts():
    # racks: 1, 2, 6, 19; quandles: 1, 1, 3, 7
    assert [len(enumerate_canonical(n, "rack")) for n in range(1, 5)] == [1, 2, 6, 19]
    assert [len(enumerate_canonical(n, "quandle")) for n in range(1, 5)] == [1, 1, 3, 7]


def test_shelf_counts_small():
    # left shelves up to isomorphism (cross-checked against the naive
    # full-table-space oracle in the acceptance suite)
    assert [len(enumerate_canonical(n, "shelf")) for n in range(1, 4)] == [1, 6, 48]


def test_output_is_canonical_and_sorted():
    out = enumerate_canonical(3, "quasi_rack")
    assert out == sorted(out)
    assert all(t == canonical_form(t) for t in out)
    assert all(quasi_rack_structure(t) is not None for t in out)
    qq = enumerate_canonical(3, "quasi_quandle")
    assert all(t[x][x] == x for t in qq for x in range(3))


def test_filters():
    star = enumerate_canonical(3, "quasi_rack", filters=("star",))
    assert len(star) == 17
    both = enumerate_canonical(3, "quasi_rack", filters=("star", "starstarstar"))
    assert set(both) <= set(star)
    with pytest.raises(ValueError):
        enumerate_canonical(3, "rack", filters=("star",))


# each filter selects the quasi racks of one Table 1 column
_FILTER_COLUMNS = {
    "star": "qr_star",
    "starstar": "qr_starstar",
    "starstarstar": "qr_starstarstar",
    "derived_is_solution": "ds",
}


def test_profile_keys_are_the_filters():
    q = quasi_rack_structure(enumerate_canonical(3, "quasi_rack")[0])
    assert tuple(quasi_rack_profile(q)) == FILTERS == tuple(_FILTER_COLUMNS)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_each_filter_counts_its_table1_column(n):
    for f, column in _FILTER_COLUMNS.items():
        expected = TABLE1_EXPECTED[n][TABLE1_COLUMNS.index(column)]
        assert len(enumerate_canonical(n, "quasi_rack", [f])) == expected, f


def test_workers_agree():
    for n, klass in [(3, k) for k in CLASSES] + [(4, "quasi_rack"), (5, "rack")]:
        assert enumerate_canonical(n, klass, workers=2) == enumerate_canonical(n, klass)


def test_worker_pool_is_bounded_by_the_chunks(monkeypatch):
    asked, chunks = [], []

    class InlinePool:
        """Records max_workers and the chunks and runs them in this process."""

        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            chunks.extend(items)
            return map(fn, items)

    # enumerate_canonical imports the pool only when it starts one
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
    tables = enumerate_canonical(3, "shelf", workers=1000)
    # the roots are the first rows f that no relabeling fixing 0 makes
    # smaller, by index among all maps on 3 points
    roots = [
        i for i, f in enumerate(itertools.product(range(3), repeat=3))
        if all(tuple(q.index(f[v]) for v in q) >= f
               for q in itertools.permutations(range(3)) if q[0] == 0)
    ]
    assert len(roots) == 15
    assert asked and asked[0] <= len(roots)
    # each chunk is a mask over the same index
    assert all(chunks) and sorted(j for c in chunks for j in range(27) if c >> j & 1) == roots
    assert tables == enumerate_canonical(3, "shelf", workers=1)


def test_table1_rows():
    for n in (2, 3):
        assert table1_row(n) == TABLE1_EXPECTED[n]


def test_cross_tabulate_consistency():
    c = cross_tabulate(3)
    assert c["qr"] == 31 and c["r"] == 6
    # observed at every n <= 5, not a theorem: no quasi rack has (***)
    # without (**)
    assert c["starstarstar_minus_starstar"] == 0
    assert c["star_and_starstarstar"] <= min(c["qr_star"], c["qr_starstarstar"])
    # the enumeration's size guard refuses n = 6
    with pytest.raises(ValueError):
        cross_tabulate(6)


@pytest.mark.parametrize("klass, count", [("quasi_rack", 325), ("quasi_quandle", 62)])
def test_searched_quasi_racks_match_quasi_rack_structure(klass, count):
    tables = enumerate_canonical(4, klass)
    assert len(tables) == count
    identity = tuple(range(4))
    quasi_racks = list(enumeration._searched_quasi_racks(tables))
    assert [q.table for q in quasi_racks] == tables
    for q in quasi_racks:
        assert q == quasi_rack_structure(q.table)
        # cross_tabulate's rack test: every idempotent is the identity
        assert all(z == identity for z in q.L_zero) == is_rack(q.table)


def test_table1_builds_no_quasi_rack_structure(monkeypatch, capsys):
    # the search has decided self-distributivity and central idempotents
    def boom(*args):
        raise AssertionError("table1 re-checked a searched quasi rack")

    for fn in (shelves.quasi_rack_structure, fnmap.regular_family, shelves.is_left_shelf):
        rebind(monkeypatch, fn, boom)
    assert cli.main(["table1"]) == 0
    assert '"match": true' in capsys.readouterr().out


def test_table1_inverts_each_distinct_row_once(monkeypatch, capsys):
    calls = []
    relative_inverse = fnmap.relative_inverse

    def counting(f):
        calls.append(f)
        return relative_inverse(f)

    rebind(monkeypatch, relative_inverse, counting)
    assert cli.main(["table1"]) == 0
    # the search's candidate index inverts all n^n maps, n = 2, 3, 4
    assert len(calls) == 4 + 27 + 256 + 60
    capsys.readouterr()
    # the cross-tabulation alone: one call per distinct row of each n's
    # canonical quasi racks (1,403 rows, one call per row, before)
    tables = {n: enumerate_canonical(n, "quasi_rack") for n in (2, 3, 4)}
    monkeypatch.setattr(enumeration, "enumerate_canonical", lambda n, *args, **kwargs: tables[n])
    calls.clear()
    for n in (2, 3, 4):
        assert table1_row(n) == TABLE1_EXPECTED[n]
    assert len(calls) == len(set(calls)) == sum(len({row for t in tables[n] for row in t}) for n in tables)
    assert len(calls) == 60


# the helper fed a row that is not completely regular, run under python -O;
# the broken search guarantee must still raise
NOT_REGULAR = """
import sys
from yaxl import enumeration
if __debug__:
    sys.exit("not running under -O")
try:
    list(enumeration._searched_quasi_racks([((0, 0, 1), (0, 1, 2), (0, 1, 2))]))
except AssertionError as e:
    print("raised:", e)
"""


def test_a_row_that_is_not_completely_regular_fires_under_python_O():
    done = run_python("-O", "-c", NOT_REGULAR)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "raised: a searched quasi-rack row is not completely regular: (0, 0, 1)"
    ]


def test_search_question1_small():
    report = search_question1(2)
    assert report["exhaustive"] and report["pairs_checked"] > 0
    assert "open question" in report["status"]
    # the search records candidates without asserting an answer
    assert isinstance(report["candidates"], list)
    with pytest.raises(ValueError):
        search_question1(4)  # sampling requires a seed


def test_search_question1_seeded():
    a = search_question1(4, seed=7, samples=50)
    b = search_question1(4, seed=7, samples=50)
    assert a == b and not a["exhaustive"]


def test_search_question2_small():
    report = search_question2(2)
    assert report["exhaustive"]
    assert report["solutions_meeting_hypotheses"] > 0
    assert "open question" in report["status"]
    with pytest.raises(ValueError):
        search_question2(4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_question1_matches_unpruned_oracle(n):
    expected = naive_question1(n)
    report = search_question1(n)
    assert {k: report[k] for k in expected} == expected


@pytest.mark.parametrize("n", [1, 2])
def test_question2_matches_unpruned_oracle(n):
    expected = naive_question2(n)
    report = search_question2(n)
    assert {k: report[k] for k in expected} == expected


@pytest.mark.parametrize("n", [1, 2])
def test_abc_solutions_match_unpruned_oracle(n):
    # the same solutions in the same order, each with the relative
    # inverses of its lambda family
    found = [(s.lam, s.rho, list(d.inv)) for s, d in abc_solutions(n)]
    assert found == list(naive_abc_solutions(n))


def _labeled_abc_walk(n):
    # the walk abc_solutions replaced: every labeled lambda family, rho
    # placed for each, every pair decided by abc_family
    lams = _search_labeled(n, "quasi_rack", shelf=False)
    for s in _rho_placements(n, "shelf", lams):
        d = solutions.abc_family(s)
        if d is not None:
            yield s, d


@pytest.mark.parametrize("n, count", [(1, 1), (2, 18), (3, 552)])
def test_abc_solutions_are_the_labeled_walk(n, count):
    # the orbits of the canonical-lambda solutions, in the same order,
    # each with the family that abc_family decides for it
    found = list(abc_solutions(n))
    assert found == list(_labeled_abc_walk(n)) and len(found) == count


def test_question2_is_the_report_of_the_labeled_walk():
    checked, candidates = 0, []
    for s, d in _labeled_abc_walk(3):
        if fnmap.relative_inverse(solutions.pair_map(s)) is not None:
            checked += 1
            if quasi_rack_structure(solutions.structure_magma(s, d)) is None:
                candidates.append((s.lam, s.rho))
    report = search_question2(3)
    assert report["solutions_meeting_hypotheses"] == checked == 264
    assert report["candidates"] == candidates and len(candidates) == 78


def test_cell_filter_drops_only_non_solutions():
    # every table of maps on 2 points as lambda and as rho; the placement
    # is necessary for the braid identity, so whatever it drops must fail it
    maps = list(itertools.product(range(2), repeat=2))
    families = list(itertools.product(maps, repeat=2))
    placed = {(s.lam, s.rho) for s in _rho_placements(2, "shelf", families)}
    kept = dropped = 0
    for lam in families:
        for rho in families:
            if (lam, rho) in placed:
                kept += 1
            else:
                dropped += 1
                assert not is_solution(Solution(lam=lam, rho=rho)), (lam, rho)
    assert kept == len(placed) and dropped


def _first_component_holds(f, g, comps):
    # f_x f_y = f_{f_x(y)} f_{g_y(x)} on every cell: the first braid
    # component of (lambda, rho) = (f, g), the third of (rho, lambda);
    # comps[a, b] is f_a f_b
    n = len(f)
    return all(comps[x, y] == comps[f[x][y], g[y][x]] for x in range(n) for y in range(n))


@pytest.mark.parametrize("families", ["every family on 2 points", "the Q1 families at n = 3"])
def test_rho_placement_is_between_the_braid_components(families):
    # each placed rho passes the first component with lambda, and each rho
    # of the class that passes the first and the third is placed
    if families.startswith("every"):
        n, klass = 2, "shelf"
        maps = list(itertools.product(range(n), repeat=n))
        families = list(itertools.product(maps, repeat=n))
    else:
        n, klass = 3, "quasi_rack"
        families = list(_search_labeled(n, klass, shelf=False))
        assert len(families) == 627
    span = range(n)
    comps = {f: {(a, b): comp(f[a], f[b]) for a in span for b in span} for f in families}
    placed = {lam: [] for lam in families}
    for s in _rho_placements(n, klass, families):
        placed[s.lam].append(s.rho)
    for lam, rhos in placed.items():
        # in the lexicographic order of the tables, and among the families
        assert rhos == sorted(set(rhos)) and set(rhos) <= comps.keys(), lam
        assert all(_first_component_holds(lam, rho, comps[lam]) for rho in rhos), lam
        both = {rho for rho in families if _first_component_holds(lam, rho, comps[lam])
                and _first_component_holds(rho, lam, comps[rho])}
        assert both <= set(rhos), lam


@pytest.mark.parametrize("n, labeled", [(1, 1), (2, 10), (3, 627)])
def test_canonical_lambda_orbits_are_the_labeled_families(n, labeled):
    # Q1 counts its pairs from these orbits and lists its candidates
    # from the orbits of the pairs it finds
    canonical = list(_search_labeled(n, "quasi_rack", shelf=False, canonical=True))
    orbits = _orbits([(lam,) for lam in canonical])
    assert sum(map(len, orbits)) == labeled
    families = list(_search_labeled(n, "quasi_rack", shelf=False))
    assert set().union(*orbits) == {(lam,) for lam in families} and len(families) == labeled


def test_question1_decides_each_admissible_pair_once_without_decoding(monkeypatch):
    calls = count_calls(monkeypatch, solutions.is_solution, solutions.from_pair_map)
    report = search_question1(3)
    assert report["pairs_checked"] == 393129 and len(report["candidates"]) == 1008
    # the full braid check decides each of the 1,332 rho placed over the
    # 117 canonical lambda; the relative inverse of a pair map is not
    # decoded
    assert calls == {"is_solution": 1332, "from_pair_map": 0}


def test_question2_walk_is_pinned(monkeypatch):
    # the rho tables that reach the full braid check at n = 3: the 2,492
    # placed over the 117 canonical lambda (the third component's pairs
    # in which the new row occurs twice are left to it, so a change in
    # the placement's pruning changes this number), then the 552 labeled
    # solutions of their orbits, each decided again
    calls = count_calls(monkeypatch, solutions.abc_family)
    report = search_question2(3)
    assert calls == {"abc_family": 2492 + 552}
    assert report["solutions_meeting_hypotheses"] == 264 and len(report["candidates"]) == 78


def test_question2_builds_each_rows_masks_once(monkeypatch):
    # one _masks_of cache serves every lambda family: 10 calls for the
    # distinct idempotents of the families' compatibility masks, and at
    # most one per map on 3 points (27) in the placement (4,044 in all
    # with a cache per lambda)
    calls = count_calls(monkeypatch, enumeration._masks_of)
    search_question2(3)
    assert calls == {"_masks_of": 37}


CHOICE_SIZES = [[1], [2], [3], [21], [148], [256], [2**31 + 5], [148] * 4 + [256] * 4]


@pytest.mark.parametrize("sizes", CHOICE_SIZES, ids=lambda s: "-".join(map(str, sorted(set(s)))))
def test_choices_is_the_stream_of_random_choice(sizes):
    # a change to how CPython's Random.choice draws would change every
    # sampled report: it fails here first
    sizes = sizes * (8 // len(sizes))  # eight draws a round, as the searches at n = 4 make
    seqs = [range(size) for size in sizes]
    for seed in range(64):
        drawn = _choices(random.Random(seed), sizes, 20000 // len(sizes))
        rng = random.Random(seed)
        expected = [rng.choice(seq) for seq in itertools.islice(itertools.cycle(seqs), 20000)]
        assert [i for idx in drawn for i in idx] == expected, seed


def test_sampled_searches_match_the_choice_loops(monkeypatch):
    calls = count_calls(monkeypatch, solutions.abc_family)
    for n, seeds, samples in ((4, range(8), 10000), (5, range(4), 300)):
        for seed in seeds:
            for search, oracle in ((search_question1, choice_question1),
                                   (search_question2, choice_question2)):
                expected = oracle(n, seed, samples)
                report = search(n, seed=seed, samples=samples)
                assert {k: report[k] for k in expected} == expected, (n, seed, search.__name__)
    # the lambda draws that pass the compatibility masks reach the braid
    # check (about 1 in 1,000 at n = 4); the others are dropped unchecked
    assert calls == {"abc_family": 79}


def test_compatible_is_quasi_left_nondegeneracy():
    cands, _, zeros = _candidates(3, "quasi_rack")
    assert len(cands) == 21
    compat = _compat_masks(zeros, _value_index(cands))
    passed = 0
    for idx in itertools.product(range(21), repeat=3):
        lam = tuple(cands[i] for i in idx)
        ok = _compatible(compat, idx)
        assert ok == (regular_family(lam) is not None), lam
        passed += ok
    assert 0 < passed < 21**3


def test_compatible_is_the_all_pairs_test():
    cands, _, zeros = _candidates(4, "quasi_rack")
    compat = _compat_masks(zeros, _value_index(cands))
    rng = random.Random(23)
    outcomes = set()
    for _ in range(20000):
        # a small pool makes pairwise-compatible lists common
        pool = rng.sample(range(len(cands)), rng.randint(1, 12))
        idx = [rng.choice(pool) for _ in range(rng.randint(1, 8))]
        ok = _compatible(compat, idx)
        assert ok == all(compat[i] >> j & 1 for i in idx for j in idx), idx
        outcomes.add(ok)
    assert outcomes == {False, True}


def _decided(f, sigma, x, y) -> bool:
    # the pairs that _translation_checks' docstring says it decides: the
    # last row placed is x, or it is exactly one of y, t and u, or y = t
    # with u = x
    t, u = f[x][y], sigma[x][y]
    last = max(x, y, t, u)
    return x == last or (y, t, u).count(last) == 1 or (y == t == last and u == x)


def _translation_families(n, sigma) -> list:
    maps = list(itertools.product(range(n), repeat=n))
    checks = _translation_checks(_value_index(maps))(sigma)
    return list(_place(maps, [(1 << len(maps)) - 1] * n, None, *checks))


@pytest.mark.parametrize("n", [2, 3])
def test_translation_checks_decide_exactly_the_stated_pairs(n):
    # every family of maps against every sigma on 2 points, and against
    # seeded sigma tables on 3 points (19,683 families)
    span = range(n)
    pairs = list(itertools.product(span, repeat=2))
    maps = list(itertools.product(span, repeat=n))
    families = list(itertools.product(maps, repeat=n))
    comps = [{(a, b): comp(f[a], f[b]) for a, b in pairs} for f in families]
    tables = list(itertools.product(span, repeat=n * n))
    if n == 3:
        tables = random.Random(2026).sample(tables, 10)
    for flat in tables:
        sigma = [flat[x * n:(x + 1) * n] for x in span]
        holds = [{(x, y): c[x, y] == c[f[x][y], sigma[x][y]] for x, y in pairs}
                 for f, c in zip(families, comps)]
        yielded = _translation_families(n, sigma)
        # yielded iff every decided pair holds, in the order of the product
        assert yielded == [f for f, h in zip(families, holds)
                           if all(h[x, y] for x, y in pairs if _decided(f, sigma, x, y))], sigma
        assert set(yielded) >= {f for f, h in zip(families, holds) if all(h.values())}, sigma
    # self-distributivity leaves no pair undecided: the left shelves
    sigma = [(x,) * n for x in span]
    assert _translation_families(n, sigma) == [f for f in families if is_left_shelf(f)]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_compat_masks_match_the_pairwise_definition(n):
    cands, _, zeros = _candidates(n, "quasi_rack")
    pairs = list(zip(cands, zeros))
    for (f, z), mask in zip(pairs, _compat_masks(zeros, _value_index(cands))):
        expected = sum(
            1 << j for j, (g, w) in enumerate(pairs) if commutes(z, g) and commutes(w, f)
        )
        assert mask == expected


def test_quasi_families_match_naive_filter():
    # same families in the same order: the search digests depend on it
    for n, count in ((1, 1), (2, 10), (3, 627)):
        families = list(_search_labeled(n, "quasi_rack", shelf=False))
        assert len(families) == count
        assert families == naive_quasi_families(n)


@pytest.mark.parametrize("n, count", [(1, 1), (2, 6), (3, 117), (4, 19443)])
def test_canonical_quasi_families(n, count):
    # one lambda family per simultaneous relabeling class
    families = list(_search_labeled(n, "quasi_rack", shelf=False, canonical=True))
    assert len(families) == count
    if n <= 3:
        labeled = _search_labeled(n, "quasi_rack", shelf=False)
        assert families == [f for f in labeled if is_canonical(f)]


@pytest.mark.parametrize("n", [2, 3])
def test_place_without_checks_is_the_product_of_the_rows(n):
    # Q2's pinned digest depends on this order
    maps = list(itertools.product(range(n), repeat=n))
    rng = random.Random(n)
    for _ in range(20):
        allowed = [sorted(rng.sample(range(len(maps)), rng.randrange(len(maps) + 1)))
                   for _ in range(n)]
        row_masks = [sum(1 << i for i in row) for row in allowed]
        expected = list(itertools.product(*([maps[i] for i in row] for row in allowed)))
        assert list(_place(maps, row_masks)) == expected


# Labeled tables yielded by the backtracker, counted before the search
# was pruned, and the SHA-256 of the repr of their list, taken before
# the forced rows covered every pair the placed rows fix: a pruning may
# drop no table, add none and reorder none (the --workers chunks and
# every stream follow this order).
LABELED_COUNTS = {
    (3, "shelf"): (224, "e228739ebfe10c0328eb1f95b0d09dc3e84fc5be3e86ca3c4672054360b9775b"),
    (4, "quasi_rack"): (5878, "35b8538c86420544afd020d1b3cf180c856719f97621c9544201cea10be7c73c"),
    (4, "quasi_quandle"): (
        1008, "100ba31a47b26e3a4ce8490d5bc5b143f023fb22009be852a8d2e34a781a1c58"),
    (5, "rack"): (1708, "9e8aa589336b71adce378cdf5e18cd6f29608932f0dff3ac11ec54584348afd4"),
    (5, "quandle"): (404, "cf80149e217f7c2d1a630decd0c972bca5b6b0b70f81f91e3a7fdbf0d4214b50"),
}


@pytest.mark.parametrize("n, klass", sorted(LABELED_COUNTS))
def test_labeled_counts(n, klass):
    tables = list(_search_labeled(n, klass))
    count, digest = LABELED_COUNTS[n, klass]
    assert len(tables) == count
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == digest


@pytest.mark.parametrize("n, klass", [(n, k) for n in (1, 2, 3) for k in CLASSES])
def test_labeled_stream_is_the_naive_filter_in_order(n, klass):
    tables = list(naive_class_tables(n, klass))
    assert list(_search_labeled(n, klass)) == tables
    # the stream enumerate_canonical walks
    canonical = [t for t in tables if naive_canonical_form(t) == t]
    assert list(_search_labeled(n, klass, canonical=True)) == canonical


# The same for the stream that enumerate_canonical walks, which the
# search prunes to the canonical tables alone: a weaker or a stronger
# prune changes a count here.
CANONICAL_COUNTS = {
    (3, "shelf"): (48, "3b6d866b1992ed0ee1dfade04759192ae0e0a32559e15e91981443d5fa8efee0"),
    (4, "quasi_rack"): (325, "72aeb2bd1f3f040a8fd78f89386ce5bcb43be394fbae0f06bd40a71495448ac8"),
    (4, "quasi_quandle"): (62, "de5e78d0519c838d1eb7139063ce29fd79570e3ac1ffcf46c4c25652a1750ff4"),
    (5, "rack"): (74, "23aa15981778eacbb2b910e117dfe90e599760eab2c754ad912ee28d6d5e9011"),
    (5, "quandle"): (22, "5d0147a22b1e10ce27d3f4de1419f1b05bbf6dfb3bda84510bf14d5dfade7513"),
}


@pytest.mark.parametrize(
    "n, klass",
    [(n, k) for n in (1, 2, 3, 4) for k in CLASSES]
    + [(5, k) for k in ("rack", "quandle", "quasi_quandle")],
)
def test_first_row_tables_match_the_oracle(n, klass):
    # the least relabeled first row of each candidate of each row, and
    # for each row k >= 1 and canonical first row the mask of the
    # candidates whose least is not below it
    maps, rows, _ = _candidates(n, klass)
    expected = [
        {i: naive_first_row_minimum(f, k) for i, f in enumerate(maps) if rows[k] >> i & 1}
        for k in range(n)
    ]
    expected[0] = {i: m for i, m in expected[0].items() if m == maps[i]}
    least = _first_row_minima(n, maps, rows)
    assert least == expected
    not_below = _not_below(least)
    for first in expected[0].values():
        for k in range(1, n):
            assert not_below(k, first) == sum(1 << i for i, m in expected[k].items() if m >= first)


@pytest.mark.parametrize("n, klass", sorted(CANONICAL_COUNTS))
def test_pruned_counts(n, klass):
    tables = list(_search_labeled(n, klass, canonical=True))
    count, digest = CANONICAL_COUNTS[n, klass]
    assert len(tables) == count
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "n, klass",
    [(4, k) for k in ("quasi_rack", "quasi_quandle", "rack", "shelf")]
    + [(5, "rack"), (5, "quandle"), (5, "quasi_quandle")],
)
def test_pruned_stream_filters_the_labeled_stream_in_order(n, klass):
    expected = [t for t in _search_labeled(n, klass) if is_canonical(t)]
    assert list(_search_labeled(n, klass, canonical=True)) == expected


def test_enumerate_does_not_call_is_canonical(monkeypatch):
    # the search decides canonicity itself; both shelves.is_canonical and
    # shelves.canonical_form walk _smaller_relabelings
    def boom(*args):
        raise AssertionError("the enumeration called a relabeling walk")

    monkeypatch.setattr(shelves, "is_canonical", boom)
    monkeypatch.setattr(shelves, "_smaller_relabelings", boom)
    assert len(enumerate_canonical(4, "quasi_rack")) == 325
    assert table1_row(3) == TABLE1_EXPECTED[3]


def test_quandles_of_order_6():
    # the published count of quandles of order 6 (OEIS A181769)
    assert len(enumerate_canonical(6, "quandle", override=True)) == 73


def test_racks_of_order_6():
    # the published count of racks of order 6
    assert len(enumerate_canonical(6, "rack", override=True)) == 353


def test_quandles_of_order_7():
    # OEIS A181769
    assert len(enumerate_canonical(7, "quandle", override=True)) == 298


def test_racks_of_order_7():
    # OEIS A181771
    assert len(enumerate_canonical(7, "rack", override=True)) == 2080


def test_quasi_counts_of_order_5():
    # measured with the unpruned search, where the orbit-stabilizer
    # identity holds: 481,823 and 56,784 labeled tables
    assert len(enumerate_canonical(5, "quasi_rack")) == 5176
    assert len(enumerate_canonical(5, "quasi_quandle")) == 649


@pytest.mark.parametrize(
    "n, klass",
    [(n, k) for n in (1, 2, 3, 4) for k in CLASSES]
    + [(5, k) for k in ("rack", "quandle", "quasi_rack", "quasi_quandle")],
)
def test_orbit_stabilizer(n, klass):
    # every labeled table is one relabeling of one canonical table, and a
    # class with automorphism group Aut(T) has n!/|Aut(T)| labeled tables
    labeled = 0
    orbits = 0
    for t in _search_labeled(n, klass):
        labeled += 1
        if is_canonical(t):
            orbits += factorial(n) // naive_automorphism_count(t)
    assert orbits == labeled

"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: plain definitions, full product
spaces, no pruning, no reuse of the library's clever paths.  The one
exception is the pair of sampling loops at the end, which reuse the
library's checks to pin the random stream of the sampled searches.
"""

import functools
import itertools
import random

from yaxl.enumeration import _candidates, _compat_masks, _value_index
from yaxl.fnmap import relative_inverse
from yaxl.shelves import quasi_rack_structure
from yaxl.solutions import Solution, abc_family, is_solution, pair_map, structure_magma


def comp(f, g):
    return tuple(f[x] for x in g)


def or_built_masks(at, m):
    """``enumeration._masks_of`` with every mask OR-ed together from
    ``at``, for a permutation m as for any other map: pre[v][b], the maps
    f with m(f(v)) = b, and the mask of the maps f with f m = m f."""
    span = range(len(m))
    pre = [[0] * len(m) for _ in span]
    for v in span:
        for a in span:
            pre[v][m[a]] |= at[v][a]
    commuting = -1
    for v in span:
        commuting &= sum(at[m[v]][b] & pre[v][b] for b in span)
    return pre, commuting


def brute_relative_inverses(f):
    """All g with fgf = f, gfg = g and fg = gf, by full search."""
    n = len(f)
    out = []
    for g in itertools.product(range(n), repeat=n):
        if (
            comp(comp(f, g), f) == f
            and comp(comp(g, f), g) == g
            and comp(f, g) == comp(g, f)
        ):
            out.append(g)
    return out


def is_self_distributive(t):
    n = len(t)
    return all(
        t[x][t[y][z]] == t[t[x][y]][t[x][z]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def is_right_self_distributive(t):
    """(z <| y) <| x == (z <| x) <| (y <| x) with z <| y = t[z][y]."""
    n = len(t)
    return all(
        t[t[z][y]][x] == t[t[z][x]][t[y][x]]
        for x in range(n)
        for y in range(n)
        for z in range(n)
    )


def naive_is_quasi_rack(t):
    """Plain definition: self-distributive, rows with a relative inverse,
    idempotents fg commuting with every row."""
    if not is_self_distributive(t):
        return False
    zeros = []
    for row in t:
        invs = brute_relative_inverses(row)
        if not invs:
            return False
        zeros.append(comp(row, invs[0]))
    return all(comp(z, row) == comp(row, z) for z in zeros for row in t)


def naive_class_tables(n, klass):
    """Every labeled table of the class, from the full n^(n^2) space."""
    for flat in itertools.product(range(n), repeat=n * n):
        t = tuple(flat[i * n : (i + 1) * n] for i in range(n))
        if klass == "shelf":
            if is_self_distributive(t):
                yield t
        elif klass == "rack":
            if all(len(set(r)) == n for r in t) and is_self_distributive(t):
                yield t
        elif klass == "quandle":
            if (
                all(len(set(r)) == n for r in t)
                and all(t[x][x] == x for x in range(n))
                and is_self_distributive(t)
            ):
                yield t
        elif klass == "quasi_rack":
            if naive_is_quasi_rack(t):
                yield t
        elif klass == "quasi_quandle":
            if all(t[x][x] == x for x in range(n)) and naive_is_quasi_rack(t):
                yield t
        else:
            raise ValueError(klass)


def rack_homs(a, b):
    """Every map f with f(x |> y) = f(x) |> f(y), from the full map space."""
    na, nb = len(a), len(b)
    return [
        f
        for f in itertools.product(range(nb), repeat=na)
        if all(f[a[x][y]] == b[f[x]][f[y]] for x in range(na) for y in range(na))
    ]


def naive_relabel(t, p):
    """The table of the operation transported along the permutation p."""
    n = len(t)
    out = [[None] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[p[x]][p[y]] = p[t[x][y]]
    return tuple(tuple(row) for row in out)


def naive_canonical_form(t):
    """The least of all n! relabelings, each built in full."""
    return min(naive_relabel(t, p) for p in itertools.permutations(range(len(t))))


def naive_first_row_minimum(f, k):
    """The least first row p f q of a relabeled table whose row k is f,
    over every q with q(0) = k and p = q^-1, walking all n! relabelings."""
    n = len(f)
    rows = []
    for q in itertools.permutations(range(n)):
        if q[0] == k:
            p = [q.index(x) for x in range(n)]
            rows.append(tuple(p[f[q[v]]] for v in range(n)))
    return min(rows)


def naive_semilattices(m):
    """The canonical forms of the semilattices on m points, sorted: every
    commutative idempotent table (one per choice of the entries above the
    diagonal, m^(m(m-1)/2) of them) that is associative."""
    span = range(m)
    upper = list(itertools.combinations(span, 2))
    found = set()
    for values in itertools.product(span, repeat=len(upper)):
        t = [[x if x == y else None for y in span] for x in span]
        for (x, y), v in zip(upper, values):
            t[x][y] = t[y][x] = v
        if all(t[t[x][y]][z] == t[x][t[y][z]] for x in span for y in span for z in span):
            found.add(naive_canonical_form(tuple(map(tuple, t))))
    return sorted(found)


def naive_automorphism_count(t):
    """The number of permutations that fix the table."""
    return sum(naive_relabel(t, p) == t for p in itertools.permutations(range(len(t))))


def naive_component_identities(lam, rho):
    """The braid identity of r(x, y) = (lam[x][y], rho[y][x]) in its three
    component forms, on all pairs and triples:

    lam_x lam_y = lam_{lam_x(y)} lam_{rho_y(x)},
    rho_y rho_x = rho_{rho_y(x)} rho_{lam_x(y)},
    lam_{rho_{lam_y(z)}(x)}(rho_z(y)) = rho_{lam_{rho_y(x)}(z)}(lam_x(y)).
    """
    n = len(lam)
    for x in range(n):
        for y in range(n):
            lxy, ryx = lam[x][y], rho[y][x]
            if comp(lam[x], lam[y]) != comp(lam[lxy], lam[ryx]):
                return False
            if comp(rho[y], rho[x]) != comp(rho[ryx], rho[lxy]):
                return False
            for z in range(n):
                if lam[rho[lam[y][z]][x]][rho[z][y]] != rho[lam[ryx][z]][lxy]:
                    return False
    return True


def naive_quasi_families(n):
    """Every n-tuple of completely regular maps on n points whose
    idempotents commute with every member, from the full tuple space."""
    maps = []
    for f in itertools.product(range(n), repeat=n):
        invs = brute_relative_inverses(f)
        if invs:
            maps.append((f, comp(f, invs[0])))
    return [
        tuple(f for f, _ in family)
        for family in itertools.product(maps, repeat=n)
        if all(comp(z, g) == comp(g, z) for _, z in family for g, _ in family)
    ]


def naive_is_completely_regular(f):
    """f maps its image onto itself bijectively."""
    im = set(f)
    return {f[x] for x in im} == im


def naive_cocycle_verdict(rack, s_size, alpha):
    """The first of the three admissibility conditions of a rack cocycle
    that fails (1, 2 or 3), each decided pointwise in the form the paper
    states it, or the extension table, (i, s) encoded as i * s_size + s:

    1. every alpha_ij(s) has a relative inverse, alpha_ij(s)^0 = alpha_ij(s) alpha_ij(s)^-;
    2. alpha_{i, j|>k}(s) alpha_jk(t) = alpha_{i|>j, i|>k}(alpha_ij(s)(t)) alpha_ik(s);
    3. alpha_jk(t)(alpha^0_ik(s)(u)) = alpha^0_{i, j|>k}(s)(alpha_jk(t)(u)).
    """
    rng_x, rng_s = range(len(rack)), range(s_size)
    zeros = {}
    for i, j, s in itertools.product(rng_x, rng_x, rng_s):
        inverses = _brute_relative_inverses_of(alpha[i][j][s])
        if not inverses:
            return 1
        zeros[i, j, s] = comp(alpha[i][j][s], inverses[0])
    for i, j, k, s, t in itertools.product(rng_x, rng_x, rng_x, rng_s, rng_s):
        lhs = comp(alpha[i][rack[j][k]][s], alpha[j][k][t])
        rhs = comp(alpha[rack[i][j]][rack[i][k]][alpha[i][j][s][t]], alpha[i][k][s])
        if lhs != rhs:
            return 2
    for i, j, k, s, t, u in itertools.product(rng_x, rng_x, rng_x, rng_s, rng_s, rng_s):
        if alpha[j][k][t][zeros[i, k, s][u]] != zeros[i, rack[j][k], s][alpha[j][k][t][u]]:
            return 3
    return tuple(
        tuple(rack[i][j] * s_size + alpha[i][j][s][t] for j in rng_x for t in rng_s)
        for i in rng_x
        for s in rng_s
    )


@functools.cache  # the oracle walks every family over a few maps
def _brute_relative_inverses_of(f):
    return brute_relative_inverses(f)


def naive_is_group(t):
    """Latin rows and columns, associativity and a two-sided identity."""
    span = range(len(t))
    return (
        all(len(set(t[a])) == len(t) == len({t[x][a] for x in span}) for a in span)
        and all(t[t[a][b]][c] == t[a][t[b][c]] for a in span for b in span for c in span)
        and any(all(t[e][x] == x == t[x][e] for x in span) for e in span)
    )


def naive_clifford_families(*families):
    """Each family is closed under composition, every member is completely
    regular, and every idempotent member commutes with every member."""
    for family in map(set, families):
        idems = [e for e in family if comp(e, e) == e]
        if not (
            all(comp(f, g) in family for f in family for g in family)
            and all(naive_is_completely_regular(f) for f in family)
            and all(comp(e, f) == comp(f, e) for e in idems for f in family)
        ):
            return False
    return True


def naive_pair_map(lam, rho):
    """r(x, y) = (lam[x][y], rho[y][x]) on the pairs, (x, y) -> x * n + y."""
    n = len(lam)
    return tuple(lam[x][y] * n + rho[y][x] for x in range(n) for y in range(n))


def naive_question1(n):
    """The evidence of the first open-question search, from every pair of
    quasi families with no pruning: solutions of the braid identity whose
    pair map is not completely regular."""
    families = naive_quasi_families(n)
    candidates = [
        (lam, rho)
        for lam in families
        for rho in families
        if naive_component_identities(lam, rho)
        and not naive_is_completely_regular(naive_pair_map(lam, rho))
    ]
    return {"n": n, "exhaustive": True, "pairs_checked": len(families) ** 2,
            "candidates": candidates}


def naive_abc_solutions(n):
    """Every quasi lambda family against every rho table with no pruning,
    in lexicographic order: (lambda, rho, the relative inverses of lambda)
    for each pair that satisfies the braid identity and (A), (B), (C)."""
    maps = list(itertools.product(range(n), repeat=n))
    for lam in naive_quasi_families(n):
        inv = [brute_relative_inverses(f)[0] for f in lam]
        zero = [comp(f, g) for f, g in zip(lam, inv)]
        pairs = [(x, y) for x in range(n) for y in range(n)]
        for rho in itertools.product(maps, repeat=n):
            if (
                naive_component_identities(lam, rho)
                and all(zero[lam[x][y]] == comp(zero[x], zero[y]) for x, y in pairs)
                and all(rho[y][x] == zero[lam[x][y]][rho[zero[x][y]][x]] for x, y in pairs)
                and all(comp(z, g) == comp(g, z) for z in zero for g in rho)
            ):
                yield lam, rho, inv


def naive_question2(n):
    """The evidence of the second open-question search, from
    ``naive_abc_solutions``: the solutions whose pair map is completely
    regular, and among them those whose structure magma is not a quasi
    rack."""
    checked, candidates = 0, []
    for lam, rho, inv in naive_abc_solutions(n):
        if not naive_is_completely_regular(naive_pair_map(lam, rho)):
            continue
        checked += 1
        magma = tuple(
            tuple(lam[x][rho[inv[y][x]][y]] for y in range(n)) for x in range(n)
        )
        if not naive_is_quasi_rack(magma):
            candidates.append((lam, rho))
    return {"n": n, "exhaustive": True, "solutions_meeting_hypotheses": checked,
            "candidates": candidates}


# The seeded sampling loops of the open-question searches with one
# ``rng.choice`` call per drawn member and the all-pairs compatibility
# test, as the searches were first written.  They reuse the library's
# checks: they pin the stream and the sample filters of the searches'
# own loops, not the checks.


def choice_question1(n, seed, samples):
    """The sampled evidence of the first open-question search."""
    candidates = []
    checked = 0
    rng = random.Random(seed)
    cands, _, zeros = _candidates(n, "quasi_rack")
    compat = _compat_masks(zeros, _value_index(cands))
    picks = range(len(cands))
    for _ in range(samples):
        # lambda_0..lambda_{n-1}, then rho_0..rho_{n-1}
        idx = [rng.choice(picks) for _ in range(2 * n)]
        if not all(compat[i] >> j & 1 for i in idx for j in idx):
            continue
        checked += 1
        maps = [cands[i] for i in idx]
        s = Solution(lam=tuple(maps[:n]), rho=tuple(maps[n:]))
        if is_solution(s) and relative_inverse(pair_map(s)) is None:
            candidates.append(s)
    return {"n": n, "exhaustive": False, "seed": seed, "pairs_checked": checked,
            "candidates": [(s.lam, s.rho) for s in candidates]}


def choice_question2(n, seed, samples):
    """The sampled evidence of the second open-question search."""
    all_maps = list(itertools.product(range(n), repeat=n))
    candidates = []
    checked = 0

    def consider(s: Solution):
        nonlocal checked
        d = abc_family(s)
        if d is None or relative_inverse(pair_map(s)) is None:
            return
        checked += 1
        if quasi_rack_structure(structure_magma(s, d)) is None:
            candidates.append(s)

    rng = random.Random(seed)
    cr = _candidates(n, "quasi_rack")[0]
    for _ in range(samples):
        lam = tuple(rng.choice(cr) for _ in range(n))
        rho = tuple(rng.choice(all_maps) for _ in range(n))
        consider(Solution(lam=lam, rho=rho))
    return {"n": n, "exhaustive": False, "seed": seed, "solutions_meeting_hypotheses": checked,
            "candidates": [(s.lam, s.rho) for s in candidates]}

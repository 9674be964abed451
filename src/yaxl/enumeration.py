"""Isomorphism-free enumeration of shelves, racks, quandles and quasi
racks by row-backtracking, plus the open-question counterexample
searches.

One engine, ``_place``, places rows one at a time: it walks each row's
candidate bitmask low bit first, intersects per-candidate compatibility
masks down the tree and calls a placement check after each row.  It
has two callers: the labeled-table search (``_search_labeled``), which
also yields the lambda families of the open-question searches (quasi
rack rows without the self-distributivity checks), and
``_rho_placements``, which places the rho of both open-question
searches given lambda.  Both place the rows of a
translation identity f_x f_y = f_{f_x(y)} f_{sigma(x, y)}: left
self-distributivity L_x L_y = L_{L_x(y)} L_x, and the third braid
component rho_z rho_y = rho_{rho_z(y)} rho_{lambda_y(z)}.
``_translation_checks`` builds the placement checks of either.

The labeled search places left-translation rows.  Candidate rows are
permutations (rack/quandle), completely regular maps (quasi classes) or
arbitrary maps (shelf), indexed once per search by ``_candidates``.
Idempotent centrality (quasi classes) depends only on a pair of
candidates, so it is precomputed as one bitmask of compatible
candidates per candidate, and the search carries the intersection of
the masks of the placed rows.  With the self-distributivity checks a
completed assignment satisfies the class axioms by construction.

The search itself decides isomorphism rejection: with ``canonical`` it
yields a labeled table only if no relabeling is lexicographically
smaller, so each class is represented by its canonical form, without a
call to ``shelves.is_canonical``.  With q(i) the old name of new label
i and p = q^-1, row i of the relabeled table is p L_{q(i)} q.  A
canonical table has L_0 <= m_k(L_k) for every k, where m_k(f) is the
least p f q over the q with q(0) = k: row 0 takes only the f with
m_0(f) = f, and row k >= 1 only the f with m_k(f) >= L_0, a suffix of
the row's candidates sorted once by m_k (``_not_below``).  So only a
relabeling that ties row 0 can beat the table.  When row k is placed
as an f with m_k(f) = L_0, the q with q(0) = k and p f q = L_0 become
live, and after each row every live q is carried in order over the
rows i for which rows i and q(i) are both placed: a smaller relabeled
row prunes the subtree, a greater one drops q, an equal one moves on.
A complete table that survives is canonical; the canonical tables come
out in the order of the labeled stream.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import random

from .fnmap import guarantee, relative_inverse
from .shelves import (
    QuasiRack,
    check_star,
    check_starstar,
    check_starstarstar,
    derived_map,
    quasi_rack_structure,
)
from .solutions import Solution, abc_family, is_solution, pair_map, structure_magma

CLASSES = ("shelf", "rack", "quandle", "quasi_rack", "quasi_quandle")
FILTERS = ("star", "starstar", "starstarstar", "derived_is_solution")

_QUASI = {"quasi_rack", "quasi_quandle"}


# Largest n enumerable without an explicit override.
SIZE_GUARD = 5


def _candidates(n: int, klass: str) -> tuple:
    """The class's candidate rows: its maps in lexicographic order, per
    row the mask of those allowed there (quandle classes pin the
    diagonal), and for a quasi class each map's idempotent, else None."""
    every, zeros = itertools.product(range(n), repeat=n), None
    if klass in ("rack", "quandle"):
        maps = list(itertools.permutations(range(n)))
    elif klass in _QUASI:
        pairs = [(t.f, t.zero) for t in map(relative_inverse, every) if t is not None]
        maps, zeros = [f for f, _ in pairs], [z for _, z in pairs]
    else:
        maps = list(every)
    if klass in ("quandle", "quasi_quandle"):
        rows = [sum(1 << i for i, f in enumerate(maps) if f[x] == x) for x in range(n)]
    else:
        rows = [(1 << len(maps)) - 1] * n
    return maps, rows, zeros


def _value_index(maps) -> list:
    """at[v][a]: the bitmask of the maps f with f(v) = a."""
    span = range(len(maps[0]))
    at = [[0] * len(span) for _ in span]
    for i, f in enumerate(maps):
        for v, a in enumerate(f):
            at[v][a] |= 1 << i
    return at


def _masks_of(at, m) -> tuple:
    """For the maps indexed by ``at`` and a map m: pre[v][b], the maps f
    with m(f(v)) = b, and the mask of the maps f with f m = m f."""
    span = range(len(m))
    pre = [[0] * len(m) for _ in span]
    for v in span:
        for a in span:
            pre[v][m[a]] |= at[v][a]
    commuting = -1
    for v in span:
        commuting &= sum(at[m[v]][b] & pre[v][b] for b in span)
    return pre, commuting


def _compat_masks(zeros, at) -> list:
    """Bit j of mask i is set iff idempotent i (``zeros[i]``, of map i)
    commutes with map j and idempotent j with map i.

    ``at`` is the ``_value_index`` of the maps; the maps commuting with
    each distinct idempotent are one ``_masks_of``.
    """
    members: dict = {}
    for i, z in enumerate(zeros):
        members[z] = members.get(z, 0) | (1 << i)
    commuting = {}  # idempotent -> maps commuting with it
    central = [0] * len(zeros)  # map -> candidates whose idempotent commutes with it
    for z, group in members.items():
        commuting[z] = todo = _masks_of(at, z)[1]
        while todo:
            low = todo & -todo
            todo ^= low
            central[low.bit_length() - 1] |= group
    return [commuting[z] & central[i] for i, z in enumerate(zeros)]


def _place(maps, row_masks, compat=None, place_ok=None, forced=None):
    """Yield every tuple of rows (maps[i_0], ..., maps[i_{n-1}]) with bit
    i_k set in ``row_masks[k]``, depth-first in index order.

    ``compat[i]`` (if given) is the mask of indices allowed in every later
    row once index i is placed; the masks of the placed rows intersect.
    ``place_ok(rows, k)`` is called after row k is placed and rejects it
    by returning False; ``forced(rows, k)`` returns a mask that row k must
    also meet.  With none of the three, the rows come out as
    the ``itertools.product`` of each row's allowed maps.
    """
    n = len(row_masks)
    rows = [None] * n

    def rec(k: int, mask: int):
        if k == n:
            yield tuple(rows)
            return
        todo = mask & row_masks[k]
        if forced is not None:
            todo &= forced(rows, k)
        while todo:
            low = todo & -todo
            todo ^= low
            i = low.bit_length() - 1
            rows[k] = maps[i]
            if place_ok is None or place_ok(rows, k):
                yield from rec(k + 1, mask if compat is None else mask & compat[i])

    yield from rec(0, -1)


def _translation_checks(at):
    """The placement checks of translation identities over the maps
    indexed by ``at`` (``_value_index``): a function ``checks(sigma,
    start=None, then=None)`` that returns ``_place``'s ``place_ok`` and
    ``forced`` for a family f of these maps under the identity f_x f_y =
    f_t f_u, with t = f_x(y) and u = sigma[x][y].  The ``_masks_of`` of
    each distinct row is built once per call of this routine, and shared
    by every sigma that its ``checks`` serves.

    ``forced(rows, k)`` narrows row k's candidates f by every pair with
    x < k in which k is exactly one of y, t and u and the other rows are
    placed, which decides these pairs:

    - y = k asks f_x f = f_t f_u, which puts f(v) among the preimages of
      f_t f_u(v) under f_x (``pre`` of ``_masks_of``);
    - t = k asks f f_u = f_x f_y, which fixes f on the image of f_u
      (``at[v][a]``: the candidates with f(v) = a);
    - u = k asks f_t f = f_x f_y, which puts f(v) among the preimages of
      f_x f_y(v) under f_t;

    and y = t = k with u = x asks that f commute with f_x.  For left
    self-distributivity, u = x: with f = L_k, y = k asks L_x f = L_t L_x
    for t = L_x(k) < k, a placed y with L_x(y) = k asks f L_x = L_x L_y,
    and L_x(k) = k asks that f commute with L_x.  When the map composed
    with f is a bijection, each of the first three leaves at most one
    candidate.  ``start(k, rows[0])``, if given, is a mask that
    each row k >= 1 must also meet.  ``place_ok(rows, k)`` checks
    pointwise the pairs with x = k whose rows y, t and u are placed, and
    then returns ``then(rows, k)`` (if given).

    So every pair is decided when its last row is placed, except a pair
    with x < k in which k occurs twice among y, t and u, other than
    y = t = k with u = x: such a pair is never checked here.  With
    sigma[x][y] = x (self-distributivity) that leaves no pair, and the
    complete families are exactly those that satisfy the identity.
    """
    span = range(len(at))
    masks_of = functools.cache(functools.partial(_masks_of, at))  # once per distinct row

    def checks(sigma, start=None, then=None) -> tuple:
        # below[k]: the (y, u) with y, u <= k in the pairs with x = k
        below = [[(y, u) for y, u in enumerate(sk[:k + 1]) if u <= k] for k, sk in enumerate(sigma)]

        def place_ok(rows, k: int) -> bool:
            fk = rows[k]
            for y, u in below[k]:
                t = fk[y]
                if t <= k:
                    fy, ft, fu = rows[y], rows[t], rows[u]
                    for v in span:
                        if fk[fy[v]] != ft[fu[v]]:
                            return False
            return then is None or then(rows, k)

        def forced(rows, k: int):
            only = start(k, rows[0]) if start is not None and k else -1
            for x in range(k):
                fx, sx = rows[x], sigma[x]
                t, u = fx[k], sx[k]
                if t < k > u:  # y = k
                    pre, ft, fu = masks_of(fx)[0], rows[t], rows[u]
                    for v in span:
                        only &= pre[v][ft[fu[v]]]
                elif t == k and u == x:
                    only &= masks_of(fx)[1]
                for y in range(k):
                    t, u = fx[y], sx[y]
                    if t == k > u:
                        fy, fu = rows[y], rows[u]
                        for v in span:
                            only &= at[fu[v]][fx[fy[v]]]
                    elif u == k > t:
                        fy, pre = rows[y], masks_of(rows[t])[0]
                        for v in span:
                            only &= pre[v][fx[fy[v]]]
                if not only:
                    return 0
            return only

        return place_ok, forced

    return checks


def _first_row_minima(n: int, maps, rows) -> list:
    """least[k][i]: the least first row p f q over the relabelings q with
    q(0) = k (p = q^-1), for each f = maps[i] allowed in row k by the
    mask ``rows[k]``; row 0 keeps only the f with least[0][i] = f, the
    first rows of canonical tables.

    With tau the transposition (0 k) this is the least p' (tau f tau) q'
    over q' with q'(0) = 0, which is the same for every member of the
    orbit of tau f tau under those q'.  So each orbit is built once, the
    first time any member is met, at (n - 1)! relabelings, and its
    minimum recorded for every member.
    """
    fixing = [((0, *rest), sorted(range(n), key=(0, *rest).__getitem__))
              for rest in itertools.permutations(range(1, n))]
    minima: dict = {}  # map -> the least member of its orbit

    def least(f):
        if f not in minima:
            orbit = [tuple([p[f[v]] for v in q]) for q, p in fixing]
            minima.update(dict.fromkeys(orbit, min(orbit)))
        return minima[f]

    out = []
    for k, mask in enumerate(rows):
        tau = list(range(n))
        tau[0], tau[k] = k, 0
        # the set bits of the mask, read off its binary digits low first
        allowed = (i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1")
        out.append({i: least(tuple([tau[maps[i][v]] for v in tau])) for i in allowed})
    out[0] = {i: f for i, f in out[0].items() if f == maps[i]}
    return out


def _not_below(least):
    """not_below(k, first): the mask of the candidates i of row k >= 1
    with least[k][i] >= first (``_first_row_minima``), one bisect over
    the row's distinct minima, sorted once."""
    ranks = [None]
    for row in least[1:]:
        at: dict = {}
        for i, m in row.items():
            at[m] = at.get(m, 0) | 1 << i
        order = sorted(at)  # and masks[j], the candidates at the j greatest minima
        masks = itertools.accumulate(map(at.get, reversed(order)), int.__or__, initial=0)
        ranks.append((order, list(masks)))

    def not_below(k, first):
        order, masks = ranks[k]
        return masks[len(order) - bisect.bisect_left(order, first)]

    return not_below


def _search_labeled(n: int, klass: str, first_rows: int = -1, canonical: bool = False,
                    shelf: bool = True):
    """Yield every labeled table of the class, depth-first.

    Row 0 takes only the candidates in the mask ``first_rows`` (used to
    split the tree across workers).  With ``canonical``, only the tables
    that no relabeling makes smaller are yielded, in the same order.
    With ``shelf=False`` the self-distributivity checks are off: a quasi
    class then yields every family of completely regular maps whose
    idempotents commute with every member (the lambda families of the
    open-question searches), with ``canonical`` one per simultaneous
    relabeling class.
    """
    maps, row_masks, zeros = _candidates(n, klass)
    row_masks[0] &= first_rows
    span = range(n)
    at = _value_index(maps)  # at[v][a]: the candidates f with f(v) = a
    compat = None if zeros is None else _compat_masks(zeros, at)

    if canonical:
        least = _first_row_minima(n, maps, row_masks)
        row_masks[0] &= sum(1 << i for i in least[0])  # the canonical first rows
        index = {f: i for i, f in enumerate(maps)}
        live = [()] * n  # live[k]: (q, p, i) after row k, rows 0..i-1 of p L q tied
        not_below = _not_below(least)

        # by_first[k]: every relabeling (q, p) with q(0) = k but the identity
        by_first = [[] for _ in span]
        for q in itertools.islice(itertools.permutations(span), 1, None):
            by_first[q[0]].append((q, sorted(span, key=q.__getitem__)))

        @functools.cache  # once per row k and candidate i with m_k(maps[i]) = L_0
        def ties(k, i):
            # the relabelings with q(0) = k and p f q = m_k(f), f = maps[i]
            f, m = maps[i], least[k][i]
            return [(q, p, 1) for q, p in by_first[k] if tuple([p[f[v]] for v in q]) == m]

    def still_least(rows, k: int) -> bool:
        # Carry each relabeling that ties the rows compared so far over
        # the rows i <= k with q(i) <= k: a smaller row prunes, a greater
        # row drops q.  Only the q that tie row 0 can beat the table.
        todo = live[k - 1] if k else ()
        c = index[rows[k]]
        if least[k][c] == rows[0]:
            todo = [*todo, *ties(k, c)]
        kept = []
        for q, p, i in todo:
            while i <= k and q[i] <= k:
                row = rows[q[i]]
                new = tuple([p[row[v]] for v in q])
                if new != rows[i]:
                    if new < rows[i]:
                        return False
                    break
                i += 1
            else:
                if i < n:  # not yet decided
                    kept.append((q, p, i))
        live[k] = kept
        return True

    if shelf:  # self-distributivity: sigma(x, y) = x
        canon = (not_below, still_least) if canonical else ()
        checks = _translation_checks(at)([(x,) * n for x in span], *canon)
    else:
        checks = (still_least, lambda rows, k: not_below(k, rows[0]) if k else -1) if canonical else ()
    yield from _place(maps, row_masks, compat, *checks)


def quasi_rack_profile(q: QuasiRack) -> dict:
    """The Table 1 flags of a quasi rack, keyed by the ``FILTERS`` names
    in their order: (*), (**), (***) and whether the derived map is a
    solution."""
    return {
        "star": check_star(q),
        "starstar": check_starstar(q),
        "starstarstar": check_starstarstar(q),
        "derived_is_solution": is_solution(derived_map(q)),
    }


def _searched_quasi_racks(tables):
    """Yield the ``QuasiRack`` of each table, in order, for tables that
    the quasi-class search yielded.

    The search has already decided that each table is a left shelf and
    that its idempotents are central, so neither is checked again.  Each
    distinct row is inverted once per call: the triples are kept, keyed
    by the row itself, only while the generator runs.
    """
    triples: dict = {}
    for table in tables:
        row_triples = []
        for row in table:
            t = triples.get(row)
            if t is None:
                t = triples[row] = relative_inverse(row)
                guarantee(t is not None, f"a searched quasi-rack row is not completely regular: {row}")
            row_triples.append(t)
        yield QuasiRack(table, tuple(t.inv for t in row_triples), tuple(t.zero for t in row_triples))


def _worker(n: int, klass: str, chunk: int) -> list:
    return list(_search_labeled(n, klass, chunk, canonical=True))


def enumerate_canonical(
    n: int, klass: str, filters=(), workers: int = 1, override: bool = False
) -> list:
    """Sorted canonical representatives of every isomorphism class."""
    if n < 1:
        raise ValueError("carrier size must be positive")
    if klass not in CLASSES:
        raise ValueError(f"unknown class {klass!r}")
    filters = frozenset(filters)
    if not filters <= set(FILTERS):
        raise ValueError(f"unknown filters {set(filters) - set(FILTERS)}")
    if filters and klass not in _QUASI:
        raise ValueError("filters only apply to quasi classes")
    if n > SIZE_GUARD and not override:
        raise ValueError(f"n={n} exceeds the size guard ({SIZE_GUARD}); pass the override")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if workers == 1:
        survivors = list(_search_labeled(n, klass, canonical=True))
    else:
        maps, rows, _ = _candidates(n, klass)
        # the canonical first rows, dealt round-robin; each worker builds
        # the other rows' minima itself
        roots = list(_first_row_minima(n, maps, rows[:1])[0])
        chunks = [sum(1 << i for i in roots[w::workers]) for w in range(min(workers, len(roots)))]
        survivors = []
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            for part in pool.map(functools.partial(_worker, n, klass), chunks):
                survivors.extend(part)
    if filters:
        survivors = [q.table for q in _searched_quasi_racks(survivors)
                     if all(map(quasi_rack_profile(q).get, filters))]
    survivors.sort()
    return survivors


def cross_tabulate(n: int, workers: int = 1) -> dict:
    """One enumeration pass over quasi racks, tabulated every way needed.

    Returns the rack / quasi-rack / derived-solution / (*) / (**) / (***)
    counts plus the intersection cells |(*) and (***)|, |(***) minus (**)|
    and |ds minus ((*) or (**))|; the last but one is 0 at every n <= 5
    (observed, not a theorem).  The enumeration's size guard applies.
    """
    counts = {
        "n": n,
        "r": 0,
        "qr": 0,
        "ds": 0,
        "qr_star": 0,
        "qr_starstar": 0,
        "qr_starstarstar": 0,
        "star_and_starstarstar": 0,
        "starstarstar_minus_starstar": 0,
        "ds_minus_star_or_starstar": 0,
    }
    identity = tuple(range(n))
    for q in _searched_quasi_racks(enumerate_canonical(n, "quasi_rack", workers=workers)):
        st, ss, sss, ds = quasi_rack_profile(q).values()
        counts["qr"] += 1
        # a completely regular map is a permutation iff its idempotent is the identity
        counts["r"] += all(z == identity for z in q.L_zero)
        counts["ds"] += ds
        counts["qr_star"] += st
        counts["qr_starstar"] += ss
        counts["qr_starstarstar"] += sss
        counts["star_and_starstarstar"] += st and sss
        counts["starstarstar_minus_starstar"] += sss and not ss
        counts["ds_minus_star_or_starstar"] += ds and not (st or ss)
    return counts


TABLE1_EXPECTED = {
    2: (2, 5, 4, 4, 4, 3),
    3: (6, 31, 20, 17, 19, 13),
    4: (19, 325, 169, 90, 151, 91),
    5: (74, 5176, 2150, 530, 1781, 945),
}

TABLE1_COLUMNS = ("r", "qr", "ds", "qr_star", "qr_starstar", "qr_starstarstar")


def table1_row(n: int, workers: int = 1) -> tuple:
    c = cross_tabulate(n, workers=workers)
    return tuple(c[k] for k in TABLE1_COLUMNS)


# ---------------------------------------------------------------------------
# open-question searches


_STATUS = (
    "open question: this report records search evidence only and "
    "asserts no answer either way"
)


def _report(question: str, n: int, exhaustive: bool, seed, counted: str, checked: int,
            candidates: list) -> dict:
    """A search report; ``counted`` names the count of structures checked."""
    if candidates:
        note = "counterexample candidates listed above"
    elif not exhaustive and checked == 0:
        note = f"no sample met the hypotheses at size {n}; the question remains open"
    else:
        note = f"no counterexample found at size {n}; the question remains open"
    return {
        "question": question,
        "status": _STATUS,
        "n": n,
        "exhaustive": exhaustive,
        "seed": None if exhaustive else seed,  # an exhaustive search draws nothing
        counted: checked,
        "candidates": [(s.lam, s.rho) for s in candidates],
        "note": note,
    }


def _cell_table(f) -> list:
    """cells[y][x]: the values c with f_x f_y = f_{f_x(y)} f_c, in
    increasing order, read off the n^2 compositions f_t f_c built once.

    For f = lambda these are the values of rho_y(x) that the first
    component of the braid identity, lambda_x lambda_y =
    lambda_{lambda_x(y)} lambda_{rho_y(x)}, allows; for f = rho, at
    cells[y][z], the values of lambda_y(z) that the third, rho_z rho_y =
    rho_{rho_z(y)} rho_{lambda_y(z)}, allows.  Either way the partner
    family's entry g[y][x] must be one of them.
    """
    span = range(len(f))
    comp = [[tuple([ft[v] for v in fc]) for fc in f] for ft in f]
    return [[[c for c in span if comp[f[x][y]][c] == comp[x][y]] for x in span] for y in span]


def _rho_placements(n: int, klass: str, lams):
    """Yield the tables (lambda, rho) as a ``Solution``, unchecked, for
    each lambda of ``lams`` and each rho with rows among the class's
    candidate rows (``_candidates``; for a quasi class, rho is quasi
    right non-degenerate by ``_compat_masks``), in the lexicographic
    order of the tables.

    Each cell rho_y(x) ranges over its cell of ``_cell_table(lambda)``
    (the first braid component).  The third, rho_z rho_y = rho_{rho_z(y)}
    rho_{lambda_y(z)}, is the translation identity of
    ``_translation_checks`` with sigma(z, y) = lambda_y(z), which leaves
    the pairs its docstring names undecided; so the caller decides the
    braid identity of every pair yielded.
    """
    maps, rows, zeros = _candidates(n, klass)
    at = _value_index(maps)
    compat = None if zeros is None else _compat_masks(zeros, at)
    checks = _translation_checks(at)  # one _masks_of cache for every lambda
    for lam in lams:
        row_masks = list(rows)
        for y, cells in enumerate(_cell_table(lam)):  # cells[x]: the values rho_y(x) may take
            for x, values in enumerate(cells):
                row_masks[y] &= sum(at[x][c] for c in values)
        # the third component: sigma(z, y) = lambda_y(z)
        for rho in _place(maps, row_masks, compat, *checks(tuple(zip(*lam)))):
            yield Solution(lam=lam, rho=rho)


def _orbits(items) -> list:
    """The set of simultaneous relabelings of each item, a tuple of tables
    on the same points.  With q(i) the old name of new label i and p =
    q^-1, row i of a relabeled table f is p f_{q(i)} q; each distinct row
    is conjugated once per relabeling."""
    span = range(len(items[0][0]))
    rows = {row for item in items for table in item for row in table}
    orbits = [set() for _ in items]
    for q in itertools.permutations(span):
        p = sorted(span, key=q.__getitem__)
        conj = {f: tuple([p[f[v]] for v in q]) for f in rows}
        for orbit, item in zip(orbits, items):
            orbit.add(tuple([tuple([conj[table[i]] for i in q]) for table in item]))
    return orbits


def _labeled_pairs(n: int, klass: str, keep) -> tuple:
    """The number of labeled lambda families on n points (completely
    regular maps whose idempotents commute with every member), and the
    sorted pairs (lambda, rho) with rho placed by ``_rho_placements``
    that ``keep`` accepts.  lambda runs over one family per simultaneous
    relabeling (``_search_labeled`` with ``canonical``) and the kept
    pairs are expanded by ``_orbits``: every hypothesis encoded is
    unchanged under a simultaneous relabeling, and ``keep`` decides the
    braid identity, which the placement leaves open for some pairs."""
    lams = list(_search_labeled(n, "quasi_rack", shelf=False, canonical=True))
    kept = [(s.lam, s.rho) for s in _rho_placements(n, klass, lams) if keep(s)]
    orbits = _orbits([(lam,) for lam in lams] + kept)
    return sum(map(len, orbits[:len(lams)])), sorted(set().union(*orbits[len(lams):]))


def _choices(rng, sizes, rounds):
    """Yield, for each of ``rounds`` rounds, the list of indices that
    successive ``rng.choice`` calls on sequences of the given sizes would
    pick, from the same stream: CPython's ``choice`` draws
    ``getrandbits(size.bit_length())`` until the value is below size."""
    bits = rng.getrandbits
    widths = [(size, size.bit_length()) for size in sizes]
    for _ in range(rounds):
        idx = []
        for size, k in widths:
            r = bits(k)
            while r >= size:
                r = bits(k)
            idx.append(r)
        yield idx


def _compatible(compat, idx) -> bool:
    """Whether bit j of ``compat[i]`` is set for all i, j in idx, for the
    symmetric masks of ``_compat_masks`` (bit i of mask i is always set:
    a completely regular map commutes with its idempotent).  So each
    index is tested against the intersection of the masks before it."""
    common = -1
    for i in idx:
        if not common >> i & 1:
            return False
        common &= compat[i]
    return True


def _sampled(n: int, seed, samples: int, joint: bool):
    """Yield the ``Solution`` of each of ``samples`` seeded ``_choices``
    rounds that passes ``_compatible``: lambda among the completely
    regular maps, rho among them and tested with lambda (``joint``), or
    among all maps and untested (quasi left non-degeneracy only)."""
    lams, _, zeros = _candidates(n, "quasi_rack")
    rhos = lams if joint else _candidates(n, "shelf")[0]
    compat = _compat_masks(zeros, _value_index(lams))
    for idx in _choices(random.Random(seed), [len(lams)] * n + [len(rhos)] * n, samples):
        if _compatible(compat, idx if joint else idx[:n]):
            yield Solution(lam=tuple(lams[i] for i in idx[:n]), rho=tuple(rhos[i] for i in idx[n:]))


def _exhaustive(n: int, seed, samples: int) -> bool:
    """Whether a search at size n is exhaustive (n <= 3) rather than
    sampled; refuses sizes outside 1..SIZE_GUARD, and a sampled search
    without a seed or without samples."""
    if not 1 <= n <= SIZE_GUARD:
        raise ValueError(f"search size must be between 1 and {SIZE_GUARD}, got {n}")
    if n <= 3:
        return True
    if seed is None:
        raise ValueError("sampling requires an explicit seed")
    if samples < 1:
        raise ValueError(f"sampling needs at least one sample, got {samples}")
    return False


def search_question1(n: int, seed=None, samples: int = 10000) -> dict:
    """Hunt for a quasi non-degenerate solution that is not quasi bijective.

    Hypotheses encoded: lambda and rho are each a family of completely
    regular maps whose idempotents commute with every member of their
    own family (quasi left and quasi right non-degenerate), and r
    satisfies the braid identity; a candidate is such an r whose pair
    map has no relative inverse.

    Exhaustive for n <= 3 over every pair of such families
    (``_labeled_pairs``; the braid check decides 1,332 placed pairs at
    n = 3), and ``pairs_checked`` is the labeled lambda count squared.
    Seeded random sampling at n >= 4 draws each member independently
    (``_sampled``) and keeps a pair only when every idempotent commutes
    with every member of the lambda and rho families together, a
    stricter hypothesis: at n = 2 it holds for 46 of the 100 exhaustive
    pairs, at n = 3 for 68,349 of 393,129.  The report never asserts an
    answer: an empty candidate list means only that no counterexample
    was found among the structures checked.
    """
    exhaustive = _exhaustive(n, seed, samples)

    def candidate(s) -> bool:  # quasi non-degenerate by construction of the families
        return is_solution(s) and relative_inverse(pair_map(s)) is None

    if exhaustive:
        labeled, pairs = _labeled_pairs(n, "quasi_rack", candidate)
        checked, candidates = labeled ** 2, [Solution(lam=lam, rho=rho) for lam, rho in pairs]
    else:
        drawn = list(_sampled(n, seed, samples, joint=True))
        checked, candidates = len(drawn), list(filter(candidate, drawn))
    return _report(
        "is every quasi non-degenerate solution quasi bijective?",
        n, exhaustive, seed, "pairs_checked", checked, candidates,
    )


def abc_solutions(n: int):
    """Yield (s, d) with d = ``abc_family(s)`` for every quasi left
    non-degenerate solution s on n points with (A), (B) and (C), in the
    lexicographic order of (lambda, rho): the pairs of ``_labeled_pairs``
    with rho among all maps, each decided again by ``abc_family``.
    """
    for lam, rho in _labeled_pairs(n, "shelf", lambda s: abc_family(s) is not None)[1]:
        s = Solution(lam=lam, rho=rho)
        d = abc_family(s)
        guarantee(d is not None, f"a relabeled (A)(B)(C) solution fails abc_family: {s}")
        yield s, d


def search_question2(n: int, seed=None, samples: int = 10000) -> dict:
    """Hunt for a quasi bijective, quasi left non-degenerate solution with
    (A), (B), (C) whose structure magma is not a quasi rack.

    Hypotheses encoded: r satisfies the braid identity; lambda is a
    family of completely regular maps whose idempotents commute with
    every member (quasi left non-degenerate); (A), (B) and (C) hold; and
    the pair map of r has a relative inverse (quasi bijective).  rho is
    any family of maps.  ``solutions_meeting_hypotheses`` counts such r,
    and a candidate is one whose structure magma is not a quasi rack.

    Exhaustive for n <= 3 over every solution of ``abc_solutions``.
    Seeded sampling at n >= 4 draws each lambda_x among the completely
    regular maps and each rho_y among all maps (``_sampled``).  A sampled
    lambda that is not quasi left non-degenerate, about 999 in 1,000 at
    n = 4, is rejected by the compatibility masks before the braid
    check, as ``abc_family`` would reject it.  The report never asserts
    an answer.
    """
    exhaustive = _exhaustive(n, seed, samples)
    checked, candidates = 0, []
    drawn = ((s, abc_family(s)) for s in _sampled(n, seed, samples, joint=False))
    for s, d in abc_solutions(n) if exhaustive else drawn:
        if d is not None and relative_inverse(pair_map(s)) is not None:
            checked += 1
            if quasi_rack_structure(structure_magma(s, d)) is None:
                candidates.append(s)
    return _report(
        "is the structure magma of every quasi bijective, quasi left "
        "non-degenerate solution with (A), (B), (C) a quasi rack?",
        n, exhaustive, seed, "solutions_meeting_hypotheses", checked, candidates,
    )

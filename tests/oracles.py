"""Independent brute-force oracles used to cross-check the library.

Everything here is deliberately naive: plain definitions, full product
spaces, no pruning, no reuse of the library's clever paths.
"""

import itertools


def comp(f, g):
    return tuple(f[x] for x in g)


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


def naive_automorphism_count(t):
    """The number of permutations that fix the table."""
    return sum(naive_relabel(t, p) == t for p in itertools.permutations(range(len(t))))

"""Shelves, racks, quandles and quasi racks on a finite carrier.

A binary operation is stored as a tuple of row tuples: ``table[x][y]``
is ``x |> y``, so row ``x`` *is* the left translation ``L_x`` in the
fnmap sense.  A quasi rack is a left shelf whose translations are all
completely regular and whose idempotents ``L_x^0 = L_x L_x^-`` commute
with every translation.
"""

from __future__ import annotations

import itertools
from operator import itemgetter
from typing import Iterable, NamedTuple, Optional

from .fnmap import (
    FnMap,
    byte_tables,
    compose,
    guarantee,
    is_permutation,
    regular_family,
    zeros_multiplicative,
)

Magma = tuple


def validate_table(table) -> Magma:
    """Normalize to a tuple-of-tuples table and check that every entry
    is an int (not a bool) in the carrier range.  The table and each row
    must be a list or a tuple: a dict or a string is refused, not read
    by its keys or characters."""
    if not isinstance(table, (list, tuple)):
        raise ValueError("operation table must be a list of rows")
    n = len(table)
    for row in table:
        if not isinstance(row, (list, tuple)):
            raise ValueError("operation table must be a list of rows")
        if len(row) != n:
            raise ValueError("operation table must be square")
        for v in row:
            if type(v) is not int or not 0 <= v < n:
                raise ValueError("table entry is not an integer in the carrier range")
    return tuple(map(tuple, table))


def is_left_shelf(table: Magma) -> bool:
    """x |> (y |> z) == (x |> y) |> (x |> z) for all triples.

    Checked in row form: L_x L_y == L_{x |> y} L_x, for one x and all y at
    once.  The table must be valid (``validate_table``): on up to 256
    points each row is a byte string, and both sides are gathered in C by
    ``bytes.translate``, which would read an entry of n or more as 0.
    """
    if len(table) > 256:  # an entry does not fit in a byte
        return _is_left_shelf_by_index(table)
    short = [bytes(row) for row in table]
    rows = byte_tables(short)  # L_x as a translation table
    flat = b"".join(short)
    for row_x, L_x in zip(short, rows):
        if flat.translate(L_x) != b"".join([row_x.translate(rows[t]) for t in row_x]):
            return False
    return True


def _is_left_shelf_by_index(table: Magma) -> bool:
    """``is_left_shelf`` for any carrier: the left side gathers the
    flattened table through row x by itemgetter."""
    through = itemgetter(*[v for row in table for v in row])
    for row_x in table:
        if list(through(row_x)) != [table[t][v] for t in row_x for v in row_x]:
            return False
    return True


def is_rack(table: Magma) -> bool:
    return all(is_permutation(row) for row in table) and is_left_shelf(table)


def is_quandle(table: Magma) -> bool:
    return is_rack(table) and all(table[x][x] == x for x in range(len(table)))


class QuasiRack(NamedTuple):
    """A left shelf with cached relative inverses of its translations."""

    table: Magma
    L_inv: tuple
    L_zero: tuple

    @property
    def n(self) -> int:
        return len(self.table)


def quasi_rack_structure(table: Magma) -> Optional[QuasiRack]:
    """Full quasi-rack data for the table, or None if it is not one.

    Requires: left shelf, every L_x completely regular, and every
    idempotent L_x^0 commuting with every translation L_y.
    """
    table = validate_table(table)
    if not is_left_shelf(table):
        return None
    family = regular_family(table)
    if family is None:
        return None
    return QuasiRack(table, *family)


def is_quasi_quandle(q: QuasiRack) -> bool:
    return all(q.table[x][x] == x for x in range(q.n))


def check_star(q: QuasiRack) -> bool:
    """(*): L^0_{x |> y} == L^0_x L^0_y for all pairs."""
    return zeros_multiplicative(q.table, q.L_zero)


def check_starstar(q: QuasiRack) -> bool:
    """L_y(x) == L_{L^0_x(y)}(x) for all pairs."""
    table = q.table  # a record field is read through a descriptor: once, not per pair
    for x, zx in enumerate(q.L_zero):
        for y in range(q.n):
            if table[y][x] != table[zx[y]][x]:
                return False
    return True


def check_starstarstar(q: QuasiRack) -> bool:
    """L^0_x(x) == x for all x."""
    return all(q.L_zero[x][x] == x for x in range(q.n))


def verify_translation_lemma(q: QuasiRack) -> bool:
    """The four unconditional translation identities of a quasi rack:

    1. L^0_x L_y == L^0_x L_{L^0_x(y)}
    2. L_x L_y == L_{L^0_y(x)} L_y
    3. L^0_x L_y == L^0_{L_y(x)} L_y
    4. L^0_x L^0_{L^-_x(y)} == L^0_x L^0_y
    """
    L, Li, Lz = q.table, q.L_inv, q.L_zero
    for x in range(q.n):
        for y in range(q.n):
            if compose(Lz[x], L[y]) != compose(Lz[x], L[Lz[x][y]]):
                return False
            if compose(L[x], L[y]) != compose(L[Lz[y][x]], L[y]):
                return False
            if compose(Lz[x], L[y]) != compose(Lz[L[y][x]], L[y]):
                return False
            if compose(Lz[x], Lz[Li[x][y]]) != compose(Lz[x], Lz[y]):
                return False
    return True


def derived_map(q: QuasiRack):
    """The pair map r(x, y) = (L^0_x(y), L_y(x)) as a Solution.

    No Yang-Baxter claim is made here; classify the result via the
    solutions module (there are quasi racks whose derived map is a
    solution without any of the three sufficient conditions).
    """
    from .solutions import Solution

    return Solution(lam=q.L_zero, rho=q.table)  # rho_y(x) = L_y(x): row y acts


def derived_relative_inverse(q: QuasiRack):
    """r^-(x, y) = (L^-_x(y), L^0_y(x)); requires L^0_x(x) = x for all x.

    Together with derived_map this satisfies r r^- r = r,
    r^- r r^- = r^- and r r^- = r^- r (asserted by the caller's tests).
    """
    from .solutions import Solution

    if not check_starstarstar(q):
        raise ValueError("relative inverse formula requires L^0_x(x) = x")
    return Solution(lam=q.L_inv, rho=q.L_zero)


def opposite_right_quasi_rack(q: QuasiRack) -> Magma:
    """The right quasi rack y <| x := L^-_x(y); requires L^0_x(x) = x."""
    if not check_starstarstar(q):
        raise ValueError("opposite structure requires L^0_x(x) = x")
    # right self-distributivity is guaranteed; keep it checked, as left
    # self-distributivity of the table's transpose L^-
    guarantee(is_left_shelf(q.L_inv), "y <| x := L^-_x(y) is not right self-distributive")
    return tuple(zip(*q.L_inv))


def relabel(table: Magma, perm: FnMap) -> Magma:
    """Transport the operation along the carrier permutation ``perm``."""
    n = len(table)
    out = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            out[perm[x]][perm[y]] = perm[table[x][y]]
    return tuple(tuple(row) for row in out)


def _smaller_relabelings(table: Magma):
    """Yield each relabeling that is smaller than the best so far, which
    starts as the table itself; the last one yielded is the least.

    For each carrier permutation the relabeled table is built one row at
    a time and compared with the best: the permutation is dropped at the
    first greater row, and a table is materialised only when a row is
    smaller.  Walking to the end visits all n! permutations, so carriers
    are limited to size 8.
    """
    n = len(table)
    if n > 8:
        raise ValueError("canonical forms are limited to carriers of size <= 8")
    best = tuple(tuple(row) for row in table)
    p = [0] * n
    # the identity comes first and gives the table itself, so skip it
    for q in itertools.islice(itertools.permutations(range(n)), 1, None):
        # q[i] is the old name of the new label i; p inverts it
        for i, v in enumerate(q):
            p[v] = i
        for i, old in enumerate(best):
            row = table[q[i]]
            new = tuple(p[row[v]] for v in q)
            if new != old:
                if new < old:
                    rest = (tuple(p[table[u][v]] for v in q) for u in q[i + 1:])
                    best = best[:i] + (new,) + tuple(rest)
                    yield best
                break


def canonical_form(table: Magma) -> Magma:
    """Lexicographically least relabeling over all carrier permutations.

    Visits all n! relabelings, so carriers are limited to size 8.  To
    ask only whether a table is its own canonical form, ``is_canonical``
    is faster.
    """
    best = tuple(tuple(row) for row in table)
    for best in _smaller_relabelings(table):
        pass
    return best


def is_canonical(table: Magma) -> bool:
    """True iff the table, as a tuple of rows, equals its canonical form.

    Walks the relabelings of ``canonical_form`` in the same order, each
    compared with the table itself, and returns False at the first
    smaller one; only a canonical table costs all n! permutations.
    Carriers are limited to size 8.
    """
    return next(_smaller_relabelings(table), None) is None


def are_isomorphic(a: Magma, b: Magma) -> bool:
    if len(a) != len(b):
        return False
    return canonical_form(a) == canonical_form(b)


def is_hom(f: FnMap, src: Magma, dst: Magma) -> bool:
    """f(x |> y) == f(x) |> f(y), with |> taken in src on the left and in
    dst on the right; f must map src's carrier into dst's."""
    n = len(src)
    return all(f[src[x][y]] == dst[f[x]][f[y]] for x in range(n) for y in range(n))


def homomorphisms(src: Magma, dst: Magma) -> Iterable[FnMap]:
    """All magma homomorphisms src -> dst, by brute force over maps."""
    for f in itertools.product(range(len(dst)), repeat=len(src)):
        if is_hom(f, src, dst):
            yield f


def endomorphisms(table: Magma) -> Iterable[FnMap]:
    """All magma endomorphisms f: f(x |> y) == f(x) |> f(y)."""
    return homomorphisms(table, table)

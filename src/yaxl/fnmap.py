"""Total transformations of a finite carrier {0, ..., n-1}.

A transformation is stored as a plain tuple: entry ``i`` is the image of
``i``.  Everything here is pure and the tuples are shared freely.

The one non-trivial operation is the relative inverse: for a completely
regular transformation ``f`` there is a unique ``g`` with ``fgf = f``,
``gfg = g`` and ``fg = gf``.  It is read off the inverse of ``f`` on its
image rather than found by search (the brute-force search lives in the
test suite as an independent oracle).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

FnMap = tuple


class RegularTriple(NamedTuple):
    """A transformation together with its relative inverse and idempotent.

    Satisfies f*inv*f = f, inv*f*inv = inv and f*inv = inv*f = zero,
    with zero idempotent.
    """

    f: FnMap
    inv: FnMap
    zero: FnMap


class RegularFamily(NamedTuple):
    """Relative inverses and idempotents of a family of transformations,
    member by member."""

    inv: tuple
    zero: tuple


def guarantee(holds, what: str) -> None:
    """Fail the theorem guarantee ``what`` unless it ``holds``: raise
    ``AssertionError(what)``, which ``cli.main`` maps to exit code 3.
    Unlike ``assert`` it also fires under ``python -O``."""
    if not holds:
        raise AssertionError(what)


def identity(n: int) -> FnMap:
    return tuple(range(n))


def compose(f: FnMap, g: FnMap) -> FnMap:
    """(f o g)(i) = f(g(i)). Sizes must agree."""
    if len(f) != len(g):
        raise ValueError(f"size mismatch: {len(f)} vs {len(g)}")
    return tuple([f[x] for x in g])


def byte_tables(maps) -> list:
    """Each map, given as bytes, as a ``bytes.translate`` table: for maps
    f and g on the same points, ``bytes(g).translate(table of f) ==
    bytes(compose(f, g))``, gathered in C.  Entries must fit in a byte,
    so each map has at most 256 points; a byte at or past len(f) would
    be read as 0."""
    return [f.ljust(256, b"\0") for f in maps]


def commutes(f: FnMap, g: FnMap) -> bool:
    if len(f) != len(g):
        raise ValueError(f"size mismatch: {len(f)} vs {len(g)}")
    return [f[x] for x in g] == [g[x] for x in f]


def image(f: FnMap) -> frozenset:
    return frozenset(f)


def is_idempotent(f: FnMap) -> bool:
    """f o f == f, compared by value: a list map is decided like the equal tuple."""
    return compose(f, f) == tuple(f)


def is_permutation(f: FnMap) -> bool:
    return len(set(f)) == len(f)


def is_completely_regular(f: FnMap) -> bool:
    """True iff f has a relative inverse, that is, f permutes image(f)."""
    return relative_inverse(f) is not None


def relative_inverse(f: FnMap) -> Optional[RegularTriple]:
    """The unique relative inverse of f, or None if f is not completely regular.

    f permutes its image; with ``back`` the inverse of that permutation,
    the idempotent is back o f and the inverse is back o back o f.
    """
    im = set(f)
    back = {f[x]: x for x in im}
    if len(back) != len(im):  # f does not permute its image
        return None
    zero = tuple([back[y] for y in f])
    inv = tuple([back[z] for z in zero])
    # pointwise: zero f = f, inv f = zero = f inv, zero zero = zero, inv zero = inv
    for y, z, i in zip(f, zero, inv):
        if not (zero[y] == y and inv[y] == z == f[i] and zero[z] == z and inv[z] == i):
            guarantee(False, f"the relative inverse of {f} fails fgf = f, gfg = g or fg = gf")
    return RegularTriple(f, inv, zero)


def regular_family(family) -> Optional[RegularFamily]:
    """Relative inverses and idempotents of every member, or None.

    None unless every member is completely regular and every idempotent
    commutes with every member of the family.
    """
    triples = []
    for f in family:
        t = relative_inverse(f)
        if t is None:
            return None
        triples.append(t)
    zeros = tuple(t.zero for t in triples)
    if not idempotents_central(zeros, family):
        return None
    return RegularFamily(tuple(t.inv for t in triples), zeros)


def idempotents_central(idempotents, family) -> bool:
    """Every given idempotent commutes with every member of the family;
    each distinct idempotent is tested once, against the whole family."""
    return all(
        [z[v] for f in family for v in f] == [f[v] for f in family for v in z] for z in set(idempotents)
    )


def zeros_multiplicative(family, zero) -> bool:
    """zero[f_x(y)] == zero[x] zero[y] for all x, y, where f_x = family[x]
    and zero[x] is its idempotent: condition (*) of a quasi rack and (A)
    of a solution, on the translations and on the lambda family.  Each
    product of two distinct idempotents is composed once."""
    index = {}
    k = [index.setdefault(z, len(index)) for z in zero]
    products = {}  # products[k[x]][k[y]]: the index of zero[x] zero[y], or -1
    for fx, zx, kx in zip(family, zero, k):
        if kx not in products:
            products[kx] = [index.get(compose(zx, z), -1) for z in index]
        if [k[t] for t in fx] != [products[kx][ky] for ky in k]:
            return False
    return True

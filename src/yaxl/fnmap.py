"""Total transformations of a finite carrier {0, ..., n-1}.

A transformation is stored as a plain tuple: entry ``i`` is the image of
``i``.  Everything here is pure and the tuples are shared freely.

The one non-trivial operation is the relative inverse: for a completely
regular transformation ``f`` there is a unique ``g`` with ``fgf = f``,
``gfg = g`` and ``fg = gf``.  It is computed by a power formula rather
than by search (the brute-force search lives in the test suite as an
independent oracle).
"""

from __future__ import annotations

from math import lcm
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


def identity(n: int) -> FnMap:
    return tuple(range(n))


def compose(f: FnMap, g: FnMap) -> FnMap:
    """(f o g)(i) = f(g(i)). Sizes must agree."""
    if len(f) != len(g):
        raise ValueError(f"size mismatch: {len(f)} vs {len(g)}")
    return tuple([f[x] for x in g])


def power(f: FnMap, k: int) -> FnMap:
    """k-fold composite of f with itself; k = 0 gives the identity."""
    if k < 0:
        raise ValueError("negative power of a transformation")
    result = identity(len(f))
    base = f
    while k:
        if k & 1:
            result = compose(base, result)
        base = compose(base, base)
        k >>= 1
    return result


def commutes(f: FnMap, g: FnMap) -> bool:
    if len(f) != len(g):
        raise ValueError(f"size mismatch: {len(f)} vs {len(g)}")
    return [f[x] for x in g] == [g[x] for x in f]


def image(f: FnMap) -> frozenset:
    return frozenset(f)


def is_idempotent(f: FnMap) -> bool:
    return compose(f, f) == f


def is_permutation(f: FnMap) -> bool:
    return len(set(f)) == len(f)


def is_completely_regular(f: FnMap) -> bool:
    """True iff f restricted to image(f) is a bijection of image(f).

    Equivalent to |im(f)| == |im(f o f)|.
    """
    im = set(f)
    return len({f[x] for x in im}) == len(im)


def _restriction_period(f: FnMap) -> int:
    # Order of the permutation f|_{im(f)}: lcm of its cycle lengths.
    # Only valid when f is completely regular.
    seen = set()
    period = 1
    for start in set(f):
        if start in seen:
            continue
        x = f[start]
        length = 1
        while x != start:
            seen.add(x)
            x = f[x]
            length += 1
        seen.add(start)
        period = lcm(period, length)
    return period


def relative_inverse(f: FnMap) -> Optional[RegularTriple]:
    """The unique relative inverse of f, or None if f is not completely regular.

    If p is the order of the permutation f|_{im(f)}, the inverse is
    f**(p-1) for p >= 2 and f itself when p = 1 (f idempotent).
    """
    if not is_completely_regular(f):
        return None
    p = _restriction_period(f)
    inv = f if p == 1 else power(f, p - 1)
    zero = compose(f, inv)
    assert compose(zero, f) == f
    assert compose(inv, zero) == inv
    assert compose(inv, f) == zero and is_idempotent(zero)
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

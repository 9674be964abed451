"""Yang-Baxter maps on a finite carrier and their classification.

A map r(x, y) = (lambda_x(y), rho_y(x)) is stored as two n x n tables
whose first index is always the *acting* element: ``lam[x]`` is the
transformation lambda_x and ``rho[y]`` is rho_y.  Keeping both sides
indexed the same way avoids transposition bugs; the file formats
document the same convention.

When r has to be treated as a single transformation of the pair set,
pairs are encoded as ``x * n + y``.

``is_solution`` checks the braid identity alone; the test oracles keep
the equivalent component identities to cross-check it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .fnmap import (
    FnMap,
    RegularFamily,
    commutes,
    compose,
    guarantee,
    idempotents_central,
    is_permutation,
    regular_family,
    relative_inverse,
    zeros_multiplicative,
)
from .shelves import Magma, is_left_shelf


@dataclass(frozen=True)
class Solution:
    lam: tuple  # lam[x] = lambda_x
    rho: tuple  # rho[y] = rho_y

    @property
    def n(self) -> int:
        return len(self.lam)

    def apply(self, x: int, y: int):
        return self.lam[x][y], self.rho[y][x]


@dataclass(frozen=True)
class SolutionFlags:
    bijective: bool
    involutive: bool
    idempotent: bool
    cubic: bool
    left_nd: bool
    right_nd: bool
    nondegenerate: bool


def pair_map(s: Solution) -> FnMap:
    """r as a transformation of the n*n pair set, pair (x, y) -> x*n + y."""
    n = s.n
    out = []
    for x in range(n):
        lx = s.lam[x]
        for y in range(n):
            out.append(lx[y] * n + s.rho[y][x])
    return tuple(out)


def from_pair_map(r: FnMap, n: int) -> Solution:
    """Decode a pair-set transformation back into tables.

    Every map of the n*n pair set decodes, since the product encoding is
    bit-exact and reversible; raises ValueError only if r does not have
    n*n entries.
    """
    if len(r) != n * n:
        raise ValueError("pair map has wrong carrier size")
    lam = tuple(tuple(r[x * n + y] // n for y in range(n)) for x in range(n))
    rho = tuple(tuple(r[x * n + y] % n for x in range(n)) for y in range(n))
    return Solution(lam=lam, rho=rho)


def _braid_holds(s: Solution) -> bool:
    # With r(a, b) = (lam[a][b], rho[b][a]), the left side sends (x, y, z)
    # through (a, b, z), (a, b1, rho_z(b)) to (lam_a(b1), rho_b1(a), rho_z(b));
    # the right side through (x, u, v), (lam_x(u), w, v) to
    # (lam_x(u), lam_w(v), rho_v(w)).
    lam, rho = s.lam, s.rho
    span = range(len(lam))
    for x in span:
        lx = lam[x]
        for y in span:
            a, b = lx[y], rho[y][x]
            la, lb, ly = lam[a], lam[b], lam[y]
            for z in span:
                rz = rho[z]
                b1 = lb[z]
                u, v = ly[z], rz[y]
                w = rho[u][x]
                if la[b1] != lx[u] or rho[b1][a] != lam[w][v] or rz[b] != rho[v][w]:
                    return False
    return True


def is_solution(s: Solution) -> bool:
    """The braid identity (r x id)(id x r)(r x id) == (id x r)(r x id)(id x r)
    on every triple."""
    return _braid_holds(s)


def classify(s: Solution) -> SolutionFlags:
    """The flags of a solution; raises ValueError if s fails the braid identity."""
    if not is_solution(s):
        raise ValueError("not a Yang-Baxter solution")
    r = pair_map(s)
    r2 = compose(r, r)
    left_nd = all(is_permutation(row) for row in s.lam)
    right_nd = all(is_permutation(row) for row in s.rho)
    ident = tuple(range(len(r)))
    return SolutionFlags(
        bijective=is_permutation(r),
        involutive=r2 == ident,
        idempotent=r2 == r,
        cubic=compose(r2, r) == r,
        left_nd=left_nd,
        right_nd=right_nd,
        nondegenerate=left_nd and right_nd,
    )


def quasi_bijective(s: Solution) -> Optional[Solution]:
    """The relative inverse r^- of r as a pair map, decoded, or None.

    No braid claim is made about r^-: a solution can have a relative
    inverse that is not a solution (``check solution`` reports it as
    ``relative_inverse_is_solution``).
    """
    triple = relative_inverse(pair_map(s))
    return None if triple is None else from_pair_map(triple.inv, s.n)


def quasi_left_nondeg(s: Solution) -> Optional[RegularFamily]:
    """Every lambda_x completely regular with lambda_x^0 central among
    the lambda family; returns the inverse/idempotent families."""
    return regular_family(s.lam)


def quasi_right_nondeg(s: Solution) -> Optional[RegularFamily]:
    return regular_family(s.rho)


def quasi_nondeg(s: Solution):
    left = quasi_left_nondeg(s)
    right = quasi_right_nondeg(s)
    if left is None or right is None:
        return None
    return left, right


def check_A(s: Solution, d: RegularFamily) -> bool:
    """(A): lambda^0_{lambda_x(y)} == lambda^0_x lambda^0_y for all pairs."""
    return zeros_multiplicative(s.lam, d.zero)


def check_B(s: Solution, d: RegularFamily) -> bool:
    """rho_y(x) == lambda^0_{lambda_x(y)} rho_{lambda^0_x(y)}(x)."""
    for x in range(s.n):
        zx = d.zero[x]
        for y in range(s.n):
            if s.rho[y][x] != d.zero[s.lam[x][y]][s.rho[zx[y]][x]]:
                return False
    return True


def check_C(s: Solution, d: RegularFamily) -> bool:
    """lambda^0_x rho_y == rho_y lambda^0_x for all pairs."""
    return idempotents_central(d.zero, s.rho)


def structure_magma(s: Solution, d: RegularFamily) -> Magma:
    """x |>_r y := lambda_x(rho_{lambda^-_y(x)}(y)); no shelf claim."""
    n = s.n
    return tuple(
        tuple(s.lam[x][s.rho[d.inv[y][x]][y]] for y in range(n)) for x in range(n)
    )


def abc_family(s: Solution) -> Optional[RegularFamily]:
    """The lambda family of s if s satisfies the braid identity, is quasi
    left non-degenerate and satisfies (A), (B) and (C), checked in that
    order; otherwise None."""
    if not is_solution(s):
        return None
    d = quasi_left_nondeg(s)
    if d is None or not (check_A(s, d) and check_B(s, d) and check_C(s, d)):
        return None
    return d


def derived_shelf(s: Solution) -> Magma:
    """The structure magma under conditions (A), (B), (C), guaranteed a shelf."""
    d = abc_family(s)
    if d is None:
        raise ValueError("not a quasi left non-degenerate solution with (A), (B), (C)")
    table = structure_magma(s, d)
    guarantee(is_left_shelf(table), "structure magma failed self-distributivity under (A)-(C)")
    return table


def verify_section3_identities(s: Solution) -> dict:
    """Check the identity packs whose hypotheses among (A), (B), (C) hold.

    Returns {identity name: bool}; an identity is only present when its
    hypotheses are met, and all present entries must be True for every
    genuine quasi left non-degenerate solution.  Raises ValueError if s
    is not quasi left non-degenerate.
    """
    d = quasi_left_nondeg(s)
    if d is None:
        raise ValueError("not a quasi left non-degenerate solution")
    a, b, c = check_A(s, d), check_B(s, d), check_C(s, d)
    n = s.n
    lam, rho = s.lam, s.rho
    inv, zero = d.inv, d.zero
    report: dict = {}

    def all_pairs(pred) -> bool:
        return all(pred(x, y) for x in range(n) for y in range(n))

    def all_triples(pred) -> bool:
        return all(
            pred(x, y, z) for x in range(n) for y in range(n) for z in range(n)
        )

    if a:
        report["lambda_of_image"] = all_pairs(
            lambda x, y: lam[lam[x][y]]
            == compose(compose(lam[x], lam[y]), inv[rho[y][x]])
        )
    if b:
        report["rho_zero_insensitive"] = all_pairs(
            lambda x, y: rho[y][x] == rho[zero[x][y]][x]
        )
        report["lambda_zero_absorbed"] = all_pairs(
            lambda x, y: compose(lam[x], lam[y]) == compose(lam[x], lam[zero[x][y]])
            and compose(zero[x], lam[y]) == compose(zero[x], lam[zero[x][y]])
            and compose(inv[x], lam[y]) == compose(inv[x], lam[zero[x][y]])
        )
    if a and b:
        report["lambda_at_zero_image"] = all_pairs(
            lambda x, y: lam[zero[x][y]] == compose(zero[x], lam[y])
            and zero[zero[x][y]] == compose(zero[x], zero[y])
        )
        report["lambda_of_rho"] = all_pairs(
            lambda x, y: lam[rho[y][x]]
            == compose(inv[lam[x][y]], compose(lam[x], lam[y]))
        )
        report["inverse_exchange"] = all_pairs(
            lambda x, y: compose(inv[lam[x][y]], lam[x])
            == compose(lam[rho[y][x]], inv[y])
        )
        report["rho_index_zero_shift"] = all_triples(
            lambda x, y, z: lam[rho[zero[z][y]][x]]
            == compose(lam[rho[y][x]], zero[zero[z][y]])
        )
        report["rho_value_zero_shift"] = all_triples(
            lambda x, y, z: lam[rho[zero[z][y]][x]][rho[inv[z][y]][z]]
            == lam[rho[y][x]][rho[inv[z][y]][z]]
        )
        report["zero_of_inverse_image"] = all_pairs(
            lambda x, y: compose(zero[inv[x][y]], inv[x])
            == compose(zero[zero[x][y]], inv[x])
        )
    if a and b and c:
        report["rho_commutes_with_zero"] = all_triples(
            lambda x, y, z: rho[zero[y][inv[z][x]]][z] == zero[y][rho[inv[z][x]][z]]
        )
        report["lambda_absorbs_trailing_zero"] = all_pairs(
            lambda x, y: compose(lam[rho[inv[y][x]][y]], zero[y])
            == lam[rho[inv[y][x]][y]]
        )
        report["derived_product_exchange"] = all_pairs(
            lambda x, y: compose(lam[y], lam[rho[inv[x][y]][x]])
            == compose(lam[x], lam[inv[x][y]])
        )
    return report


def lyubashenko(f: FnMap, g: FnMap) -> Solution:
    """The constant-family map r(x, y) = (f(y), g(x)).

    Requires f, g commuting and completely regular; the result is then a
    quasi non-degenerate solution, and cubic (r^3 = r) when g is the
    relative inverse of f.
    """
    n = len(f)
    for name, m in (("f", f), ("g", g)):
        if len(m) != n or any(type(v) is not int or not 0 <= v < n for v in m):
            raise ValueError(f"map {name} = {m} is not a map on {n} points")
    f, g = tuple(f), tuple(g)  # a list map gives the same solution as the equal tuple
    if not commutes(f, g):
        raise ValueError("maps must commute")
    tf = relative_inverse(f)
    if tf is None or relative_inverse(g) is None:
        raise ValueError("maps must be completely regular")
    s = Solution(lam=tuple(f for _ in range(n)), rho=tuple(g for _ in range(n)))
    if g == tf.inv:
        r = pair_map(s)
        guarantee(compose(compose(r, r), r) == r, "r(x, y) = (f(y), f^-(x)) is not cubic")
    return s


def constant_lambda_twist(s: Solution) -> Solution:
    """s(x, y) = (lambda^0(y), lambda rho_{lambda^-(y)}(x)) for a solution
    with a single shared lambda.

    Preconditions: all lambda_x equal and completely regular, with
    lambda^0 rho_x = rho_x lambda^0 and rho_x = lambda^0 rho_{lambda^0(x)}
    for every x.  The result is guaranteed to be a quasi left
    non-degenerate solution.
    """
    lam0 = s.lam[0]
    if any(row != lam0 for row in s.lam):
        raise ValueError("lambda family is not constant")
    triple = relative_inverse(lam0)
    if triple is None:
        raise ValueError("shared lambda is not completely regular")
    zero, inv = triple.zero, triple.inv
    n = s.n
    for x in range(n):
        if not commutes(zero, s.rho[x]):
            raise ValueError("lambda^0 does not commute with rho_x")
        if s.rho[x] != compose(zero, s.rho[zero[x]]):
            raise ValueError("rho_x != lambda^0 rho_{lambda^0(x)}")
    new_lam = tuple(zero for _ in range(n))
    new_rho = tuple(compose(lam0, s.rho[inv[y]]) for y in range(n))
    out = Solution(lam=new_lam, rho=new_rho)
    guarantee(is_solution(out), "constant-lambda twist failed the braid identity")
    guarantee(quasi_left_nondeg(out) is not None, "constant-lambda twist is not quasi left non-degenerate")
    return out

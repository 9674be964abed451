"""Example factories: Clifford semigroups as strong semilattices of
groups, the quasi quandles they carry, weak braces and their solutions,
constant shelves, and rack-cocycle extensions.

Also hosts the generators used throughout the test suite: the
semilattices with at most m points up to isomorphism, every strong
semilattice system over them for a choice of fibers (groups here, racks
in the tests), and all skew braces of order at most four (pairs of
labeled group tables validated by brute force).
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Iterator, Optional

from .fnmap import (
    FnMap,
    compose,
    guarantee,
    idempotents_central,
    is_idempotent,
    regular_family,
    relative_inverse,
)
from .shelves import (
    Magma,
    canonical_form,
    homomorphisms,
    is_hom,
    is_left_shelf,
    is_quasi_quandle,
    is_rack,
    quasi_rack_structure,
    relabel,
    validate_table,
)
from .solutions import Solution, quasi_left_nondeg, structure_magma


# ---------------------------------------------------------------------------
# semilattices


def is_semilattice(meet) -> bool:
    """Idempotent + commutative + associative, exhaustively."""
    for a, row in enumerate(meet):
        if row[a] != a or any(row[b] != meet[b][a] for b in range(a)):
            return False
    return is_associative(meet)


def semilattice_geq(meet, a: int, b: int) -> bool:
    return meet[a][b] == b


def semilattices_upto(max_points: int = 3) -> list:
    """Meet tables of all semilattices with <= max_points elements, up to
    isomorphism, in canonical form, ordered by size and then by table.

    Every finite partial order can be labeled 0, ..., m-1 along a linear
    extension, so only the partial orders in which a <= b implies a <= b
    as integers are tried; those in which every pair has a greatest
    lower bound are the semilattices.
    """
    tables = set()
    for m in range(1, max_points + 1):
        span = range(m)
        pairs = list(itertools.combinations(span, 2))
        for bits in itertools.product((False, True), repeat=len(pairs)):
            le = set(itertools.compress(pairs, bits))
            below = [{a for a in span if a == b or (a, b) in le} for b in span]  # the a <= b
            if any(not below[a] <= below[b] for b in span for a in below[b]):
                continue  # not transitive
            meet = [[max(below[a] & below[b], default=None) for b in span] for a in span]
            if all(c is not None and below[a] & below[b] <= below[c]
                   for a, row in enumerate(meet) for b, c in enumerate(row)):
                tables.add(canonical_form(tuple(map(tuple, meet))))
    return sorted(tables, key=lambda t: (len(t), t))


# ---------------------------------------------------------------------------
# groups


def cyclic_group(n: int) -> Magma:
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def klein_group() -> Magma:
    return tuple(tuple(i ^ j for j in range(4)) for i in range(4))


def groups_of_order(n: int):
    """Every group of order n up to isomorphism; listed for 1 <= n <= 5."""
    if not 1 <= n <= 5:
        raise ValueError(f"groups of order {n} are not listed; orders 1 to 5 are")
    if n == 4:
        return [cyclic_group(4), klein_group()]
    return [cyclic_group(n)]


def is_group(table: Magma) -> bool:
    """An inverse semigroup with exactly one idempotent e: a a^- and a^- a
    are idempotents, so both are e, which is then the identity."""
    return is_inverse_semigroup(table) and sum(row[e] == e for e, row in enumerate(table)) == 1


def labeled_groups(n: int):
    """All group Cayley tables on the carrier {0, ..., n-1}."""
    return sorted(
        {
            relabel(template, perm)
            for template in groups_of_order(n)
            for perm in itertools.permutations(range(n))
        }
    )


# ---------------------------------------------------------------------------
# Clifford semigroups


@dataclass(frozen=True)
class CliffordTable:
    mul: Magma
    inv: tuple  # elementwise inverse
    idems: frozenset

    @property
    def n(self) -> int:
        return len(self.mul)


def semigroup_inverses(mul: Magma) -> Optional[tuple]:
    """Per-element unique semigroup inverse, or None if any element has
    none or several."""
    n = len(mul)
    out = []
    for a in range(n):
        cands = [
            x
            for x in range(n)
            if mul[mul[a][x]][a] == a and mul[mul[x][a]][x] == x
        ]
        if len(cands) != 1:
            return None
        out.append(cands[0])
    return tuple(out)


def is_associative(mul: Magma) -> bool:
    """(ab)c == a(bc) for all triples."""
    for ma in mul:
        for b, ab in enumerate(ma):
            mab = mul[ab]
            for c, bc in enumerate(mul[b]):
                if mab[c] != ma[bc]:
                    return False
    return True


def is_inverse_semigroup(mul: Magma) -> bool:
    return is_associative(mul) and semigroup_inverses(mul) is not None


def is_clifford(mul: Magma) -> bool:
    """Inverse semigroup with all idempotents central."""
    return is_inverse_semigroup(mul) and idempotents_commute(mul)


def idempotents_commute(mul: Magma) -> bool:
    n = len(mul)
    idems = [e for e in range(n) if mul[e][e] == e]
    return all(mul[e][x] == mul[x][e] for e in idems for x in range(n))


def _clifford(mul: Magma) -> Optional[CliffordTable]:
    """The Clifford semigroup on a valid table, or None; one inverse search."""
    inv = semigroup_inverses(mul)
    if inv is None or not (is_associative(mul) and idempotents_commute(mul)):
        return None
    return CliffordTable(mul, inv, frozenset(e for e in range(len(mul)) if mul[e][e] == e))


def clifford_table(mul: Magma) -> CliffordTable:
    c = _clifford(validate_table(mul))
    if c is None:
        raise ValueError("table is not a Clifford semigroup")
    return c


@dataclass(frozen=True)
class SemilatticeSystem:
    """A semilattice (meet table), one fiber per point, and gluing
    homomorphisms homs[(a, b)] for every a >= b (homs[(a, a)] the
    identity).  Over groups it presents a Clifford semigroup, over racks
    a Plonka sum; the sum itself is the same in both cases."""

    meet: Magma
    fibers: tuple
    homs: dict

    @property
    def points(self) -> int:
        return len(self.meet)

    def offsets(self) -> list:
        out, acc = [], 0
        for f in self.fibers:
            out.append(acc)
            acc += len(f)
        return out


def _gluing_composes(meet: Magma, homs: dict) -> bool:
    """homs[(b, c)] o homs[(a, b)] == homs[(a, c)] for all a > b > c.

    A triple with a == b or b == c holds whenever homs[(a, a)] is the
    identity on its fiber, which the callers ensure.
    """
    below = [[b for b, ab in enumerate(row) if ab == b and b != a] for a, row in enumerate(meet)]
    # fibers differ in size, so compose by hand; compare by value, as a map may be a list
    return all(
        tuple([homs[(b, c)][v] for v in homs[(a, b)]]) == tuple(homs[(a, c)])
        for a in range(len(meet))
        for b in below[a]
        for c in below[b]
    )


def validate_system(sys: SemilatticeSystem, fiber_ok) -> None:
    """Raise ValueError unless the semilattice has a point, every fiber
    is non-empty and passes ``fiber_ok`` (``is_group`` for a Clifford
    semigroup, ``is_rack`` for a Plonka sum) and the gluing maps are
    homomorphisms that compose."""
    if not sys.meet:  # the sum would be an empty table
        raise ValueError("semilattice has no points")
    if not is_semilattice(sys.meet):
        raise ValueError("meet table is not a semilattice")
    if len(sys.fibers) != sys.points:
        raise ValueError("need one fiber per semilattice point")
    for k, f in enumerate(sys.fibers):
        f = validate_table(f)
        if not f:  # is_rack holds vacuously on no points
            raise ValueError(f"fiber {k} is empty")
        if not fiber_ok(f):
            raise ValueError(f"fiber {k} fails {fiber_ok.__name__}")
    span = range(sys.points)
    pairs = [(a, b) for a in span for b in span if semilattice_geq(sys.meet, a, b)]
    for pair in pairs:
        if pair not in sys.homs:
            raise ValueError(f"phi[{pair}] is missing")
    if len(sys.homs) != len(pairs):  # every pair is there, so some key is not one
        extra = next(key for key in sys.homs if key not in pairs)
        raise ValueError(f"phi[{extra}] is not a pair a >= b of the semilattice")
    for a, b in pairs:
        f, src, dst = sys.homs[(a, b)], sys.fibers[a], sys.fibers[b]
        if a == b and f != tuple(range(len(src))) and f != list(range(len(src))):  # f may be a list
            raise ValueError(f"phi[{(a, b)}] must be the identity")
        if len(f) != len(src) or any(type(v) is not int or not 0 <= v < len(dst) for v in f):
            raise ValueError(f"phi[{(a, b)}] has the wrong shape")
        if a != b and not is_hom(f, src, dst):  # an (a, a) map is the identity, a homomorphism
            raise ValueError(f"phi[{(a, b)}] is not a homomorphism")
    if not _gluing_composes(sys.meet, sys.homs):
        raise ValueError("gluing homomorphisms do not compose")


def sum_blocks(sys: SemilatticeSystem) -> Iterator[list]:
    """Row by row, x's blocks (c, u, homs[(b, c)]) for each point b: c is
    the meet of x's point and b, u the image of x in fiber c.  The cells
    (c, u, v), v in the blocks' maps in order, are row x's pairs (x, y)."""
    for a, fiber in enumerate(sys.fibers):
        row = [(c, sys.homs[(a, c)], sys.homs[(b, c)]) for b, c in enumerate(sys.meet[a])]
        for k in range(len(fiber)):
            yield [(c, into[k], h) for c, into, h in row]


def semilattice_sum(sys: SemilatticeSystem) -> Magma:
    """Disjoint union of the fibers; the product of x in fiber a and y in
    fiber b is taken in the meet fiber after the gluing maps.  The system
    is not validated here."""
    off, fibers = sys.offsets(), sys.fibers
    return tuple(
        tuple([off[c] + fibers[c][u][v] for c, u, h in blocks for v in h]) for blocks in sum_blocks(sys)
    )


def clifford_from_system(sys: SemilatticeSystem) -> CliffordTable:
    """The Clifford semigroup presented by a strong semilattice of groups."""
    validate_system(sys, is_group)
    c = _clifford(semilattice_sum(sys))
    guarantee(c is not None, "a strong semilattice of groups did not sum to a Clifford semigroup")
    return c


def all_systems(fiber_choices, max_points: int = 3) -> Iterator[SemilatticeSystem]:
    """Every strong semilattice system over the semilattices with at most
    max_points points (``semilattices_upto``).

    For each meet table on m points, ``fiber_choices(m)`` yields the
    tuples of m fibers to try, and every family of gluing homomorphisms
    that composes is kept.
    """
    for meet in semilattices_upto(max_points):
        m = len(meet)
        span = range(m)
        down_pairs = [(a, b) for a in span for b in span if a != b and semilattice_geq(meet, a, b)]
        for fibers in fiber_choices(m):
            choices = [list(homomorphisms(fibers[a], fibers[b])) for a, b in down_pairs]
            for combo in itertools.product(*choices):
                homs = {(a, a): tuple(range(len(fibers[a]))) for a in span}
                homs.update(zip(down_pairs, combo))
                if _gluing_composes(meet, homs):
                    yield SemilatticeSystem(meet, fibers, homs)


def group_fibers(max_size: int = 5):
    """The fiber choice of ``all_systems`` for Clifford semigroups: every
    tuple of groups on the m points of total order at most max_size."""
    return lambda m: (
        groups
        for orders in itertools.product(range(1, max_size + 1), repeat=m)
        if sum(orders) <= max_size
        for groups in itertools.product(*map(groups_of_order, orders))
    )


# ---------------------------------------------------------------------------
# shelves and quasi quandles from Clifford semigroups


def _conjugation(mul: Magma, inv: tuple) -> Magma:
    """x |> y := x^- y x in an inverse semigroup with inverses ``inv``."""
    return tuple(tuple(mul[v][x] for v in mul[inv[x]]) for x in range(len(mul)))


def conjugation_quasi_quandle(c: CliffordTable) -> Magma:
    """x |> y := x^- y x; a quasi quandle for every Clifford semigroup."""
    table = _conjugation(c.mul, c.inv)
    q = quasi_rack_structure(table)
    guarantee(q is not None and is_quasi_quandle(q), "a conjugation x^- y x is not a quasi quandle")
    return table


def core_quasi_quandle(c: CliffordTable) -> Magma:
    """x |> y := x y^- x; a quasi quandle for every Clifford semigroup."""
    mul, inv = c.mul, c.inv
    table = tuple(
        tuple(mul[mul[x][inv[y]]][x] for y in range(c.n)) for x in range(c.n)
    )
    q = quasi_rack_structure(table)
    guarantee(q is not None and is_quasi_quandle(q), "a core x y^- x is not a quasi quandle")
    return table


def deformed_quasi_rack(c: CliffordTable, e: int) -> Magma:
    """x |> y := x^- y x e for an idempotent e; a quasi rack whose
    translation inverses are the translations of the inverses."""
    if e not in c.idems:
        raise ValueError(f"{e} is not an idempotent")
    mul = c.mul
    table = tuple(tuple(mul[v][e] for v in row) for row in _conjugation(mul, c.inv))
    q = quasi_rack_structure(table)
    guarantee(q is not None, "a deformed conjugation x^- y x e is not a quasi rack")
    guarantee(all(q.L_inv[x] == table[c.inv[x]] for x in range(c.n)), "a deformed L_x^- is not L_{x^-}")
    return table


def constant_shelf(n: int, f: FnMap) -> Magma:
    """x |> y := f(y) with f idempotent; always a quasi rack."""
    if len(f) != n or any(type(v) is not int or not 0 <= v < n for v in f):
        raise ValueError(f"map {f} is not a map on {n} points")
    if not is_idempotent(f):
        raise ValueError("map must be idempotent")
    table = tuple(tuple(f) for _ in range(n))
    guarantee(quasi_rack_structure(table) is not None, "a constant shelf is not a quasi rack")
    return table


def _sequence_of(seq, k: int) -> bool:
    return isinstance(seq, Sequence) and len(seq) == k


def cocycle_extension(rack: Magma, s_size: int, alpha) -> Magma:
    """Quasi rack on X x S with L_{(i,s)}(j,t) = (i |> j, alpha[i][j][s](t)).

    ``alpha[i][j][s]`` is a transformation of the fiber carrier.  The
    base must be a rack, each alpha[i][j][s] a map on S, and the three
    admissibility conditions are validated individually; the element
    (i, s) is encoded as i * s_size + s.  Over a rack:

    condition 2 holds iff the extension is a left shelf;
    condition 3 holds iff each Z_(i,s): (j, t) -> (j, alpha[i][j][s]^0(t)) commutes with every L_(j,t).
    """
    rack = validate_table(rack)
    if not is_rack(rack):
        raise ValueError("the base of a cocycle extension must be a rack")
    n = len(rack)
    rng_x, rng_s = range(n), range(s_size)
    if not _sequence_of(alpha, n) or any(
        not _sequence_of(row, n) or any(not _sequence_of(maps, s_size) for maps in row) for row in alpha
    ):
        raise ValueError("alpha must give one map on S per (i, j, s)")
    zeros = {}
    for i in rng_x:
        for j in rng_x:
            for s in rng_s:
                f = alpha[i][j][s]
                if not _sequence_of(f, s_size) or any(type(v) is not int or not 0 <= v < s_size for v in f):
                    raise ValueError(f"alpha[{i}][{j}]({s}) is not a map on S")
                triple = relative_inverse(f)
                if triple is None:
                    raise ValueError(
                        f"condition 1 fails: alpha[{i}][{j}]({s}) has no relative inverse"
                    )
                zeros[(i, j, s)] = triple.zero
    table = tuple(
        tuple(rack[i][j] * s_size + v for j in rng_x for v in alpha[i][j][s]) for i in rng_x for s in rng_s
    )
    z = tuple(tuple(j * s_size + v for j in rng_x for v in zeros[(i, j, s)]) for i in rng_x for s in rng_s)
    if not is_left_shelf(table):
        raise ValueError("condition 2 fails: the extension is not a left shelf")
    if not idempotents_central(z, table):
        raise ValueError("condition 3 fails: some Z_(i,s) does not commute with every translation")
    q = quasi_rack_structure(table)
    guarantee(q is not None, "a cocycle extension of a rack is not a quasi rack")
    guarantee(q.L_zero == z, "L^0_(i,s) of a cocycle extension is not (j, t) -> (j, alpha[i][j][s]^0(t))")
    return table


# ---------------------------------------------------------------------------
# weak braces


@dataclass(frozen=True)
class WeakBrace:
    add: Magma
    mul: Magma
    add_inv: tuple
    mul_inv: tuple

    @property
    def n(self) -> int:
        return len(self.add)


def weak_brace_validate(add: Magma, mul: Magma) -> dict:
    """Full exhaustive law check; the report itemizes every failure."""
    return _checked_brace(add, mul)[0]


def _checked_brace(add: Magma, mul: Magma) -> tuple:
    """The ``weak_brace_validate`` report and the brace, or None in its
    place when the report is not valid; each table is validated and
    its semigroup inverses are computed once."""
    add, mul = validate_table(add), validate_table(mul)
    n = len(add)
    if len(mul) != n:
        raise ValueError("add and mul tables differ in size")
    add_inv = semigroup_inverses(add)
    mul_inv = semigroup_inverses(mul)
    # is_clifford(add) and is_inverse_semigroup(mul), given the inverses
    report = {
        "add_clifford": add_inv is not None and is_associative(add) and idempotents_commute(add),
        "mul_inverse_semigroup": mul_inv is not None and is_associative(mul),
        "distributivity_failures": [],
        "inverse_compat_failures": [],
    }
    if add_inv is None or mul_inv is None:
        report["valid"] = False
        return report, None
    for x in range(n):
        for y in range(n):
            for z in range(n):
                lhs = mul[x][add[y][z]]
                rhs = add[add[mul[x][y]][add_inv[x]]][mul[x][z]]
                if lhs != rhs:
                    report["distributivity_failures"].append((x, y, z))
        if mul[x][mul_inv[x]] != add[add_inv[x]][x]:
            report["inverse_compat_failures"].append(x)
    report["valid"] = (
        report["add_clifford"]
        and report["mul_inverse_semigroup"]
        and not report["distributivity_failures"]
        and not report["inverse_compat_failures"]
    )
    return report, WeakBrace(add, mul, add_inv, mul_inv) if report["valid"] else None


def make_weak_brace(add: Magma, mul: Magma) -> WeakBrace:
    report, brace = _checked_brace(add, mul)
    if brace is None:
        raise ValueError(f"not a weak brace: {report}")
    return brace


def trivial_brace(c: CliffordTable) -> WeakBrace:
    """x + y := x o y."""
    return make_weak_brace(c.mul, c.mul)


def opposite_trivial_brace(c: CliffordTable) -> WeakBrace:
    """x + y := y o x."""
    return make_weak_brace(tuple(zip(*c.mul)), c.mul)


def opposite_brace(b: WeakBrace) -> WeakBrace:
    return WeakBrace(tuple(zip(*b.add)), b.mul, b.add_inv, b.mul_inv)


def brace_lambda(b: WeakBrace) -> tuple:
    """lambda_x(y) = -x + x o y."""
    return tuple(tuple(b.add[b.add_inv[x]][v] for v in b.mul[x]) for x in range(b.n))


def brace_rho(b: WeakBrace) -> tuple:
    """The rho family of ``brace_solution``."""
    return brace_solution(b).rho


def brace_solution(b: WeakBrace) -> Solution:
    """lambda of ``brace_lambda`` and rho_y(x) = (lambda_x(y))^- o x o y,
    rows of rho indexed by the actor y."""
    lam, mul, mul_inv = brace_lambda(b), b.mul, b.mul_inv
    rho = tuple(tuple(mul[mul[mul_inv[lam[x][y]]][x]][y] for x in range(b.n)) for y in range(b.n))
    return Solution(lam=lam, rho=rho)


def lambda_rho_clifford_check(b: WeakBrace) -> bool:
    """{lambda_x} and {rho_x} are Clifford subsemigroups of the map monoid:
    closed under composition, members completely regular, idempotent
    members central within the set.

    In a closed family each member's idempotent f^0 is a power of f, hence
    a member, so the idempotent members are exactly the f^0 that
    ``regular_family`` tests against the family."""
    s = brace_solution(b)
    for family in (set(s.lam), set(s.rho)):
        if not {compose(f, g) for f in family for g in family} <= family:
            return False
        if regular_family(family) is None:
            return False
    return True


def brace_structure_shelf_check(b: WeakBrace) -> bool:
    """The structure magma of the brace solution must be x |> y = -x+y+x,
    the conjugation quasi quandle of the additive semigroup."""
    s = brace_solution(b)
    d = quasi_left_nondeg(s)
    if d is None:
        return False
    return structure_magma(s, d) == _conjugation(b.add, b.add_inv)


def all_skew_braces(n: int) -> list:
    """Every pair of labeled group tables on {0..n-1} forming a weak brace
    (necessarily a skew brace: a single idempotent)."""
    braces = (_checked_brace(add, mul)[1] for add, mul in itertools.product(labeled_groups(n), repeat=2))
    return [b for b in braces if b is not None]


def dual_weak_brace_fixtures(max_size: int = 5, max_skew_order: int = 4) -> Iterator[WeakBrace]:
    """Trivial and opposite-trivial braces over every generated Clifford
    semigroup, plus all skew braces of small order."""
    cliffords = (clifford_from_system(sys) for sys in all_systems(group_fibers(max_size)))
    trivial = (b for c in cliffords for b in (trivial_brace(c), opposite_trivial_brace(c)))
    skew = (b for n in range(1, max_skew_order + 1) for b in all_skew_braces(n))
    seen = set()
    for b in itertools.chain(trivial, skew):
        key = (b.add, b.mul)
        if key not in seen:
            seen.add(key)
            yield b

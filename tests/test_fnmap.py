import itertools
import math

import pytest
from hypothesis import given, strategies as st

from oracles import brute_relative_inverses, comp, naive_is_completely_regular
from yaxl.fnmap import (
    commutes,
    compose,
    identity,
    idempotents_central,
    image,
    is_completely_regular,
    is_idempotent,
    is_permutation,
    relative_inverse,
    zeros_multiplicative,
)


def maps(n):
    return st.tuples(*[st.integers(0, n - 1)] * n)


def test_identity():
    assert identity(3) == (0, 1, 2)
    assert identity(0) == ()


def test_compose_convention():
    # (f o g)(x) = f(g(x))
    f = (1, 2, 0)
    g = (0, 0, 1)
    assert compose(f, g) == (1, 1, 2)
    assert compose(g, f) == (0, 1, 0)


def test_compose_size_mismatch():
    with pytest.raises(ValueError):
        compose((0, 1), (0, 1, 2))


def test_predicates():
    assert is_permutation((2, 0, 1))
    assert not is_permutation((0, 0, 1))
    assert is_idempotent((0, 0, 2))
    assert not is_idempotent((1, 2, 0))
    assert image((1, 1, 2)) == frozenset({1, 2})
    assert commutes((1, 0), (1, 0))


def test_completely_regular_examples():
    assert is_completely_regular((2, 0, 1))  # permutation
    assert is_completely_regular((1, 0, 0))  # bijective on its image {0, 1}
    assert not is_completely_regular((0, 0, 1))  # image {0, 1}, collapses it
    assert is_completely_regular((1, 1, 1))  # constants always are


def test_relative_inverse_of_permutation():
    f = (1, 2, 3, 0)
    t = relative_inverse(f)
    assert t.inv == (3, 0, 1, 2)
    assert t.zero == identity(4)


def test_relative_inverse_none():
    assert relative_inverse((0, 0, 1)) is None


def test_relative_inverse_idempotent():
    f = (0, 0, 2)
    t = relative_inverse(f)
    assert t.inv == f and t.zero == f


def test_relative_inverse_matches_brute_force_n3():
    for f in itertools.product(range(3), repeat=3):
        brute = brute_relative_inverses(f)
        t = relative_inverse(f)
        if t is None:
            assert brute == []
        else:
            assert brute == [t.inv]


def test_completely_regular_map_count():
    # sum_k C(n,k) k! k^(n-k)
    for n, count in [(4, 148), (5, 1305), (6, 13806)]:
        assert count == sum(math.comb(n, k) * math.factorial(k) * k ** (n - k) for k in range(n + 1))
        assert sum(1 for f in itertools.product(range(n), repeat=n) if is_completely_regular(f)) == count


def test_relative_inverse_on_at_most_one_point():
    assert relative_inverse(()) == ((), (), ())
    assert relative_inverse((0,)) == ((0,), (0,), (0,))


def test_relative_inverse_identities():
    # every map on at most 6 points, against the naive definitions
    for n in range(7):
        for f in itertools.product(range(n), repeat=n):
            t = relative_inverse(f)
            if t is None:
                assert not naive_is_completely_regular(f)
                continue
            assert naive_is_completely_regular(f) and t.f == f
            assert comp(comp(f, t.inv), f) == f
            assert comp(comp(t.inv, f), t.inv) == t.inv
            assert comp(f, t.inv) == comp(t.inv, f) == t.zero
            assert comp(t.zero, t.zero) == t.zero


@given(st.integers(0, 6).flatmap(lambda n: st.tuples(maps(n), maps(n))))
def test_compose_matches_oracle(fg):
    assert compose(*fg) == comp(*fg)


@given(maps(4), maps(4), maps(4))
def test_compose_associative(f, g, h):
    assert compose(compose(f, g), h) == compose(f, compose(g, h))


@given(st.lists(maps(3), max_size=4), st.lists(maps(3), max_size=4))
def test_idempotents_central_checks_every_pair(zeros, family):
    expected = all(comp(z, f) == comp(f, z) for z in zeros for f in family)
    assert idempotents_central(zeros, family) == expected


@given(st.integers(0, 5).flatmap(lambda n: st.tuples(maps(n), maps(n))))
def test_commutes_matches_oracle(fg):
    f, g = fg
    assert commutes(f, g) == (comp(f, g) == comp(g, f))


@st.composite
def families_with_zeros(draw):
    """n maps and n zeros drawn from a pool of at most 3, so zeros repeat."""
    n = draw(st.integers(1, 5))
    family = draw(st.lists(maps(n), min_size=n, max_size=n))
    if draw(st.booleans()):
        # the identity and a constant map: the identity holds more often
        pool = [identity(n), tuple([0] * n)]
    else:
        pool = draw(st.lists(maps(n), min_size=1, max_size=3))
    return family, tuple(draw(st.sampled_from(pool)) for _ in range(n))


@given(families_with_zeros())
def test_zeros_multiplicative_matches_oracle(fz):
    family, zero = fz
    expected = all(zero[t] == comp(zero[x], zero[y]) for x, fx in enumerate(family) for y, t in enumerate(fx))
    assert zeros_multiplicative(family, zero) == expected

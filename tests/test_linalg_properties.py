"""Properties of the canonical integer-numerator form of ``Vec`` and ``Mat``.

Every value produced by the arithmetic must be canonical (integer numerators,
positive denominator, ``gcd(den, *num) == 1``) and must equal the same
computation done entrywise on ``Fraction``s; equal values must hash equally.
"""

import math
from fractions import Fraction
from itertools import combinations, product

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from homlie.cochains import SkewCochain, TwistedSpace, evaluate  # noqa: E402
from homlie.linalg import Mat, Vec  # noqa: E402

SETTINGS = settings(max_examples=60, deadline=None)

rationals = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 1, 1, 2, 3, 4, 6)))
scalars = st.one_of(st.integers(-6, 6), rationals)


def vecs(dim):
    return st.lists(rationals, min_size=dim, max_size=dim).map(Vec)


def mats(nrows, ncols):
    return st.lists(st.lists(rationals, min_size=ncols, max_size=ncols),
                    min_size=nrows, max_size=nrows).map(Mat)


def assert_canonical(x):
    nums = list(x.num) if isinstance(x, Vec) else [a for row in x.num for a in row]
    assert type(x.den) is int and x.den > 0
    assert all(type(a) is int for a in nums)
    assert math.gcd(x.den, *nums) == 1


@SETTINGS
@given(st.integers(0, 5).flatmap(lambda n: st.tuples(vecs(n), vecs(n))), scalars)
def test_vector_arithmetic_is_canonical_and_matches_fractions(pair, c):
    u, v = pair
    a, b = u.entries, v.entries
    for got, want in ((u + v, [x + y for x, y in zip(a, b)]),
                      (u - v, [x - y for x, y in zip(a, b)]),
                      (-u, [-x for x in a]),
                      (u.scale(c), [Fraction(c) * x for x in a])):
        assert_canonical(got)
        assert got.entries == tuple(want)
        assert got == Vec(want) and hash(got) == hash(Vec(want))


@SETTINGS
@given(st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 4)).flatmap(
    lambda s: st.tuples(mats(s[0], s[1]), mats(s[0], s[1]), mats(s[1], s[2]), vecs(s[1]))),
    scalars)
def test_matrix_arithmetic_is_canonical_and_matches_fractions(data, c):
    m, n, p, v = data
    rm, rn, rp, rv = m.rows, n.rows, p.rows, v.entries
    cases = [
        (m + n, [[x + y for x, y in zip(r, s)] for r, s in zip(rm, rn)]),
        (m - n, [[x - y for x, y in zip(r, s)] for r, s in zip(rm, rn)]),
        (m.scale(c), [[Fraction(c) * x for x in r] for r in rm]),
        (m.transpose(), [list(col) for col in zip(*rm)]),
        (m @ p, [[sum((r[k] * rp[k][j] for k in range(len(rp))), Fraction(0))
                  for j in range(p.ncols)] for r in rm]),
    ]
    for got, want in cases:
        assert_canonical(got)
        assert got.rows == tuple(tuple(r) for r in want)
    mv = m @ v
    assert_canonical(mv)
    assert mv.entries == tuple(sum((x * y for x, y in zip(r, rv)), Fraction(0)) for r in rm)
    for j in range(m.ncols):
        col = m.col(j)
        assert_canonical(col)
        assert col.entries == tuple(r[j] for r in rm)


def _inversions(idxs):
    return sum(1 for i, j in combinations(range(len(idxs)), 2) if idxs[i] > idxs[j])


@st.composite
def evaluations(draw):
    dim = draw(st.integers(1, 4))
    codim = draw(st.integers(1, 3))
    arity = draw(st.integers(1, min(dim, 3)))
    keys = list(combinations(range(dim), arity))
    coeffs = {k: draw(vecs(codim)) for k in keys if draw(st.booleans())}
    args = [draw(vecs(dim)) for _ in range(arity)]
    return dim, codim, arity, coeffs, args


@SETTINGS
@given(evaluations())
def test_evaluate_is_canonical_and_matches_fraction_expansion(case):
    dim, codim, arity, coeffs, args = case
    space, target = TwistedSpace.untwisted(dim), TwistedSpace.untwisted(codim)
    f = SkewCochain(space, target, arity, coeffs)
    got = evaluate(f, args)
    assert_canonical(got)
    want = [Fraction(0)] * codim
    for idxs in product(range(dim), repeat=arity):
        key = tuple(sorted(idxs))
        if len(set(idxs)) < arity or key not in coeffs:
            continue
        c = Fraction((-1) ** _inversions(idxs))
        for a, i in zip(args, idxs):
            c *= a.entries[i]
        want = [w + c * x for w, x in zip(want, coeffs[key].entries)]
    assert got.entries == tuple(want)


def test_equal_values_have_equal_hashes_examples():
    half = Vec.make(["1/2", "1"])
    same = [Vec((1, 2)), Vec.make(["2/2", "4/2"]), half + half, Vec([Fraction(3, 3), "6/3"])]
    for v in same:
        assert v == same[0] and hash(v) == hash(same[0])
        assert (v.num, v.den) == ((1, 2), 1)
    assert half.num == (1, 2) and half.den == 2
    assert Vec.make(["1/2", "-1/2"]) + Vec.make(["-1/2", "1/2"]) == Vec.zero(2)
    assert (Vec.make(["1/2", "-1/2"]) - Vec.make(["1/2", "-1/2"])).den == 1
    assert Mat.make([["2/4", 1]]) == Mat([[Fraction(1, 2), "3/3"]])
    assert hash(Mat.make([["2/4", 1]])) == hash(Mat([[Fraction(1, 2), "3/3"]]))


@SETTINGS
@given(st.integers(0, 5).flatmap(vecs), st.integers(1, 5))
def test_equal_values_have_equal_hashes(v, k):
    # the same value written with every fraction unreduced by a factor k
    unreduced = Vec.make([f"{k * x.numerator}/{k * x.denominator}" for x in v.entries])
    round_trip = v.scale(k).scale(Fraction(1, k))
    for w in (unreduced, round_trip, Vec(v.entries)):
        assert_canonical(w)
        assert w == v and hash(w) == hash(v)

"""Cochains as integer numerators over one denominator, against ``Fraction`` references.

A cochain stores ``num`` (key -> nonzero integer tuple) over one ``den`` in
canonical form: den > 0 and gcd(den, every numerator) == 1, so equal cochains
have equal (num, den).  ``_assemble`` sums parts of integer (c, numerators)
terms and reduces the whole cochain with one gcd.  The reference below sums
the same parts entry by entry on ``Fraction``; the second test checks that
every cochain the brackets, coboundaries, theta~ and ``linear_combination``
make on the default fixtures is canonical and that its ``coeffs`` view
round-trips through the public constructor.
"""

import random
from fractions import Fraction
from itertools import chain, combinations
from math import gcd, lcm

import pytest

from homlie.brackets import (cup_bracket, derived_bracket, derived_bracket_rel, fn_bracket,
                             nr_bracket, theta_tilde)
from homlie.cochains import (SkewCochain, TwistedSpace, _assemble, contract, linear_combination,
                             operator_cochain)
from homlie.differentials import d_trivial, delta_hom
from homlie.linalg import Mat, Vec
from homlie.structures import adjoint_representation, bracket_action_on_abelian
from homlie.theorems import default_fixtures, sample_cochain

DENOMINATORS = (1, 2, 3, 4, 6, 9, 10, 12)


def assert_canonical(f: SkewCochain):
    """(num, den) is canonical for f's shape, and ``coeffs`` is the same map as ``Vec``s."""
    dim = f.codomain.dim
    assert type(f.den) is int and f.den > 0
    assert gcd(f.den, *chain.from_iterable(f.num.values())) == 1
    for key, value in f.num.items():
        assert len(key) == f.arity and list(key) == sorted(set(key))
        assert all(0 <= i < f.domain.dim for i in key)
        assert type(value) is tuple and len(value) == dim and any(value)
        assert all(type(x) is int for x in value)
    assert set(f.coeffs) == set(f.num)
    for key, v in f.coeffs.items():
        assert v.entries == tuple(Fraction(x, f.den) for x in f.num[key])
    assert SkewCochain(f.domain, f.codomain, f.arity, f.coeffs) == f


def ref_sum(parts, dim: int, divisor: int) -> dict:
    """key -> the Fraction entries of sum c * v / den over every part, divided by divisor."""
    total: dict = {}
    for den, part in parts:
        for key, terms in part.items():
            entries = total.setdefault(key, [Fraction(0)] * dim)
            for c, v in terms:
                for i, x in enumerate(v):
                    entries[i] += Fraction(c * x, den * divisor)
    return {key: entries for key, entries in total.items() if any(entries)}


def random_parts(space: TwistedSpace, arity: int, dim: int, rng: random.Random):
    """Parts on mixed denominators; some keys get a term and its negative in another part."""
    keys = list(combinations(range(space.dim), arity))
    parts = []
    for _ in range(rng.randint(1, 4)):
        den = rng.choice(DENOMINATORS)
        part = {}
        for key in rng.sample(keys, rng.randint(0, len(keys))):
            part[key] = [(rng.choice((-3, -2, -1, 1, 2, 5)),
                          tuple(rng.randint(-4, 4) for _ in range(dim)))
                         for _ in range(rng.randint(1, 6))]
        parts.append((den, part))
    for key in rng.sample(keys, rng.randint(0, len(keys))):  # cancels within the sum
        den, k = rng.choice(DENOMINATORS), rng.randint(2, 5)
        c, v = rng.choice((-2, 1, 3)), tuple(rng.randint(-4, 4) for _ in range(dim))
        parts.append((den, {key: [(c, v)]}))
        parts.append((den * k, {key: [(-c * k, v)]}))
    rng.shuffle(parts)
    return parts


def test_assemble_matches_the_fraction_sum_of_its_parts():
    rng = random.Random("assemble-oracle")
    cases = zeros = reduced = 0
    for dim_w, dim_v in ((2, 2), (3, 3), (4, 2), (4, 4)):
        w, v = TwistedSpace.untwisted(dim_w), TwistedSpace.untwisted(dim_v)
        for arity in range(0, dim_w + 1):
            for _ in range(25):
                parts = random_parts(w, arity, dim_v, rng)
                divisor = rng.choice((1, 2, 3, 5, 6))
                want = ref_sum(parts, dim_v, divisor)  # before _assemble consumes the parts
                lcm_den = lcm(*[den for den, _ in parts])
                got = _assemble(w, v, arity, parts, divisor)
                assert_canonical(got)
                assert got == SkewCochain(w, v, arity, {key: Vec(e) for key, e in want.items()})
                assert {key: list(x.entries) for key, x in got.coeffs.items()} == want
                cases += 1
                zeros += got.is_zero()
                reduced += got.den < lcm_den * divisor
    # the cases cover empty sums, cancelling keys and reductions by the final gcd
    assert cases == 425 and zeros >= 40 and reduced >= 200


@pytest.mark.parametrize("name,alg", default_fixtures())
def test_every_made_cochain_is_canonical_and_its_coeffs_round_trip(name, alg):
    rng = random.Random(f"canonical-{name}")
    space, adj = alg.space, adjoint_representation(alg)
    action = bracket_action_on_abelian(alg)
    made = []
    for _ in range(4):
        cochains = [sample_cochain(space, space, n, rng) for n in range(1, min(3, alg.dim) + 1)]
        cochains += [f.scale(Fraction(rng.choice((1, 2, 5)), rng.choice((3, 4, 6))))
                     for f in cochains]
        matrix = Mat([[Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(alg.dim)]
                      for _ in range(alg.dim)])
        cochains.append(operator_cochain(space, space, matrix))
        made += cochains
        for P in cochains:
            made += [delta_hom(adj, P), d_trivial(alg, P), theta_tilde(adj, P),
                     theta_tilde(action, P), -P, P.scale(-2), P.scale(Fraction(3, 2))]
            for Q in rng.sample(cochains, 3):
                made += [nr_bracket(P, Q), cup_bracket(P, Q, alg), fn_bracket(alg, P, Q),
                         derived_bracket(alg, P, Q), derived_bracket_rel(action, P, Q),
                         contract(P, Q)]
                if P.arity == Q.arity:
                    made += [P + Q, P - Q, P - P,
                             linear_combination(space, space, P.arity,
                                                [(rng.randint(-3, 3), P), (rng.randint(-3, 3), Q)],
                                                rng.choice((1, 2, 6)))]
    for f in made:
        assert_canonical(f)
    assert sum(f.den > 1 for f in made) >= 50 and sum(f.is_zero() for f in made) >= 10

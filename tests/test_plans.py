"""The compiled plans and the one-assembly brackets against per-key references.

The references below are the per-key bodies that ``contract``,
``cup_bracket``, ``delta_hom``, ``d_trivial`` and ``theta_tilde`` ran before
the plans: every value is rebuilt from ``evaluate``, ``shuffles`` and
``Representation.act`` on each call.  The bracket references compose them
term by term with cochain addition, as the brackets did before each became
one assembly of parts.  The plans and brackets must give equal coefficient
tables on raw (not necessarily compatible) cochains with rational values, on
every default fixture and on twists, representations and codomains that the
fixtures do not cover, dense twists among them: the fixtures of dimension 3
transported by the change of basis of ``test_transport``.  The action plan is
compared with the signs of ``sort_with_sign``.  Cochain ``+`` and ``-``,
which the bracket references use, are themselves assemblies; ``ref_add``
checks them key by key on ``Fraction`` entries.  The plans walk only the
nonzero keys and coordinates of their inputs, so sparse inputs (one key,
values with zero coordinates) are checked against the references too.
"""

import gc
import random
import weakref
from itertools import combinations
from fractions import Fraction
from math import lcm

import pytest

from homlie import brackets, cochains, differentials, theorems
from homlie.brackets import (GradedPair, _cup_plan, bicrossed_bracket, cup_bracket,
                             derived_bracket, derived_bracket_rel, fn_bracket, nr_bracket,
                             semidirect_graded_bracket, theta_tilde)
from homlie.cochains import (SkewCochain, TwistedSpace, _shuffle_table, contract, evaluate,
                             linear_combination, shuffles, sort_with_sign)
from homlie.cohomology import ComplexSpec, cohomology
from homlie.differentials import d_trivial, delta_hom
from homlie.linalg import Mat, Vec, _lincomb
from homlie.structures import (HomLieAlgebra, Representation, adjoint_representation,
                               bracket_action_on_abelian, representation_witness,
                               trivial_representation, yau_twist, _heisenberg_lie_mu)
from homlie.theorems import default_fixtures
from test_transport import FIXTURES_3, G, transport


def ref_contract(inner: SkewCochain, outer: SkewCochain) -> SkewCochain:
    w = inner.domain
    m, n = inner.arity, outer.arity
    twisted_basis = w.twisted_basis(m - 1)
    table = shuffles(m, n - 1)
    heads, dim = inner.coeffs, outer.codomain.dim

    def terms(key):
        for image, sign in table:
            head = heads.get(tuple([key[p] for p in image[:m]]))
            if head is not None:
                rest = [twisted_basis[key[p]] for p in image[m:]]
                yield sign, evaluate(outer, [head] + rest)

    return SkewCochain.from_function(w, outer.codomain, m + n - 1,
                                     lambda key: _lincomb(terms(key), dim))


def ref_cup_bracket(P: SkewCochain, Q: SkewCochain, codomain_alg) -> SkewCochain:
    m, n = P.arity, Q.arity
    beta_n = codomain_alg.space.twist_power(n - 1)
    beta_m = codomain_alg.space.twist_power(m - 1)
    table = shuffles(m, n)
    lefts, rights, dim = P.coeffs, Q.coeffs, codomain_alg.dim

    def terms(key):
        for image, sign in table:
            left = lefts.get(tuple([key[p] for p in image[:m]]))
            if left is None:
                continue
            right = rights.get(tuple([key[p] for p in image[m:]]))
            if right is not None:
                yield sign, codomain_alg.bracket(beta_n @ left, beta_m @ right)

    return SkewCochain.from_function(P.domain, P.codomain, m + n,
                                     lambda key: _lincomb(terms(key), dim))


def _ref_bracket_terms(alg, f: SkewCochain, key):
    table, twisted = alg.table, alg.space.twisted_basis(1)
    size = len(key)
    for p1 in range(size):
        for p2 in range(p1 + 1, size):
            sign = -1 if (p1 + p2 + 2) % 2 else 1
            head = table[key[p1]][key[p2]]
            rest = [twisted[key[p]] for p in range(size) if p != p1 and p != p2]
            yield sign, evaluate(f, [head] + rest)


def ref_delta_hom(rep: Representation, f: SkewCochain) -> SkewCochain:
    alg = rep.algebra
    n = f.arity
    acting = alg.space.twisted_basis(n - 1)
    values, dim = f.coeffs, rep.module.dim

    def terms(key):
        for pos in range(n + 1):
            value = values.get(key[:pos] + key[pos + 1:])
            if value is not None:
                yield (-1 if pos % 2 else 1), rep.act(acting[key[pos]], value)
        yield from _ref_bracket_terms(alg, f, key)

    return SkewCochain.from_function(alg.space, rep.module, n + 1,
                                     lambda key: _lincomb(terms(key), dim))


def ref_d_trivial(alg, f: SkewCochain) -> SkewCochain:
    return SkewCochain.from_function(
        alg.space, f.codomain, f.arity + 1,
        lambda key: _lincomb(_ref_bracket_terms(alg, f, key), f.codomain.dim))


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def ref_theta_tilde(rep: Representation, P: SkewCochain) -> SkewCochain:
    module, n = rep.module, P.arity
    twisted = module.twisted_basis(n - 1)

    def terms(key):
        for pos in range(n + 1):
            head = P.coeffs.get(key[:pos] + key[pos + 1:])
            if head is not None:
                yield _sign(n + pos + 1), rep.act(head, twisted[key[pos]])

    return SkewCochain.from_function(module, module, n + 1,
                                     lambda key: _lincomb(terms(key), module.dim))


def ref_nr_bracket(P, Q):
    m, n = P.arity, Q.arity
    return ref_contract(P, Q) - ref_contract(Q, P).scale(_sign((m - 1) * (n - 1)))


def ref_fn_bracket(alg, P, Q):
    adj = adjoint_representation(alg)
    m, n = P.arity, Q.arity
    return (ref_cup_bracket(P, Q, alg)
            + ref_contract(ref_delta_hom(adj, P), Q).scale(_sign(m))
            - ref_contract(ref_delta_hom(adj, Q), P).scale(_sign((m + 1) * n)))


def ref_derived_bracket_rel(rep, P, Q):
    m, n = P.arity, Q.arity
    return (ref_cup_bracket(P, Q, rep.algebra)
            + ref_contract(ref_theta_tilde(rep, P), Q)
            - ref_contract(ref_theta_tilde(rep, Q), P).scale(_sign(m * n)))


def ref_semidirect(cod_alg, a, b):
    m, n = a.degree, b.degree
    return GradedPair(ref_nr_bracket(a.upper, b.upper),
                      ref_cup_bracket(a.lower, b.lower, cod_alg)
                      + ref_contract(a.upper, b.lower)
                      - ref_contract(b.upper, a.lower).scale(_sign(m * n)))


def ref_bicrossed(alg, a, b):
    m, n = a.degree, b.degree
    return GradedPair(ref_nr_bracket(a.upper, b.upper)
                      + ref_fn_bracket(alg, a.lower, b.upper)
                      - ref_fn_bracket(alg, b.lower, a.upper).scale(_sign(m * n)),
                      ref_fn_bracket(alg, a.lower, b.lower)
                      + ref_contract(a.upper, b.lower)
                      - ref_contract(b.upper, a.lower).scale(_sign(m * n)))


def ref_linear_combination(domain, codomain, arity, terms, den=1):
    terms = list(terms)
    return SkewCochain.from_function(
        domain, codomain, arity,
        lambda key: _lincomb([(c, f.value_on(key)) for c, f in terms], codomain.dim, den))


_VALUES = [Fraction(0)] * 3 + [Fraction(k) for k in (1, -1, 2, -3)] + [Fraction(1, 2),
                                                                        Fraction(-2, 3)]


def raw_cochain(domain: TwistedSpace, codomain: TwistedSpace, arity: int,
                rng: random.Random) -> SkewCochain:
    """A cochain with random rational values, compatible with the twists or not."""
    return SkewCochain.from_function(
        domain, codomain, arity,
        lambda key: Vec([rng.choice(_VALUES) for _ in range(codomain.dim)]))


def sparse_cochains(domain: TwistedSpace, codomain: TwistedSpace, arity: int,
                    rng: random.Random) -> list[SkewCochain]:
    """A one-key cochain with one nonzero coordinate, and one on some keys whose values
    each have a zero coordinate: the entries a plan walk skips."""
    keys = list(combinations(range(domain.dim), arity))
    nonzero = [x for x in _VALUES if x]

    def value(zeros: int) -> Vec:
        entries = [rng.choice(nonzero) for _ in range(codomain.dim)]
        for i in rng.sample(range(codomain.dim), zeros):
            entries[i] = 0
        return Vec(entries)

    one = {rng.choice(keys): value(codomain.dim - 1)} if keys else {}
    some = {key: value(rng.randint(1, codomain.dim - 1) if codomain.dim > 1 else 0)
            for key in keys if rng.random() < 0.5}
    return [SkewCochain(domain, codomain, arity, one), SkewCochain(domain, codomain, arity, some)]


def kept(obj, name: str) -> dict:
    """The entries obj keeps under name, by key; a weak key is given by its referent."""
    return {key() if isinstance(key, weakref.ref) else key: value
            for (entry, key), value in getattr(obj, "_kept", {}).items() if entry == name}


def _rational_shear() -> HomLieAlgebra:
    """Heisenberg twisted by a non-diagonal automorphism with non-integer entries."""
    alpha = Mat([["1/2", "1/3", 0], [0, 3, 0], ["1/5", 0, "3/2"]])
    return yau_twist(_heisenberg_lie_mu(), alpha)


def _rational_dim4() -> HomLieAlgebra:
    """The almost-abelian 4-dim algebra twisted by a diagonal with non-integer entries.

    Unlike the Heisenberg twists, its coboundary bracket sums on 2-cochains
    do not cancel, so the twist denominators reach the bracket plan.
    """
    plain = TwistedSpace.untwisted(4)
    mu = SkewCochain(plain, plain, 2, {(0, k): Vec.basis(4, k).scale(k) for k in (1, 2, 3)})
    return yau_twist(mu, Mat.diagonal([1, "1/2", "2/3", "1/3"]))


def _adjoint_plus_line(alg: HomLieAlgebra) -> Representation:
    """g acting on g + k by x . (y, t) = ([x, y], 0), twist alpha + 2: not the adjoint module."""
    d = alg.dim
    module = TwistedSpace(Mat([list(r) + [0] for r in alg.alpha.rows] + [[0] * d + [2]]))
    table = tuple(tuple(Vec(list(v.entries) + [0]) for v in row) + (Vec.zero(d + 1),)
                  for row in alg.table)
    return Representation(alg, module, table)


# The default fixtures of dimension 3 moved by a change of basis: each twist has a column
# with three nonzero entries, where the default twists are diagonal or nearly so.
DENSE = [(f"{name}-transported", HomLieAlgebra(moved.space, moved.mu))
         for name, alg in FIXTURES_3 for moved in (transport(alg, G),)]
ALGEBRAS = default_fixtures() + [("rational-shear", _rational_shear()),
                                  ("rational-dim4", _rational_dim4())] + DENSE
ARITIES = (1, 2, 3)


@pytest.mark.parametrize("name,alg", ALGEBRAS, ids=[n for n, _ in ALGEBRAS])
def test_contract_plan_matches_reference(name, alg):
    rng = random.Random(f"contract|{name}")
    space = alg.space
    cod = TwistedSpace(Mat([[1, 1], [0, "-1/2"]]))
    for m in ARITIES:
        for n in ARITIES:
            P = raw_cochain(space, space, m, rng)
            Q = raw_cochain(space, space, n, rng)
            assert contract(P, Q) == ref_contract(P, Q), (m, n)
            # outer valued in a foreign codomain
            R = raw_cochain(space, cod, n, rng)
            assert contract(P, R) == ref_contract(P, R), (m, n)


@pytest.mark.parametrize("name,alg", ALGEBRAS, ids=[n for n, _ in ALGEBRAS])
def test_cup_plan_matches_reference(name, alg):
    rng = random.Random(f"cup|{name}")
    space = alg.space
    for m in ARITIES:
        for n in ARITIES:
            P = raw_cochain(space, space, m, rng)
            Q = raw_cochain(space, space, n, rng)
            assert cup_bracket(P, Q, alg) == ref_cup_bracket(P, Q, alg), (m, n)


@pytest.mark.parametrize("name,alg", ALGEBRAS, ids=[n for n, _ in ALGEBRAS])
def test_coboundary_plans_match_reference(name, alg):
    rng = random.Random(f"coboundary|{name}")
    space = alg.space
    rep = _adjoint_plus_line(alg)
    assert representation_witness(rep) is None
    foreign = TwistedSpace(Mat([[1, "1/3"], [0, 2]]))  # the d_lambda_tilde shape
    for n in ARITIES:
        f = raw_cochain(space, space, n, rng)
        assert delta_hom(adjoint_representation(alg), f) == ref_delta_hom(
            adjoint_representation(alg), f), n
        g = raw_cochain(space, rep.module, n, rng)
        assert delta_hom(rep, g) == ref_delta_hom(rep, g), n
        assert d_trivial(alg, f) == ref_d_trivial(alg, f), n
        h = raw_cochain(space, foreign, n, rng)
        assert d_trivial(alg, h) == ref_d_trivial(alg, h), n


def test_action_plan_prepends_each_index_with_its_sort_sign():
    for dim in range(1, 7):
        for n in range(dim + 1):
            expected = {}
            for key in combinations(range(dim), n):
                signed = ((x, *sort_with_sign((x,) + key)) for x in range(dim))
                expected[key] = tuple((x, out, sign) for x, sign, out in signed if sign)
            assert cochains._action_plan(dim, n) == expected, (dim, n)


def walked_action_part(f, table, sign=1):
    """The action part with a key for every (key, index) the plan lists, empty term lists kept."""
    rows, den = table
    part = {}
    for key, num in f.num.items():
        support = [(v, sign * y) for v, y in enumerate(num) if y]
        for x, out, c in cochains._action_plan(f.domain.dim, f.arity)[key]:
            part.setdefault(out, []).extend([(c * y, rows[x][v]) for v, y in support
                                             if v in rows[x]])
    return f.den * den, part


def test_an_action_part_holds_no_key_without_terms(monkeypatch):
    # an action row that shares no coordinate with a value's support adds no
    # key; every other key is the full walk's, and the identity suite reports
    # the same with the full walk's parts
    real, dropped = cochains._action_part, []

    def checked(f, table, sign=1):
        den, part = real(f, table, sign)
        walked_den, walked = walked_action_part(f, table, sign)
        assert all(part.values()) and den == walked_den
        assert part == {key: terms for key, terms in walked.items() if terms}
        dropped.append(len(walked) - len(part))
        return den, part

    for module in (brackets, differentials):
        monkeypatch.setattr(module, "_action_part", checked)
    report = theorems.run_all(trials=2)
    assert dropped and sum(dropped)  # the suite meets rows that share no coordinate
    for module in (brackets, differentials):
        monkeypatch.setattr(module, "_action_part", walked_action_part)
    assert theorems.run_all(trials=2) == report


def walked_cup_part(P, Q, codomain_alg, sign=1):
    """The cup part with a key for every split of two nonzero keys, empty term lists kept."""
    m, n = P.arity, Q.arity
    if m + n > P.domain.dim:
        return 1, {}
    lefts, left_den = brackets._twisted_supports(P, n - 1)
    rights, right_den = brackets._twisted_supports(Q, m - 1)
    rows, den = cochains._skew_table(codomain_alg.mu)
    part = {}
    for left_key, left in lefts.items():
        for right_key, key, split_sign in _cup_plan(P.domain.dim, m, n)[left_key]:
            if right_key in rights:
                terms = part.setdefault(key, [])
                for i, x in left:
                    terms.extend([(sign * split_sign * x * y, rows[i][j])
                                  for j, y in rights[right_key] if j in rows[i]])
    return left_den * right_den * den, part


def test_a_cup_part_holds_no_key_without_terms(monkeypatch):
    # a left value whose bracket row shares no coordinate with the right value's
    # support adds no key; every other key is the full walk's, and the identity
    # suite reports the same with the full walk's parts
    from homlie import operators
    real, dropped = brackets._cup_part, []

    def checked(P, Q, codomain_alg, sign=1):
        den, part = real(P, Q, codomain_alg, sign)
        walked_den, walked = walked_cup_part(P, Q, codomain_alg, sign)
        assert all(part.values()) and den == walked_den
        assert part == {key: terms for key, terms in walked.items() if terms}
        dropped.append(len(walked) - len(part))
        return den, part

    for module in (brackets, operators):
        monkeypatch.setattr(module, "_cup_part", checked)
    report = theorems.run_all(trials=2)
    assert dropped and sum(dropped)  # the suite meets rows that share no coordinate
    for module in (brackets, operators):
        monkeypatch.setattr(module, "_cup_part", walked_cup_part)
    assert theorems.run_all(trials=2) == report


def test_plans_are_kept_on_their_objects():
    alg = _rational_shear()
    rng = random.Random(5)
    P = raw_cochain(alg.space, alg.space, 2, rng)
    first = contract(P, P)
    plan = kept(alg.space, "insertion_plan")[2, 2]
    assert contract(P, P) == first
    assert kept(alg.space, "insertion_plan")[2, 2] is plan
    delta_hom(adjoint_representation(alg), P)
    assert set(kept(alg, "bracket_plan")) == {2}
    assert set(kept(adjoint_representation(alg), "action_columns")) == {1}


def test_arity_above_dimension_builds_no_table():
    alg = dict(default_fixtures())["yau-sl2"]
    rng = random.Random(2)
    P = raw_cochain(alg.space, alg.space, 2, rng)
    tall = SkewCochain.zero(alg.space, alg.space, 9)
    shuffle_entries = _shuffle_table.cache_info().currsize
    cup_entries = _cup_plan.cache_info().currsize
    action_entries = cochains._action_plan.cache_info().currsize
    for result, arity in ((contract(P, tall), 10), (contract(tall, P), 10),
                          (cup_bracket(P, tall, alg), 11), (cup_bracket(P, P, alg), 4),
                          (d_trivial(alg, tall), 10),
                          (delta_hom(adjoint_representation(alg), tall), 10)):
        assert result.is_zero() and result.arity == arity
    assert _shuffle_table.cache_info().currsize == shuffle_entries
    assert _cup_plan.cache_info().currsize == cup_entries
    assert cochains._action_plan.cache_info().currsize == action_entries
    plans = kept(alg.space, "insertion_plan")
    assert (9, 2) not in plans and (2, 9) not in plans


def test_high_twist_power_needs_no_recursion():
    space = TwistedSpace(Mat.diagonal([2, 1, "1/3"]))
    power = space.twist_power(5000)
    assert power == Mat.diagonal([2 ** 5000, 1, Fraction(1, 3 ** 5000)])
    assert space.twist_power(4999) @ space.alpha == power


@pytest.mark.parametrize("name,alg", ALGEBRAS, ids=[n for n, _ in ALGEBRAS])
def test_fused_brackets_match_reference(name, alg):
    rng = random.Random(f"fused|{name}")
    space = alg.space
    for m in ARITIES:
        for n in ARITIES:
            P = raw_cochain(space, space, m, rng)
            Q = raw_cochain(space, space, n, rng)
            assert nr_bracket(P, Q) == ref_nr_bracket(P, Q), (m, n)
            assert fn_bracket(alg, P, Q) == ref_fn_bracket(alg, P, Q), (m, n)


@pytest.mark.parametrize("name,alg", ALGEBRAS, ids=[n for n, _ in ALGEBRAS])
def test_theta_tilde_and_derived_bracket_match_reference(name, alg):
    rng = random.Random(f"derived|{name}")
    action = bracket_action_on_abelian(alg)
    # the module of the last representation is not the algebra's space
    for rep in (adjoint_representation(alg), action, _adjoint_plus_line(alg)):
        for m in ARITIES:
            P = raw_cochain(rep.module, alg.space, m, rng)
            assert theta_tilde(rep, P) == ref_theta_tilde(rep, P), m
            for n in ARITIES:
                Q = raw_cochain(rep.module, alg.space, n, rng)
                assert derived_bracket_rel(rep, P, Q) == ref_derived_bracket_rel(rep, P, Q), (m, n)
    P, Q = (raw_cochain(action.acted.space, alg.space, k, rng) for k in (1, 2))
    assert derived_bracket_rel(action, P, Q) == ref_derived_bracket_rel(action, P, Q)


@pytest.mark.parametrize("name,alg", ALGEBRAS, ids=[n for n, _ in ALGEBRAS])
def test_pair_brackets_match_reference(name, alg):
    rng = random.Random(f"pair|{name}")
    space, cod_alg = alg.space, _rational_shear()  # the semidirect lower part in C(g, h)

    def pair(m, codomain):
        return GradedPair(raw_cochain(space, space, m + 1, rng),
                          raw_cochain(space, codomain, m, rng))

    for m in (1, 2):
        for n in (1, 2):
            a, b = pair(m, space), pair(n, space)
            assert bicrossed_bracket(alg, a, b) == ref_bicrossed(alg, a, b), (m, n)
            a, b = pair(m, cod_alg.space), pair(n, cod_alg.space)
            assert semidirect_graded_bracket(cod_alg, a, b) == ref_semidirect(cod_alg, a, b), (m, n)


def test_linear_combination_matches_reference():
    rng = random.Random("lincomb")
    alg = _rational_dim4()
    cod = TwistedSpace(Mat([[1, 1], [0, "-1/2"]]))
    for arity in (1, 2, 3):
        fs = [raw_cochain(alg.space, cod, arity, rng) for _ in range(4)]
        # a term with a zero coefficient and two that cancel on every key
        terms = [(rng.randint(-3, 3), f) for f in fs] + [(0, fs[0]), (2, fs[1]), (-2, fs[1])]
        for den in (1, 6):
            assert (linear_combination(alg.space, cod, arity, terms, den)
                    == ref_linear_combination(alg.space, cod, arity, terms, den)), (arity, den)
    assert linear_combination(alg.space, cod, 2, [(1, fs[0]), (-1, fs[0])], 3).is_zero()


def ref_add(f: SkewCochain, g: SkewCochain, sign: int) -> SkewCochain:
    """f + sign * g, one key at a time on Fraction entries."""
    table = {}
    for key in combinations(range(f.domain.dim), f.arity):
        table[key] = Vec([a + sign * b for a, b in zip(f.value_on(key).entries,
                                                       g.value_on(key).entries)])
    return SkewCochain(f.domain, f.codomain, f.arity, table)


def test_cochain_add_and_sub_match_reference():
    rng = random.Random("add-sub")
    alg = _rational_dim4()
    cod = TwistedSpace(Mat([[1, 1], [0, "-1/2"]]))
    dens = set()
    for arity in (0, 1, 2, 3, 4):
        for _ in range(4):
            f, g = (raw_cochain(alg.space, cod, arity, rng) for _ in range(2))
            dens |= {v.den for v in f.coeffs.values()} | {v.den for v in g.coeffs.values()}
            assert f + g == ref_add(f, g, 1), arity
            assert f - g == ref_add(f, g, -1), arity
            # sums that cancel on every key, and on some keys only
            for empty in (f - f, f + (-f), -f + f, f.scale(2) - f - f):
                assert empty.is_zero() and empty.coeffs == {}, arity
            partial = SkewCochain(alg.space, cod, arity, dict(list(f.coeffs.items())[::2]))
            assert f - partial == ref_add(f, partial, -1), arity
            assert not set((f - partial).coeffs) & set(partial.coeffs), arity
    assert {1, 2, 3, 6} <= dens  # the values mix denominators


def test_cochain_add_and_sub_reject_a_shape_mismatch():
    alg = _rational_dim4()
    cod = TwistedSpace(Mat([[1, 1], [0, "-1/2"]]))
    f = raw_cochain(alg.space, cod, 2, random.Random("shape"))
    others = {"domain": SkewCochain.zero(TwistedSpace.untwisted(4), cod, 2),
              "codomain": SkewCochain.zero(alg.space, TwistedSpace.untwisted(2), 2),
              "arity": SkewCochain.zero(alg.space, cod, 1)}
    for name, other in others.items():
        for op in (SkewCochain.__add__, SkewCochain.__sub__):
            with pytest.raises(ValueError, match="cochain shape mismatch"):
                op(f, other)
            with pytest.raises(ValueError, match="cochain shape mismatch"):
                op(other, f)


@pytest.mark.parametrize("first", ["heisenberg", "abelian"])
def test_coboundary_memo_is_kept_per_representation(first):
    """Algebras on one space share its basis cochains, and each keeps its own coboundary."""
    space = TwistedSpace.untwisted(3)
    heisenberg = SkewCochain(space, space, 2, _heisenberg_lie_mu().coeffs)
    algebras = {"heisenberg": (HomLieAlgebra(space, heisenberg), (4, 5, 2)),
                "abelian": (HomLieAlgebra(space, SkewCochain.zero(space, space, 2)), (9, 9, 3))}
    order = [first] + [k for k in algebras if k != first]
    for name in order:
        alg, dims = algebras[name]
        assert tuple(cohomology(ComplexSpec.adjoint(alg), n).dim_h for n in (1, 2, 3)) == dims
    basis = cochains.compatibility_basis(space, space, 2)
    reps = [adjoint_representation(algebras[k][0]) for k in order]
    for b in basis:
        assert set(kept(b, "delta")) == set(reps)
        assert delta_hom(reps[0], b) is kept(b, "delta")[reps[0]]
        for rep in reps:
            assert delta_hom(rep, b) == ref_delta_hom(rep, b)
    # the kept images do not keep the algebras alive
    del algebras, alg, reps, rep
    gc.collect()
    assert all(not kept(b, "delta") for b in basis)


@pytest.mark.parametrize("name,alg", default_fixtures(), ids=[n for n, _ in default_fixtures()])
def test_plans_match_reference_on_sparse_inputs(name, alg):
    rng = random.Random(f"sparse|{name}")
    space, adj = alg.space, adjoint_representation(alg)
    # each input meets partners of every arity, so what is kept on it is read at every twist power
    sparse = {m: sparse_cochains(space, space, m, rng) for m in ARITIES}
    dense = {n: raw_cochain(space, space, n, rng) for n in ARITIES}
    for m in ARITIES:
        for n in ARITIES:
            for P in sparse[m]:
                for Q in sparse[n] + [dense[n]]:
                    for a, b in ((P, Q), (Q, P)):
                        assert contract(a, b) == ref_contract(a, b), (m, n)
                        assert cup_bracket(a, b, alg) == ref_cup_bracket(a, b, alg), (m, n)
                        assert fn_bracket(alg, a, b) == ref_fn_bracket(alg, a, b), (m, n)
                        assert derived_bracket(alg, a, b) == ref_derived_bracket_rel(adj, a, b), (m, n)


def test_kept_images_are_keyed_by_representation():
    """theta~ and delta images of one cochain under representations of the same spaces."""
    alg = dict(default_fixtures())["yau-heisenberg"]
    space = alg.space
    rng = random.Random("kept-keys")
    action = bracket_action_on_abelian(alg)
    assert action.module == space
    f = raw_cochain(space, space, 2, rng)
    coeffs, values = f.coeffs, dict(f.coeffs)
    for order in ((0, 1, 2), (2, 1, 0)):
        g = raw_cochain(space, space, 1, rng)
        reps = [adjoint_representation(alg), action, trivial_representation(alg, space)]
        for k in order:
            theta_tilde(reps[k], g), delta_hom(reps[k], g)
        for rep in reps:
            assert kept(g, "theta_tilde")[rep] is theta_tilde(rep, g)
            assert theta_tilde(rep, g) == ref_theta_tilde(rep, g)
            assert delta_hom(rep, g) == ref_delta_hom(rep, g)
        assert theta_tilde(reps[2], g).is_zero() and not theta_tilde(reps[0], g).is_zero()
    # a representation gone leaves no entry, and one made in its place reads none
    for trial in range(6):
        rep = (trivial_representation(alg, space) if trial % 2
               else Representation(alg, space, alg.table))
        assert theta_tilde(rep, f) == ref_theta_tilde(rep, f), trial
        assert delta_hom(rep, f) == ref_delta_hom(rep, f), trial
        assert set(kept(f, "theta_tilde")) == set(kept(f, "delta")) == {rep}
        del rep
        gc.collect()
        assert not kept(f, "theta_tilde") and not kept(f, "delta"), trial
    # the numerators are the values over their lcm, the kept supports are a fresh
    # computation's, and no cache touched the values
    g = raw_cochain(space, space, 1, rng)
    g_values = dict(g.coeffs)
    assert contract(g, f) == ref_contract(g, f)
    assert cup_bracket(g, g, alg) == ref_cup_bracket(g, g, alg)
    assert fn_bracket(alg, g, f) == ref_fn_bracket(alg, g, f)
    assert derived_bracket(alg, f, g) == ref_derived_bracket_rel(adjoint_representation(alg), f, g)
    nums, den = g.num, g.den
    assert set(nums) == set(g.coeffs) and den == lcm(*[v.den for v in g.coeffs.values()])
    assert all(Vec([Fraction(x, den) for x in nums[k]]) == v for k, v in g.coeffs.items())
    assert not kept(g, "numerators")
    assert set(kept(g, "supports")) == {0, 1}  # the twist powers the cup pairings read
    for power, (supports, den) in kept(g, "supports").items():
        assert set(supports) == set(g.coeffs)
        for key, support in supports.items():
            dense = [0] * space.dim
            for i, x in support:
                dense[i] = x
            assert all(x for _, x in support), (power, key)
            assert Vec([Fraction(x, den) for x in dense]) == space.twist_power(power) @ g.coeffs[key]
    assert g.coeffs == g_values and all(g.coeffs[k] is v for k, v in g_values.items())
    assert f.coeffs is coeffs and f.coeffs == values
    assert all(f.coeffs[k] is v for k, v in values.items())

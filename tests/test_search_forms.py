"""Searches decided on polarized forms give what the public predicates give.

A search evaluates each criterion on the polarization points of its basis
and decides every candidate on the integer table of the resulting form.  The
reference here is the plain one: the search's candidate matrices filtered by
the public single-operator predicate, in the same order.  A value that is not
quadratic plus linear in the operator (a planted constant offset) breaks the
polarization, and the search must then report the two criteria disagreeing
before it enumerates any candidate.  On a correct bracket that cannot happen:
each dual criterion is one fixed nonzero multiple of the pointwise defects.
"""

import random
from fractions import Fraction

import pytest

from homlie import operators
from homlie.cochains import SkewCochain, TwistedSpace, flatten_cochain
from homlie.linalg import Mat, Vec
from homlie.operators import (ConsistencyError, nijenhuis_defect, relative_rb_pointwise,
                              rota_baxter_defect, search_nijenhuis, search_relative_rb,
                              search_rota_baxter)
from homlie.structures import HomLieAlgebra, adjoint_action, bracket_action_on_abelian
from homlie.theorems import default_fixtures

FIXTURES = default_fixtures()
LAMBDAS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))
CASES = [(name, grid) for name, alg in FIXTURES
         for grid in ((0, 1), (-1, 0, 1), ("-1/2", 0, 1)) if grid == (0, 1) or alg.dim <= 3]


def _candidates(action, grid):
    """Every grid intertwiner: the search's depth-first enumeration with no table rows."""
    grid = operators._search_grid(action.acted.space, action.acting.space, grid)
    return operators._depth_first(grid)


@pytest.mark.parametrize("name,grid", CASES)
def test_each_search_is_the_predicate_filter_of_its_candidates(name, grid):
    alg = dict(FIXTURES)[name]
    adj, abelian = adjoint_action(alg), bracket_action_on_abelian(alg)
    candidates = _candidates(adj, grid)
    assert search_nijenhuis(alg, grid) == [m for m in candidates
                                           if nijenhuis_defect(alg, m) is None]
    for lam in LAMBDAS:
        # the adjoint action's relative identity is the Rota-Baxter identity
        found = [m for m in candidates if rota_baxter_defect(alg, m, lam) is None]
        assert search_rota_baxter(alg, lam, grid) == search_relative_rb(adj, lam, grid) == found
        assert search_relative_rb(abelian, lam, grid) == [
            m for m in _candidates(abelian, grid) if relative_rb_pointwise(abelian, m, lam)]


def _ratio(dual, pointwise):
    """The k with dual = k * pointwise, read at the first nonzero coordinate; None if both vanish."""
    k = next((Fraction(a, b) for a, b in zip(dual.entries, pointwise.entries) if b), None)
    assert dual == (pointwise if k is None else pointwise.scale(k))
    return k


def _defects(bracket, R, space, deformed):
    """The pointwise defects [Rx, Ry] - R(deformed(x, y)), basis pair after basis pair."""
    return Vec.concat(*[lhs - rhs for _, lhs, rhs in operators._pair_sides(bracket, R, space,
                                                                           deformed)])


def test_each_dual_is_one_fixed_multiple_of_the_pointwise_defect():
    # why one row-space proof decides a search: on every operator, intertwining
    # or not, [N, N]_fn and the Maurer-Cartan residual are the pointwise defects
    # times one nonzero constant per criterion, so a mismatch can only be a defect
    rng, ratios = random.Random(29), {"bracket square": set(), "Maurer-Cartan": set()}
    for _, alg in FIXTURES:
        for _ in range(8):
            R = Mat([[rng.randint(-2, 2) for _ in range(alg.dim)] for _ in range(alg.dim)])
            ratios["bracket square"].add(_ratio(
                flatten_cochain(operators._square(alg, R)),
                _defects(alg.bracket, R, alg.space, operators._nijenhuis_bracket(alg, R))))
            for action in (adjoint_action(alg), bracket_action_on_abelian(alg)):
                for lam in (Fraction(0), Fraction(1), Fraction(-1, 2)):
                    ratios["Maurer-Cartan"].add(_ratio(
                        flatten_cochain(operators._relative_residual(action, R, lam)),
                        _defects(action.acting.bracket, R, action.acted.space,
                                 operators._induced_bracket(action, R, lam))))
    for kind, seen in ratios.items():
        assert len(seen - {None}) == 1 and 0 not in seen, (kind, seen)


def _unit_offset(space):
    """The 2-cochain with value e_0 on (e_0, e_1) and zero elsewhere."""
    return SkewCochain(space, space, 2, {(0, 1): space.basis[0]})


def _filiform_l4():
    """The untwisted filiform algebra L4, [e_1, e_2] = e_3, [e_1, e_3] = e_4: 2^16 grid points."""
    space = TwistedSpace.untwisted(4)
    e = space.basis
    return HomLieAlgebra(space, SkewCochain(space, space, 2, {(0, 1): e[2], (0, 2): e[3]}))


@pytest.mark.parametrize("name,alg", FIXTURES + [("filiform-L4", _filiform_l4())])
def test_an_offset_in_one_criterion_is_a_consistency_error(name, alg, monkeypatch):
    # a failed row-space proof is the verdict: no candidate is enumerated
    offset, walks = _unit_offset(alg.space), []
    fn_bracket, residual = operators.fn_bracket, operators._relative_residual
    depth_first = operators._depth_first
    monkeypatch.setattr(operators, "_depth_first",
                        lambda *args: walks.append(args) or depth_first(*args))
    monkeypatch.setattr(operators, "fn_bracket",
                        lambda alg, P, Q: fn_bracket(alg, P, Q) + offset)
    with pytest.raises(ConsistencyError, match="Nijenhuis criteria disagree") as raised:
        search_nijenhuis(alg, (0, 1))
    assert "pointwise table" in str(raised.value) and "bracket square table" in str(raised.value)
    monkeypatch.setattr(operators, "_relative_residual",
                        lambda action, R, lam: residual(action, R, lam) + offset)
    for search in (lambda: search_rota_baxter(alg, -1, (0, 1)),
                   lambda: search_relative_rb(bracket_action_on_abelian(alg), -1, (0, 1))):
        with pytest.raises(ConsistencyError, match="Rota-Baxter criteria disagree") as raised:
            search()
        assert "pointwise table" in str(raised.value) and "Maurer-Cartan table" in str(raised.value)
    assert walks == []

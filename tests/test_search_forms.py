"""Searches decided on polarized forms give what the public predicates give.

A search evaluates each criterion on the polarization points of its basis
and decides every candidate on the integer table of the resulting form.  The
reference here is the plain one: the search's candidate matrices filtered by
the public single-operator predicate, in the same order.  A value that is not
quadratic plus linear in the operator (a planted constant offset) breaks the
polarization, and the search must then report the two criteria disagreeing.
"""

from fractions import Fraction

import pytest

from homlie import operators
from homlie.cochains import SkewCochain
from homlie.operators import (ConsistencyError, nijenhuis_defect, relative_rb_pointwise,
                              rota_baxter_defect, search_nijenhuis, search_relative_rb,
                              search_rota_baxter)
from homlie.structures import adjoint_action, bracket_action_on_abelian
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


def _unit_offset(space):
    """The 2-cochain with value e_0 on (e_0, e_1) and zero elsewhere."""
    return SkewCochain(space, space, 2, {(0, 1): space.basis[0]})


@pytest.mark.parametrize("name,alg", FIXTURES)
def test_an_offset_in_one_criterion_is_a_consistency_error(name, alg, monkeypatch):
    offset = _unit_offset(alg.space)
    fn_bracket, residual = operators.fn_bracket, operators._relative_residual
    monkeypatch.setattr(operators, "fn_bracket",
                        lambda alg, P, Q: fn_bracket(alg, P, Q) + offset)
    with pytest.raises(ConsistencyError, match="Nijenhuis criteria disagree"):
        search_nijenhuis(alg, (0, 1))
    monkeypatch.setattr(operators, "_relative_residual",
                        lambda action, R, lam: residual(action, R, lam) + offset)
    with pytest.raises(ConsistencyError, match="Rota-Baxter criteria disagree"):
        search_rota_baxter(alg, -1, (0, 1))
    with pytest.raises(ConsistencyError, match="Rota-Baxter criteria disagree"):
        search_relative_rb(bracket_action_on_abelian(alg), -1, (0, 1))

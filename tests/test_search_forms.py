"""Searches decided on polarized forms give what the public predicates give.

A search writes each criterion as F(R) = B(R, R) + L(R), reads its bilinear
part B on the ordered pairs of its basis and its linear part L on the basis,
and decides every candidate on the integer table of the resulting form.  The
reference here is the plain one: the search's candidate matrices filtered by
the public single-operator predicate, in the same order.  The tables
themselves must equal, row for row, the point-evaluation polarization of the
whole criterion, at M_p, -M_p and M_p + M_q.  A term planted in one
criterion's parts (a constant offset) breaks their agreement, and the search
must then report the two criteria disagreeing before it enumerates any
candidate.  On a correct bracket that cannot happen: each dual criterion is
one fixed nonzero multiple of the pointwise defects.
"""

import random
from fractions import Fraction
from functools import partial
from itertools import combinations_with_replacement

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
    """The pointwise defects [Rx, Ry] - R(deformed(R, images)(x, y)), basis pair after basis pair.

    deformed(R, images) is the deformed bracket of R, images being its columns.
    """
    images = operators._images(R)
    return Vec.concat(*[lhs - rhs for _, lhs, rhs in operators._pair_sides(
        bracket, R, R, space, deformed(R, images), (images, images))])


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
                _defects(alg.bracket, R, alg.space, partial(operators._nijenhuis_bracket, alg))))
            for action in (adjoint_action(alg), bracket_action_on_abelian(alg)):
                for lam in (Fraction(0), Fraction(1), Fraction(-1, 2)):
                    ratios["Maurer-Cartan"].add(_ratio(
                        flatten_cochain(operators._relative_residual(action, R, lam)),
                        _defects(action.acting.bracket, R, action.acted.space,
                                 lambda R, images: operators._induced_bracket(action, R, lam, images))))
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


def _point_form(value, grid):
    """The table of F = value polarized by point evaluation: F at M_p, -M_p and M_p + M_q.

    2 Q_pp = F(M_p) + F(-M_p), 2 L_p = F(M_p) - F(-M_p) and
    Q_pq + Q_qp = F(M_p + M_q) - F(M_p) - F(M_q), in the columns of ``operators._form``.
    """
    basis = grid.basis
    plus, minus = [value(M) for M in basis], [value(-M) for M in basis]
    columns = [plus[p] + minus[p] if p == q
               else (value(basis[p] + basis[q]) - plus[p] - plus[q]).scale(2)
               for p, q in combinations_with_replacement(range(len(basis)), 2)]
    columns += [(a - n).scale(grid.scale) for a, n in zip(plus, minus)]
    return [row for row in Mat.from_columns(columns).num if any(row)]


def _criteria(alg, lams):
    """(search, action, pointwise F, dual F) of Nijenhuis, Rota-Baxter, then relative searches."""
    adj, abelian = adjoint_action(alg), bracket_action_on_abelian(alg)
    yield (lambda grid: search_nijenhuis(alg, grid), adj,
           lambda R: _defects(alg.bracket, R, alg.space, partial(operators._nijenhuis_bracket, alg)),
           lambda R: flatten_cochain(operators._square(alg, R)))
    for lam, action, search in ([(lam, adj, search_rota_baxter) for lam in lams]
                                + [(lam, abelian, search_relative_rb) for lam in (0, 1)]):
        yield (lambda grid, lam=lam, action=action, search=search:
               search(alg if search is search_rota_baxter else action, lam, grid), action,
               lambda R, lam=lam, action=action: _defects(
                   action.acting.bracket, R, action.acted.space,
                   lambda R, images: operators._induced_bracket(action, R, lam, images)),
               lambda R, lam=lam, action=action: flatten_cochain(
                   operators._relative_residual(action, R, lam)))


@pytest.mark.parametrize("name,alg", FIXTURES + [("filiform-L4", _filiform_l4())])
def test_each_table_is_the_point_evaluation_polarization(name, alg, monkeypatch):
    # the columns read from the bilinear and linear parts equal those of F at
    # M_p, -M_p and M_p + M_q, row for row, for both criteria of every search
    tables, form = [], operators._form
    monkeypatch.setattr(operators, "_form", lambda *args: tables.append(form(*args)) or tables[-1])
    # a grid with a denominator gives the linear columns a scale s != 1
    grids = ((0, 1),) if name == "filiform-L4" else (
        ((0, 1), (-1, 0, 1)) + ((("-1/2", 0, 1),) if alg.dim <= 3 else ()))
    for grid in grids:
        for search, action, pointwise, dual in _criteria(alg, LAMBDAS):
            tables.clear()
            search(grid)
            points = operators._search_grid(action.acted.space, action.acting.space, grid)
            assert tables == [_point_form(pointwise, points), _point_form(dual, points)]


@pytest.mark.parametrize("name,alg", FIXTURES + [("filiform-L4", _filiform_l4())])
def test_an_offset_in_one_criterion_is_a_consistency_error(name, alg, monkeypatch):
    # a failed row-space proof is the verdict: no candidate is enumerated
    offset, walks = _unit_offset(alg.space), []
    fn_bracket, dgla = operators.fn_bracket, operators._dgla
    depth_first = operators._depth_first
    monkeypatch.setattr(operators, "_depth_first",
                        lambda *args: walks.append(args) or depth_first(*args))
    monkeypatch.setattr(operators, "fn_bracket",
                        lambda alg, P, Q: fn_bracket(alg, P, Q) + offset)
    with pytest.raises(ConsistencyError, match="Nijenhuis criteria disagree") as raised:
        search_nijenhuis(alg, (0, 1))
    assert "pointwise table" in str(raised.value) and "bracket square table" in str(raised.value)
    # the Maurer-Cartan residual's parts are summed over 2: this part is the unit offset
    part = lambda: (offset.den, {key: [(2, v)] for key, v in offset.num.items()})
    for planted in (lambda differential, bracket: (differential,
                                                   lambda s, t: bracket(s, t) + [part()]),
                    lambda differential, bracket: (lambda s: differential(s) + [part()],
                                                   bracket)):
        monkeypatch.setattr(operators, "_dgla",
                            lambda *args, planted=planted, **kw: planted(*dgla(*args, **kw)))
        for search in (lambda: search_rota_baxter(alg, -1, (0, 1)),
                       lambda: search_relative_rb(bracket_action_on_abelian(alg), -1, (0, 1))):
            with pytest.raises(ConsistencyError, match="Rota-Baxter criteria disagree") as raised:
                search()
            assert ("pointwise table" in str(raised.value)
                    and "Maurer-Cartan table" in str(raised.value))
    assert walks == []


# ---------------------------------------------------------------------------
# One search for several weights

WEIGHTS = ((0, 1), (1, -1, "1/2"))


@pytest.mark.parametrize("name,alg", FIXTURES)
def test_a_search_for_several_weights_gives_the_single_weight_searches(name, alg):
    for action in (adjoint_action(alg), bracket_action_on_abelian(alg)):
        for grid in ((0, 1), (-1, 0, 1)):
            for lams in WEIGHTS:
                assert operators._rota_baxter_search(action, lams, grid) == [
                    search_relative_rb(action, lam, grid) for lam in lams]


@pytest.mark.parametrize("name,alg", FIXTURES)
def test_a_search_for_two_weights_tables_the_bilinear_parts_once(name, alg, monkeypatch):
    # the P^2 pointwise and derived-bracket pairs are read once for both weights;
    # each weight still has its own two tables, its own proof and its own walk
    calls = {"_pair_sides": [], "_derived_parts": [], "_form": [], "_depth_first": [],
             "mat_rank": []}
    for hook, seen in calls.items():
        monkeypatch.setattr(operators, hook, lambda *args, _real=getattr(operators, hook),
                            _seen=seen: _seen.append(args) or _real(*args))
    for action in (adjoint_action(alg), bracket_action_on_abelian(alg)):
        for seen in calls.values():
            seen.clear()
        basis = operators._search_grid(action.acted.space, action.acting.space, (0, 1)).basis
        found = operators._rota_baxter_search(action, (0, 1), (0, 1))
        assert [args[1:3] for args in calls["_pair_sides"]] == [
            (M, N) for M in basis for N in basis]
        assert len(calls["_derived_parts"]) == len(basis) ** 2
        assert len(calls["_form"]) == 4 and len(calls["mat_rank"]) == 6
        assert len(calls["_depth_first"]) == 2 and len(found) == 2


@pytest.mark.parametrize("name,alg", FIXTURES)
def test_an_offset_at_one_weight_stops_a_search_for_several_before_any_walk(name, alg,
                                                                           monkeypatch):
    # the weights 0 and 1 are untouched and their proofs hold; the planted weight's
    # proof fails, and no weight's candidates are enumerated
    offset, walks = _unit_offset(alg.space), []
    depth_first, dgla = operators._depth_first, operators._dgla
    monkeypatch.setattr(operators, "_depth_first",
                        lambda *args: walks.append(args) or depth_first(*args))
    part = lambda: (offset.den, {key: [(2, v)] for key, v in offset.num.items()})

    def planted(*args, lam, **kw):
        differential, bracket = dgla(*args, lam=lam, **kw)
        if lam == Fraction(1, 2):
            return lambda s: differential(s) + [part()], bracket
        return differential, bracket

    monkeypatch.setattr(operators, "_dgla", planted)
    for action in (adjoint_action(alg), bracket_action_on_abelian(alg)):
        assert len(operators._rota_baxter_search(action, (0, 1), (0, 1))) == 2
        walks.clear()
        with pytest.raises(ConsistencyError, match="Rota-Baxter criteria disagree"):
            operators._rota_baxter_search(action, (0, 1, "1/2"), (0, 1))
        assert walks == []

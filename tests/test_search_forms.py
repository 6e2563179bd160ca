"""Searches decided on polarized forms give what the public predicates give.

A search writes each criterion as F(R) = B(R, R) + L(R), reads its bilinear
part B on the ordered pairs of its basis (the dual's, which is symmetric on
arity-1 cochains, on the pairs p <= q) and its linear part L on the basis, and
decides every candidate on the integer table of the resulting form.  The
reference here is the plain one: the search's candidate matrices filtered by
the public single-operator predicate, in the same order.  The tables
themselves must equal, row for row, the point-evaluation polarization of the
whole criterion, at M_p, -M_p and M_p + M_q.  A term planted in one
criterion's parts (a constant offset) breaks their agreement, and the search
must then report the two criteria disagreeing before it enumerates any
candidate.  On a correct bracket that cannot happen: each dual criterion is
one fixed nonzero multiple of the pointwise defects.  The grid and its
checked basis are kept per pair of spaces and grid, and a search on a kept
grid gives what a search on fresh copies gives, and still proves its criteria.
"""

import random
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

import pytest

from homlie import io as hio
from homlie import operators
from homlie.cochains import (SkewCochain, TwistedSpace, _assemble, cochain_matrix,
                             compatibility_basis, flatten_cochain, operator_cochain)
from homlie.linalg import Mat, Vec
from homlie.operators import (ConsistencyError, nijenhuis_defect, relative_rb_pointwise,
                              rota_baxter_defect, search_nijenhuis, search_relative_rb,
                              search_rota_baxter)
from homlie.structures import (HomLieAction, HomLieAlgebra, adjoint_action,
                               bracket_action_on_abelian)
from homlie.theorems import default_fixtures
from test_pair_residuals import FRACTIONAL, vec_defects
from test_transport import FIXTURES_3, G, transport

FIXTURES = default_fixtures()
LAMBDAS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))
CASES = [(name, grid) for name, alg in FIXTURES
         for grid in ((0, 1), (-1, 0, 1), ("-1/2", 0, 1)) if grid == (0, 1) or alg.dim <= 3]


def fresh(alg):
    """An equal algebra on a new space, which holds no kept search grid yet."""
    return hio.algebra_from_json(hio.structure_to_json(alg))


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


def test_each_dual_is_one_fixed_multiple_of_the_pointwise_defect():
    # why one row-space proof decides a search: on every operator, intertwining
    # or not, [N, N]_fn and the Maurer-Cartan residual are the pointwise defects
    # times one nonzero constant per criterion, so a mismatch can only be a defect
    rng, ratios = random.Random(29), {"bracket square": set(), "Maurer-Cartan": set()}
    for _, alg in FIXTURES:
        for _ in range(8):
            R = Mat([[rng.randint(-2, 2) for _ in range(alg.dim)] for _ in range(alg.dim)])
            ratios["bracket square"].add(_ratio(flatten_cochain(operators._square(alg, R)),
                                                vec_defects(adjoint_action(alg), R)))
            for action in (adjoint_action(alg), bracket_action_on_abelian(alg)):
                for lam in (Fraction(0), Fraction(1), Fraction(-1, 2)):
                    ratios["Maurer-Cartan"].add(_ratio(
                        flatten_cochain(operators._relative_residual(action, R, lam)),
                        vec_defects(action, R, lam)))
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
    yield (lambda grid: search_nijenhuis(alg, grid), adj, lambda R: vec_defects(adj, R),
           lambda R: flatten_cochain(operators._square(alg, R)))
    for lam, action, search in ([(lam, adj, search_rota_baxter) for lam in lams]
                                + [(lam, abelian, search_relative_rb) for lam in (0, 1)]):
        yield (lambda grid, lam=lam, action=action, search=search:
               search(alg if search is search_rota_baxter else action, lam, grid), action,
               lambda R, lam=lam, action=action: vec_defects(action, R, lam),
               lambda R, lam=lam, action=action: flatten_cochain(
                   operators._relative_residual(action, R, lam)))


@pytest.mark.parametrize("name,alg", FIXTURES + FRACTIONAL + [("filiform-L4", _filiform_l4())])
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
# The dual bilinear parts are symmetric

DENSE = [(f"{name}-transported", HomLieAlgebra(moved.space, moved.mu))
         for name, alg in FIXTURES_3 for moved in (transport(alg, G),)]


def _duals(alg, lam):
    """(search on a grid, action, B, L) of each search's dual criterion on alg at weight lam.

    [s, t]_fn with L = 0 for the Nijenhuis search, then the bracket and
    differential parts of the Maurer-Cartan residual, each assembled over 2, for
    the adjoint action and the action on the abelian copy.
    """
    adj = adjoint_action(alg)
    yield (lambda grid: search_nijenhuis(alg, grid), adj,
           lambda s, t: operators.fn_bracket(alg, s, t),
           lambda s: SkewCochain.zero(s.domain, s.codomain, 2))
    for action in (adj, bracket_action_on_abelian(alg)):
        acted, acting = action.acted.space, action.acting.space
        d, bracket = operators._dgla("relative_derived", acted, action=action, lam=lam)
        yield (lambda grid, action=action: search_relative_rb(action, lam, grid), action,
               lambda s, t, acted=acted, acting=acting, bracket=bracket: _assemble(
                   acted, acting, 2, bracket(s, t), 2),
               lambda s, acted=acted, acting=acting, d=d: _assemble(acted, acting, 2, d(s), 2))


@pytest.mark.parametrize("name,alg", FIXTURES + DENSE)
def test_each_dual_bilinear_part_is_symmetric_on_arity_one_cochains(name, alg):
    # why a search brackets only the pairs p <= q of its basis cochains: in
    # degree 1 both graded brackets are symmetric, [N, M] = [M, N]
    nonzero = 0
    for _, action, bilinear, _ in _duals(alg, 0):
        basis = compatibility_basis(action.acted.space, action.acting.space, 1)
        for s, t in combinations(basis, 2):
            value = bilinear(s, t)
            assert value == bilinear(t, s)
            nonzero += not value.is_zero()
    assert nonzero or alg.mu.is_zero()  # every bracket of an abelian algebra vanishes


@pytest.mark.parametrize("name,alg", FIXTURES + DENSE)
def test_the_dual_table_from_pairs_p_le_q_is_that_of_the_ordered_pairs(name, alg, monkeypatch):
    # the search's dual table, read from the P(P+1)/2 brackets it takes, equals
    # the table of all P^2 ordered brackets
    tables, form = [], operators._form
    monkeypatch.setattr(operators, "_form", lambda *args: tables.append(form(*args)) or tables[-1])
    for search, action, bilinear, linear in _duals(alg, 1):
        tables.clear()
        search((0, 1))
        grid = operators._search_grid(action.acted.space, action.acting.space, (0, 1))
        cochains = [operator_cochain(action.acted.space, action.acting.space, M)
                    for M in grid.basis]
        ordered = [[flatten_cochain(bilinear(s, t)) for t in cochains] for s in cochains]
        assert tables[1] == form(lambda p, q: ordered[p][q],
                                 lambda p: flatten_cochain(linear(cochains[p])), grid)


# ---------------------------------------------------------------------------
# One checked grid per pair of spaces


def _searches(alg, grid):
    """The Nijenhuis, weight-1 Rota-Baxter and weight-0 relative lists of alg on grid."""
    return [search_nijenhuis(alg, grid), search_rota_baxter(alg, 1, grid),
            search_relative_rb(bracket_action_on_abelian(alg), 0, grid)]


def _zero_action(acting: TwistedSpace, acted: HomLieAlgebra):
    """The zero action on acted of the abelian algebra on acting."""
    algebra = HomLieAlgebra(acting, SkewCochain.zero(acting, acting, 2))
    zero = Vec.zero(acted.dim)
    return HomLieAction(algebra, acted, tuple((zero,) * acted.dim for _ in range(acting.dim)))


def test_a_search_keeps_one_checked_grid_per_pair_of_spaces_and_grid(monkeypatch):
    calls = {"_search_grid": [], "_check_intertwines": [], "_depth_first": []}
    for hook, seen in calls.items():
        monkeypatch.setattr(operators, hook, lambda *args, _real=getattr(operators, hook),
                            _seen=seen: _seen.append(args) or _real(*args))

    def built():
        got = {hook: len(seen) for hook, seen in calls.items() if hook != "_depth_first"}
        for seen in calls.values():
            seen.clear()
        return got

    for name, alg in FIXTURES:
        alg = fresh(alg)
        P = len(operators._search_grid(alg.space, alg.space, (0, 1)).basis)
        built()
        found = _searches(alg, (0, 1))
        assert built() == {"_search_grid": 1, "_check_intertwines": P}, name
        # the same spaces and grid: each search reads the kept grid
        assert _searches(alg, (0, 1)) == found == _searches(fresh(alg), (0, 1))
        built()
        assert _searches(alg, (0, 1)) == found
        assert built() == {"_search_grid": 0, "_check_intertwines": 0}, name
        # another grid builds its own, once
        other = _searches(alg, (-1, 0, 1))
        assert built()["_search_grid"] == 1, name
        assert _searches(alg, (-1, 0, 1)) == other == _searches(fresh(alg), (-1, 0, 1))
        built()
        # a planted offset still fails the proof of a search on a kept grid, before any walk
        offset, fn_bracket, dgla = _unit_offset(alg.space), operators.fn_bracket, operators._dgla

        def planted(*args, **kw):
            differential, bracket = dgla(*args, **kw)
            return differential, lambda s, t: bracket(s, t) + [
                (offset.den, {key: [(2, v)] for key, v in offset.num.items()})]

        with monkeypatch.context() as plant:
            plant.setattr(operators, "fn_bracket",
                          lambda alg, P, Q: fn_bracket(alg, P, Q) + offset)
            plant.setattr(operators, "_dgla", planted)
            with pytest.raises(ConsistencyError, match="Nijenhuis criteria disagree"):
                search_nijenhuis(alg, (0, 1))
            with pytest.raises(ConsistencyError, match="Rota-Baxter criteria disagree"):
                search_rota_baxter(alg, 1, (0, 1))
        assert built() == {"_search_grid": 0, "_check_intertwines": 0} and not calls["_depth_first"]
    # one acted space, acting spaces of two twists: each pair of spaces has its own grid
    space = TwistedSpace(Mat([[1, 0], [0, 2]]))
    acted = HomLieAlgebra(space, SkewCochain.zero(space, space, 2))
    for twist in ([[1, 0], [0, 1]], [[2, 0], [0, 1]], [[1, 0], [0, 1]]):
        action = _zero_action(TwistedSpace(Mat(twist)), acted)
        again = _zero_action(TwistedSpace(Mat(twist)), fresh(acted))
        assert search_relative_rb(action, 0, (0, 1)) == search_relative_rb(again, 0, (0, 1))
    built()
    assert [search_relative_rb(_zero_action(TwistedSpace(Mat(twist)), acted), 0, (-1, 0, 1))
            for twist in ([[1, 0], [0, 1]], [[2, 0], [0, 1]])] == [
        [Mat([[a, 0], [b, 0]]) for a in (-1, 0, 1) for b in (-1, 0, 1)],
        [Mat([[0, b], [a, 0]]) for a in (-1, 0, 1) for b in (-1, 0, 1)]]
    assert built() == {"_search_grid": 2, "_check_intertwines": 4}


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
    # the P^2 pointwise pairs and the P(P+1)/2 derived-bracket pairs p <= q are read
    # once for both weights: the pointwise ones as one call of the deformed brackets
    # and one of both sides, each on the whole basis.  Each weight still has its own
    # two tables, its own proof (three ranks on the integer rows) and its own walk.
    # Both actions act on the algebra's space, fresh here: the first search builds
    # and keeps the grid, so its basis passes the twist guard once, and the second
    # reads it
    alg = fresh(alg)
    calls = {"_deformed": [], "_pair_sides": [], "_derived_parts": [], "_form": [],
             "_depth_first": [], "_rref": [], "_check_intertwines": []}
    for hook, seen in calls.items():
        monkeypatch.setattr(operators, hook, lambda *args, _real=getattr(operators, hook),
                            _seen=seen, **kw: _seen.append((args, kw)) or _real(*args, **kw))
    for k, action in enumerate((adjoint_action(alg), bracket_action_on_abelian(alg))):
        basis = operators._search_grid(action.acted.space, action.acting.space, (0, 1)).basis
        P = range(len(basis))
        for seen in calls.values():
            seen.clear()
        found = operators._rota_baxter_search(action, (0, 1), (0, 1))
        assert [args[1] for args, _ in calls["_deformed"]] == [basis]
        assert [args[1] for args, _ in calls["_pair_sides"]] == [basis]
        assert [tuple(map(cochain_matrix, args[1:])) for args, _ in calls["_derived_parts"]] == [
            (basis[p], basis[q]) for p, q in combinations_with_replacement(P, 2)]
        assert len(calls["_form"]) == 4
        assert [kw for _, kw in calls["_rref"]] == [{}] * (k == 0) + [{"rank_only": True}] * 6
        assert [args[1] for args, _ in calls["_check_intertwines"]] == (basis if k == 0 else [])
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

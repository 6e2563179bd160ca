"""Each operator criterion runs once per operator, and the shortcuts keep every value.

The counting tests wrap the private routines of ``operators`` (the twist
guard, the pointwise pair check, the graph closure and the Maurer-Cartan
checks) and read off how often each ran for one public call or one search.
A search reads each criterion's linear part on the basis alone, whatever the
size of its grid, and its bilinear part on pairs of basis elements: the
pointwise one on the ordered pairs, the symmetric dual one on the pairs
p <= q.  The searches of one pair of spaces and one grid share a kept grid,
whose basis passes the twist guard once; these tests take their algebras
fresh from a JSON round trip, so no earlier test has kept a grid on them.
``parent_mc_residual`` is the oracle for the one-assembly Maurer-Cartan
residual: d(s) + (1/2)[s, s] built as separate cochains, with the bracket
taken against an equal but distinct copy of s, so that it shares neither the
assembly nor the self-bracket shortcut.
"""

from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from homlie import brackets, operators, theorems
from homlie.brackets import cup_bracket, derived_bracket_rel, fn_bracket, nr_bracket
from homlie.cochains import SkewCochain, cochain_matrix, operator_cochain
from homlie.differentials import d_lambda_tilde, d_trivial, delta_hom
from homlie.linalg import Mat
from homlie.operators import (ConsistencyError, is_nijenhuis, is_relative_rb, is_rota_baxter,
                              mc_residual, search_nijenhuis, search_relative_rb,
                              search_rota_baxter)
from homlie.structures import adjoint_action, bracket_action_on_abelian, fixture_b
from homlie.theorems import _stream, default_fixtures, sample_cochain
from test_search_forms import fresh

FIXTURES = default_fixtures()
LAMBDAS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2))


def _copy(f: SkewCochain) -> SkewCochain:
    """An equal cochain that is not the same object."""
    return SkewCochain(f.domain, f.codomain, f.arity, dict(f.coeffs))


def _actions(alg):
    return (("adjoint", adjoint_action(alg)), ("abelian", bracket_action_on_abelian(alg)))


def _count(monkeypatch, module, names, pairs=()):
    """Wrap each named function of module to record the operator matrix it was given.

    A function named in pairs takes two operators, and records both as a pair.  A list
    of operators, as a search's pointwise parts take its basis, is recorded as it is.
    """
    calls = {name: [] for name in names}
    for name in names:
        real = getattr(module, name)

        def counting(*args, _real=real, _seen=calls[name], _ops=2 if name in pairs else 1,
                     **kwargs):
            ops = tuple(m if isinstance(m, (Mat, list)) else cochain_matrix(m)
                        for m in args[1:1 + _ops])
            _seen.append(ops if _ops == 2 else ops[0])
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    return calls


CRITERIA = ("_check_intertwines", "_pair_defect", "_graph_closed", "_relative_mc", "fn_bracket")


# ---------------------------------------------------------------------------
# Call counts


@pytest.mark.parametrize("name,alg", FIXTURES)
def test_one_public_call_runs_the_guard_and_each_criterion_once(name, alg, monkeypatch):
    calls = _count(monkeypatch, operators, CRITERIA)
    rng = _stream(1, "once", name)
    ops = [Mat.identity(alg.dim).scale(-1),
           cochain_matrix(sample_cochain(alg.space, alg.space, 1, rng))]

    def ran():
        got = {k: len(v) for k, v in calls.items() if v}
        for seen in calls.values():
            seen.clear()
        return got

    for R in ops:
        is_nijenhuis(alg, R)
        assert ran() == {"_check_intertwines": 1, "_pair_defect": 1, "fn_bracket": 1}
        is_rota_baxter(alg, R, 1)
        assert ran() == {"_check_intertwines": 1, "_pair_defect": 1, "_relative_mc": 1}
        for _, action in _actions(alg):
            is_relative_rb(action, R, 1)
            assert ran() == {"_check_intertwines": 1, "_pair_defect": 1, "_graph_closed": 1,
                             "_relative_mc": 1}


@pytest.mark.parametrize("name,alg", FIXTURES)
def test_nijenhuis_report_builds_the_bracket_square_once(name, alg, monkeypatch):
    calls = _count(monkeypatch, operators, CRITERIA)
    rng = _stream(4, "report", name)
    for N in (Mat.identity(alg.dim), cochain_matrix(sample_cochain(alg.space, alg.space, 1, rng))):
        checks = operators.nijenhuis_report(alg, N).checks
        assert {k: len(v) for k, v in calls.items() if v} == {
            "_check_intertwines": 1, "_pair_defect": 1, "fn_bracket": 1}
        nc = operator_cochain(alg.space, alg.space, N)
        square = delta_hom(adjoint_action(alg), fn_bracket(alg, nc, nc)).is_zero()
        assert checks[0][:2] == ("nijenhuis identity", is_nijenhuis(alg, N))
        assert checks[-1][:2] == ("coboundary of bracket square", square)
        for seen in calls.values():
            seen.clear()


SEARCH_CRITERIA = CRITERIA + ("_deformed", "_pair_sides", "_relative_residual", "_square",
                              "_derived_parts", "_coboundary")


def _record_forms(monkeypatch):
    """Wrap operators._form's bilinear and linear arguments; per call, the indices given them."""
    calls, real = [], operators._form

    def recording(bilinear, linear, grid):
        calls.append(([], []))
        pairs, singles = calls[-1]
        return real(lambda p, q: pairs.append((p, q)) or bilinear(p, q),
                    lambda p: singles.append(p) or linear(p), grid)

    monkeypatch.setattr(operators, "_form", recording)
    return calls


@pytest.mark.parametrize("name,alg", FIXTURES)
def test_search_checks_each_candidate_once_per_criterion(name, alg, monkeypatch):
    # each criterion is read as its bilinear part on pairs of basis elements and
    # its linear part on the P basis elements, each once: the pointwise one on
    # the P^2 ordered pairs as one _deformed and one _pair_sides call on the
    # whole basis (one kernel call on its columns side by side), the dual, which is symmetric,
    # on the P(P+1)/2 pairs p <= q through fn_bracket or the Maurer-Cartan
    # residual's derived-bracket parts, and its coboundary parts.  The three
    # searches of a grid share the kept grid of the algebra's space (the abelian
    # copy has that space too), so its basis passes the twist guard once
    alg = fresh(alg)
    calls = _count(monkeypatch, operators, SEARCH_CRITERIA,
                   pairs=("fn_bracket", "_derived_parts"))
    forms = _record_forms(monkeypatch)
    adj, abelian = adjoint_action(alg), bracket_action_on_abelian(alg)
    searches = (  # (action searched, search on a grid, the dual's bilinear and linear hooks)
        (adj, lambda grid: search_nijenhuis(alg, grid), ("fn_bracket",)),
        (adj, lambda grid: search_rota_baxter(alg, 1, grid), ("_derived_parts", "_coboundary")),
        (abelian, lambda grid: search_relative_rb(abelian, 1, grid),
         ("_derived_parts", "_coboundary")))
    for grid in ((0, 1), (-1, 0, 1)):
        for k, (action, search, dual) in enumerate(searches):
            basis = operators._search_grid(action.acted.space, action.acting.space, grid).basis
            P = range(len(basis))
            unordered = [(basis[p], basis[q]) for p, q in combinations_with_replacement(P, 2)]
            for seen in calls.values():
                seen.clear()
            forms.clear()
            search(grid)
            assert forms == [([(p, q) for p in P for q in P], list(P))] * 2
            assert calls["_check_intertwines"] == (basis if k == 0 else [])
            assert calls["_deformed"] == calls["_pair_sides"] == [basis]
            assert calls[dual[0]] == unordered
            if len(dual) == 2:
                assert calls[dual[1]] == basis
            # and nothing else: no pair check, graph closure, Maurer-Cartan verdict or other dual
            assert not any(calls[c] for c in SEARCH_CRITERIA
                           if c not in ("_check_intertwines", "_deformed", "_pair_sides") + dual)


def test_context_runs_no_criterion_after_its_two_searches(monkeypatch):
    alg = fixture_b()
    shared = {}
    action, verified = theorems._context("relative_consistency", alg, 3, shared)
    assert verified
    calls = _count(monkeypatch, operators, CRITERIA)
    got_action, induced = theorems._context("d_r_matches_induced", alg, 3, shared)
    assert got_action is action and len(induced) == len(verified)
    assert not any(calls.values())


@pytest.mark.parametrize("name,alg", FIXTURES)
def test_each_maurer_cartan_residual_builds_theta_tilde_once(name, alg, monkeypatch):
    calls = _count(monkeypatch, brackets, ("theta_tilde", "delta_hom"))
    R = Mat.identity(alg.dim).scale(-1)
    is_rota_baxter(alg, R, 1)
    assert len(calls["theta_tilde"]) == 1 and not calls["delta_hom"]
    for _, action in _actions(alg):
        is_relative_rb(action, R, 1)
    assert len(calls["theta_tilde"]) == 3
    is_nijenhuis(alg, R)
    assert len(calls["delta_hom"]) == 1


# ---------------------------------------------------------------------------
# Equal values


@pytest.mark.parametrize("name,alg", FIXTURES)
def test_self_brackets_equal_brackets_with_an_equal_copy(name, alg):
    rng = _stream(2, "self", name)
    nonzero = 0
    for arity in (1, 2, 3):
        P = sample_cochain(alg.space, alg.space, arity, rng)
        for square, with_copy in (
                (nr_bracket(P, P), nr_bracket(P, _copy(P))),
                (fn_bracket(alg, P, P), fn_bracket(alg, P, _copy(P)))):
            assert square == with_copy
            nonzero += not square.is_zero()
        for _, action in _actions(alg):
            S = sample_cochain(action.module, action.algebra.space, arity, rng)
            square = derived_bracket_rel(action, S, S)
            assert square == derived_bracket_rel(action, S, _copy(S))
            nonzero += not square.is_zero()
    assert nonzero or alg.mu.is_zero()  # every bracket of an abelian algebra vanishes


def parent_mc_residual(s, kind, *, target=None, alg=None, action=None, lam=0):
    """d(s) + (1/2)[s, s] as separately built cochains, the bracket taken with a copy of s."""
    if kind == "morphism":
        return d_trivial(alg, s) + cup_bracket(s, _copy(s), target).scale(Fraction(1, 2))
    return (d_lambda_tilde(action.acted, s, lam)
            + derived_bracket_rel(action, s, _copy(s)).scale(Fraction(1, 2)))


@pytest.mark.parametrize("name,alg", FIXTURES)
def test_mc_residual_matches_the_separately_built_oracle(name, alg):
    rng = _stream(3, "residual", name)
    nonzero = 0
    for _ in range(3):
        s = sample_cochain(alg.space, alg.space, 1, rng)
        got = mc_residual(s, "morphism", alg=alg, target=alg)
        assert got == parent_mc_residual(s, "morphism", alg=alg, target=alg)
        nonzero += not got.is_zero()
        for _, action in _actions(alg):
            s = sample_cochain(action.module, action.algebra.space, 1, rng)
            for lam in LAMBDAS:
                got = mc_residual(s, "relative_derived", action=action, lam=lam)
                assert got == parent_mc_residual(s, "relative_derived", action=action, lam=lam)
                nonzero += not got.is_zero()
    assert nonzero or alg.mu.is_zero()  # every bracket of an abelian algebra vanishes


# ---------------------------------------------------------------------------
# Repeated grid values and a planted sign


@pytest.mark.parametrize("grid,once", [((0, 1, 1), (0, 1)), ((1, 0, 1, 0), (1, 0)),
                                       ((0, 1, Fraction(2, 2)), (0, 1))])
def test_repeated_grid_values_give_each_operator_once(grid, once):
    alg = dict(FIXTURES)["yau-sl2"]
    action = bracket_action_on_abelian(alg)
    for search in (search_nijenhuis, lambda a, g: search_rota_baxter(a, 1, g),
                   lambda a, g: search_relative_rb(action, 0, g)):
        got = search(alg, grid)
        assert got == search(alg, once)
        assert len(set(got)) == len(got)
    assert len(search_nijenhuis(alg, (0, 1, 1))) == 6


def test_flipped_self_bracket_coefficient_is_a_consistency_error(monkeypatch):
    real = brackets._insertion_parts

    def flipped(inner, P, Q, p_sign, q_sign):
        if P is Q:
            return real(inner, P, Q, -p_sign, -q_sign)
        return real(inner, P, Q, p_sign, q_sign)

    monkeypatch.setattr(brackets, "_insertion_parts", flipped)
    caught = []
    for name, alg in FIXTURES:
        ident = Mat.identity(alg.dim)
        for kind, check in (("Nijenhuis", lambda: is_nijenhuis(alg, ident)),
                            ("Rota-Baxter", lambda: is_rota_baxter(alg, ident.scale(-1), 1))):
            try:
                check()
            except ConsistencyError:
                caught.append((name, kind))
    assert caught

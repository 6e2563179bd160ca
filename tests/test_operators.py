import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from homlie.linalg import Mat, Vec, mat_rank
from homlie.cochains import SkewCochain, TwistedSpace, cochain_matrix, operator_cochain
from homlie.structures import (adjoint_action, adjoint_representation,
                               bracket_action_on_abelian, check_hom_jacobi,
                               check_morphism, check_representation, fixture_abelian, fixture_b,
                               HomLieAction, HomLieAlgebra, HomMorphism, RawHomStructure,
                               semidirect_weight)
from homlie.differentials import delta_hom
from homlie.brackets import theta
from homlie.operators import (ConsistencyError, deformed_bracket_n, induced_structures,
                              is_nijenhuis, is_relative_rb, is_rota_baxter, mc_residual,
                              nijenhuis_defect, nijenhuis_report, rb_deformed_bracket,
                              relative_rb_defect, relative_rb_graph, relative_rb_mc,
                              relative_rb_pointwise, rota_baxter_defect,
                              search_nijenhuis, search_relative_rb, search_rota_baxter)
from homlie.theorems import default_fixtures, sample_cochain, _stream

B = fixture_b()


def test_deformed_bracket_identity_and_zero():
    assert deformed_bracket_n(B, Mat.identity(3)) == B.mu
    assert deformed_bracket_n(B, Mat.zero(3, 3)).is_zero()


def test_deformed_bracket_equals_adjoint_coboundary_of_operator():
    rng = _stream(31, "op")
    adj = adjoint_representation(B)
    n = sample_cochain(B.space, B.space, 1, rng)
    nm = cochain_matrix(n)
    assert deformed_bracket_n(B, nm) == delta_hom(adj, n)


def test_scalar_multiples_of_identity_are_nijenhuis():
    for c in ("0", "1", "-2", "1/2"):
        assert is_nijenhuis(B, Mat.identity(3).scale(Fraction(c)))


def test_nijenhuis_defect_witness():
    found = None
    rng = _stream(32, "op2")
    for _ in range(30):
        cand = cochain_matrix(sample_cochain(B.space, B.space, 1, rng))
        if not is_nijenhuis(B, cand):
            found = cand
            break
    assert found is not None
    pair, lhs, rhs = nijenhuis_defect(B, found)
    e = [B.space.basis_vec(i) for i in range(3)]
    assert lhs == B.bracket(found @ e[pair[0]], found @ e[pair[1]])
    assert lhs != rhs


def test_non_twist_commuting_operator_rejected():
    bad = Mat.make([[0, 1, 0], [1, 0, 0], [0, 0, 1]])
    assert B.alpha @ bad != bad @ B.alpha
    endo = (is_nijenhuis, nijenhuis_defect, lambda alg, m: is_rota_baxter(alg, m, 1),
            lambda alg, m: rota_baxter_defect(alg, m, 1))
    for criterion in endo:
        with pytest.raises(ValueError):
            criterion(B, bad)
    relative = (relative_rb_defect, relative_rb_pointwise, relative_rb_graph, relative_rb_mc,
                is_relative_rb, induced_structures)
    for act in (adjoint_action(B), bracket_action_on_abelian(B)):
        for criterion in relative:
            with pytest.raises(ValueError, match="intertwine"):
                criterion(act, bad, 1)


def test_nijenhuis_search_and_report():
    found = search_nijenhuis(B)
    assert found, "bounded search found no operators"
    assert any(not m.is_zero() for m in found)
    for m in found:
        report = nijenhuis_report(B, m)
        assert report.ok, report.failed()
        deformed = deformed_bracket_n(B, m)
        assert check_hom_jacobi(RawHomStructure(B.space, deformed))


def test_rb_scalar_cases():
    for lam in ("0", "1", "2", "-1/2"):
        lam = Fraction(lam)
        assert is_rota_baxter(B, Mat.zero(3, 3), lam)
        assert is_rota_baxter(B, Mat.identity(3).scale(-lam), lam)


def test_rb_deformed_bracket_formula():
    rng = _stream(33, "op3")
    r = sample_cochain(B.space, B.space, 1, rng)
    rm = cochain_matrix(r)
    lam = Fraction(3, 2)
    assert rb_deformed_bracket(B, rm, lam) == B.mu.scale(lam) - theta(B, r)


def test_rb_direct_and_mc_agree_on_random_candidates():
    rng = _stream(34, "op4")
    seen_true = seen_false = 0
    for _ in range(25):
        rm = cochain_matrix(sample_cochain(B.space, B.space, 1, rng))
        lam = Fraction(rng.choice([0, 1, 2, -1]))
        verdict = is_rota_baxter(B, rm, lam)  # raises on criteria disagreement
        seen_true += verdict
        seen_false += not verdict
    assert seen_false > 0


def test_rb_search_finds_operators():
    found = search_rota_baxter(B, 1)
    assert found and any(not m.is_zero() for m in found)


def _grid_oracle(source, target, entries):
    """Every grid matrix with target.alpha @ m == m @ source.alpha, in column-major grid order.

    Depth-first over the full grid of the column-major flattened table, so
    the matrices come out in product order of the grid.  Each entry of the
    commutator is tested as soon as every coordinate it reads is set; that
    prunes dead branches without changing the order.
    """
    entries = [Fraction(e) for e in entries]
    rows, cols = target.dim, source.dim
    at, a_s = target.alpha.rows, source.alpha.rows
    # entry (i, j) of the commutator as (coefficient, coordinate) terms
    checks = {}
    for i in range(rows):
        for j in range(cols):
            terms = ([(at[i][k], j * rows + k) for k in range(rows) if at[i][k]]
                     + [(-a_s[k][j], k * rows + i) for k in range(cols) if a_s[k][j]])
            last = max((c for _, c in terms), default=0)
            checks.setdefault(last, []).append(terms)
    found, flat = [], [None] * (rows * cols)

    def walk(c):
        if c == len(flat):
            found.append(Mat.make([flat[i::rows] for i in range(rows)]))
            return
        for e in entries:
            flat[c] = e
            if all(sum(x * flat[k] for x, k in t) == 0 for t in checks.get(c, ())):
                walk(c + 1)

    walk(0)
    return found


_FIXTURES = dict(default_fixtures())
# the commutant of this twist is spanned by I and the twist, so the last entry
# of the flattened table is p + q/2 in the two pivot values p and q
_SEARCH_ALGEBRAS = {**_FIXTURES,
                    "abelian-upper-twist": fixture_abelian(2, Mat.make([[1, 2], [0, 2]]))}
_GRIDS = [(0, 1), (-1, 0, 1), (1, 2), ("1/2", 0, 3), (0,)]


def _intertwiners(source, target, entries):
    """Every grid intertwiner: the search's depth-first enumeration with no table rows."""
    from homlie.operators import _depth_first, _search_grid
    return _depth_first(_search_grid(source, target, entries))


@pytest.mark.parametrize("kind", ["endomorphism", "relative"])
@pytest.mark.parametrize("name", sorted(_SEARCH_ALGEBRAS))
def test_search_matches_full_grid_oracle(name, kind):
    alg = _SEARCH_ALGEBRAS[name]
    if kind == "endomorphism":
        source = target = alg.space
    else:
        act = bracket_action_on_abelian(alg)
        source, target = act.acted.space, act.acting.space
    for entries in _GRIDS:
        assert _intertwiners(source, target, entries) == _grid_oracle(source, target, entries)


def test_search_on_the_non_aligned_yau_shear_commutant():
    shear = _FIXTURES["yau-shear"]
    mats = _intertwiners(shear.space, shear.space, (-1, 0, 1))
    assert len(mats) == 243  # 5-dim commutant of the unipotent twist
    assert all(shear.alpha @ m == m @ shear.alpha for m in mats)
    found = search_nijenhuis(shear)
    assert found and any(not m.is_zero() for m in found)


def test_search_over_an_empty_commutant():
    # alpha = (2) on the acting line and (3) on the acted one: no nonzero map
    # intertwines them, so the only candidate is the zero map, kept exactly
    # when 0 is a grid value
    acting, acted = fixture_abelian(1, Mat.make([[2]])), fixture_abelian(1, Mat.make([[3]]))
    action = HomLieAction(acting, acted, ((Vec.zero(1),),))
    assert _intertwiners(acted.space, acting.space, (0, 1)) == [Mat.zero(1, 1)]
    assert search_relative_rb(action, 1, (0, 1)) == [Mat.zero(1, 1)]
    assert search_relative_rb(action, 1, (1, 2)) == []


def _filiform(n):
    """The filiform Lie algebra L_n, [e_1, e_i] = e_(i+1), untwisted."""
    space = TwistedSpace.untwisted(n)
    return HomLieAlgebra(space, SkewCochain(space, space, 2,
                                            {(0, i): space.basis[i + 1] for i in range(1, n - 1)}))


def test_search_at_scale_on_untwisted_filiform_l4():
    # 2^16 candidates over the full 4 x 4 commutant; the digest of the list,
    # order included, was recorded from a search that tested every candidate
    found = search_nijenhuis(_filiform(4), (0, 1))
    assert len(found) == 496
    assert hashlib.sha256(repr(found).encode()).hexdigest() == (
        "180968fe3212afe26a33e6ceaea1df0867b9a3ab9596742e244aa9f0ad9dbc7e")


def test_theta_of_residual_detects_deformed_jacobi():
    # theta applied to the Maurer-Cartan residual vanishes exactly when the
    # weighted deformed bracket satisfies the twisted Jacobi identity
    from homlie.brackets import derived_bracket, theta
    from homlie.differentials import d_lambda
    from homlie.cochains import operator_cochain
    rng = _stream(37, "op7")
    seen = {True: 0, False: 0}
    for _ in range(25):
        rm = cochain_matrix(sample_cochain(B.space, B.space, 1, rng))
        lam = Fraction(rng.choice([0, 1, 2]))
        rc = operator_cochain(B.space, B.space, rm)
        residual = d_lambda(B, rc, lam) + derived_bracket(B, rc, rc).scale(Fraction(1, 2))
        lhs = theta(B, residual).is_zero()
        deformed = rb_deformed_bracket(B, rm, lam)
        rhs = check_hom_jacobi(RawHomStructure(B.space, deformed))
        assert lhs == rhs
        seen[lhs] += 1
    assert seen[True] > 0


def test_relative_rb_three_criteria_and_specialization():
    act = bracket_action_on_abelian(B)
    rng = _stream(35, "op5")
    for _ in range(15):
        rm = cochain_matrix(sample_cochain(act.acted.space, B.space, 1, rng))
        lam = Fraction(rng.choice([0, 1, 2]))
        a = relative_rb_pointwise(act, rm, lam)
        b = relative_rb_graph(act, rm, lam)
        c = relative_rb_mc(act, rm, lam)
        assert a == b == c
    # adjoint action specializes to the plain Rota-Baxter predicate
    adj_act = adjoint_action(B)
    for _ in range(10):
        rm = cochain_matrix(sample_cochain(B.space, B.space, 1, rng))
        lam = Fraction(rng.choice([0, 1]))
        assert is_relative_rb(adj_act, rm, lam) == is_rota_baxter(B, rm, lam)
    assert is_relative_rb(act, Mat.zero(3, 3), 0)
    assert is_relative_rb(act, Mat.zero(3, 3), 5)


def _graph_closed_by_pairs(action, R, lam):
    """Graph closure decided one bracket at a time: the reference for relative_rb_graph.

    The span of the graph columns (R h, h) must keep its rank when the
    bracket of any one pair of them is added.
    """
    big = semidirect_weight(action, lam)
    h = action.acted
    graph_cols = [Vec.concat(R @ e, e) for e in h.space.basis]
    base_rank = mat_rank(Mat.from_columns(graph_cols))
    for i, j in combinations(range(h.dim), 2):
        w = big.bracket(graph_cols[i], graph_cols[j])
        if mat_rank(Mat.from_columns(graph_cols + [w])) != base_rank:
            return False
    return True


@pytest.mark.parametrize("name", [name for name, alg in default_fixtures() if alg.dim == 3])
def test_graph_closure_matches_the_per_pair_reference(name):
    alg = _FIXTURES[name]
    seen = {True: 0, False: 0}
    for act in (bracket_action_on_abelian(alg), adjoint_action(alg)):
        intertwiners = _intertwiners(act.acted.space, act.acting.space, (-1, 0, 1))
        for lam in ("0", "1", "-1", "1/2", "2"):
            found = set(search_relative_rb(act, lam, (-1, 0, 1)))
            for R in intertwiners:
                verdict = relative_rb_graph(act, R, lam)
                assert verdict == _graph_closed_by_pairs(act, R, lam), (name, lam, R)
                assert verdict == (R in found), (name, lam, R)  # the graph oracle of the search
                seen[verdict] += 1
    assert seen[True] and seen[False]


def test_induced_structures_postconditions():
    act = bracket_action_on_abelian(B)
    ops = search_relative_rb(act, 1)
    assert ops
    nonzero = [m for m in ops if not m.is_zero()]
    assert nonzero
    for R in nonzero[:3]:
        induced, rep = induced_structures(act, R, 1)
        assert check_hom_jacobi(induced)
        assert check_representation(rep)
        assert check_morphism(HomMorphism(induced, B, R))
    with pytest.raises(ValueError):
        bad = Mat.make([[1, 0, 0], [0, 1, 0], [0, 1, 1]])
        induced_structures(act, bad, 1)


def test_induced_structures_degenerate():
    act = bracket_action_on_abelian(B)
    induced, rep = induced_structures(act, Mat.zero(3, 3), 0)
    assert induced.mu.is_zero()
    assert all(v.is_zero() for row in rep.table for v in row)


def test_dual_criteria_disagreement_is_a_hard_error(monkeypatch):
    from homlie import operators
    # force the bracket-square route to contradict the pointwise identity
    monkeypatch.setattr(operators, "fn_bracket", lambda alg, a, b: alg.mu)
    with pytest.raises(ConsistencyError):
        operators.is_nijenhuis(B, Mat.identity(3))
    monkeypatch.undo()
    # the Maurer-Cartan residual assembles the derived bracket's parts: make [R, R] = 2 mu,
    # a part of integer (c, numerators) terms over the denominator of mu
    monkeypatch.setattr(operators, "_derived_parts",
                        lambda rep, a, b: [(B.mu.den, {k: [(2, v)] for k, v in B.mu.num.items()})])
    with pytest.raises(ConsistencyError):
        operators.is_rota_baxter(B, Mat.zero(3, 3), 0)


def test_mc_residual_kinds():
    rng = _stream(36, "op6")
    # a verified morphism is a Maurer-Cartan element of the cup algebra
    phi = operator_cochain(B.space, B.space, Mat.identity(3))
    assert mc_residual(phi, "morphism", alg=B, target=B).is_zero()
    # derived kind matches the Rota-Baxter predicate
    rm = cochain_matrix(sample_cochain(B.space, B.space, 1, rng))
    res = mc_residual(operator_cochain(B.space, B.space, rm), "relative_derived",
                      action=adjoint_action(B), lam=1)
    assert res.is_zero() == is_rota_baxter(B, rm, 1)
    if not res.is_zero():
        key = sorted(res.coeffs)[0]
        assert not res.value_on(key).is_zero()
    # relative derived kind matches the relative predicate
    act = bracket_action_on_abelian(B)
    rm2 = cochain_matrix(sample_cochain(act.acted.space, B.space, 1, rng))
    res2 = mc_residual(operator_cochain(act.acted.space, B.space, rm2),
                       "relative_derived", action=act, lam=1)
    assert res2.is_zero() == relative_rb_pointwise(act, rm2, 1)
    with pytest.raises(ValueError):
        mc_residual(phi, "no-such-kind")
    with pytest.raises(ValueError):
        mc_residual(B.mu, "relative_derived", action=adjoint_action(B), lam=0)


def test_search_checks_each_candidate_pointwise_once(monkeypatch):
    # the pointwise identity runs as its bilinear part on the P^2 ordered pairs
    # of the P basis matrices, in one call on the whole basis, not once per candidate
    from homlie import operators
    act = bracket_action_on_abelian(B)
    grid = operators._search_grid(act.acted.space, act.acting.space, (0, 1))
    basis = grid.basis
    calls, tables = [], []
    sides = operators._pair_sides
    monkeypatch.setattr(operators, "_pair_sides", lambda action, Ms, deformed: calls.append(Ms)
                        or tables.append(sides(action, Ms, deformed)) or tables[-1])
    found = search_relative_rb(act, 1, (0, 1))
    assert found and len(found) < len(operators._depth_first(grid))
    assert calls == [basis]
    assert [len(row) for row in tables[0]] == [len(basis)] * len(basis)

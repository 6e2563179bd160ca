from fractions import Fraction

import pytest

from homlie.linalg import Mat, Vec, kernel_basis
from homlie.cochains import SkewCochain, compatibility_basis, operator_cochain
from homlie.structures import (HomMorphism, bracket_action_on_abelian, fixture_abelian,
                               fixture_b, fixture_yau_sl2)
from homlie.differentials import d_lambda, d_lambda_tilde, d_trivial
from homlie.brackets import cup_bracket, derived_bracket_rel
from homlie.cohomology import ComplexSpec, cohomology, is_coboundary, square_zero_witness
from homlie.operators import search_relative_rb, induced_structures
from homlie.theorems import default_fixtures, sample_cochain, _stream

B = fixture_b()


def _all_specs(alg):
    act = bracket_action_on_abelian(alg)
    specs = [
        ("hom_rep adjoint", ComplexSpec.adjoint(alg)),
        ("trivial", ComplexSpec.relative(alg, alg.space, 1)),
        ("morphism id", ComplexSpec.morphism(HomMorphism(alg, alg, Mat.identity(alg.dim)))),
        ("weight 2", ComplexSpec.scaled_trivial(alg, 2)),
        ("relative weight 1", ComplexSpec.relative(act.acted, alg.space, 1)),
    ]
    ops = search_relative_rb(act, 1)
    if ops:
        specs.append(("relative operator", ComplexSpec.relative_rb(act, ops[-1], 1)))
    return specs


def test_every_complex_squares_to_zero_through_degree_four():
    for name, spec in _all_specs(B):
        assert square_zero_witness(spec, 4) is None, name
    # on this fixture even the degree-0 clause composes to zero
    assert square_zero_witness(ComplexSpec.adjoint(B), 4, from_degree=0) is None


def test_degree_zero_clause_can_fail_to_square_elsewhere():
    # The twist-fixed degree-0 condition is weaker than what the degree-1
    # formula compensates for; on the twisted sl2 fixture the composite is
    # nonzero, which is why square-zero validation starts at degree 1.
    spec = ComplexSpec.adjoint(fixture_yau_sl2())
    assert square_zero_witness(spec, 2) is None
    assert square_zero_witness(spec, 2, from_degree=0) == (0, 0)


def test_abelian_adjoint_cohomology_is_the_whole_cochain_space():
    ab = fixture_abelian(3)
    spec = ComplexSpec.adjoint(ab)
    for n in (1, 2, 3):
        report = cohomology(spec, n)
        assert report.dim_h == report.dim_cochains
        assert report.dim_cochains == len(compatibility_basis(ab.space, ab.space, n))


def test_top_degree_kernel_is_every_cochain():
    # the coboundary out of the top degree lands in a zero space: a matrix
    # with no rows, whose kernel is all of the cochains
    spec = ComplexSpec.adjoint(fixture_abelian(2))
    m = spec.matrix(2)
    assert (m.nrows, m.ncols) == (0, 2)
    assert len(kernel_basis(m)) == spec.dim_cochains(2) == 2


def test_cohomology_report_inequalities_and_regression():
    spec = ComplexSpec.adjoint(B)
    dims = {}
    for n in (0, 1, 2, 3):
        r = cohomology(spec, n)
        assert r.dim_coboundaries <= r.dim_cocycles <= r.dim_cochains
        dims[n] = (r.dim_cochains, r.dim_cocycles, r.dim_coboundaries, r.dim_h)
    # regression values for the multiplicative 3-dim fixture (b = c = 1)
    assert dims[0] == (1, 0, 0, 0)
    assert dims[1] == (5, 2, 1, 1)
    assert dims[2] == (4, 4, 3, 1)
    assert dims[3] == (0, 0, 0, 0)


def test_cohomology_rejects_degrees_below_lowest():
    spec = ComplexSpec.scaled_trivial(B, 1)
    with pytest.raises(ValueError):
        cohomology(spec, 0)


def test_is_coboundary_roundtrip_and_zero():
    spec = ComplexSpec.adjoint(B)
    rng = _stream(21, "cob")
    p0 = sample_cochain(B.space, B.space, 1, rng)
    c = spec.differential(p0)
    p = is_coboundary(spec, c)
    assert p is not None and spec.differential(p) == c
    zero = SkewCochain.zero(B.space, B.space, 2)
    z = is_coboundary(spec, zero)
    assert z is not None and spec.differential(z).is_zero()


def test_is_coboundary_errors_and_none():
    spec = ComplexSpec.adjoint(B)
    rng = _stream(22, "cob2")
    noncocycle = None
    for _ in range(20):
        cand = sample_cochain(B.space, B.space, 1, rng)
        if not spec.differential(cand).is_zero():
            noncocycle = cand
            break
    assert noncocycle is not None
    with pytest.raises(ValueError):
        is_coboundary(spec, noncocycle)
    # the relative complex over the abelianized copy has zero differential,
    # so no nonzero 2-cochain is a coboundary
    act = bracket_action_on_abelian(B)
    rel = ComplexSpec.relative(act.acted, B.space, 1)
    cocycle = sample_cochain(act.acted.space, B.space, 2, _stream(23, "cob3"))
    assert not cocycle.is_zero()
    assert rel.differential(cocycle).is_zero()
    assert is_coboundary(rel, cocycle) is None


def test_hom_rep_degree1_preimage_is_degree0():
    spec = ComplexSpec.adjoint(B)
    v = SkewCochain(B.space, B.space, 0, {(): Vec.basis(3, 0)})
    c = spec.differential(v)
    if c.is_zero():
        pytest.skip("fixture has no nonzero degree-0 coboundary")
    p = is_coboundary(spec, c)
    assert isinstance(p, SkewCochain) and p.arity == 0
    assert spec.differential(p) == c


def _bracket_route_cases(alg):
    """(name, complex, oracles): each rewritten constructor with its old routes."""
    cases = []
    for name, m in (("identity", Mat.identity(alg.dim)), ("twist", alg.alpha),
                    ("zero", Mat.zero(alg.dim, alg.dim))):
        pc = operator_cochain(alg.space, alg.space, m)
        cases.append((f"morphism {name}", ComplexSpec.morphism(HomMorphism(alg, alg, m)),
                      [lambda f, pc=pc: d_trivial(alg, f) + cup_bracket(pc, f, alg)]))
    cases.append(("trivial", ComplexSpec.relative(alg, alg.space, 1),
                  [lambda f: d_lambda(alg, f, 1), lambda f: d_lambda_tilde(alg, f, 1)]))
    act = bracket_action_on_abelian(alg)
    for lam in (Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)):
        weighted = [lambda f, lam=lam: d_lambda(alg, f, lam),
                    lambda f, lam=lam: d_lambda_tilde(alg, f, lam)]
        cases.append((f"scaled_trivial {lam}", ComplexSpec.scaled_trivial(alg, lam), weighted))
        cases.append((f"relative {lam}", ComplexSpec.relative(alg, alg.space, lam), weighted))
        cases.append((f"relative on the abelianized copy {lam}",
                      ComplexSpec.relative(act.acted, alg.space, lam),
                      [lambda f, lam=lam: d_lambda_tilde(act.acted, f, lam)]))
    for lam in (Fraction(0), Fraction(1)):
        for k, R in enumerate(search_relative_rb(act, lam)):
            rc = operator_cochain(act.acted.space, act.acting.space, R)
            cases.append((f"relative_rb {lam} #{k}", ComplexSpec.relative_rb(act, R, lam),
                          [lambda f, lam=lam, rc=rc: (d_lambda_tilde(act.acted, f, lam)
                                                      + derived_bracket_rel(act, rc, f))]))
    return cases


@pytest.mark.parametrize("fixture", [name for name, _ in default_fixtures()])
def test_every_module_complex_matches_its_bracket_route(fixture):
    # Every complex is delta_hom of one representation; its old bracket route
    # must give the same coboundary on every compatible basis cochain.
    alg = dict(default_fixtures())[fixture]
    for name, spec, oracles in _bracket_route_cases(alg):
        for degree in range(1, alg.dim + 1):
            for b in spec.basis(degree):
                image = spec.differential(b)
                for oracle in oracles:
                    assert image == oracle(b), (fixture, name, degree)


def test_morphism_complex_rejects_non_morphisms():
    with pytest.raises(ValueError, match="twisting map is not a morphism"):
        ComplexSpec.morphism(HomMorphism(B, B, Mat.diagonal([2, 1, 1])))


def test_operator_complex_matches_induced_module_complex():
    act = bracket_action_on_abelian(B)
    for lam in (Fraction(0), Fraction(1)):
        for R in search_relative_rb(act, lam)[-2:]:
            induced_alg, rep = induced_structures(act, R, lam)
            op_spec = ComplexSpec.relative_rb(act, R, lam)
            mod_spec = ComplexSpec.hom_rep(rep)
            for degree in (1, 2, 3):
                assert op_spec.matrix(degree) == mod_spec.matrix(degree)


def test_complexes_on_a_non_diagonal_twist():
    from homlie.structures import fixture_yau_shear
    shear = fixture_yau_shear()
    act = bracket_action_on_abelian(shear)
    specs = [ComplexSpec.adjoint(shear), ComplexSpec.relative(shear, shear.space, 1),
             ComplexSpec.scaled_trivial(shear, 2),
             ComplexSpec.relative(act.acted, shear.space, 1)]
    for spec in specs:
        assert square_zero_witness(spec, 4) is None
    R = search_relative_rb(act, 1)[-1]
    _, rep = induced_structures(act, R, 1)
    op_spec = ComplexSpec.relative_rb(act, R, 1)
    mod_spec = ComplexSpec.hom_rep(rep)
    for degree in (1, 2):
        assert op_spec.matrix(degree) == mod_spec.matrix(degree)


def test_relative_rb_complex_rejects_non_operators():
    act = bracket_action_on_abelian(B)
    bad = Mat.make([[1, 0, 0], [0, 1, 0], [0, 1, 1]])  # twist-commuting, not an operator
    with pytest.raises(ValueError, match="operator fails the relative Rota-Baxter identity"):
        ComplexSpec.relative_rb(act, bad, 1)

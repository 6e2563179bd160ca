import pytest

from homlie.linalg import Vec
from homlie.cochains import SkewCochain, TwistedSpace
from homlie.structures import (adjoint_representation, bracket_action_on_abelian,
                               fixture_abelian, fixture_b, fixture_yau_heisenberg,
                               fixture_yau_sl2, trivial_representation)
from homlie.differentials import d_lambda, d_lambda_tilde, d_trivial, delta_hom, delta_tr
from homlie.brackets import nr_bracket, theta
from homlie.cochains import contract
from homlie.theorems import sample_cochain, _stream

B = fixture_b()
ADJ = adjoint_representation(B)


def _rand(arity, rng):
    return sample_cochain(B.space, B.space, arity, rng)


def test_degree0_coboundary():
    v = SkewCochain(B.space, B.space, 0, {(): Vec.basis(3, 0)})  # alpha-fixed vector
    df = delta_hom(ADJ, v)
    for j in range(3):
        assert df.value_on((j,)) == B.bracket(B.space.basis_vec(j), v.value_on(()))


def test_arity1_coboundary_formula():
    from homlie.cochains import evaluate
    rng = _stream(1, "d1")
    f = _rand(1, rng)
    df = delta_hom(ADJ, f)
    e = [B.space.basis_vec(i) for i in range(3)]
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        expect = (B.bracket(e[i], f.value_on((j,)))
                  - B.bracket(e[j], f.value_on((i,)))
                  - evaluate(f, [B.bracket(e[i], e[j])]))
        assert df.value_on((i, j)) == expect


def test_delta_squared_zero_on_random_cochains():
    rng = _stream(2, "d2")
    for arity in (1, 2):
        f = _rand(arity, rng)
        assert delta_hom(ADJ, delta_hom(ADJ, f)).is_zero()
    v = SkewCochain(B.space, B.space, 0, {(): Vec.basis(3, 0)})
    assert delta_hom(ADJ, delta_hom(ADJ, v)).is_zero()


def test_adjoint_delta_is_bracket_with_structure_cochain():
    rng = _stream(3, "d3")
    for arity in (1, 2, 3):
        f = _rand(arity, rng)
        assert delta_hom(ADJ, f) == -nr_bracket(B.mu, f)


def test_abelian_algebra_differentials_vanish():
    ab = fixture_abelian(3)
    rep = adjoint_representation(ab)
    rng = _stream(4, "d4")
    f = sample_cochain(ab.space, ab.space, 2, rng)
    assert delta_hom(rep, f).is_zero()
    assert d_trivial(ab, f).is_zero()


def test_trivial_differential_arity1_and_square():
    rng = _stream(5, "d5")
    f = _rand(1, rng)
    df = d_trivial(B, f)
    from homlie.cochains import evaluate
    e = [B.space.basis_vec(i) for i in range(3)]
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        assert df.value_on((i, j)) == -evaluate(f, [B.bracket(e[i], e[j])])
    for arity in (1, 2):
        g = _rand(arity, rng)
        assert d_trivial(B, d_trivial(B, g)).is_zero()


def test_trivial_equals_module_coefficient_with_zero_action():
    rng = _stream(6, "d6")
    rep = trivial_representation(B, B.space)
    for arity in (1, 2):
        f = _rand(arity, rng)
        assert d_trivial(B, f) == delta_hom(rep, f)


def test_delta_tr_is_minus_insertion_of_mu():
    rng = _stream(7, "d7")
    for arity in (1, 2):
        f = _rand(arity, rng)
        assert delta_tr(B, f) == -contract(B.mu, f)
        assert delta_tr(B, f) == d_trivial(B, f)


def test_d_lambda_scaling_and_theta_split():
    rng = _stream(8, "d8")
    f = _rand(2, rng)
    assert d_lambda(B, f, 0).is_zero()
    assert d_lambda(B, f, "1/2") == delta_tr(B, f).scale("1/2")
    n = f.arity
    sign = -1 if (n - 1) % 2 else 1
    lhs = d_lambda(B, f, 3)
    rhs = (delta_hom(ADJ, f) + theta(B, f).scale(sign)).scale(3)
    assert lhs == rhs
    r = _rand(1, rng)
    from homlie.cochains import cochain_matrix
    m = cochain_matrix(r)
    e = [B.space.basis_vec(i) for i in range(3)]
    for i, j in [(0, 1), (0, 2), (1, 2)]:
        assert d_lambda(B, r, 5).value_on((i, j)) == (m @ B.bracket(e[i], e[j])).scale(-5)


def test_d_lambda_tilde_cases():
    rng = _stream(9, "d9")
    act = bracket_action_on_abelian(B)
    f = sample_cochain(act.acted.space, B.space, 2, rng)
    # abelian acted algebra: the relative differential vanishes
    assert d_lambda_tilde(act.acted, f, 7).is_zero()
    # over the algebra itself it coincides with the weighted differential
    g = _rand(2, rng)
    assert d_lambda_tilde(B, g, 7) == d_lambda(B, g, 7)
    # squares to zero over the two Yau-twist fixtures
    for alg in (fixture_yau_sl2(), fixture_yau_heisenberg()):
        h = sample_cochain(alg.space, alg.space, 2, _stream(10, "d10"))
        assert d_lambda_tilde(alg, d_lambda_tilde(alg, h, 2), 2).is_zero()


def test_delta_rejects_foreign_cochains():
    other = TwistedSpace.untwisted(2)
    f = SkewCochain.zero(other, other, 1)
    with pytest.raises(ValueError):
        delta_hom(ADJ, f)


def test_zero_action_adds_no_action_terms(monkeypatch):
    from homlie.cohomology import ComplexSpec
    from homlie.structures import Representation, fixture_yau_dim4
    alg = fixture_yau_dim4()
    expected = [ComplexSpec.scaled_trivial(alg, 2).matrix(n) for n in range(1, 5)]

    def refuse(self, x, v):
        raise AssertionError("the zero action was evaluated")

    monkeypatch.setattr(Representation, "act", refuse)
    # a fresh zero representation, so nothing is served from an earlier one's caches
    assert [ComplexSpec.scaled_trivial(alg, 2).matrix(n) for n in range(1, 5)] == expected

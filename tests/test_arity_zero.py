"""Arity-0 cochains: the degree-0 term of every module complex.

An arity-0 cochain is a codomain vector kept under the key ``()``.  Its
compatible ones are the twist-fixed vectors, ``delta_hom`` sends it to
x -> x . v in every representation, and every operation built from insertion
or the cup pairing rejects it.
"""

import pytest

from homlie.brackets import (GradedPair, bicrossed_bracket, cup_bracket, derived_bracket,
                             derived_bracket_rel, fn_bracket, nr_bracket,
                             semidirect_graded_bracket, theta, theta_tilde)
from homlie.cochains import SkewCochain, TwistedSpace, compatibility_basis, contract
from homlie.differentials import delta_hom, delta_tr
from homlie.linalg import Mat, Vec, kernel_basis
from homlie.structures import (adjoint_representation, as_hom_lie, bracket_action_on_abelian,
                               fixture_jackson_sl2, trivial_representation)
from homlie.theorems import _stream, default_fixtures, sample_cochain

# The default fixtures and the q = 0 Jackson sl2, whose twist is zero.
FIXTURES = dict(default_fixtures() + [("jackson-sl2-q0", as_hom_lie(fixture_jackson_sl2(0)))])


def _representations(alg):
    """(name, representation, x . v) for each action checked at degree 0."""
    module = TwistedSpace(Mat.diagonal([1 + i % 2 for i in range(alg.dim)]))  # beta != I
    abelian = bracket_action_on_abelian(alg)
    return [
        ("adjoint", adjoint_representation(alg), alg.bracket),
        ("bracket on the abelian copy", abelian, abelian.act),
        ("trivial with beta != I", trivial_representation(alg, module),
         lambda x, v: Vec.zero(module.dim)),
        ("zero action", trivial_representation(alg, alg.space),
         lambda x, v: Vec.zero(alg.dim)),
    ]


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_compatible_arity_zero_cochains_are_the_fixed_vectors(fixture):
    alg = FIXTURES[fixture]
    for name, rep, _ in _representations(alg):
        beta = rep.module.alpha
        fixed = kernel_basis(beta - Mat.identity(beta.nrows))
        basis = compatibility_basis(alg.space, rep.module, 0)
        assert [b.value_on(()) for b in basis] == fixed, name
        assert all(b.arity == 0 and list(b.coeffs) == [()] for b in basis), name


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_degree_zero_coboundary_is_the_action_on_the_vector(fixture):
    alg = FIXTURES[fixture]
    for name, rep, act in _representations(alg):
        module = rep.module
        # every module vector, compatible or not, plus a non-basis combination
        vectors = list(module.basis) + [Vec.make([k - 1 for k in range(module.dim)])]
        for v in vectors:
            image = delta_hom(rep, SkewCochain(alg.space, module, 0, {(): v}))
            assert image.arity == 1, name
            for x in range(alg.dim):
                assert image.value_on((x,)) == act(alg.space.basis[x], v), (name, x)


@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_insertion_and_cup_operations_reject_arity_zero(fixture):
    alg = FIXTURES[fixture]
    space = alg.space
    v = SkewCochain(space, space, 0, {(): space.basis[0]})
    rep = bracket_action_on_abelian(alg)
    w = SkewCochain(rep.module, space, 0, {(): space.basis[0]})
    rng = _stream(1, "arity-zero")
    # partners of every arity up to one above the dimension, where the
    # operations would otherwise return zero before looking at the arities
    for n in range(1, alg.dim + 2):
        Q = (sample_cochain(space, space, n, rng) if n <= alg.dim
             else SkewCochain.zero(space, space, n))
        R = SkewCochain.zero(rep.module, space, n)
        calls = {
            "nr_bracket": [lambda: nr_bracket(v, Q), lambda: nr_bracket(Q, v)],
            "cup_bracket": [lambda: cup_bracket(v, Q, alg), lambda: cup_bracket(Q, v, alg)],
            "fn_bracket": [lambda: fn_bracket(alg, v, Q), lambda: fn_bracket(alg, Q, v)],
            "derived_bracket": [lambda: derived_bracket(alg, v, Q),
                                lambda: derived_bracket(alg, Q, v)],
            "derived_bracket_rel": [lambda: derived_bracket_rel(rep, w, R),
                                    lambda: derived_bracket_rel(rep, R, w)],
            "contract": [lambda: contract(v, Q), lambda: contract(Q, v)],
        }
        for thunks in calls.values():
            for thunk in thunks:
                with pytest.raises(ValueError):
                    thunk()
    for thunk in (lambda: theta(alg, v), lambda: theta_tilde(rep, w),
                  lambda: delta_tr(alg, v)):
        with pytest.raises(ValueError):
            thunk()
    degree_zero = GradedPair(SkewCochain.zero(space, space, 1), v)
    degree_one = GradedPair(sample_cochain(space, space, 2, rng),
                            sample_cochain(space, space, 1, rng))
    for a, b in ((degree_zero, degree_one), (degree_one, degree_zero)):
        with pytest.raises(ValueError):
            semidirect_graded_bracket(alg, a, b)
        with pytest.raises(ValueError):
            bicrossed_bracket(alg, a, b)


def test_negative_arity_is_rejected():
    space = FIXTURES["threedim-multiplicative"].space
    with pytest.raises(ValueError, match="arity must be >= 0"):
        SkewCochain(space, space, -1, {})
    with pytest.raises(ValueError, match="arity must be >= 0"):
        SkewCochain.from_function(space, space, -1, lambda key: Vec.zero(3))
    with pytest.raises(ValueError, match="arity must be >= 0"):
        compatibility_basis(space, space, -1)


def test_arity_zero_cochain_has_only_the_empty_key():
    space = FIXTURES["threedim-multiplicative"].space
    v = Vec.basis(3, 1)
    f = SkewCochain.from_function(space, space, 0, lambda key: v)
    assert f == SkewCochain(space, space, 0, {(): v}) and f.value_on(()) == v
    assert SkewCochain(space, space, 0, {(): Vec.zero(3)}).is_zero()
    with pytest.raises(ValueError, match="strictly increasing 0-tuple"):
        SkewCochain(space, space, 0, {(0,): v})

"""The shape checks compare twisted spaces by equality, not by identity.

Every operation that checks where its cochains live accepts a cochain on a
``TwistedSpace`` equal to the expected one but built separately, with the
result it gives on the expected space itself, and rejects one on a space of
the same dimension with another twist.  The checks first test identity, so a
space compared with itself never reaches ``TwistedSpace.__eq__``.
"""

import random

import pytest

from homlie import theorems
from homlie.brackets import cup_bracket, derived_bracket, fn_bracket, nr_bracket, theta
from homlie.cochains import SkewCochain, TwistedSpace, contract
from homlie.differentials import d_trivial, delta_hom
from homlie.linalg import Mat, Vec
from homlie.structures import adjoint_representation
from homlie.theorems import default_fixtures

ALG = dict(default_fixtures())["yau-shear"]  # a twist that is not diagonal
TWIN = TwistedSpace(Mat(ALG.alpha.rows))
OTHER = TwistedSpace(Mat.diagonal([2] * ALG.dim))


def on(f: SkewCochain, domain=None, codomain=None) -> SkewCochain:
    """f's values on other spaces."""
    return SkewCochain(domain or f.domain, codomain or f.codomain, f.arity, f.coeffs)


def _cochain(arity: int, rng: random.Random) -> SkewCochain:
    return SkewCochain.from_function(
        ALG.space, ALG.space, arity, lambda key: Vec([rng.randint(-2, 2) for _ in range(ALG.dim)]))


rng = random.Random("shape checks")
P, Q = _cochain(1, rng), _cochain(2, rng)
ADJ = adjoint_representation(ALG)

# name -> (the operation with one input moved onto the space s, its mismatch message)
CASES = {
    "contract, inner codomain": (lambda s: contract(on(P, codomain=s), Q), "contraction requires"),
    "contract, outer domain": (lambda s: contract(P, on(Q, domain=s)), "contraction requires"),
    "nr_bracket": (lambda s: nr_bracket(P, on(Q, s, s)), "both cochains must live"),
    "cup_bracket, domain": (lambda s: cup_bracket(P, on(Q, domain=s), ALG), "common domain"),
    "cup_bracket, codomain": (lambda s: cup_bracket(P, on(Q, codomain=s), ALG),
                              "valued in the codomain algebra"),
    "fn_bracket": (lambda s: fn_bracket(ALG, P, on(Q, s, s)), "common domain"),
    "derived_bracket": (lambda s: derived_bracket(ALG, on(P, s, s), Q), "common domain"),
    "theta": (lambda s: theta(ALG, on(Q, codomain=s)), "theta expects"),
    "delta_hom, domain": (lambda s: delta_hom(ADJ, on(Q, domain=s)), "representation's complex"),
    "delta_hom, codomain": (lambda s: delta_hom(ADJ, on(Q, codomain=s)),
                            "representation's complex"),
    "d_trivial": (lambda s: d_trivial(ALG, on(P, domain=s)), "does not match the algebra"),
    "cochain +": (lambda s: Q + on(Q, s, s), "cochain shape mismatch"),
    "cochain -": (lambda s: Q.scale(3) - on(Q, s, s), "cochain shape mismatch"),
}


def test_the_spaces_are_what_the_cases_need():
    assert TWIN == ALG.space and TWIN is not ALG.space
    assert OTHER != ALG.space and OTHER.dim == ALG.dim


@pytest.mark.parametrize("name", CASES)
def test_an_equal_space_gives_the_same_result(name):
    operation, _ = CASES[name]
    result = operation(TWIN)
    assert result == operation(ALG.space)
    assert not result.is_zero()


@pytest.mark.parametrize("name", CASES)
def test_another_twist_is_rejected(name):
    operation, message = CASES[name]
    with pytest.raises(ValueError, match=message):
        operation(OTHER)


def test_cochain_equality_compares_the_spaces():
    assert Q == on(Q, TWIN, TWIN) and on(Q, TWIN) == Q
    assert Q != on(Q, OTHER) and Q != on(Q, codomain=OTHER)


def test_a_space_is_never_compared_with_itself(monkeypatch):
    """Across a small identity suite, each shape check tests identity before equality."""
    same, calls = [], []
    compare = TwistedSpace.__eq__

    def spy(self, other):
        calls.append(self)
        if self is other:
            same.append(self)
        return compare(self, other)

    monkeypatch.setattr(TwistedSpace, "__eq__", spy)
    assert theorems.run_all(trials=2).all_passed
    assert same == []
    assert TWIN == ALG.space and calls[-1] is TWIN  # the spy is in place

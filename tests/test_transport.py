"""Transport of structure by a change of basis: an equivariance oracle.

For g in GL_n(Z) the transported algebra g . A has the twist g alpha g^-1 and
the bracket g [g^-1 x, g^-1 y].  Every property the package checks is natural
under a change of basis, so g . A must again be multiplicative and Hom-Jacobi,
and its twist-compatible cochain spaces must have the dimensions of those of A.
No classical result is needed.  The default twists are diagonal or nearly so;
under the dense unimodular G below, every transported twist has a column with
three nonzero entries, which the wedge table must read in full.
"""

import pytest

from homlie.cochains import SkewCochain, TwistedSpace, compatibility_basis
from homlie.linalg import Mat, solve_linear
from homlie.structures import (HomLieAlgebra, RawHomStructure, check_hom_jacobi,
                               check_multiplicative)
from homlie.theorems import default_fixtures

G = Mat([[1, 1, 1], [0, 1, 1], [1, 1, 2]])  # determinant 1
FIXTURES_3 = [(name, alg) for name, alg in default_fixtures() if alg.dim == 3]


def inverse(g: Mat) -> Mat:
    return Mat.from_columns([solve_linear(g, e) for e in TwistedSpace.untwisted(g.nrows).basis])


def transport(alg: RawHomStructure, g: Mat) -> RawHomStructure:
    """g . alg: twist g alpha g^-1, bracket g [g^-1 x, g^-1 y], read on basis pairs."""
    back = inverse(g)
    space = TwistedSpace(g @ alg.alpha @ back)
    images = [back.col(j) for j in range(alg.dim)]
    return RawHomStructure(space, SkewCochain.from_function(
        space, space, 2, lambda key: g @ alg.bracket(images[key[0]], images[key[1]])))


def test_the_change_of_basis_is_unimodular():
    assert G @ inverse(G) == Mat.identity(3) == inverse(G) @ G
    assert all(x.denominator == 1 for row in inverse(G).rows for x in row)
    assert len(FIXTURES_3) == 4


@pytest.mark.parametrize("name,alg", FIXTURES_3)
def test_a_transported_fixture_keeps_its_structure_and_cochain_spaces(name, alg):
    moved = transport(alg, G)
    # transport back recovers the algebra: the helper is a change of basis
    back = transport(moved, inverse(G))
    assert back.alpha == alg.alpha and back.mu == alg.mu
    assert any(sum(1 for x in col if x) >= 3 for col in zip(*moved.alpha.num))
    assert check_multiplicative(moved) and check_hom_jacobi(moved)
    assert isinstance(HomLieAlgebra(moved.space, moved.mu), HomLieAlgebra)
    for arity in (1, 2, 3):
        assert (len(compatibility_basis(moved.space, moved.space, arity))
                == len(compatibility_basis(alg.space, alg.space, arity))), arity

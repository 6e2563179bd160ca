"""The operator theorems as oracles on the grid searches' lists.

Polynomials in a Nijenhuis operator are Nijenhuis, and its deformed bracket is
the adjoint coboundary of the operator, a Hom-Lie bracket of which the operator
is a morphism to the original one (Y. Kosmann-Schwarzbach and F. Magri,
"Poisson-Nijenhuis structures", Ann. Inst. H. Poincare 53, 1990, for Lie
algebras).  For weight lam, R -> -lam id - R preserves the Rota-Baxter identity
(L. Guo, An Introduction to Rota-Baxter Algebra, 2012).  Each statement is
checked on every operator of the (-1, 0, 1) grid lists of the six default
fixtures, and the lists are closed: every image under -N, N^2 and N +- id
(Nijenhuis) or -lam id - R (Rota-Baxter) whose entries lie in the grid is on
its list.  The Maurer-Cartan route, identity 1's oracle, checks the brackets
the integer Jacobi check accepted: [mu_N, mu_N] = [mu, mu_N] = 0 in the
insertion bracket for the deformed bracket mu_N of every grid Nijenhuis
operator, and [mu_R, mu_R] = 0 for the induced bracket of every operator of a
fixture's d_r_matches_induced context.
"""

import pytest

from homlie.brackets import nr_bracket
from homlie.cochains import operator_cochain
from homlie.differentials import delta_hom
from homlie.linalg import Mat
from homlie.operators import (deformed_bracket_n, nijenhuis_defect, rota_baxter_defect,
                              search_nijenhuis, search_rota_baxter)
from homlie.structures import HomLieAlgebra, HomMorphism, adjoint_action, check_morphism
from homlie.theorems import _context, default_fixtures

GRID = (-1, 0, 1)


def in_grid(M):
    return all(x in GRID for row in M.rows for x in row)


@pytest.mark.parametrize("name,alg", default_fixtures())
def test_nijenhuis_operators_obey_the_theorems_and_the_list_is_closed(name, alg):
    found, ident = search_nijenhuis(alg, GRID), Mat.identity(alg.dim)
    listed, adjoint, images = set(found), adjoint_action(alg), 0
    assert found
    for N in found:
        square = N @ N
        for P in (square, square @ N + N.scale(2) - ident.scale(3)):
            assert nijenhuis_defect(alg, P) is None, (N, P)
        deformed = deformed_bracket_n(alg, N)
        assert deformed == delta_hom(adjoint, operator_cochain(alg.space, alg.space, N))
        assert check_morphism(HomMorphism(HomLieAlgebra(alg.space, deformed), alg, N))
        assert nr_bracket(deformed, deformed).is_zero() and nr_bracket(alg.mu, deformed).is_zero()
        for image in (-N, square, N + ident, N - ident):
            if in_grid(image):
                assert image in listed, (N, image)
                images += 1
    assert images >= len(found)  # -N alone lies in the grid for every N


@pytest.mark.parametrize("name,alg", default_fixtures())
@pytest.mark.parametrize("lam", [0, 1])
def test_rota_baxter_operators_obey_the_theorem_and_the_list_is_closed(name, alg, lam):
    found, shift = search_rota_baxter(alg, lam, GRID), Mat.identity(alg.dim).scale(-lam)
    listed = set(found)
    assert found
    for R in found:
        image = shift - R
        assert rota_baxter_defect(alg, image, lam) is None, (R, image)
        assert not in_grid(image) or image in listed, (R, image)


@pytest.mark.parametrize("name,alg", default_fixtures())
def test_every_induced_bracket_of_a_relative_context_squares_to_zero(name, alg):
    induced = _context("d_r_matches_induced", alg, 3, {})[1]
    assert induced
    for lam, _, rep in induced:
        mu = rep.algebra.mu
        assert nr_bracket(mu, mu).is_zero(), (lam, mu.num)

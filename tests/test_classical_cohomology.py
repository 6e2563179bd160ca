"""Classical Lie algebra cohomology as an oracle for the complexes.

With the identity twist a Hom-Lie algebra is a Lie algebra, and its
cohomology is known in closed form:

* sl2 + sl2 is semisimple: adjoint H^1 = H^2 = H^3 = 0 (Whitehead), and with
  trivial coefficients in its own 6-dim space H^1 = H^2 = 0 while
  H^3 = dim H^3(sl2 + sl2) * 6 = 2 * 6 (Kunneth);
* the Heisenberg algebra has Betti numbers 1, 2, 2, 1, so the trivial
  complex into its 3-dim space gives 6, 6, 3; the adjoint complex gives
  4, 5, 2;
* on an abelian algebra every differential is zero.
"""

import pytest

from homlie.cochains import SkewCochain, TwistedSpace
from homlie.cohomology import ComplexSpec, cohomology
from homlie.linalg import Mat, Vec
from homlie.structures import HomLieAlgebra, HomMorphism, fixture_abelian, yau_twist


def _lie(dim: int, table: dict) -> HomLieAlgebra:
    """The Lie algebra with basis brackets ``table`` as a Hom-Lie algebra with identity twist."""
    space = TwistedSpace.untwisted(dim)
    mu = SkewCochain(space, space, 2, {key: Vec.make(v) for key, v in table.items()})
    return yau_twist(mu, Mat.identity(dim))


_SL2 = {(0, 1): [-2, 0, 0], (0, 2): [0, 1, 0], (1, 2): [0, 0, -2]}
SL2_SL2 = _lie(6, {**{key: v + [0, 0, 0] for key, v in _SL2.items()},
                   **{(i + 3, j + 3): [0, 0, 0] + v for (i, j), v in _SL2.items()}})
HEISENBERG = _lie(3, {(0, 1): [0, 0, 1]})


@pytest.mark.parametrize("alg,kind,dims", [
    (SL2_SL2, "adjoint", (0, 0, 0)),
    (SL2_SL2, "trivial", (0, 0, 12)),
    (HEISENBERG, "trivial", (6, 6, 3)),
    (HEISENBERG, "adjoint", (4, 5, 2)),
], ids=["sl2+sl2-adjoint", "sl2+sl2-trivial", "heisenberg-trivial", "heisenberg-adjoint"])
def test_cohomology_matches_the_classical_values(alg, kind, dims):
    spec = ComplexSpec.adjoint(alg) if kind == "adjoint" else ComplexSpec.scaled_trivial(alg, 1)
    assert tuple(cohomology(spec, n).dim_h for n in (1, 2, 3)) == dims


def test_every_differential_of_an_abelian_algebra_is_zero():
    ab = fixture_abelian(3)
    specs = [ComplexSpec.adjoint(ab), ComplexSpec.scaled_trivial(ab, 1),
             ComplexSpec.scaled_trivial(ab, 2),
             ComplexSpec.morphism(HomMorphism(ab, ab, Mat.identity(3)))]
    for k, spec in enumerate(specs):
        for n in range(spec.lowest_degree, ab.dim + 1):
            assert spec.matrix(n).is_zero(), (k, n)

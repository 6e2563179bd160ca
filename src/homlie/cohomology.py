"""Cochain complexes and exact cohomology dimensions.

Every complex here is the module complex of one representation.  A
``ComplexSpec`` holds the representation, the degree its complex starts at
and a weight; its differential is the weight times ``delta_hom``, and the
cochains of every degree n, 0 included, are ``compatibility_basis(domain,
codomain, n)``.  Module coefficients (``hom_rep``, ``adjoint``) start at
degree 0, whose cochains are the arity-0 ones, the twist-fixed module
vectors; all other complexes start at degree 1.  The trivial ones and their weighted and
relative versions take lambda times the coboundary of the zero action.  The
morphism complex d + [phi, .]_cup is the module complex of x . y = [phi(x), y]
(``structures.morphism_representation``), and the relative Rota-Baxter one,
d~_lambda + [R, .]_derived, that of the induced representation
(``operators.induced_structures``; identity 24).  Those bracket forms are
kept only as oracles.

Cohomology dimensions come from exact rank computations in raw coefficient
coordinates; rank is basis-independent, so no change of basis is needed.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import NamedTuple

from .linalg import Mat, mat_rank, rat, solve_linear
from .cochains import (SkewCochain, TwistedSpace, compatibility_basis, flatten_cochain,
                       linear_combination)
from .structures import (HomLieAction, HomLieAlgebra, HomMorphism, Representation,
                         adjoint_representation, morphism_representation,
                         trivial_representation)
from .differentials import delta_hom


class CohomologyReport(NamedTuple):
    degree: int
    dim_cochains: int
    dim_cocycles: int
    dim_coboundaries: int

    @property
    def dim_h(self) -> int:
        return self.dim_cocycles - self.dim_coboundaries

    def to_json(self) -> dict:
        return {
            "degree": self.degree,
            "dim_cochains": self.dim_cochains,
            "dim_cocycles": self.dim_cocycles,
            "dim_coboundaries": self.dim_coboundaries,
            "dim_cohomology": self.dim_h,
        }


class ComplexSpec(NamedTuple):
    """The module complex of ``rep`` from ``lowest_degree`` on, coboundary times ``weight``.

    Every degree n, 0 included, holds ``compatibility_basis(domain, codomain, n)``.
    """

    rep: Representation
    lowest_degree: int
    weight: Fraction = Fraction(1)

    # -- constructors -------------------------------------------------

    @staticmethod
    def hom_rep(rep: Representation) -> "ComplexSpec":
        return ComplexSpec(rep, 0)

    @staticmethod
    def adjoint(alg: HomLieAlgebra) -> "ComplexSpec":
        return ComplexSpec.hom_rep(adjoint_representation(alg))

    @staticmethod
    def morphism(phi: HomMorphism) -> "ComplexSpec":
        return ComplexSpec(morphism_representation(phi), 1)

    @staticmethod
    def scaled_trivial(alg: HomLieAlgebra, lam) -> "ComplexSpec":
        return ComplexSpec.relative(alg, alg.space, lam)

    @staticmethod
    def relative(acted: HomLieAlgebra, codomain: TwistedSpace, lam) -> "ComplexSpec":
        return ComplexSpec(trivial_representation(acted, codomain), 1, rat(lam))

    @staticmethod
    def relative_rb(action: HomLieAction, R: Mat, lam) -> "ComplexSpec":
        """Raises ValueError unless R satisfies the relative Rota-Baxter identity."""
        from .operators import induced_structures  # loaded by this complex alone
        return ComplexSpec(induced_structures(action, R, lam)[1], 1)

    # -- complex data --------------------------------------------------

    @property
    def domain(self) -> TwistedSpace:
        return self.rep.algebra.space

    @property
    def codomain(self) -> TwistedSpace:
        return self.rep.module

    def basis(self, degree: int) -> list[SkewCochain]:
        if degree < self.lowest_degree:
            raise ValueError(f"complex starts at degree {self.lowest_degree}")
        return compatibility_basis(self.domain, self.codomain, degree)

    def dim_cochains(self, degree: int) -> int:
        return len(self.basis(degree))

    def differential(self, f: SkewCochain) -> SkewCochain:
        image = delta_hom(self.rep, f)
        return image if self.weight == 1 else image.scale(self.weight)

    def matrix(self, degree: int) -> Mat:
        """Matrix of the coboundary from degree to degree + 1 in raw coordinates."""
        basis = self.basis(degree)
        keys = list(combinations(range(self.domain.dim), degree + 1))
        columns = [flatten_cochain(self.differential(b), keys) for b in basis]
        if not columns:
            return Mat.zero(len(keys) * self.codomain.dim, 0)
        return Mat.from_columns(columns)


def square_zero_witness(spec: ComplexSpec, max_degree: int, from_degree: int | None = None):
    """First (degree, basis index) whose double coboundary is nonzero, or None.

    Defaults to degrees >= 1.  The degree-0 clause of the module-coefficient
    complex does not square to zero for every structure (the twist-fixed
    condition on module vectors is weaker than what the degree-1 formula
    compensates for), so callers opt in to degree 0 explicitly.
    """
    start = max(spec.lowest_degree, 1) if from_degree is None else from_degree
    if start < spec.lowest_degree:
        raise ValueError(f"complex starts at degree {spec.lowest_degree}")
    for degree in range(start, max_degree + 1):
        for idx, b in enumerate(spec.basis(degree)):
            if not spec.differential(spec.differential(b)).is_zero():
                return degree, idx
    return None


def cohomology(spec: ComplexSpec, degree: int) -> CohomologyReport:
    """Exact cocycle/coboundary/cohomology dimensions at one degree."""
    n_cochains = spec.dim_cochains(degree)
    cocycles = n_cochains - mat_rank(spec.matrix(degree))
    coboundaries = 0 if degree == spec.lowest_degree else mat_rank(spec.matrix(degree - 1))
    return CohomologyReport(degree, n_cochains, cocycles, coboundaries)


def is_coboundary(spec: ComplexSpec, c: SkewCochain):
    """A preimage of a cocycle under the coboundary, or None.

    The input must be a cocycle (hard error otherwise, to keep "not
    extensible" distinguishable from "ill-posed query").  The preimage is the
    particular solution of the coefficient system; distinct preimages differ
    by cocycles, which callers never rely on.
    """
    degree = c.arity
    if degree <= spec.lowest_degree:
        raise ValueError("no coboundaries below the lowest degree of the complex")
    if not spec.differential(c).is_zero():
        raise ValueError("input cochain is not a cocycle")
    solution = solve_linear(spec.matrix(degree - 1), flatten_cochain(c))
    if solution is None:
        return None
    return linear_combination(spec.domain, spec.codomain, degree - 1,
                              zip(solution.num, spec.basis(degree - 1)), solution.den)

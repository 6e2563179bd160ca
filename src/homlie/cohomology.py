"""Cochain complexes and exact cohomology dimensions.

A ``ComplexSpec`` names one of the square-zero coboundary maps together with
the data it needs, and knows the cochain basis in each degree.  Cohomology
dimensions come from exact rank/kernel computations of the differential in
raw coefficient coordinates; since rank is basis-independent, no change of
basis is ever needed.

Degree conventions: module-coefficient complexes start at degree 0 with the
twist-fixed module vectors; all bracket-based complexes (trivial, morphism,
weighted, relative) start at degree 1.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .linalg import Mat, Vec, _lincomb, mat_rank, rat, solve_linear
from .cochains import (SkewCochain, TwistedSpace, compatibility_basis, fixed_vectors,
                       flatten_cochain, linear_combination, operator_cochain)
from .structures import (HomLieAction, HomLieAlgebra, HomMorphism, Representation,
                         adjoint_representation)
from .differentials import (Degree0Cochain, d_lambda, d_lambda_tilde, d_trivial,
                            delta_hom, delta_hom_deg0)

# ``operators`` and ``brackets`` are imported only by the morphism and
# relative Rota-Baxter complexes, so module-coefficient cohomology never
# loads them.


def d_phi(phi: HomMorphism, f: SkewCochain) -> SkewCochain:
    """Morphism-twisted coboundary D(f) + [phi, f]_cup; phi is verified first.

    Coincides with the module-coefficient coboundary for the representation
    x . y = [phi(x), y] on the target.
    """
    from .operators import morphism_differential
    return morphism_differential(phi)(f)


def _operator_differential(action: HomLieAction, R: Mat, lam):
    """The map f -> d~_lam(f) + [R, f] (relative derived bracket); R is not checked."""
    from .brackets import derived_bracket_rel
    rc = operator_cochain(action.acted.space, action.acting.space, R)
    return lambda f: d_lambda_tilde(action.acted, f, lam) + derived_bracket_rel(action, rc, f)


def d_rb(action: HomLieAction, R: Mat, lam, f: SkewCochain) -> SkewCochain:
    """Coboundary attached to a relative Rota-Baxter operator.

    D(f) = d~_lam(f) + [R, f] in the relative derived bracket; requires R to
    satisfy the relative Rota-Baxter identity.
    """
    from .operators import relative_rb_pointwise
    if not relative_rb_pointwise(action, R, lam):
        raise ValueError("operator fails the relative Rota-Baxter identity")
    return _operator_differential(action, R, lam)(f)


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


class ComplexSpec:
    """A named square-zero coboundary with its cochain spaces."""

    def __init__(self, kind: str, domain: TwistedSpace, codomain: TwistedSpace,
                 apply_fn, lowest_degree: int, label: str):
        self.kind = kind
        self.domain = domain
        self.codomain = codomain
        self._apply = apply_fn
        self.lowest_degree = lowest_degree
        self.label = label

    # -- constructors -------------------------------------------------

    @staticmethod
    def hom_rep(rep: Representation) -> "ComplexSpec":
        return ComplexSpec("hom_rep", rep.algebra.space, rep.module,
                           lambda f: delta_hom_deg0(rep, f) if isinstance(f, Degree0Cochain)
                           else delta_hom(rep, f),
                           0, "module coefficients")

    @staticmethod
    def adjoint(alg: HomLieAlgebra) -> "ComplexSpec":
        return ComplexSpec.hom_rep(adjoint_representation(alg))

    @staticmethod
    def trivial(alg: HomLieAlgebra, codomain: TwistedSpace | None = None) -> "ComplexSpec":
        cod = codomain if codomain is not None else alg.space
        return ComplexSpec("trivial", alg.space, cod,
                           lambda f: d_trivial(alg, f), 1, "trivial coefficients")

    @staticmethod
    def morphism(phi: HomMorphism) -> "ComplexSpec":
        from .operators import morphism_differential
        return ComplexSpec("morphism", phi.source.space, phi.target.space,
                           morphism_differential(phi), 1, "morphism-twisted")

    @staticmethod
    def scaled_trivial(alg: HomLieAlgebra, lam) -> "ComplexSpec":
        lam = rat(lam)
        return ComplexSpec("scaled_trivial", alg.space, alg.space,
                           lambda f: d_lambda(alg, f, lam), 1, f"weight {lam}")

    @staticmethod
    def relative(acted: HomLieAlgebra, codomain: TwistedSpace, lam) -> "ComplexSpec":
        lam = rat(lam)
        return ComplexSpec("relative", acted.space, codomain,
                           lambda f: d_lambda_tilde(acted, f, lam), 1, f"relative weight {lam}")

    @staticmethod
    def relative_rb(action: HomLieAction, R: Mat, lam) -> "ComplexSpec":
        from .operators import is_relative_rb
        lam = rat(lam)
        if not is_relative_rb(action, R, lam):
            raise ValueError("operator fails the relative Rota-Baxter identity")
        return ComplexSpec("relative_rb", action.acted.space, action.acting.space,
                           _operator_differential(action, R, lam), 1, f"operator weight {lam}")

    # -- complex data --------------------------------------------------

    def basis(self, degree: int) -> list:
        if degree < self.lowest_degree:
            raise ValueError(f"complex starts at degree {self.lowest_degree}")
        if degree == 0:
            return [Degree0Cochain(self.codomain, v) for v in fixed_vectors(self.codomain)]
        return compatibility_basis(self.domain, self.codomain, degree)

    def dim_cochains(self, degree: int) -> int:
        return len(self.basis(degree))

    def differential(self, f):
        return self._apply(f)

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
    if degree < spec.lowest_degree:
        raise ValueError(f"complex starts at degree {spec.lowest_degree}")
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
    return None if solution is None else _combine(spec, degree - 1, solution)


def _combine(spec: ComplexSpec, degree: int, coeffs: Vec):
    """The cochain of the given degree with coordinates ``coeffs`` in ``spec.basis(degree)``."""
    basis = spec.basis(degree)
    if degree == 0:
        return Degree0Cochain(spec.codomain, _lincomb(zip(coeffs.num, [b.value for b in basis]),
                                                      spec.codomain.dim, coeffs.den))
    return linear_combination(spec.domain, spec.codomain, degree, zip(coeffs.num, basis),
                              coeffs.den)

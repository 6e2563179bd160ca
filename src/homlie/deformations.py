"""Finite-order deformations of a Hom-Lie algebra morphism.

An order-N deformation is a polynomial family phi_0 + t phi_1 + ... + t^N
phi_N whose truncated morphism equations hold through order N.  The
obstruction to extending it one order further is an explicit 2-cocycle of
the morphism-twisted complex; the deformation extends exactly when that
cocycle is a coboundary, and any preimage serves as the next term.
"""

from __future__ import annotations

from itertools import combinations
from typing import NamedTuple

from .linalg import Mat, Vec
from .cochains import SkewCochain, cochain_matrix, linear_combination, operator_cochain
from .structures import ConsistencyError, HomLieAlgebra, HomMorphism
from .cohomology import ComplexSpec, is_coboundary
from .brackets import cup_bracket


class MorphismDeformation:
    """Terms phi_0, ..., phi_N of a truncated deformation of phi_0."""

    __slots__ = ("source", "target", "terms")

    def __init__(self, source: HomLieAlgebra, target: HomLieAlgebra, terms: tuple[Mat, ...]):
        if not terms:
            raise ValueError("a deformation needs at least its order-0 term")
        for m in terms:
            if m.nrows != target.dim or m.ncols != source.dim:
                raise ValueError("term shape must be (target dim) x (source dim)")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "terms", terms)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, MorphismDeformation):
            return NotImplemented
        return (self.source == other.source and self.target == other.target
                and self.terms == other.terms)

    @property
    def order(self) -> int:
        return len(self.terms) - 1

    @property
    def base(self) -> HomMorphism:
        return HomMorphism(self.source, self.target, self.terms[0])

    def term_cochain(self, n: int) -> SkewCochain:
        return operator_cochain(self.source.space, self.target.space, self.terms[n])


def deformation_witness(d: MorphismDeformation):
    """First violated deformation equation, or None.

    Order n requires twist equivariance of phi_n and, on basis pairs,
    phi_n([x, y]) = sum over i+j=n of [phi_i(x), phi_j(y)].
    """
    src, tgt = d.source, d.target
    basis = src.space.basis
    for n, m in enumerate(d.terms):
        if tgt.alpha @ m != m @ src.alpha:
            return ("twist equivariance", n, None, None, None)
        for i, j in combinations(range(src.dim), 2):
            lhs = m @ src.table[i][j]
            rhs = Vec.zero(tgt.dim)
            for a in range(n + 1):
                rhs = rhs + tgt.bracket(d.terms[a] @ basis[i], d.terms[n - a] @ basis[j])
            if lhs != rhs:
                return ("order equation", n, (i, j), lhs, rhs)
    return None


def check_order_deformation(d: MorphismDeformation) -> bool:
    return deformation_witness(d) is None


class ObstructionClass(NamedTuple):
    """The extension obstruction of a valid deformation.

    cocycle is -1/2 of the sum of cup brackets [phi_i, phi_j] over i+j = N+1
    with i, j >= 1; the next-order equation reads D_phi(phi_{N+1}) = cocycle.
    """

    cocycle: SkewCochain
    preimage: SkewCochain | None

    @property
    def is_coboundary(self) -> bool:
        return self.preimage is not None


def obstruction(d: MorphismDeformation) -> ObstructionClass:
    """Obstruction 2-cocycle of a valid deformation, with a preimage if one exists."""
    w = deformation_witness(d)
    if w is not None:
        raise ValueError(f"not a valid order-{d.order} deformation: {w[0]} fails at order {w[1]}")
    n_next = d.order + 1
    cocycle = linear_combination(
        d.source.space, d.target.space, 2,
        [(-1, cup_bracket(d.term_cochain(i), d.term_cochain(n_next - i), d.target))
         for i in range(1, n_next)], 2)
    spec = ComplexSpec.morphism(d.base)
    closed = spec.differential(cocycle)
    if not closed.is_zero():
        raise ConsistencyError("obstruction is not closed; the twisted coboundary is inconsistent")
    preimage = is_coboundary(spec, cocycle)
    return ObstructionClass(cocycle, preimage)


def extend(d: MorphismDeformation) -> MorphismDeformation | None:
    """One-order extension of a valid deformation, or None when obstructed.

    The new term solves the next-order equation over the compatible arity-1
    cochains; the extended family is re-validated before being returned, and
    a failure is a ``ConsistencyError``.
    """
    return _extend_with(d, obstruction(d))


def _extend_with(d: MorphismDeformation, ob: ObstructionClass) -> MorphismDeformation | None:
    """``extend`` given the already computed obstruction of d."""
    if ob.preimage is None:
        return None
    new_term = cochain_matrix(ob.preimage)
    extended = MorphismDeformation(d.source, d.target, d.terms + (new_term,))
    w = deformation_witness(extended)
    if w is not None:
        raise ConsistencyError(f"extension failed to re-validate: {w[0]} at order {w[1]}")
    return extended

"""Finite-order deformations of a Hom-Lie algebra morphism.

An order-N deformation is a polynomial family phi_0 + t phi_1 + ... + t^N
phi_N whose truncated morphism equations hold through order N.  The
obstruction to extending it one order further is an explicit 2-cocycle of
the morphism-twisted complex; the deformation extends exactly when that
cocycle is a coboundary, and any preimage serves as the next term.

The order-n equation is ``structures.order_witness``, whose order 0 is
``morphism_witness``.  ``obstruction`` and ``extend`` validate the family
they are given; ``homlie deform extend`` checks its input once, builds the
morphism complex of phi_0 once and checks each new order once.
"""

from __future__ import annotations

from typing import NamedTuple

from .linalg import Mat
from .cochains import SkewCochain, cochain_matrix, linear_combination, operator_cochain
from .structures import ConsistencyError, HomLieAlgebra, HomMorphism, order_witness
from .cohomology import ComplexSpec, is_coboundary
from .brackets import cup_bracket


class MorphismDeformation:
    """Terms phi_0, ..., phi_N of a truncated deformation of phi_0."""

    __slots__ = ("source", "target", "terms")

    def __init__(self, source: HomLieAlgebra, target: HomLieAlgebra, terms: tuple[Mat, ...]):
        terms = tuple(terms)
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
    """First violated deformation equation, or None: ``order_witness`` at each order."""
    for n in range(len(d.terms)):
        w = _witness_at(d, n)
        if w is not None:
            return w
    return None


def _witness_at(d: MorphismDeformation, n: int):
    """``deformation_witness`` at order n alone."""
    w = order_witness(d.source, d.target, d.terms, n)
    if w is None:
        return None
    if w[1] is None:
        return ("twist equivariance", n, None, None, None)
    return ("order equation", n) + w[1:]


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
    return _obstruction(d, ComplexSpec.morphism(d.base), [None])


def extend(d: MorphismDeformation) -> MorphismDeformation | None:
    """One-order extension of a valid deformation, or None when obstructed.

    The new term solves the next-order equation over the compatible arity-1
    cochains; its order equation is checked before the extension is returned,
    and a failure is a ``ConsistencyError``.
    """
    return _extend_with(d, obstruction(d))


def _obstruction(d: MorphismDeformation, spec: ComplexSpec, terms: list) -> ObstructionClass:
    """``obstruction`` of valid d in a complex of its phi_0; extends terms = [None, phi_1, ...]."""
    n_next = d.order + 1
    terms += [d.term_cochain(i) for i in range(len(terms), n_next)]
    cocycle = linear_combination(
        d.source.space, d.target.space, 2,
        [(-1, cup_bracket(terms[i], terms[n_next - i], d.target)) for i in range(1, n_next)], 2)
    if not spec.differential(cocycle).is_zero():
        raise ConsistencyError("obstruction is not closed; the twisted coboundary is inconsistent")
    return ObstructionClass(cocycle, is_coboundary(spec, cocycle))


def _extend_with(d: MorphismDeformation, ob: ObstructionClass) -> MorphismDeformation | None:
    """``extend`` given the obstruction of d; checks the new order alone."""
    if ob.preimage is None:
        return None
    extended = MorphismDeformation(d.source, d.target, d.terms + (cochain_matrix(ob.preimage),))
    w = _witness_at(extended, extended.order)
    if w is not None:
        raise ConsistencyError(f"extension failed to re-validate: {w[0]} at order {w[1]}")
    return extended

"""Coboundary maps on twist-compatible cochains.

All differentials here are given by their defining index formulas; the
bracket-theoretic descriptions (e.g. the adjoint differential as a graded
bracket with the structure cochain) are exercised as cross-checks in the
randomized identity suite rather than used as implementations.
"""

from __future__ import annotations

from dataclasses import dataclass

from .linalg import Vec, _lincomb, rat
from .cochains import SkewCochain, TwistedSpace, contract, evaluate
from .structures import HomLieAlgebra, Representation


@dataclass(frozen=True)
class Degree0Cochain:
    """A twist-fixed module vector, the degree-0 term of a module complex."""

    module: TwistedSpace
    value: Vec

    def is_zero(self) -> bool:
        return self.value.is_zero()


def delta_hom_deg0(rep: Representation, v: Degree0Cochain | Vec) -> SkewCochain:
    """Degree-0 coboundary: (delta v)(x) = x . v."""
    value = v.value if isinstance(v, Degree0Cochain) else v
    domain = rep.algebra.space
    return SkewCochain.from_function(
        domain, rep.module, 1,
        lambda key: rep.act(domain.basis_vec(key[0]), value))


def delta_hom(rep: Representation, f: SkewCochain) -> SkewCochain:
    """Module-coefficient coboundary of an n-cochain.

    (delta f)(x_1, ..., x_{n+1})
        = sum_i (-1)^{i+1} alpha^{n-1}(x_i) . f(..., x_i omitted, ...)
        + sum_{i<j} (-1)^{i+j} f([x_i, x_j], alpha(x_1), ..., twisted args
          with positions i and j omitted).
    """
    alg = rep.algebra
    if f.domain != alg.space or f.codomain != rep.module:
        raise ValueError("cochain does not live on the representation's complex")
    n = f.arity
    space = alg.space
    acting = space.twisted_basis(n - 1)
    values, dim = f.coeffs, rep.module.dim

    def terms(key):
        for pos in range(n + 1):
            value = values.get(key[:pos] + key[pos + 1:])
            if value is not None:
                yield (-1 if pos % 2 else 1), rep.act(acting[key[pos]], value)
        yield from _bracket_terms(alg, f, key)

    return SkewCochain.from_function(space, rep.module, n + 1,
                                     lambda key: _lincomb(terms(key), dim))


def _bracket_terms(alg: HomLieAlgebra, f: SkewCochain, key: tuple[int, ...]):
    """The (sign, value) terms of the bracket sum of the coboundary of f on key.

    sum_{i<j} (-1)^{i+j} f([x_i, x_j], alpha(x_1), ..., twisted args with
    positions i and j omitted), shared by ``delta_hom`` and ``d_trivial``.
    """
    table, twisted = alg.table, alg.space.twisted_basis(1)
    size = len(key)
    for p1 in range(size):
        for p2 in range(p1 + 1, size):
            sign = -1 if (p1 + p2 + 2) % 2 else 1  # positions are 0-based
            head = table[key[p1]][key[p2]]
            rest = [twisted[key[p]] for p in range(size) if p != p1 and p != p2]
            yield sign, evaluate(f, [head] + rest)


def d_trivial(alg: HomLieAlgebra, f: SkewCochain) -> SkewCochain:
    """Trivial-coefficient coboundary, the bracket sum of ``delta_hom`` alone."""
    if f.domain != alg.space:
        raise ValueError("cochain domain does not match the algebra")
    dim = f.codomain.dim
    return SkewCochain.from_function(alg.space, f.codomain, f.arity + 1,
                                     lambda key: _lincomb(_bracket_terms(alg, f, key), dim))


def delta_tr(alg: HomLieAlgebra, f: SkewCochain) -> SkewCochain:
    """Trivial-action coboundary on endomorphism cochains: minus insertion of mu."""
    if f.domain != alg.space or f.codomain != alg.space:
        raise ValueError("expected a cochain in C(g, g)")
    return -contract(alg.mu, f)


def d_lambda(alg: HomLieAlgebra, f: SkewCochain, lam) -> SkewCochain:
    """The weight-scaled trivial coboundary lam * delta_tr."""
    return delta_tr(alg, f).scale(rat(lam))


def d_lambda_tilde(acted: HomLieAlgebra, f: SkewCochain, lam) -> SkewCochain:
    """Weighted trivial coboundary for cochains on another algebra's complex.

    f maps wedges of the acted algebra into an arbitrary twisted space; the
    formula only uses the acted bracket and twist.
    """
    if f.domain != acted.space:
        raise ValueError("cochain domain does not match the acted algebra")
    return d_trivial(acted, f).scale(rat(lam))

"""The graded brackets on twist-compatible cochains.

Four brackets live here, each with its own degree convention:

* insertion bracket ``nr_bracket`` on C(g, g), graded by arity - 1;
* ``cup_bracket`` on C(g, h), graded by arity, pairing cochain outputs
  through the codomain bracket with codomain-twist powers;
* ``fn_bracket`` on C(g, g): the cup bracket corrected by insertions of
  adjoint-coboundary images (arity-1 square-zero elements are Nijenhuis
  operators);
* ``derived_bracket`` on C(g, g): the cup bracket corrected by insertions of
  theta images (with the weighted differential, arity-1 Maurer-Cartan
  elements are Rota-Baxter operators); it is ``derived_bracket_rel`` for the
  adjoint representation.

The pair brackets (semidirect and bicrossed) combine these on direct sums.
Keeping each bracket's own degree bookkeeping localized here is deliberate:
mixing the shifted and unshifted conventions is the main sign hazard in this
calculus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .cochains import SkewCochain, contract, shuffles
from .linalg import _lincomb
from .structures import HomLieAction, HomLieAlgebra, Representation, adjoint_representation
from .differentials import delta_hom


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def nr_bracket(P: SkewCochain, Q: SkewCochain) -> SkewCochain:
    """Insertion bracket i_P Q - (-1)^{(m-1)(n-1)} i_Q P on C(g, g)."""
    if P.domain != Q.domain or P.codomain != Q.codomain or P.domain != P.codomain:
        raise ValueError("both cochains must live in C(g, g) on the same space")
    m, n = P.arity, Q.arity
    return contract(P, Q) - contract(Q, P).scale(_sign((m - 1) * (n - 1)))


def cup_bracket(P: SkewCochain, Q: SkewCochain, codomain_alg: HomLieAlgebra) -> SkewCochain:
    """Shuffle-paired bracket of cochain outputs through the codomain bracket.

    [P, Q](x_1, ..., x_{m+n}) sums over (m, n)-shuffles with sign the
    codomain bracket of beta^{n-1} P(first block) and beta^{m-1} Q(second
    block), beta being the codomain twist.
    """
    if P.domain != Q.domain:
        raise ValueError("cup bracket needs a common domain")
    if P.codomain != Q.codomain or P.codomain != codomain_alg.space:
        raise ValueError("cup bracket needs both cochains valued in the codomain algebra")
    m, n = P.arity, Q.arity
    beta_n = codomain_alg.space.twist_power(n - 1)
    beta_m = codomain_alg.space.twist_power(m - 1)
    table = shuffles(m, n)
    lefts, rights, dim = P.coeffs, Q.coeffs, codomain_alg.dim

    def terms(key):
        for image, sign in table:
            left = lefts.get(tuple([key[p] for p in image[:m]]))
            if left is None:
                continue
            right = rights.get(tuple([key[p] for p in image[m:]]))
            if right is not None:
                yield sign, codomain_alg.bracket(beta_n @ left, beta_m @ right)

    return SkewCochain.from_function(P.domain, P.codomain, m + n,
                                     lambda key: _lincomb(terms(key), dim))


def theta(alg: HomLieAlgebra, f: SkewCochain) -> SkewCochain:
    """Minus the insertion of f into the structure cochain: theta f = -i_f mu."""
    if f.domain != alg.space or f.codomain != alg.space:
        raise ValueError("theta expects a cochain in C(g, g)")
    return -contract(f, alg.mu)


def fn_bracket(alg: HomLieAlgebra, P: SkewCochain, Q: SkewCochain) -> SkewCochain:
    """Cup bracket corrected by insertions of adjoint-coboundary images.

    [P, Q] = [P, Q]_cup + (-1)^m i_{delta P} Q - (-1)^{(m+1) n} i_{delta Q} P
    with delta the adjoint-coefficient coboundary.
    """
    adj = adjoint_representation(alg)
    m, n = P.arity, Q.arity
    return (cup_bracket(P, Q, alg)
            + contract(delta_hom(adj, P), Q).scale(_sign(m))
            - contract(delta_hom(adj, Q), P).scale(_sign((m + 1) * n)))


def derived_bracket(alg: HomLieAlgebra, P: SkewCochain, Q: SkewCochain) -> SkewCochain:
    """Cup bracket corrected by insertions of theta images.

    [P, Q] = [P, Q]_cup + i_{theta P} Q - (-1)^{mn} i_{theta Q} P, computed as
    the relative derived bracket of the adjoint representation (theta~ of the
    adjoint representation is theta).
    """
    return derived_bracket_rel(adjoint_representation(alg), P, Q)


def theta_tilde(rep: Representation | HomLieAction, P: SkewCochain) -> SkewCochain:
    """Action analogue of theta for cochains valued in the acting algebra.

    For P with arguments in the module and values in the algebra,
    (theta~ P)(h_1, ..., h_{n+1}) = sum_i (-1)^{n+i} P(..., h_i omitted, ...)
    acted on beta^{n-1}(h_i).
    """
    if isinstance(rep, HomLieAction):
        rep = rep.rep
    module = rep.module
    if P.domain != module or P.codomain != rep.algebra.space:
        raise ValueError("expected a cochain from the module into the acting algebra")
    n = P.arity
    twisted = module.twisted_basis(n - 1)
    heads = P.coeffs

    def terms(key):
        for pos in range(n + 1):
            head = heads.get(key[:pos] + key[pos + 1:])
            if head is not None:
                sign = _sign(n + pos + 1)  # (-1)^{n+i} with i = pos + 1
                yield sign, rep.act(head, twisted[key[pos]])

    return SkewCochain.from_function(module, module, n + 1,
                                     lambda key: _lincomb(terms(key), module.dim))


def derived_bracket_rel(action: Representation | HomLieAction, P: SkewCochain,
                        Q: SkewCochain) -> SkewCochain:
    """Derived bracket on module-to-algebra cochains.

    [P, Q] = [P, Q]_cup (in the acting algebra) + i~_{theta~ P} Q
    - (-1)^{mn} i~_{theta~ Q} P.  Only the representation structure is used,
    never the acted bracket.
    """
    rep = action.rep if isinstance(action, HomLieAction) else action
    g = rep.algebra
    m, n = P.arity, Q.arity
    return (cup_bracket(P, Q, g)
            + contract(theta_tilde(rep, P), Q)
            - contract(theta_tilde(rep, Q), P).scale(_sign(m * n)))


@dataclass(frozen=True)
class GradedPair:
    """Degree-m element (P, E) of a direct sum: arity m+1 upper, arity m lower."""

    upper: SkewCochain
    lower: SkewCochain

    def __post_init__(self):
        if self.upper.arity != self.lower.arity + 1:
            raise ValueError("pair arities must differ by exactly one")

    @property
    def degree(self) -> int:
        return self.lower.arity

    def __add__(self, other: "GradedPair") -> "GradedPair":
        return GradedPair(self.upper + other.upper, self.lower + other.lower)

    def __sub__(self, other: "GradedPair") -> "GradedPair":
        return GradedPair(self.upper - other.upper, self.lower - other.lower)

    def scale(self, c) -> "GradedPair":
        return GradedPair(self.upper.scale(c), self.lower.scale(c))

    def is_zero(self) -> bool:
        return self.upper.is_zero() and self.lower.is_zero()


def semidirect_graded_bracket(cod_alg: HomLieAlgebra, a: GradedPair, b: GradedPair) -> GradedPair:
    """Semidirect bracket from the insertion action on the cup algebra.

    [(P, E), (Q, F)] = ([P, Q]_nr, [E, F]_cup + i_P F - (-1)^{mn} i_Q E).
    """
    m, n = a.degree, b.degree
    upper = nr_bracket(a.upper, b.upper)
    lower = (cup_bracket(a.lower, b.lower, cod_alg)
             + contract(a.upper, b.lower)
             - contract(b.upper, a.lower).scale(_sign(m * n)))
    return GradedPair(upper, lower)


def bicrossed_bracket(alg: HomLieAlgebra, a: GradedPair, b: GradedPair) -> GradedPair:
    """Matched-pair bracket of the insertion and corrected-cup algebras.

    [[(P, E), (Q, F)]] = ([P, Q]_nr + [E, Q]_fn - (-1)^{mn} [F, P]_fn,
                          [E, F]_fn + i_P F - (-1)^{mn} i_Q E).
    """
    m, n = a.degree, b.degree
    upper = (nr_bracket(a.upper, b.upper)
             + fn_bracket(alg, a.lower, b.upper)
             - fn_bracket(alg, b.lower, a.upper).scale(_sign(m * n)))
    lower = (fn_bracket(alg, a.lower, b.lower)
             + contract(a.upper, b.lower)
             - contract(b.upper, a.lower).scale(_sign(m * n)))
    return GradedPair(upper, lower)


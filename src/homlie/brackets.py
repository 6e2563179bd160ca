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

The brackets are sums of insertions (``cochains.contract``) and cup
pairings, the insertions taking coboundary images (``differentials``) or
theta images as their inner cochain.  Insertion, the coboundaries and the cup
pairing run on compiled plans.  The cup plan of (dim, m, n) lists, per
increasing m-tuple left key, the (right key, key, shuffle sign) of the
(m+n)-tuple keys that split into it; it is kept in an ``lru_cache`` like the
shuffle table.  ``cup_bracket`` walks it from the nonzero keys of its left
input, on each input's twisted values as nonzero integer numerators
(``cochains._twisted_numerators``), kept on the cochain per twist power, and
pairs them through the skew bracket table read off the numerators of the
structure cochain (``cochains._skew_table``), kept on the algebra.

Each bracket is one assembly of parts (``cochains._assemble``).  A part is one
summand of the bracket formula, an insertion (``_contract_part``) or a cup
pairing (``_cup_part``) with its sign applied: one denominator and, per output
key, the integer (c, numerator tuple) terms of the plan sum, with no ``Vec``.
The assembler puts all parts over the lcm of their denominators, sums each
output key once and reduces the result with one gcd, so no summand is built
as a cochain of its own: ``nr_bracket`` has 2 parts,
``fn_bracket``, ``derived_bracket_rel`` and the semidirect lower component 3,
and the bicrossed components 8 (upper) and 5 (lower).  A self-bracket [P, P]
builds delta P or theta~ P once and sums its two insertions in one part,
dropped if their signs cancel (``_insertion_parts``): 0 ``nr_bracket`` parts
and 2 ``fn_bracket`` and ``derived_bracket_rel`` parts in odd arity, 1 each in
even.  The coboundary images come from ``delta_hom``, which keeps them on
their cochain, so a cochain met again in another bracket is not
differentiated again.  ``theta_tilde`` is one action part
(``cochains._action_part``, as in the coboundary) on the acted basis table
e_a . beta^k(e_i) as integer numerators, kept on the representation per
power; its image is kept on its cochain, weakly keyed by the representation
as ``delta_hom`` keeps its own.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from weakref import ref

from .cochains import (SkewCochain, _action_part, _assemble, _contract_part, _kept,
                       _numerator_table, _twisted_numerators, contract, shuffles)
from .structures import HomLieAlgebra, Representation, _skew_numerators, adjoint_representation
from .differentials import delta_hom


def _sign(exponent: int) -> int:
    return -1 if exponent % 2 else 1


def nr_bracket(P: SkewCochain, Q: SkewCochain) -> SkewCochain:
    """Insertion bracket i_P Q - (-1)^{(m-1)(n-1)} i_Q P on C(g, g)."""
    return _assemble(P.domain, P.codomain, P.arity + Q.arity - 1, _nr_parts(P, Q))


def _nr_parts(P: SkewCochain, Q: SkewCochain, sign: int = 1) -> list:
    """sign * [P, Q]_nr as its insertion parts for ``_assemble``."""
    if ((P.domain is not Q.domain and P.domain != Q.domain)
            or (P.codomain is not Q.codomain and P.codomain != Q.codomain)
            or (P.domain is not P.codomain and P.domain != P.codomain)):
        raise ValueError("both cochains must live in C(g, g) on the same space")
    m, n = P.arity, Q.arity
    return _insertion_parts(lambda f: f, P, Q, sign, -sign * _sign((m - 1) * (n - 1)))


def _insertion_parts(inner, P: SkewCochain, Q: SkewCochain, p_sign: int, q_sign: int) -> list:
    """p_sign * i_{inner(P)} Q + q_sign * i_{inner(Q)} P as parts for ``_assemble``.

    For Q is P: one inner(P), one part of coefficient p_sign + q_sign, or none if that is 0.
    """
    if P is Q:
        image = inner(P)
        return [_contract_part(image, P, p_sign + q_sign)] if p_sign + q_sign else []
    return [_contract_part(inner(P), Q, p_sign), _contract_part(inner(Q), P, q_sign)]


def cup_bracket(P: SkewCochain, Q: SkewCochain, codomain_alg: HomLieAlgebra) -> SkewCochain:
    """Shuffle-paired bracket of cochain outputs through the codomain bracket.

    [P, Q](x_1, ..., x_{m+n}) sums over (m, n)-shuffles with sign the
    codomain bracket of beta^{n-1} P(first block) and beta^{m-1} Q(second
    block), beta being the codomain twist.
    """
    return _assemble(P.domain, P.codomain, P.arity + Q.arity, [_cup_part(P, Q, codomain_alg)])


def _cup_part(P: SkewCochain, Q: SkewCochain, codomain_alg: HomLieAlgebra,
              sign: int = 1) -> tuple[int, dict]:
    """sign * [P, Q]_cup as a part for ``_assemble``, checking the shapes as ``cup_bracket`` does."""
    m, n = P.arity, Q.arity
    if (P.domain is not Q.domain and P.domain != Q.domain) or min(m, n) < 1:
        raise ValueError("cup bracket needs a common domain and arities >= 1")
    space = codomain_alg.space
    if ((P.codomain is not Q.codomain and P.codomain != Q.codomain)
            or (P.codomain is not space and P.codomain != space)):
        raise ValueError("cup bracket needs both cochains valued in the codomain algebra")
    if m + n > P.domain.dim:  # alternating maps of arity above the dimension vanish
        return 1, {}
    lefts, left_den = _kept(P, "supports", n - 1, _twisted_supports, P, n - 1)
    rights, right_den = _kept(Q, "supports", m - 1, _twisted_supports, Q, m - 1)
    brackets, bracket_den = _skew_numerators(codomain_alg)
    plan = _cup_plan(P.domain.dim, m, n)
    part: dict[tuple[int, ...], list[tuple[int, tuple[int, ...]]]] = {}
    for left_key, left in lefts.items():
        for right_key, key, split_sign in plan[left_key]:
            right = rights.get(right_key)
            if right is not None:
                for i, x in left:
                    row, c = brackets[i], sign * split_sign * x
                    if terms := [(c * y, row[j]) for j, y in right if j in row]:
                        part.setdefault(key, []).extend(terms)
    return left_den * right_den * bracket_den, part


def _twisted_supports(f: SkewCochain, power: int) -> tuple[dict, int]:
    """The values beta^power f(e_key) as nonzero (coordinate, numerator) lists.

    beta is f's codomain twist; the numerators are over one denominator, returned with them.
    """
    values, den = _twisted_numerators(f, power)
    return {key: [(i, x) for i, x in enumerate(num) if x] for key, num in values.items()}, den


@lru_cache(maxsize=None)
def _cup_plan(dim: int, m: int, n: int) -> dict:
    """plan[left] lists (right, key, sign) per increasing m-tuple left of range(dim).

    The (m, n)-shuffle of signature sign splits the (m+n)-tuple key into left, then right.
    In an ``lru_cache``, not ``_kept``: integers alone key it, no object owns it.
    """
    table = shuffles(m, n)
    plan = {left: [] for left in combinations(range(dim), m)}
    for key in combinations(range(dim), m + n):
        for image, sign in table:
            plan[tuple([key[p] for p in image[:m]])].append(
                (tuple([key[p] for p in image[m:]]), key, sign))
    return {left: tuple(splits) for left, splits in plan.items()}


def theta(alg: HomLieAlgebra, f: SkewCochain) -> SkewCochain:
    """Minus the insertion of f into the structure cochain: theta f = -i_f mu."""
    if ((f.domain is not alg.space and f.domain != alg.space)
            or (f.codomain is not alg.space and f.codomain != alg.space)):
        raise ValueError("theta expects a cochain in C(g, g)")
    return -contract(f, alg.mu)


def fn_bracket(alg: HomLieAlgebra, P: SkewCochain, Q: SkewCochain) -> SkewCochain:
    """Cup bracket corrected by insertions of adjoint-coboundary images.

    [P, Q] = [P, Q]_cup + (-1)^m i_{delta P} Q - (-1)^{(m+1) n} i_{delta Q} P
    with delta the adjoint-coefficient coboundary.
    """
    return _assemble(P.domain, P.codomain, P.arity + Q.arity, _fn_parts(alg, P, Q))


def _fn_parts(alg: HomLieAlgebra, P: SkewCochain, Q: SkewCochain, sign: int = 1) -> list:
    """sign * [P, Q]_fn as its cup part and insertion parts for ``_assemble``."""
    adj = adjoint_representation(alg)
    m, n = P.arity, Q.arity
    return [_cup_part(P, Q, alg, sign)] + _insertion_parts(
        lambda f: delta_hom(adj, f), P, Q, sign * _sign(m), -sign * _sign((m + 1) * n))


def derived_bracket(alg: HomLieAlgebra, P: SkewCochain, Q: SkewCochain) -> SkewCochain:
    """Cup bracket corrected by insertions of theta images.

    [P, Q] = [P, Q]_cup + i_{theta P} Q - (-1)^{mn} i_{theta Q} P, assembled
    from the parts of the relative derived bracket of the adjoint
    representation (theta~ of the adjoint representation is theta).
    """
    return _assemble(P.domain, P.codomain, P.arity + Q.arity,
                     _derived_parts(adjoint_representation(alg), P, Q))


def theta_tilde(rep: Representation, P: SkewCochain) -> SkewCochain:
    """Action analogue of theta for cochains valued in the acting algebra.

    For P with arguments in the module and values in the algebra,
    (theta~ P)(h_1, ..., h_{n+1}) = sum_i (-1)^{n+i} P(..., h_i omitted, ...)
    acted on beta^{n-1}(h_i).  Reads the acted basis table of ``_module_action``.
    """
    def build():
        module, space = rep.module, rep.algebra.space
        if ((P.domain is not module and P.domain != module)
                or (P.codomain is not space and P.codomain != space) or P.arity < 1):
            raise ValueError("expected a cochain of arity >= 1 from the module to the algebra")
        n = P.arity
        if n + 1 > module.dim:
            return SkewCochain.zero(module, module, n + 1)
        # (-1)^{n+i} with i = pos + 1 is (-1)^{n+1} times the part's (-1)^pos
        return _assemble(module, module, n + 1,
                         [_action_part(P, _module_action(rep, n - 1), _sign(n + 1))])

    return _kept(P, "theta_tilde", ref(rep), build)


def _module_action(rep: Representation, k: int) -> tuple[tuple, int]:
    """(rows, den), rows[i][a] / den being e_a . beta^k(e_i) where nonzero, kept on rep per k."""
    return _kept(rep, "module_action", k, lambda: _numerator_table(
        tuple(rep.act(x, v) for x in rep.algebra.space.basis) for v in rep.module.twisted_basis(k)))


def derived_bracket_rel(rep: Representation, P: SkewCochain, Q: SkewCochain) -> SkewCochain:
    """Derived bracket on module-to-algebra cochains.

    [P, Q] = [P, Q]_cup (in the acting algebra) + i~_{theta~ P} Q
    - (-1)^{mn} i~_{theta~ Q} P.  Only the representation structure is used,
    never the acted bracket.
    """
    return _assemble(P.domain, P.codomain, P.arity + Q.arity, _derived_parts(rep, P, Q))


def _derived_parts(rep: Representation, P: SkewCochain, Q: SkewCochain) -> list:
    """[P, Q]_derived as its cup part and insertion parts for ``_assemble``."""
    return [_cup_part(P, Q, rep.algebra)] + _insertion_parts(
        lambda f: theta_tilde(rep, f), P, Q, 1, -_sign(P.arity * Q.arity))


class GradedPair:
    """Degree-m element (P, E) of a direct sum: arity m+1 upper, arity m lower."""

    __slots__ = ("upper", "lower")

    def __init__(self, upper: SkewCochain, lower: SkewCochain):
        if upper.arity != lower.arity + 1:
            raise ValueError("pair arities must differ by exactly one")
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "lower", lower)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, GradedPair):
            return NotImplemented
        return self.upper == other.upper and self.lower == other.lower

    @property
    def degree(self) -> int:
        return self.lower.arity

    def __add__(self, other: "GradedPair") -> "GradedPair":
        return GradedPair(self.upper + other.upper, self.lower + other.lower)

    def scale(self, c) -> "GradedPair":
        return GradedPair(self.upper.scale(c), self.lower.scale(c))


def semidirect_graded_bracket(cod_alg: HomLieAlgebra, a: GradedPair, b: GradedPair) -> GradedPair:
    """Semidirect bracket from the insertion action on the cup algebra.

    [(P, E), (Q, F)] = ([P, Q]_nr, [E, F]_cup + i_P F - (-1)^{mn} i_Q E).
    """
    m, n = a.degree, b.degree
    upper = nr_bracket(a.upper, b.upper)
    lower = _assemble(a.lower.domain, a.lower.codomain, m + n,
                      [_cup_part(a.lower, b.lower, cod_alg),
                       _contract_part(a.upper, b.lower),
                       _contract_part(b.upper, a.lower, -_sign(m * n))])
    return GradedPair(upper, lower)


def bicrossed_bracket(alg: HomLieAlgebra, a: GradedPair, b: GradedPair) -> GradedPair:
    """Matched-pair bracket of the insertion and corrected-cup algebras.

    [[(P, E), (Q, F)]] = ([P, Q]_nr + [E, Q]_fn - (-1)^{mn} [F, P]_fn,
                          [E, F]_fn + i_P F - (-1)^{mn} i_Q E).
    Each component is one assembly: 8 parts in the upper, 5 in the lower.
    """
    m, n = a.degree, b.degree
    sign = _sign(m * n)
    upper = _assemble(a.upper.domain, a.upper.codomain, m + n + 1,
                      _nr_parts(a.upper, b.upper) + _fn_parts(alg, a.lower, b.upper)
                      + _fn_parts(alg, b.lower, a.upper, -sign))
    lower = _assemble(a.lower.domain, a.lower.codomain, m + n,
                      _fn_parts(alg, a.lower, b.lower)
                      + [_contract_part(a.upper, b.lower), _contract_part(b.upper, a.lower, -sign)])
    return GradedPair(upper, lower)

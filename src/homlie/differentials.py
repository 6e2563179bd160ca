"""Coboundary maps on twist-compatible cochains.

All differentials here are given by their defining index formulas; the
bracket-theoretic descriptions (e.g. the adjoint differential as a graded
bracket with the structure cochain) are exercised as cross-checks in the
randomized identity suite rather than used as implementations.  One formula
serves every degree n >= 0; at n = 0 its bracket sum is empty and its action
sum is (delta v)(x) = x . v.

The coboundary is two parts summed once by ``cochains._assemble``, each read
off a table kept on the object its data comes from, and neither carries a
``Vec``: its terms are integer numerator tuples.  The bracket part reads
the bracket plan of an arity, kept on the structure: per cochain key the
entries (output key, integer coefficient) of the bracket sum, with the signs
(-1)^{i+j}, the structure constants, the wedge of alpha (``cochains._wedge``)
on the other arguments and the sort signs multiplied out over one plan
denominator; it walks them from the cochain's nonzero keys and pairs them
with their numerators.  The action part is ``cochains._action_part``, which
walks the action plan of the arity, on the action columns of a twist power,
integer numerators over one denominator kept on the ``Representation``:
alpha^k(e_x) . e_v.
``d_trivial`` has no action part, nor has a representation whose table is
all zero.  ``_coboundary`` hands the parts out, scaled by a rational, so
that ``mc_residual`` sums 2 lam d(s) and [s, s] in one assembly, over 2.

``delta_hom`` computes a cochain's coboundary once per representation and
keeps it on the cochain (``cochains._kept``): the brackets, the identities and
the coboundary matrices meet the same cochains again, a space's compatibility
basis above all.  Cochains are immutable, so the kept image stays valid.  The
key is the ``Representation`` object, held weakly: the representations on one
space share its basis cochains, and a basis cochain lives as long as its
space, so it must not keep alive the short-lived ones (a morphism's, a trivial
or an induced one) whose coboundary was taken on it.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import combinations
from weakref import ref

from .linalg import rat
from .cochains import (SkewCochain, _action_part, _assemble, _kept, _numerator_table, _prepend,
                       _wedge, contract)
from .structures import HomLieAlgebra, Representation


def delta_hom(rep: Representation, f: SkewCochain) -> SkewCochain:
    """Module-coefficient coboundary of an n-cochain, n >= 0.

    (delta f)(x_1, ..., x_{n+1})
        = sum_i (-1)^{i+1} alpha^{n-1}(x_i) . f(..., x_i omitted, ...)
        + sum_{i<j} (-1)^{i+j} f([x_i, x_j], alpha(x_1), ..., twisted args
          with positions i and j omitted).

    Computed once per (rep, f): the result is kept on f, weakly keyed by the
    representation object, so a short-lived representation is not kept alive
    by a basis cochain of a long-lived space.
    """
    def build():
        space, module = rep.algebra.space, rep.module
        if ((f.domain is not space and f.domain != space)
                or (f.codomain is not module and f.codomain != module)):
            raise ValueError("cochain does not live on the representation's complex")
        return _assemble(space, f.codomain, f.arity + 1,
                         _coboundary(rep.algebra, f, rep))

    return _kept(f, "delta", ref(rep), build)


def _coboundary(alg: HomLieAlgebra, f: SkewCochain, rep: Representation | None, scale=1) -> list:
    """scale (an int or ``Fraction``) times f's coboundary as parts for ``_assemble``.

    The bracket part, plus rep's action part unless rep is None or zero; none for scale 0.
    """
    n = f.arity
    if n + 1 > alg.dim or not scale:  # alternating maps of arity above the dimension vanish
        return []
    plan, den = _bracket_plan(alg, n)
    part = defaultdict(list)
    for k, value in f.num.items():
        for key, c in plan[k]:
            part[key].append((c, value))
    parts = [(den * f.den, part)]
    # Degree 0 reads alpha^0, so (delta v)(x) = x . v.  On the yau-sl2 adjoint
    # complex that makes d1 o d0 != 0, a defect ROADMAP.md keeps open.
    acting = None if rep is None else _action_columns(rep, max(n - 1, 0))
    if acting is not None:
        parts.append(_action_part(f, acting))
    if scale != 1:
        p, q = scale.numerator, scale.denominator
        parts = [(d * q, {key: [(p * c, v) for c, v in terms] for key, terms in part.items()})
                 for d, part in parts]
    return parts


def _action_columns(rep: Representation, k: int) -> tuple[tuple, int] | None:
    """(columns, den), columns[x][v] / den being alpha^k(e_x) . e_v where nonzero, kept on rep.

    One table per power k; None for the zero action.
    """
    def build():
        if all(v.is_zero() for row in rep.table for v in row):
            return None
        return _numerator_table(tuple(rep.act(x, v) for v in rep.module.basis)
                                for x in rep.algebra.space.twisted_basis(k))

    return _kept(rep, "action_columns", k, build)


def _bracket_plan(alg: HomLieAlgebra, n: int) -> tuple[dict, int]:
    """The compiled bracket sum of the coboundary of an n-cochain, kept on alg.

    Returns (plan, den).  plan[k] lists, per increasing n-tuple k, the entries
    (key, c) such that the bracket sum on the increasing (n+1)-tuple key,
    sum_{i<j} (-1)^{i+j} f([x_i, x_j], alpha(x_1), ..., twisted args with
    positions i and j omitted), has the term c * f(e_k) / den.
    """
    def build():
        wedge, wedge_den = _wedge(alg.space, 1, max(n - 1, 0))  # n = 0: no pairs, no entries
        brackets, bracket_den = alg.mu.num, alg.mu.den
        plan = {k: [] for k in combinations(range(alg.dim), n)}
        for key in combinations(range(alg.dim), n + 1):
            entries: dict[tuple[int, ...], int] = {}
            for p1, p2 in combinations(range(n + 1), 2):
                head = brackets.get((key[p1], key[p2]))
                if head is None:
                    continue
                sign = -1 if (p1 + p2) % 2 else 1  # (-1)^{i+j} with i = p1 + 1, j = p2 + 1
                rest = tuple([key[p] for p in range(n + 1) if p != p1 and p != p2])
                for _, k, c in _prepend([(a, x) for a, x in enumerate(head) if x], wedge[rest]):
                    entries[k] = entries.get(k, 0) + sign * c
            for k, c in entries.items():
                if c:
                    plan[k].append((key, c))
        return {k: tuple(outs) for k, outs in plan.items()}, bracket_den * wedge_den

    return _kept(alg, "bracket_plan", n, build)


def d_trivial(alg: HomLieAlgebra, f: SkewCochain) -> SkewCochain:
    """Trivial-coefficient coboundary: the loop of ``delta_hom`` with no action."""
    if f.domain is not alg.space and f.domain != alg.space:
        raise ValueError("cochain domain does not match the algebra")
    return _assemble(alg.space, f.codomain, f.arity + 1, _coboundary(alg, f, None))


def delta_tr(alg: HomLieAlgebra, f: SkewCochain) -> SkewCochain:
    """Trivial-action coboundary on endomorphism cochains: minus insertion of mu."""
    if ((f.domain is not alg.space and f.domain != alg.space)
            or (f.codomain is not alg.space and f.codomain != alg.space)):
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
    return d_trivial(acted, f).scale(rat(lam))

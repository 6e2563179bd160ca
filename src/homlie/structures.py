"""Hom-Lie algebras, representations, actions, morphisms and fixtures.

A Hom-Lie algebra is a twisted space with a skew bracket mu satisfying the
twisted Jacobi identity

    [alpha(x), [y, z]] + [alpha(y), [z, x]] + [alpha(z), [x, y]] = 0

and, throughout this package, multiplicativity alpha[x, y] = [alpha x, alpha y]
(the bracket calculus in the other modules is only valid for multiplicative
structures).  ``RawHomStructure`` carries the same data with no invariants so
that candidate and known non-multiplicative structures can be loaded and
diagnosed.

Basis brackets come from tables read off the bracket cochain on first use: ``table``
([e_i, e_j] as ``Vec``) serves ``bracket`` and the adjoint representation, and the
kept integer skew table the kernel and the checks below.  ``cochains.evaluate`` on
the bracket cochain stays the independent route, the tests' oracle for the tables.

An action is a ``Representation`` that also keeps the acted algebra, so it
goes wherever a representation does.  Each algebra has one adjoint object,
``adjoint_action(alg)``, which ``adjoint_representation`` also returns.

The pointwise identities of maps read one integer kernel, ``_column_brackets``:
table(A e_x, B e_y) on basis pairs, A and B integer matrices, on an algebra's
kept skew table or an action's numerators.  ``order_witness`` (``check_morphism``)
compares its integer residual rows and builds ``Vec`` for the first failing pair.
The structure checks read integer tables too: Jacobi the kept skew table,
multiplicativity the wedge table, the representation axioms the action numerators,
all with the twists' columns; each builds ``Vec`` for its first failure alone.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import combinations
from math import lcm
from operator import mul

from .linalg import Mat, Vec, _lincomb, _vec, _vec_reduced, rat
from .cochains import (SkewCochain, TwistedSpace, _kept, _numerator_table, _reduced, _row_sum,
                       _skew_table, compatibility_failures, compatibility_witness)


class ConsistencyError(RuntimeError):
    """Divergence between dual implementations of the same criterion, or a failed re-validation."""


class RawHomStructure:
    """Twisted space plus skew 2-cochain; no structural invariants enforced."""

    def __init__(self, space: TwistedSpace, mu: SkewCochain):
        if (mu.arity != 2 or (mu.domain is not space and mu.domain != space)
                or (mu.codomain is not space and mu.codomain != space)):
            raise ValueError("structure bracket must be a 2-cochain on the space itself")
        self.space = space
        self.mu = mu

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def alpha(self) -> Mat:
        return self.space.alpha

    @cached_property
    def table(self) -> tuple[tuple[Vec, ...], ...]:
        """Basis brackets: table[i][j] = [e_i, e_j], skew with a zero diagonal.

        A ``cached_property``, not ``_kept``: inner loops read it, so a call per read costs time.
        """
        coeffs, dim = self.mu.coeffs, self.dim
        zero = Vec.zero(dim)
        rows = [[zero] * dim for _ in range(dim)]
        for (i, j), value in coeffs.items():
            rows[i][j], rows[j][i] = value, -value
        return tuple(map(tuple, rows))

    def bracket(self, x: Vec, y: Vec) -> Vec:
        return _bilinear(self.table, x, y, self.dim)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class HomLieAlgebra(RawHomStructure):
    """Multiplicative Hom-Lie algebra; both invariants verified at construction."""

    def __init__(self, space: TwistedSpace, mu: SkewCochain):
        super().__init__(space, mu)
        witness = multiplicativity_witness(self)
        if witness is not None:
            key, lhs, rhs = witness
            raise ValueError(f"bracket is not multiplicative at basis pair {key}: {lhs} vs {rhs}")
        witness = hom_jacobi_witness(self)
        if witness is not None:
            key, value = witness
            raise ValueError(f"twisted Jacobi identity fails at basis triple {key}: {value}")

    def __eq__(self, other) -> bool:
        return (isinstance(other, HomLieAlgebra) and self.space == other.space
                and self.mu == other.mu)

    __hash__ = None


def as_hom_lie(raw: RawHomStructure) -> HomLieAlgebra:
    """Promote a raw structure, re-running both invariant checks."""
    if isinstance(raw, HomLieAlgebra):
        return raw
    return HomLieAlgebra(raw.space, raw.mu)


def hom_jacobi_witness(s: RawHomStructure) -> tuple[tuple[int, int, int], Vec] | None:
    """First increasing basis triple where the twisted cyclic sum is nonzero.

    The cyclic sum is alternating and trilinear, so vanishing on increasing
    triples is equivalent to vanishing everywhere.  From each nonzero [e_y, e_z], every
    [alpha e_x, [e_y, e_z]] goes to its sorted triple as terms on the kept skew table and
    alpha's sparse columns; a triple is one ``_row_sum``, and ``Vec`` is built for the
    witness alone.  This direct evaluation is the independent oracle for the Maurer-Cartan
    characterization of the bracket inside the graded bracket machinery.
    """
    (rows, den), cols, sums = _skew_numerators(s), _supports(s.alpha.num), {}
    for (y, z), inner in _sparse(s.mu.num).items():
        for x, col in enumerate(cols):
            if col and x != y and x != z:
                key, c = ((x, y, z), 1) if x < y else ((y, x, z), -1) if x < z else ((y, z, x), 1)
                if terms := [(c * a * b, w) for q, b in inner for p, a in col if (w := rows[p].get(q))]:
                    sums.setdefault(key, []).extend(terms)
    for key in sorted(sums):
        if any(total := _row_sum(sums[key], s.dim)):
            return key, _vec_reduced(tuple(total), s.alpha.den * den * den)
    return None


def check_hom_jacobi(s: RawHomStructure) -> bool:
    return hom_jacobi_witness(s) is None


def multiplicativity_witness(s: RawHomStructure) -> tuple[tuple[int, ...], Vec, Vec] | None:
    """First basis pair with alpha[x, y] != [alpha x, alpha y], with both sides."""
    return compatibility_witness(s.mu)


def check_multiplicative(s: RawHomStructure) -> bool:
    return multiplicativity_witness(s) is None


def multiplicativity_failures(s: RawHomStructure) -> list[tuple[tuple[int, int], Vec, Vec]]:
    """Every basis pair where multiplicativity fails, with both sides."""
    return compatibility_failures(s.mu)


def _bilinear(table, x: Vec, y: Vec, dim: int) -> Vec:
    """Bilinear extension of basis values table[i][j] (vectors of length dim)."""
    xs = [(i, a) for i, a in enumerate(x.num) if a]
    ys = xs and [(j, b) for j, b in enumerate(y.num) if b]
    if len(xs) == len(ys) == 1:  # one table entry, scaled
        (i, a), (j, b) = xs[0], ys[0]
        v, c, den = table[i][j], a * b, x.den * y.den
        return v if c == den == 1 else _vec_reduced(tuple([c * t for t in v.num]), v.den * den)
    if not ys:  # a zero argument
        return _vec((0,) * dim, 1)
    return _lincomb(((a * b, table[i][j]) for i, a in xs for j, b in ys), dim, x.den * y.den)


class Representation:
    """A twisted module (V, act, beta) for a Hom-Lie algebra."""

    def __init__(self, algebra: HomLieAlgebra, module: TwistedSpace,
                 table: tuple[tuple[Vec, ...], ...]):
        if len(table) != algebra.dim or any(len(row) != module.dim for row in table):
            raise ValueError("action table shape must be (algebra dim) x (module dim)")
        for row in table:
            for v in row:
                if v.dim != module.dim:
                    raise ValueError("action values must live in the module")
        if not (isinstance(table, tuple) and all(isinstance(row, tuple) for row in table)):
            table = tuple(tuple(row) for row in table)
        self.algebra = algebra
        self.module = module
        self.table = table

    def act(self, x: Vec, v: Vec) -> Vec:
        """Bilinear extension of the basis action table."""
        return _bilinear(self.table, x, v, self.module.dim)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(algebra dim={self.algebra.dim}, module dim={self.module.dim})"


def representation_witness(rep: Representation):
    """First failing representation axiom, or None.

    Checks beta(x . v) = alpha(x) . beta(v) on basis pairs and
    [x, y] . beta(v) = alpha(x) . (y . v) - alpha(y) . (x . v) on basis triples
    with x before y (the law is skew in x and y).  Each check is one ``_row_sum`` on
    the action's integer numerators, the sparse twist columns and the algebra's
    bracket numerators; ``Representation.act`` builds the sides for the witness alone.
    """
    alg, mod, table, dim = rep.algebra, rep.module, rep.table, rep.module.dim
    (acts, aden), alpha, beta = _numerator_table(table), alg.alpha, mod.alpha
    gcols, vcols, bcols = _supports(alpha.num), _supports(beta.num), list(zip(*beta.num))
    values, brackets, up = [_sparse(row) for row in acts], _sparse(alg.mu.num), alg.mu.den * beta.den

    def act(c, xs, vs):  # c x . v on the sparse numerators of x and v
        return [(c * a * b, w) for p, a in xs for q, b in vs if (w := acts[p].get(q))]

    for i in range(alg.dim):
        for j in range(dim):
            terms = [(alpha.den * y, bcols[r]) for r, y in values[i].get(j, ())]
            if (terms := terms + act(-1, gcols[i], vcols[j])) and any(_row_sum(terms, dim)):
                return ("twist equivariance", (i, j), beta @ table[i][j],
                        rep.act(alg.space.twisted_basis(1)[i], mod.twisted_basis(1)[j]))
    for i, j in combinations(range(alg.dim), 2):
        for k in range(dim):
            law = (act(alpha.den * aden, brackets.get((i, j), ()), vcols[k])
                   + act(-up, gcols[i], values[j].get(k, ()))
                   + act(up, gcols[j], values[i].get(k, ())))
            if law and any(_row_sum(law, dim)):
                gtwisted, vtwisted = alg.space.twisted_basis(1), mod.twisted_basis(1)
                return ("bracket compatibility", (i, j, k), rep.act(alg.table[i][j], vtwisted[k]),
                        rep.act(gtwisted[i], table[j][k]) - rep.act(gtwisted[j], table[i][k]))
    return None


def check_representation(rep: Representation) -> bool:
    return representation_witness(rep) is None


class HomLieAction(Representation):
    """An action of one Hom-Lie algebra on another.

    A representation on the acted algebra's space whose map is additionally a
    twisted derivation of the acted bracket:
    alpha(x) . [h, k] = [x . h, beta(k)] + [beta(h), x . k].
    """

    def __init__(self, acting: HomLieAlgebra, acted: HomLieAlgebra,
                 table: tuple[tuple[Vec, ...], ...]):
        super().__init__(acting, acted.space, table)
        self.acting = acting
        self.acted = acted


def action_witness(a: HomLieAction):
    """First failing action axiom (representation axioms plus derivation law)."""
    w = representation_witness(a)
    if w is not None:
        return w
    acting, acted = a.acting, a.acted
    gtwisted = acting.space.twisted_basis(1)
    htwisted = acted.space.twisted_basis(1)
    for i in range(acting.dim):
        for j, k in combinations(range(acted.dim), 2):
            lhs = a.act(gtwisted[i], acted.table[j][k])
            rhs = (acted.bracket(a.table[i][j], htwisted[k])
                   + acted.bracket(htwisted[j], a.table[i][k]))
            if lhs != rhs:
                return ("derivation law", (i, j, k), lhs, rhs)
    return None


def check_action(a: HomLieAction) -> bool:
    return action_witness(a) is None


def adjoint_action(alg: HomLieAlgebra) -> HomLieAction:
    """The algebra acting on itself by its own bracket; one instance per algebra."""
    return _kept(alg, "adjoint", None, HomLieAction, alg, alg, alg.table)


def adjoint_representation(alg: HomLieAlgebra) -> Representation:
    """The adjoint representation: the same object as ``adjoint_action(alg)``."""
    return adjoint_action(alg)


def trivial_representation(alg: HomLieAlgebra, module: TwistedSpace) -> Representation:
    zero_row = tuple(Vec.zero(module.dim) for _ in range(module.dim))
    return Representation(alg, module, tuple(zero_row for _ in range(alg.dim)))


class HomMorphism:
    """A linear map between Hom-Lie algebras, candidate for a morphism."""

    def __init__(self, source: HomLieAlgebra, target: HomLieAlgebra, mat: Mat):
        if mat.nrows != target.dim or mat.ncols != source.dim:
            raise ValueError("morphism matrix shape must be (target dim) x (source dim)")
        self.source = source
        self.target = target
        self.mat = mat

    def __repr__(self) -> str:
        return f"HomMorphism({self.source.dim} -> {self.target.dim})"


def _skew_numerators(alg: RawHomStructure) -> tuple[tuple[dict, ...], int]:
    """(rows, den) of ``cochains._skew_table`` on alg's bracket, kept on alg."""
    return _kept(alg, "skew table", None, _skew_table, alg.mu)


def _column_brackets(table, As, Bs, pairs, c: int = 1) -> list:
    """The kernel: c table(A e_x, B e_y) for each A of As, B of Bs and pair (x, y) of pairs.

    table is (rows, den), as ``_skew_numerators`` or an action's numerators; As and Bs
    list integer matrices as rows, Bs None standing for the identity, left out of the
    nesting.  A value is the list of (coefficient, numerators) terms for
    ``cochains._row_sum``, over den times the denominators A and B stand for.
    """
    rows, lefts = table[0], [_supports(A) for A in As]
    if Bs is None:
        return [[[(c * a, v) for i, a in left[x] if (v := rows[i].get(y))] if left[x] else []
                 for x, y in pairs] for left in lefts]
    rights = lefts if Bs is As else [_supports(B) for B in Bs]
    return [[[[(c * a * b, v) for i, a in left[x] for j, b in right[y] if (v := rows[i].get(j))]
              if left[x] and right[y] else [] for x, y in pairs] for right in rights]
            for left in lefts]


def _supports(M):
    """The nonzero (row, entry) pairs of each column of M, an integer matrix as rows."""
    return [[(i, a) for i, a in enumerate(col) if a] for col in zip(*M)]


def _sparse(values: dict) -> dict:
    """The nonzero (coordinate, numerator) pairs of each numerator tuple of values, by key."""
    return {key: [(q, b) for q, b in enumerate(v) if b] for key, v in values.items()}


def _times(M, vectors) -> list[list[int]]:
    """M, an integer matrix as rows, times each integer vector, by rows of M on the
    vectors' coordinates: a row with one nonzero entry scales one coordinate."""
    coords, out = list(zip(*vectors)), []
    for row in M if vectors else ():
        support = [j for j, a in enumerate(row) if a]
        out.append([row[support[0]] * x for x in coords[support[0]]] if len(support) == 1
                   else [sum(map(mul, row, v)) for v in vectors] if support else [0] * len(vectors))
    return [list(v) for v in zip(*out)]


def _intertwines(beta: Mat, M: Mat, alpha: Mat) -> bool:
    """Whether beta M = M alpha, on the integer numerators of the two products' columns."""
    left, right = _times(beta.num, list(zip(*M.num))), _times(M.num, list(zip(*alpha.num)))
    return left == right if alpha.den == beta.den else all(
        x * alpha.den == y * beta.den for a, b in zip(left, right) for x, y in zip(a, b))


def _witness(pairs, lhs, lden, rhs, rden):
    """(pair, lhs, rhs) as ``Vec`` at the first nonzero residual row lhs rden - rhs lden."""
    for pair, a, b in zip(pairs, lhs, rhs):
        if a != b if lden == rden else any(x * rden != y * lden for x, y in zip(a, b)):
            return pair, _vec_reduced(tuple(a), lden), _vec_reduced(tuple(b), rden)
    return None


def order_witness(source: HomLieAlgebra, target: HomLieAlgebra, terms, n: int):
    """First failing order-n equation of the family terms[0], ..., terms[n], or None.

    phi_n must intertwine the twists and satisfy phi_n [x, y] = sum over
    a + b = n of [phi_a x, phi_b y] on basis pairs, read on integer rows (the right side
    by the kernel); order 0 is ``morphism_witness``.
    """
    m = terms[n]
    if not _intertwines(target.alpha, m, source.alpha):
        return ("twist intertwining", None, target.alpha @ m, m @ source.alpha)
    pairs, table, mu = list(combinations(range(source.dim), 2)), _skew_numerators(target), source.mu
    nums = [[t.num] for t in terms[:n + 1]]  # one list per term: a square reads its columns once
    dens = [terms[a].den * terms[n - a].den for a in range(n + 1)]
    found = zip(*[_column_brackets(table, nums[a], nums[n - a], pairs, lcm(*dens) // d)[0][0]
                  for a, d in enumerate(dens)])
    witness = _witness(pairs, _times(m.num, [mu.num.get(p, (0,) * source.dim) for p in pairs]),
                       m.den * mu.den, [_row_sum(sum(terms, []), target.dim) for terms in found],
                       lcm(*dens) * table[1])
    return witness and ("bracket preservation", *witness)


def morphism_witness(phi: HomMorphism):
    """First failing morphism identity: twist intertwining or bracket preservation."""
    return order_witness(phi.source, phi.target, (phi.mat,), 0)


def check_morphism(phi: HomMorphism) -> bool:
    return morphism_witness(phi) is None


def morphism_representation(phi: HomMorphism) -> Representation:
    """x . y = [phi(x), y], after checking phi; its coboundary is D_phi = d + [phi, .]_cup."""
    if not check_morphism(phi):
        raise ValueError("twisting map is not a morphism")
    tgt, m = phi.target, phi.mat
    return Representation(phi.source, tgt.space, tuple(
        tuple(tgt.bracket(m.col(j), e) for e in tgt.space.basis) for j in range(m.ncols)))


def yau_twist(lie_mu: SkewCochain, a: Mat) -> HomLieAlgebra:
    """Twist a Lie bracket by one of its endomorphisms: (g, a o [ , ], a).

    lie_mu must satisfy the untwisted Jacobi identity and a must preserve the
    bracket; both are checked and violations are rejected.
    """
    dim = lie_mu.domain.dim
    plain = TwistedSpace.untwisted(dim)
    base = RawHomStructure(plain, SkewCochain(plain, plain, 2, dict(lie_mu.coeffs)))
    w = hom_jacobi_witness(base)
    if w is not None:
        raise ValueError(f"input bracket fails the Jacobi identity at {w[0]}")
    space = TwistedSpace(a)
    w = compatibility_witness(SkewCochain(space, space, 2, lie_mu.coeffs))
    if w is not None:
        raise ValueError(f"twisting map is not a bracket homomorphism at pair {w[0]}")
    twisted = SkewCochain(space, space, 2, {k: a @ v for k, v in lie_mu.coeffs.items()})
    return HomLieAlgebra(space, twisted)


def commutator_hom_lie(product: tuple[tuple[Vec, ...], ...], a: Mat) -> RawHomStructure:
    """Commutator bracket x*y - y*x of a twisted associative product.

    product[i][j] is the basis product e_i * e_j.  The twisted associativity
    law alpha(x)*(y*z) = (x*y)*alpha(z) is checked on all basis triples.
    """
    dim = len(product)
    if a.nrows != dim or any(len(row) != dim for row in product):
        raise ValueError("product table must be square and match the twist size")

    def mul(x: Vec, y: Vec) -> Vec:
        return _bilinear(product, x, y, dim)

    space = TwistedSpace(a)
    basis, twisted = space.basis, space.twisted_basis(1)
    for i in range(dim):
        for j in range(dim):
            for k in range(dim):
                lhs = mul(twisted[i], mul(basis[j], basis[k]))
                rhs = mul(mul(basis[i], basis[j]), twisted[k])
                if lhs != rhs:
                    raise ValueError(f"product is not twisted-associative at triple ({i}, {j}, {k})")
    mu = SkewCochain.from_function(space, space, 2,
                                   lambda key: mul(basis[key[0]], basis[key[1]]) - mul(basis[key[1]], basis[key[0]]))
    return RawHomStructure(space, mu)


def semidirect_weight(action: HomLieAction, lam) -> HomLieAlgebra:
    """Weighted semidirect product on acting + acted with twist alpha (+) beta.

    [(x, h), (y, k)] = ([x, y], x . k - y . h + lam [h, k]), the integer numerators of
    the acting bracket, the action table and lam times the acted bracket; the result
    is verified to be a multiplicative Hom-Lie algebra.  It is built and
    verified once per weight and kept on the action, keyed by the weight as a
    Fraction, so "1", 1 and Fraction(1) give the same object.  All weights
    share one sum space, kept on the action, with its wedge table and twisted bases.
    """
    lam = rat(lam)

    def build():
        g, h = action.acting, action.acted
        gd, gzero, hzero = g.dim, (0,) * g.dim, (0,) * h.dim
        space = _kept(action, "semidirect space", None, lambda: TwistedSpace(Mat(
            [row + (0,) * h.dim for row in g.alpha.rows] + [(0,) * gd + row for row in h.alpha.rows])))
        arows, aden = _numerator_table(action.table)
        den, num = lcm(g.mu.den, aden, h.mu.den * lam.denominator), {}  # three tables, one den
        for (i, j), v in g.mu.num.items():
            num[i, j] = (*[den // g.mu.den * x for x in v], *hzero)
        for i, row in enumerate(arows):
            for v, a in row.items():
                num[i, gd + v] = (*gzero, *[den // aden * x for x in a])
        c = lam.numerator * den // (h.mu.den * lam.denominator)
        for (u, v), w in h.mu.num.items() if c else ():
            num[gd + u, gd + v] = (*gzero, *[c * x for x in w])
        return HomLieAlgebra(space, _reduced(space, space, 2, dict(sorted(num.items())), den))

    return _kept(action, "semidirect", lam, build)


# ---------------------------------------------------------------------------
# Fixtures


def fixture_abelian(dim: int, alpha: Mat | None = None) -> HomLieAlgebra:
    """Zero bracket with an arbitrary twist (identity by default)."""
    if dim < 1:
        raise ValueError(f"abelian fixture needs dim >= 1, got {dim}")
    space = TwistedSpace(alpha if alpha is not None else Mat.identity(dim))
    return HomLieAlgebra(space, SkewCochain.zero(space, space, 2))

def fixture_jackson_sl2(q) -> RawHomStructure:
    """q-deformed sl2 on basis (e, h, f) with diagonal twist (q, q, q^2).

    Brackets: [h, e] = 2e, [e, f] = (1+q)/2 h, [h, f] = -2q f.  Satisfies the
    twisted Jacobi identity for every q but is multiplicative only for the
    degenerate values q in {0, 1}; returned raw so it can be diagnosed.
    """
    q = rat(q)
    space = TwistedSpace(Mat.diagonal([q, q, q * q]))
    half = Fraction(1, 2)
    table = {
        (0, 1): Vec.make([-2, 0, 0]),              # [e, h] = -[h, e]
        (0, 2): Vec.make([0, (1 + q) * half, 0]),  # [e, f]
        (1, 2): Vec.make([0, 0, -2 * q]),          # [h, f]
    }
    mu = SkewCochain(space, space, 2, table)
    return RawHomStructure(space, mu)


def fixture_3dim(a, b, c, d) -> RawHomStructure:
    """Four-parameter bracket on a 3-dim space with twist diag(1, 2, 2).

    [e1, e2] = a e1 + b e3, [e1, e3] = c e2, [e2, e3] = d e1 + 2a e3.
    Twisted Jacobi holds for all parameters; multiplicativity holds exactly
    when a = d = 0.
    """
    a, b, c, d = rat(a), rat(b), rat(c), rat(d)
    space = TwistedSpace(Mat.diagonal([1, 2, 2]))
    table = {
        (0, 1): Vec.make([a, 0, b]),
        (0, 2): Vec.make([0, c, 0]),
        (1, 2): Vec.make([d, 0, 2 * a]),
    }
    return RawHomStructure(space, SkewCochain(space, space, 2, table))


def fixture_b(b=1, c=1) -> HomLieAlgebra:
    """The multiplicative member of the 3-dim family (a = d = 0)."""
    return as_hom_lie(fixture_3dim(0, b, c, 0))


def _sl2_lie_mu() -> SkewCochain:
    space = TwistedSpace.untwisted(3)
    table = {
        (0, 1): Vec.make([-2, 0, 0]),
        (0, 2): Vec.make([0, 1, 0]),
        (1, 2): Vec.make([0, 0, -2]),
    }
    return SkewCochain(space, space, 2, table)


def fixture_yau_sl2(t=2) -> HomLieAlgebra:
    """Yau twist of classical sl2 by the diagonal automorphism (t, 1, 1/t)."""
    t = rat(t)
    return yau_twist(_sl2_lie_mu(), Mat.diagonal([t, 1, 1 / t]))


def _heisenberg_lie_mu() -> SkewCochain:
    space = TwistedSpace.untwisted(3)
    return SkewCochain(space, space, 2, {(0, 1): Vec.make([0, 0, 1])})


def fixture_yau_heisenberg(s=2, t=3) -> HomLieAlgebra:
    """Yau twist of the Heisenberg algebra [e1, e2] = e3 by diag(s, t, s t)."""
    s, t = rat(s), rat(t)
    return yau_twist(_heisenberg_lie_mu(), Mat.diagonal([s, t, s * t]))


def fixture_yau_shear() -> HomLieAlgebra:
    """Heisenberg algebra twisted by a unipotent (non-diagonal) automorphism.

    The shear e2 -> e1 + e2 preserves [e1, e2] = e3, so the twist is a
    bracket homomorphism but has a nontrivial Jordan block; exercises every
    code path that diagonal twists leave untested.
    """
    return yau_twist(_heisenberg_lie_mu(), Mat.make([[1, 1, 0], [0, 1, 0], [0, 0, 1]]))


def fixture_yau_dim4() -> HomLieAlgebra:
    """Yau twist of an almost-abelian 4-dim Lie algebra.

    [e1, ei] = (i - 1) ei for i = 2, 3, 4, twisted by diag(1, 2, 1, 3); gives
    a multiplicative Hom-Lie algebra where arity-4 cochains are nontrivial.
    """
    space = TwistedSpace.untwisted(4)
    table = {
        (0, 1): Vec.make([0, 1, 0, 0]),
        (0, 2): Vec.make([0, 0, 2, 0]),
        (0, 3): Vec.make([0, 0, 0, 3]),
    }
    mu = SkewCochain(space, space, 2, table)
    return yau_twist(mu, Mat.diagonal([1, 2, 1, 3]))


def abelianized(alg: HomLieAlgebra) -> HomLieAlgebra:
    """Zero-bracket algebra on the same twisted space."""
    return HomLieAlgebra(alg.space, SkewCochain.zero(alg.space, alg.space, 2))


def bracket_action_on_abelian(alg: HomLieAlgebra) -> HomLieAction:
    """The algebra acting by its bracket on the abelianized copy of itself.

    This is the standard non-adjoint action fixture: the representation is
    the adjoint one but the acted algebra carries the zero bracket, so the
    derivation law is vacuous.
    """
    return HomLieAction(alg, abelianized(alg), alg.table)

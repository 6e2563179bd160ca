"""Nijenhuis and (relative) Rota-Baxter operators.

Every operator predicate here is checked two ways: the pointwise defining
identity on basis pairs, and the Maurer-Cartan / graph-closure restatement in
the graded bracket machinery.  The dual routes must agree; a disagreement is
an internal consistency failure (it would mean a sign error in a bracket),
reported as ``ConsistencyError`` rather than a verdict.

Each criterion runs once per operator.  One private routine per kind,
``_nijenhuis``, ``_rota_baxter`` or the relative ``_cross_checked``, runs the
twist guard, the pointwise identity and the kind's cross-checks, and returns
the agreed witness (the first failing basis pair, or None) that the
predicates, ``nijenhuis_report``, ``induced_structures`` and the CLI's
``check`` commands read.  ``theorems`` builds the induced structures of a
relative search's operators without checking them again, with one ``_deformed``
call per weight and one kernel call, each distinct structure built and verified once.

The pointwise identities are integer residual rows of the kernel
``structures._column_brackets`` on kept skew tables and action numerators: the
deformed brackets (``_deformed``), both sides of [Ax, Cy] = A(deformed_C(x, y))
(``_pair_sides``), the induced module table and graph closure; ``Vec`` are
built only for a witness, the first nonzero residual row.

A search writes its candidates as R = sum_p c_p M_p / s over an integer basis
M_p of the twist commutant and runs the twist guard on the M_p alone.  The
grid and its guarded M_p are kept on the acted space per acting space and
grid, so the searches of one pair of spaces share them.  Each
criterion is F(R) = B(R, R) + L(R), B bilinear and L linear: ``_form`` tables
it in the c_p from B on the ordered pairs (M_p, M_q), the pointwise B from one
kernel call on all M_p side by side, and L on the M_p, the
dual's on cochains of the M_p built once per search.  The dual's B, [N, M]_fn
or the derived bracket, is symmetric on arity-1 cochains, so it is taken on
the pairs p <= q alone.  A search may take several weights: no B depends on
the weight, so each is read once per call for all of them, and each weight has
its own L.  Per weight, a search checks once, by three ranks of the integer
tables, that the pointwise table and that of its dual, [N, N]_fn or the
Maurer-Cartan residual, have one row space, so one zero set, and then decides
on the pointwise one; a mismatch is a ``ConsistencyError`` raised before any
candidate is enumerated, and no search compares candidates.  Tables, proofs
and walks are made per call, on a kept grid too.  No search checks an operator
it found again; graph closure is an oracle of the predicates.  The c_p are set
depth-first in grid order, each check at the depth of its last variable.

A weight-lambda Rota-Baxter operator is a relative one of the adjoint action
(``structures.adjoint_action``): its pointwise identity, its deformed bracket
and its Maurer-Cartan equation are those of the relative operator.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from math import lcm
from operator import mul
from typing import NamedTuple

from .linalg import Mat, _common, _mat, _mat_reduced, _rref, _vec_reduced, rat
from .cochains import (SkewCochain, TwistedSpace, _assemble, _kept, _reduced, _row_sum,
                       compatibility_basis, flatten_cochain, operator_cochain)
from .structures import (ConsistencyError, HomLieAction, HomLieAlgebra, HomMorphism,
                         RawHomStructure, Representation, _column_brackets, _intertwines,
                         _skew_numerators, _times, _witness, adjoint_action, check_morphism,
                         hom_jacobi_witness, representation_witness, semidirect_weight)
from .differentials import _action_columns, _coboundary, delta_hom
from .brackets import _cup_part, _derived_parts, _module_action, fn_bracket


# The weights t at which ``nijenhuis_report`` checks the pencil mu + t * [ , ]^N.
PENCIL_WEIGHTS = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3))


def _check_intertwines(action: HomLieAction, R: Mat) -> None:
    if not _intertwines(action.acting.alpha, R, action.acted.alpha):
        raise ValueError("operator does not intertwine the twists")


def _deformed(action: HomLieAction, Ms: list[Mat], lam=None) -> list:
    """Per M of Ms, Mx . y - My . x + lam [x, y] on the acted basis pairs, as (rows, den).

    For lam None the third term is the Nijenhuis bracket's -M[x, y].  The rows are integer
    numerators over den: two kernel calls on the kept action numerators for all Ms at
    once, and the third term read off the acted skew table.
    """
    h, nums = action.acted, [M.num for M in Ms]
    dim, pairs, (brackets, bden) = h.dim, list(combinations(range(h.dim), 2)), _skew_numerators(h)
    table = _action_columns(action, 0) or ([{}] * action.acting.dim, 1)
    forward = _column_brackets(table, nums, None, pairs)
    backward = _column_brackets(table, nums, None, [(y, x) for x, y in pairs], -1)
    values, out, zero = [brackets[x].get(y) for x, y in pairs], [], [0] * dim
    for M, acts, backs in zip(Ms, forward, backward):
        c, tden, third = ((-1, bden * M.den, _times(M.num, [v or (0,) * dim for v in values]))
                          if lam is None else (lam.numerator, bden * lam.denominator, values))
        den = lcm(table[1] * M.den, tden)
        up, c = den // (table[1] * M.den), c * (den // tden)
        rows = []
        for a, b, t in zip(acts, backs, third):
            terms = a + b if up == 1 else [(up * k, v) for k, v in a + b]
            if c and t:
                terms.append((c, t))
            rows.append(_row_sum(terms, dim) if terms else zero)
        out.append((rows, den))
    return out


def _two_cochain(space: TwistedSpace, deformed) -> SkewCochain:
    """The 2-cochain with the (rows, den) of ``_deformed`` as its values."""
    return _reduced(space, space, 2, {pair: tuple(row) for pair, row in zip(
        combinations(range(space.dim), 2), deformed[0]) if any(row)}, deformed[1])


def _pair_sides(action: HomLieAction, Ms: list[Mat], deformed: list) -> list:
    """[Ax, Cy] and A(deformed_C(x, y)) on the acted basis pairs, per A and C of Ms.

    deformed lists the ``_deformed`` of Ms.  Per A, a list per C of (lhs rows, lhs den,
    rhs rows, rhs den): one kernel call on the acting skew table for every pair of Ms,
    and each A on the deformed rows of all Ms at once.
    """
    g, nums = action.acting, [M.num for M in Ms]
    table, dim, pairs = _skew_numerators(g), g.dim, list(combinations(range(action.acted.dim), 2))
    vectors, out, zero = [row for rows, _ in deformed for row in rows], [], [0] * g.dim
    for A, brackets in zip(Ms, _column_brackets(table, nums, nums, pairs)):
        rhs = iter(_times(A.num, vectors))
        out.append([([_row_sum(terms, dim) if terms else zero for terms in lhs],
                     table[1] * A.den * C.den, [next(rhs) for _ in lhs], A.den * den)
                    for C, lhs, (_, den) in zip(Ms, brackets, deformed)])
    return out


def _pair_defect(action: HomLieAction, R: Mat, deformed):
    """First basis pair (x, y) of the acted space with [Rx, Ry] != R(deformed), with both sides."""
    return _witness(list(combinations(range(action.acted.dim), 2)),
                    *_pair_sides(action, [R], [deformed])[0][0])


def deformed_bracket_n(alg: HomLieAlgebra, N: Mat) -> SkewCochain:
    """The bracket [x, y]^N = [Nx, y] + [x, Ny] - N[x, y] as a 2-cochain."""
    adj = adjoint_action(alg)
    _check_intertwines(adj, N)
    return _two_cochain(alg.space, _deformed(adj, [N])[0])


def nijenhuis_defect(alg: HomLieAlgebra, N: Mat):
    """First basis pair violating [Nx, Ny] = N([x, y]^N), with both sides."""
    adj = adjoint_action(alg)
    _check_intertwines(adj, N)
    return _pair_defect(adj, N, _deformed(adj, [N])[0])


def _agreed(kind: str, defect, *verdicts: tuple[str, bool]):
    """The witness ``defect``, once every named verdict agrees with it; else a ConsistencyError."""
    pointwise = defect is None
    if any(v != pointwise for _, v in verdicts):
        raise ConsistencyError(f"{kind} criteria disagree: pointwise={pointwise}, "
                               + ", ".join(f"{name}={v}" for name, v in verdicts))
    return defect


def is_nijenhuis(alg: HomLieAlgebra, N: Mat) -> bool:
    """[Nx, Ny] = N([x, y]^N) on basis pairs, cross-checked as [N, N]_fn = 0."""
    return _nijenhuis(alg, N)[0] is None


def _nijenhuis(alg: HomLieAlgebra, N: Mat):
    """The agreed Nijenhuis witness of an operator, after the twist guard, and [N, N]_fn."""
    defect, square = nijenhuis_defect(alg, N), _square(alg, N)
    return _agreed("Nijenhuis", defect, ("bracket square", square.is_zero())), square


def _square(alg: HomLieAlgebra, N: Mat) -> SkewCochain:
    nc = operator_cochain(alg.space, alg.space, N)
    return fn_bracket(alg, nc, nc)


class OperatorReport(NamedTuple):
    """Outcome of the full post-verification battery for one operator."""

    ok: bool
    checks: tuple[tuple[str, bool, str], ...]

    def failed(self) -> list[str]:
        return [f"{name}: {msg}" for name, passed, msg in self.checks if not passed]


def nijenhuis_report(alg: HomLieAlgebra, N: Mat) -> OperatorReport:
    """Verify everything a Nijenhuis operator induces.

    The deformed bracket gives a Hom-Lie algebra, N is a morphism from the
    deformed structure to the original one, the pencil mu + t * deformed
    satisfies the twisted Jacobi identity for each t in ``PENCIL_WEIGHTS``,
    and the squared bracket obstruction vanishes.
    """
    defect, square = _nijenhuis(alg, N)  # the coboundary check below reuses the square
    checks = [("nijenhuis identity", defect is None, "defining identity fails" if defect else "")]
    deformed = _two_cochain(alg.space, _deformed(adjoint_action(alg), [N])[0])
    deformed_alg = None
    try:
        deformed_alg = HomLieAlgebra(alg.space, deformed)
        checks.append(("deformed structure", True, ""))
    except ValueError as exc:
        checks.append(("deformed structure", False, str(exc)))
    if deformed_alg is not None:
        morph = check_morphism(HomMorphism(deformed_alg, alg, N))
        checks.append(("morphism from deformed", morph, "" if morph else "N fails to intertwine the brackets"))
    for t in PENCIL_WEIGHTS:
        pencil = alg.mu + deformed.scale(t)
        witness = hom_jacobi_witness(RawHomStructure(alg.space, pencil))
        ok = witness is None
        checks.append((f"pencil t={t}", ok, "" if ok else f"Jacobi fails at {witness[0]}"))
    sq = delta_hom(adjoint_action(alg), square).is_zero()
    checks.append(("coboundary of bracket square", sq, "" if sq else "nonzero"))
    return OperatorReport(all(p for _, p, _ in checks), tuple(checks))


def rb_deformed_bracket(alg: HomLieAlgebra, R: Mat, lam) -> SkewCochain:
    """The bracket [x, y]^R = [Rx, y] + [x, Ry] + lam [x, y] as a 2-cochain."""
    adj = adjoint_action(alg)
    _check_intertwines(adj, R)
    return _two_cochain(alg.space, _deformed(adj, [R], rat(lam))[0])


def rota_baxter_defect(alg: HomLieAlgebra, R: Mat, lam):
    """First basis pair violating the weighted Rota-Baxter identity."""
    return relative_rb_defect(adjoint_action(alg), R, lam)


def is_rota_baxter(alg: HomLieAlgebra, R: Mat, lam) -> bool:
    """[Rx, Ry] = R([Rx, y] + [x, Ry] + lam [x, y]) on basis pairs.

    Cross-checked against the Maurer-Cartan equation of the weighted derived
    differential graded Lie algebra: d_lam R + (1/2)[R, R]_derived = 0.
    """
    return _rota_baxter(alg, R, lam) is None


def _rota_baxter(alg: HomLieAlgebra, R: Mat, lam):
    """The agreed Rota-Baxter witness of an operator, after the twist guard."""
    adj = adjoint_action(alg)
    return _agreed("Rota-Baxter", relative_rb_defect(adj, R, lam),
                   ("Maurer-Cartan", _relative_mc(adj, R, lam)))


def relative_rb_defect(action: HomLieAction, R: Mat, lam):
    """First basis pair violating the relative Rota-Baxter identity."""
    _check_intertwines(action, R)
    return _pair_defect(action, R, _deformed(action, [R], rat(lam))[0])


def relative_rb_pointwise(action: HomLieAction, R: Mat, lam) -> bool:
    """[Rh, Rk] = R(Rh . k - Rk . h + lam [h, k]) on basis pairs of the acted algebra."""
    return relative_rb_defect(action, R, lam) is None


def relative_rb_graph(action: HomLieAction, R: Mat, lam) -> bool:
    """Graph closure inside the weighted semidirect product.

    The graph of R is spanned by the columns (R h, h), h running over the
    acted basis.  They are independent, so the graph is closed under the
    bracket of the weight-lam product exactly when the columns together with
    the brackets of all C(dim, 2) pairs of them still have rank dim: one rank.
    """
    _check_intertwines(action, R)
    return _graph_closed(action, R, lam)


def _graph_closed(action: HomLieAction, R: Mat, lam) -> bool:
    """One rank: the integer graph columns R.den (Rh, h) and their kernel brackets in the
    weighted product span the graph's dimension exactly when it is closed."""
    big, n = semidirect_weight(action, lam), action.acted.dim
    graphs = [R.num + tuple(tuple(R.den if i == j else 0 for j in range(n)) for i in range(n))]
    brackets = [_row_sum(terms, big.dim) for terms in _column_brackets(
        _skew_numerators(big), graphs, graphs, list(combinations(range(n), 2)))[0][0]]
    rows = [[*row, *[b[k] for b in brackets]] for k, row in enumerate(graphs[0])]
    return len(_rref(rows, rank_only=True)[1]) == n


def relative_rb_mc(action: HomLieAction, R: Mat, lam) -> bool:
    """Maurer-Cartan equation in the relative derived differential graded Lie algebra."""
    _check_intertwines(action, R)
    return _relative_mc(action, R, lam)


def _relative_mc(action: HomLieAction, R: Mat, lam) -> bool:
    return _relative_residual(action, R, lam).is_zero()


def _relative_residual(action: HomLieAction, R: Mat, lam) -> SkewCochain:
    rc = operator_cochain(action.acted.space, action.acting.space, R)
    return mc_residual(rc, "relative_derived", action=action, lam=lam)


def is_relative_rb(action: HomLieAction, R: Mat, lam) -> bool:
    """All three relative Rota-Baxter criteria; they must agree."""
    return _cross_checked(action, R, lam) is None


def _cross_checked(action: HomLieAction, R: Mat, lam):
    """The relative witness, after the twist guard, once graph and Maurer-Cartan agree with it."""
    return _agreed("relative Rota-Baxter", relative_rb_defect(action, R, lam),
                   ("graph", _graph_closed(action, R, lam)),
                   ("Maurer-Cartan", _relative_mc(action, R, lam)))


def induced_structures(action: HomLieAction, R: Mat, lam) -> tuple[HomLieAlgebra, Representation]:
    """The Hom-Lie algebra and representation induced by a relative operator.

    The acted space acquires the bracket Rh . k - Rk . h + lam [h, k] (with the acted
    twist), the acting space becomes a module for it via h . x = [Rh, x] + R(x . h), and
    R becomes a morphism from the induced algebra to the acting one.  All three facts are
    verified, by ``_induced_structures`` on the one entry (lam, R).
    """
    lam = rat(lam)
    if not is_relative_rb(action, R, lam):
        raise ValueError("operator fails the relative Rota-Baxter identity")
    return next(_induced_structures(action, [(lam, R)]))


def _induced_structures(action: HomLieAction, ops: list):
    """``induced_structures`` of checked operators, ops a list of (lam, R), one by one, in order.

    One ``_deformed`` call per weight gives the brackets and one kernel call, on one R per
    key, the module tables.  The structures depend on (lam, R) only through R and the
    deformed (rows, den), so that is the key, exact: a new key is built and all three facts
    verified, and a key seen before in this call yields the same two objects again.
    """
    g, h = action.acting, action.acted
    weights = {lam: iter(_deformed(action, [R for mu, R in ops if mu == lam], lam))
               for lam in dict.fromkeys(lam for lam, _ in ops)}
    keys = [(R, tuple(map(tuple, rows)), rden) for lam, R in ops
            for rows, rden in [next(weights[lam])]]
    # h_i . x_j = [R h_i, x_j] + R(x_j . h_i): the kernel on g's skew table, R on the module action
    (brackets, bden), (acts, aden) = _skew_numerators(g), _module_action(action, 0)
    den, pairs = lcm(bden, aden), [(i, j) for i in range(h.dim) for j in range(g.dim)]
    kernel = iter(_column_brackets((brackets, bden), [R.num for R, _, _ in dict.fromkeys(keys)],
                                   None, pairs, den // bden))
    built = {}
    for key in keys:
        if key not in built:  # keys are new in ``dict.fromkeys`` order: the kernel's next columns
            R, rows, rden = key
            induced = HomLieAlgebra(h.space, _two_cochain(h.space, (rows, rden)))
            values = zip(next(kernel), _times(R.num, [acts[i].get(j, (0,) * h.dim) for i, j in pairs]))
            entries = iter([_vec_reduced(tuple(_row_sum(terms + [(den // aden, v)], g.dim)),
                                         den * R.den) for terms, v in values])
            rep = Representation(induced, g.space, tuple(tuple(next(entries) for _ in range(g.dim))
                                                         for _ in range(h.dim)))
            w = representation_witness(rep)
            if w is not None:
                raise ConsistencyError(f"induced module structure fails its axioms: {w[0]} at {w[1]}")
            if not check_morphism(HomMorphism(induced, g, R)):
                raise ConsistencyError("operator is not a morphism from the induced algebra")
            built[key] = induced, rep
        yield built[key]


def mc_residual(s: SkewCochain, dgla_kind: str, *, target: HomLieAlgebra | None = None,
                alg: HomLieAlgebra | None = None, action: HomLieAction | None = None,
                lam=0) -> SkewCochain:
    """d(s) + (1/2)[s, s] in the chosen differential graded Lie algebra.

    Kinds: "morphism" (cup bracket, trivial-coefficient differential on
    ``alg`` into ``target``) and "relative_derived" (derived bracket and
    weight-``lam`` differential over ``action``; the adjoint action gives
    the Rota-Baxter case).
    """
    if s.arity != 1:
        raise ValueError("Maurer-Cartan residual is defined for arity-1 elements")
    d, bracket = _dgla(dgla_kind, s.domain, target=target, alg=alg, action=action, lam=lam)
    return _assemble(s.domain, s.codomain, 2, d(s) + bracket(s, s), 2)  # (2 d(s) + [s, s]) / 2


def _dgla(dgla_kind: str, domain: TwistedSpace, *, target=None, alg=None, action=None, lam=0):
    """(d, bracket) of ``mc_residual`` on domain: the parts of 2 d(s) and of [s, t], over 2.

    A search's dual criterion reads them apart, as its linear and bilinear parts.
    """
    if dgla_kind == "morphism":
        if alg is None or target is None:
            raise ValueError("morphism residual needs the domain and codomain algebras")
        if domain != alg.space:
            raise ValueError("cochain domain does not match the algebra")
        return lambda s: _coboundary(alg, s, None, 2), lambda s, t: [_cup_part(s, t, target)]
    if dgla_kind == "relative_derived":
        if not isinstance(action, HomLieAction):
            raise ValueError("relative derived residual needs a full action")
        return (lambda s: _coboundary(action.acted, s, None, 2 * rat(lam)),
                lambda s, t: _derived_parts(action, s, t))
    raise ValueError(f"unknown differential graded Lie algebra kind: {dgla_kind!r}")


# ---------------------------------------------------------------------------
# Grid search over the twist commutant


# A search's candidates R = sum_p c_p basis[p] / scale, c in nums^P: entry (i, j) of R is
# c . coeffs[i][j] / scale.  A check (terms, allowed) asks sum k c_a c_b (c_P = 1) in allowed.
_Grid = NamedTuple("_Grid", [("basis", list), ("scale", int), ("nums", tuple), ("coeffs", list),
                             ("checks", list)])


def _search_grid(source, target, entries) -> _Grid:
    """The grid of matrices with entries in ``entries`` intertwining the twists.

    In the reduced row echelon form of the arity-1 compatibility basis,
    flattened column by column, the pivot coordinates fix the rest: the grid
    runs over the pivots, and a candidate stays if its other coordinates land
    in it.  Two intertwiners first differ at a pivot, so product order of the
    combos is the grid order (position in ``entries``) of the column-major
    table.  The basis is the integer rows of that form; a combo is the pivots'
    numerators, and each off-pivot coordinate gets a check.
    """
    nums, den = _common(entries)  # the grid as integers over one denominator
    nums = tuple(dict.fromkeys(nums))  # a repeated value would repeat its matrices
    reduced, pivots, d = _rref([list(flatten_cochain(b).num)
                                for b in compatibility_basis(source, target, 1)])
    P, rows, allowed = len(pivots), target.dim, {d * n for n in nums}
    columns = [tuple(row[k] for row in reduced[:P]) for k in range(rows * source.dim)]
    checks = [([(x, p, P) for p, x in enumerate(column) if x], allowed)  # a pivot is d c_p
              for k, column in enumerate(columns) if k not in pivots]
    basis = [_mat(tuple(tuple(row[i::rows]) for i in range(rows)), 1, source.dim)
             for row in reduced[:P]]
    return _Grid(basis, den * d, nums, [columns[i::rows] for i in range(rows)], checks)


def _form(bilinear, linear, grid: _Grid) -> list[tuple[int, ...]]:
    """The nonzero rows of 2 D s^2 F(R), F(R) = B(R, R) + L(R), in the monomials c_p c_q, c_p.

    With bilinear(p, q) = B(M_p, M_q) and linear(p) = L(M_p), each called once, and
    R = sum_p c_p M_p / s, bilinearity alone gives the column 2 (B(M_p, M_q) + B(M_q, M_p))
    of c_p c_q (p < q), 2 B(M_p, M_p) of c_p^2 and 2 s L(M_p) of c_p; D is their denominator.
    """
    P = range(len(grid.basis))
    values = [[bilinear(p, q) for q in P] for p in P]
    columns = [(values[p][q] + values[q][p] if p < q else values[p][p]).scale(2)
               for p, q in combinations_with_replacement(P, 2)]
    columns += [linear(p).scale(2 * grid.scale) for p in P]
    return [row for row in Mat.from_columns(columns).num if any(row)]


def _depth_first(grid: _Grid, table=()) -> list[Mat]:
    """The grid intertwiners, in grid order, at which every row of table vanishes.

    A matrix is built only for a combo that passes every check.
    """
    P = len(grid.basis)
    monomials = list(combinations_with_replacement(range(P), 2)) + [(p, P) for p in range(P)]
    at, c, found = [[] for _ in range(P)], [0] * P + [1], []
    for terms, allowed in grid.checks + [([(k, *monomials[m]) for m, k in enumerate(row) if k],
                                          {0}) for row in table]:
        if terms:
            at[max(a if b == P else b for _, a, b in terms)].append((terms, allowed))
        elif 0 not in allowed:  # a coordinate that is 0 on every combo, off the grid
            return []

    def walk(t):
        if t == P:
            num = tuple(tuple(sum(map(mul, c, e)) for e in row) for row in grid.coeffs)
            found.append(_mat_reduced(num, grid.scale, len(num[0])))
            return
        for c[t] in grid.nums:
            for terms, allowed in at[t]:
                value = 0
                for k, a, b in terms:
                    value += k * c[a] * c[b]
                if value not in allowed:
                    break
            else:
                walk(t + 1)

    walk(0)
    return found


def _checked_grid(action: HomLieAction, entries) -> _Grid:
    """``_search_grid`` of action's spaces, its basis past the twist guard.

    The guard reads the twists alone, so ``_search`` keeps this per pair of spaces and grid.
    """
    grid = _search_grid(action.acted.space, action.acting.space, entries)
    for M in grid.basis:
        _check_intertwines(action, M)
    return grid


def _search(action: HomLieAction, entries, kind: str, deformed, lams, dual) -> list[list[Mat]]:
    """Per weight lam of lams, the grid operators R, acted to acting space, with
    [Rx, Ry] = R(deformed(R) + lam [x, y]).

    deformed(Ms) is ``_deformed`` of the basis, linear in each matrix: the pointwise
    B(A, C) is [Ax, Cy] - A(deformed(C)) from one ``_pair_sides`` call on the basis and
    L(A) is -lam A[x, y], and dual is (name, B, Ls) on the basis cochains, with one L
    per weight.  Neither B depends on lam: both are tabled once per call, the pointwise
    one on the ordered basis pairs, the dual one, symmetric, on the pairs p <= q.
    Each weight's two tables must have one row space, so one zero set, as three ranks
    prove: a mismatch is a ConsistencyError before any candidate of any weight is
    enumerated.  Only the grid is kept (``_checked_grid``).
    """
    acted, acting = action.acted.space, action.acting.space
    grid = _kept(acted, "search_grid", (acting, _common(entries)), _checked_grid, action, entries)
    basis = grid.basis
    P, inner = range(len(basis)), deformed(basis)
    cochains = [operator_cochain(acted, acting, M) for M in basis]
    sides = [[_vec_reduced(tuple([x - y for a, b in zip(lhs, rhs) for x, y in zip(a, b)]), lden)
              if lden == rden else _vec_reduced(tuple([x * rden - y * lden for a, b in zip(lhs, rhs)
                                                       for x, y in zip(a, b)]), lden * rden)
              for lhs, lden, rhs, rden in row]  # the residual rows of each ordered pair
             for row in _pair_sides(action, basis, inner)]
    duals = [[None] * len(basis) for _ in P]
    for p, q in combinations_with_replacement(P, 2):
        duals[p][q] = duals[q][p] = flatten_cochain(dual[1](cochains[p], cochains[q]))
    table, den = _skew_numerators(action.acted)
    brackets = [table[x].get(y, (0,) * acted.dim) for x, y in combinations(range(acted.dim), 2)]
    tables = []
    for lam, linear in zip(lams, dual[2]):
        pointwise = _form(lambda p, q: sides[p][q], lambda p: _vec_reduced(tuple(
            [-lam.numerator * x for row in _times(basis[p].num, brackets) for x in row]
            if lam else [0] * len(brackets) * acting.dim),
            lam.denominator * den * basis[p].den), grid)
        form = _form(lambda p, q: duals[p][q], lambda p: flatten_cochain(linear(cochains[p])), grid)
        ranks = [len(_rref(rows, rank_only=True)[1])
                 for rows in (pointwise[:], form[:], pointwise + form)]
        if not ranks[0] == ranks[1] == ranks[2]:
            raise ConsistencyError(f"{kind} criteria disagree: the pointwise table has rank "
                                   f"{ranks[0]}, the {dual[0]} table rank {ranks[1]}, both "
                                   f"stacked rank {ranks[2]}")
        tables.append(pointwise)
    return [_depth_first(grid, pointwise) for pointwise in tables]


def search_nijenhuis(alg: HomLieAlgebra, entries=(-1, 0, 1)) -> list[Mat]:
    """Nijenhuis operators with entries in ``entries``, in column-major grid order."""
    adj = adjoint_action(alg)
    return _search(adj, entries, "Nijenhuis", lambda basis: _deformed(adj, basis),
                   (0,), ("bracket square", lambda s, t: fn_bracket(alg, s, t),
                          [lambda s: SkewCochain.zero(s.domain, s.codomain, 2)]))[0]


def search_rota_baxter(alg: HomLieAlgebra, lam, entries=(-1, 0, 1)) -> list[Mat]:
    """Weight-lam Rota-Baxter operators with entries in ``entries``, column-major grid order."""
    return _rota_baxter_search(adjoint_action(alg), (lam,), entries)[0]


def search_relative_rb(action: HomLieAction, lam, entries=(-1, 0, 1)) -> list[Mat]:
    """Relative weight-lam Rota-Baxter operators, entries in ``entries``, column-major grid order.

    The grid runs over maps from the acted to the acting space; the search is the weighted one's.
    """
    return _rota_baxter_search(action, (lam,), entries)[0]


def _rota_baxter_search(action: HomLieAction, lams, entries) -> list[list[Mat]]:
    """The one search behind both public ones, which never call each other: one list per weight.

    The derived bracket's part is read from the first weight's ``_dgla``, the
    weighted differential's from each weight's own.
    """
    lams, acted, acting = [rat(lam) for lam in lams], action.acted.space, action.acting.space
    dglas = [_dgla("relative_derived", acted, action=action, lam=lam) for lam in lams]
    return _search(action, entries, "Rota-Baxter",
                   lambda basis: _deformed(action, basis, 0), lams,
                   ("Maurer-Cartan", lambda s, t: _assemble(acted, acting, 2, dglas[0][1](s, t), 2),
                    [lambda s, d=d: _assemble(acted, acting, 2, d(s), 2) for d, _ in dglas]))

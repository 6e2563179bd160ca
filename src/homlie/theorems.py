"""Randomized exact verification of the graded bracket identities.

Each identity tag names one equation of the bracket calculus.  A trial
samples twist-compatible cochains with small integer coefficients, evaluates
both sides as full coefficient tables and compares them with exact rational
equality; the first differing basis tuple becomes the failure witness.
Trials draw from independent deterministic streams keyed by (seed, identity,
trial index), so reports are reproducible and trials could run in any order.

Identity catalogue (in fixed order):

 1  mc_homlie               square-zero 2-cochains of the insertion bracket
                            agree with the direct twisted-Jacobi oracle
 2  nr_graded_lie           graded skew + Jacobi, insertion bracket
 3  cup_graded_lie          graded skew + Jacobi, cup bracket
 4  cup_via_theta           cup bracket via theta and insertion
 5  cup_via_delta           cup bracket via the adjoint coboundary
 6  delta_cup_derivation    adjoint coboundary derives the cup bracket
 7  cup_trivial_cohomology  cup of cocycles is an explicit coboundary
 8  theta_cup_derivation    derivation-like law of theta over cup
 9  pre_lie                 graded right pre-Lie identity of insertion
10  rho_is_action           insertion acts on the cup algebra
11  semidirect_jacobi       graded Lie structure on the semidirect sum
12  graph_delta_closed      coboundary graph closed: delta is fn -> nr morphism
13  fn_graded_lie           graded skew + Jacobi, corrected cup bracket
14  fn_two_formulas         defining vs explicit vs coboundary-form agree
15  matched_pair_axioms     all four matched-pair identities
16  bicrossed_jacobi        bicrossed bracket Lie structure + pair embedding
17  graph_theta_closed      theta graph closed: theta is derived -> nr morphism
18  derived_graded_lie      graded skew + Jacobi, derived bracket
19  derived_two_formulas    defining vs explicit three-sum formula
20  d_lambda_derivation     weighted differential derives the derived bracket
21  theta_squared           square of theta via its coboundary commutator
22  rb_lemma                cup with the structure cochain via theta images
23  relative_consistency    three relative Rota-Baxter criteria agree
24  d_r_matches_induced     operator coboundary equals the induced-module one

Oracles.  Every operation of the package has one implementation; the only
second implementations are these independent routes, kept so that their
agreement can be checked:

* operator predicates: pointwise identity vs Maurer-Cartan equation vs
  graph closure (``operators``; identity 23 for the relative case);
* coboundaries by formula vs by insertion: ``d_trivial`` vs ``delta_tr``,
  and ``d_lambda`` vs ``d_lambda_tilde``;
* ``ComplexSpec`` module complexes vs bracket routes: the morphism cup route
  ``d_trivial + cup_bracket(phi, .)`` and the relative derived route
  ``d_lambda_tilde + derived_bracket_rel(R, .)`` (identity 24);
* compiled plans vs ``evaluate``: the explicit shuffle sums ``_fn_explicit``
  and ``_derived_rel_explicit`` run on ``evaluate`` and ``shuffles``, against
  the defining bracket formulas, each one assembly of parts on the compiled
  insertion, cup and coboundary plans (identities 14 and 19);
* compatibility: the wedge table vs ``evaluate`` (``tests/test_wedge.py``);
* ``theta`` (an insertion of the structure cochain) vs ``theta_tilde`` of
  the adjoint representation (the representation's acted basis table);
* ``hom_jacobi_witness`` vs the insertion-bracket square (identity 1).
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction
from math import lcm
from typing import NamedTuple

from .linalg import Vec, _lincomb, kernel_basis, rat, rat_str
from .cochains import (SkewCochain, TwistedSpace, _kept, _reduced, _row_sum, cochain_matrix,
                       compatibility_basis, contract, evaluate, linear_combination,
                       operator_cochain, shuffles)
from .structures import (HomLieAlgebra, RawHomStructure, Representation,
                         adjoint_representation, bracket_action_on_abelian, fixture_abelian,
                         fixture_b, fixture_yau_dim4, fixture_yau_heisenberg, fixture_yau_shear,
                         fixture_yau_sl2, hom_jacobi_witness)
from .differentials import d_lambda, d_lambda_tilde, delta_hom
from . import brackets as br
from .brackets import GradedPair, _sign
from .cohomology import ComplexSpec

IDENTITIES: tuple[str, ...] = (
    "mc_homlie", "nr_graded_lie", "cup_graded_lie", "cup_via_theta", "cup_via_delta",
    "delta_cup_derivation", "cup_trivial_cohomology", "theta_cup_derivation",
    "pre_lie", "rho_is_action", "semidirect_jacobi", "graph_delta_closed",
    "fn_graded_lie", "fn_two_formulas", "matched_pair_axioms", "bicrossed_jacobi",
    "graph_theta_closed", "derived_graded_lie", "derived_two_formulas",
    "d_lambda_derivation", "theta_squared", "rb_lemma", "relative_consistency",
    "d_r_matches_induced",
)

_LAMBDAS = ("0", "1", "-1", "1/2", "2")


class Failure(NamedTuple):
    trial: int
    detail: str
    witness: tuple[int, ...] | None
    lhs: tuple[str, ...] | str
    rhs: tuple[str, ...] | str

    def to_json(self) -> dict:
        return {"trial": self.trial, "detail": self.detail,
                "witness": list(self.witness) if self.witness else None,
                "lhs": list(self.lhs) if isinstance(self.lhs, tuple) else self.lhs,
                "rhs": list(self.rhs) if isinstance(self.rhs, tuple) else self.rhs}


class VerificationReport(NamedTuple):
    identity: str
    trials: int
    failures: tuple[Failure, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_json(self) -> dict:
        return {"identity": self.identity, "trials": self.trials,
                "passed": self.passed,
                "failures": [f.to_json() for f in self.failures]}


class SuiteReport(NamedTuple):
    seed: int
    trials: int
    max_arity: int
    results: tuple[tuple[str, tuple[VerificationReport, ...]], ...]

    @property
    def all_passed(self) -> bool:
        return all(r.passed for _, reports in self.results for r in reports)

    def to_json(self) -> dict:
        return {"seed": self.seed, "trials": self.trials, "max_arity": self.max_arity,
                "all_passed": self.all_passed,
                "fixtures": [
                    {"fixture": name, "reports": [r.to_json() for r in reports]}
                    for name, reports in self.results]}


def _stream(seed: int, *labels) -> random.Random:
    digest = hashlib.sha256("|".join([str(seed), *map(str, labels)]).encode()).digest()
    return random.Random(int.from_bytes(digest[:8], "big"))


def sample_cochain(domain: TwistedSpace, codomain: TwistedSpace, arity: int,
                   rng: random.Random) -> SkewCochain:
    """Random integer combination (coefficients in [-3, 3]) of the compatible basis.

    Membership in the compatible cochain space holds by construction.  The sum is one
    ``_row_sum`` per key of the sampling plan kept on the domain next to the basis.
    """
    size, plan, den = _kept(domain, "sample", (codomain, arity), _sample_plan, domain, codomain, arity)
    cs = [rng.randint(-3, 3) for _ in range(size)]
    return _reduced(domain, codomain, arity, {key: tuple(row) for key, terms in plan.items() if any(
        row := _row_sum([(cs[p] * c, v) for p, c, v in terms if cs[p]], codomain.dim))}, den)


def _sample_plan(domain: TwistedSpace, codomain: TwistedSpace, arity: int):
    """(size, plan, den): plan[key] lists (p, c, v), basis element p being c v / den at key."""
    basis, plan = compatibility_basis(domain, codomain, arity), {}
    den = lcm(*[b.den for b in basis])
    for p, b in enumerate(basis):
        for key, v in b.num.items():
            plan.setdefault(key, []).append((p, den // b.den, v))
    return len(basis), plan, den


def _sample_endo(alg: HomLieAlgebra, rng: random.Random, max_arity: int) -> SkewCochain:
    return sample_cochain(alg.space, alg.space, rng.randint(1, max_arity), rng)


def _mismatch(detail: str, A: SkewCochain, B: SkewCochain):
    """First differing basis tuple between two coefficient tables."""
    if A == B:
        return None
    for key in sorted(set(A.coeffs) | set(B.coeffs)):
        va, vb = A.value_on(key), B.value_on(key)
        if va != vb:
            return (detail, tuple(i + 1 for i in key),
                    tuple(rat_str(x) for x in va.entries),
                    tuple(rat_str(x) for x in vb.entries))
    return None


def _pair_mismatch(detail: str, a: GradedPair, b: GradedPair):
    return (_mismatch(detail + " (first component)", a.upper, b.upper)
            or _mismatch(detail + " (second component)", a.lower, b.lower))


def _skew_jacobi(detail, bracket, degree_of, P, Q, R, mismatch=_mismatch, PQ=None):
    """Graded skew-symmetry, then Jacobi; PQ is [P, Q] if the caller holds it already."""
    sign = _sign(degree_of(P) * degree_of(Q))
    if PQ is None:
        PQ = bracket(P, Q)
    skew = mismatch(f"{detail} skew-symmetry", bracket(Q, P), PQ.scale(-sign))
    if skew is not None:
        return skew
    lhs = bracket(P, bracket(Q, R))
    rhs = bracket(PQ, R) + bracket(Q, bracket(P, R)).scale(sign)
    return mismatch(f"{detail} Jacobi", lhs, rhs)


# ---------------------------------------------------------------------------
# Explicit shuffle-sum twins used as independent oracles


def _fn_explicit(alg: HomLieAlgebra, P: SkewCochain, Q: SkewCochain) -> SkewCochain:
    """Corrected cup bracket via its three explicit shuffle sums."""
    m, n = P.arity, Q.arity
    space = alg.space
    if m + n > space.dim:  # alternating maps of arity above the dimension vanish
        return SkewCochain.zero(space, space, m + n)
    adj = adjoint_representation(alg)
    dP, dQ = delta_hom(adj, P), delta_hom(adj, Q)
    pw = space.twist_power
    tw_m, tw_n = space.twisted_basis(m), space.twisted_basis(n)
    sh_cup = shuffles(m, n)
    sh_p = shuffles(m + 1, n - 1)
    sh_q = shuffles(n + 1, m - 1)

    def value(key):
        total = Vec.zero(space.dim)
        for image, sign in sh_cup:
            left = P.value_on(tuple(key[p] for p in image[:m]))
            right = Q.value_on(tuple(key[p] for p in image[m:]))
            if left.is_zero() or right.is_zero():
                continue
            total = total + alg.bracket(pw(n - 1) @ left, pw(m - 1) @ right).scale(sign)
        for image, sign in sh_p:
            head = dP.value_on(tuple(key[p] for p in image[:m + 1]))
            if head.is_zero():
                continue
            rest = [tw_m[key[p]] for p in image[m + 1:]]
            total = total + evaluate(Q, [head] + rest).scale(sign * _sign(m))
        for image, sign in sh_q:
            head = dQ.value_on(tuple(key[p] for p in image[:n + 1]))
            if head.is_zero():
                continue
            rest = [tw_n[key[p]] for p in image[n + 1:]]
            total = total - evaluate(P, [head] + rest).scale(sign * _sign((m + 1) * n))
        return total

    return SkewCochain.from_function(space, space, m + n, value)


def _derived_rel_explicit(rep: Representation, P: SkewCochain, Q: SkewCochain) -> SkewCochain:
    """Relative derived bracket via its explicit shuffle sums, for any representation."""
    g = rep.algebra
    module = rep.module
    m, n = P.arity, Q.arity
    if m + n > module.dim:
        return SkewCochain.zero(module, g.space, m + n)
    gpw = g.space.twist_power
    tw = module.twisted_basis
    sh_cup = shuffles(m, n)
    sh_p = shuffles(m, 1, n - 1)
    sh_q = shuffles(n, 1, m - 1)

    def value(key):
        total = Vec.zero(g.dim)
        for image, sign in sh_cup:
            left = P.value_on(tuple(key[p] for p in image[:m]))
            right = Q.value_on(tuple(key[p] for p in image[m:]))
            if left.is_zero() or right.is_zero():
                continue
            total = total + g.bracket(gpw(n - 1) @ left, gpw(m - 1) @ right).scale(sign)
        for image, sign in sh_p:
            head = P.value_on(tuple(key[p] for p in image[:m]))
            if head.is_zero():
                continue
            inner = rep.act(head, tw(m - 1)[key[image[m]]])
            rest = [tw(m)[key[p]] for p in image[m + 1:]]
            total = total - evaluate(Q, [inner] + rest).scale(sign)
        for image, sign in sh_q:
            head = Q.value_on(tuple(key[p] for p in image[:n]))
            if head.is_zero():
                continue
            inner = rep.act(head, tw(n - 1)[key[image[n]]])
            rest = [tw(n)[key[p]] for p in image[n + 1:]]
            total = total + evaluate(P, [inner] + rest).scale(sign * _sign(m * n))
        return total

    return SkewCochain.from_function(module, g.space, m + n, value)


# ---------------------------------------------------------------------------
# Per-identity contexts (computed once per verify call)


def _cocycle_data(alg: HomLieAlgebra, max_arity: int):
    """Per arity: compatible basis plus kernel coefficients of the adjoint coboundary.

    Only arities up to the dimension are built: above it there are no
    cochains, so both the basis and the kernel are empty.
    """
    spec = ComplexSpec.adjoint(alg)
    return {m: (spec.basis(m), kernel_basis(spec.matrix(m)))
            for m in range(1, min(max_arity, alg.dim) + 1)}


def _sample_cocycle(data, arity: int, rng: random.Random, space, codomain) -> SkewCochain:
    """A random integer combination of the kernel; an arity missing from data has none."""
    basis, kern = data.get(arity, ((), ()))
    coeffs = _lincomb([(rng.randint(-3, 3), k) for k in kern], len(basis))
    return linear_combination(space, codomain, arity, zip(coeffs.num, basis), coeffs.den)


# The guard bounds the 3^k points of a relative search's {-1, 0, 1} grid over the k-dim twist
# commutant, all operators when alg is abelian, and so the distinct induced structures that
# d_r_matches_induced builds; 3^9 keeps the fixtures (k <= 6) and abelian dim 3.
MAX_RELATIVE_CANDIDATES = 3 ** 9


def _relative_context(alg: HomLieAlgebra):
    """Action on the abelianized copy, plus verified operators (always the zero one).

    One relative search for the weights 0 and 1 tables the bilinear parts once.  The acted
    bracket is zero, so lam [h, k] vanishes and both weights find one list, listed twice.
    """
    from .operators import _rota_baxter_search
    action, lams = bracket_action_on_abelian(alg), (Fraction(0), Fraction(1))
    found = _rota_baxter_search(action, lams, (-1, 0, 1))
    return action, [(lam, R) for lam, ops in zip(lams, found) for R in ops]


def _context(identity: str, alg: HomLieAlgebra, max_arity: int, shared: dict):
    """The identity's fixed data for ``alg``; ``shared`` holds what identities reuse.

    The relative context (one relative search, for two weights) is built once per ``shared``
    dict, that is once per algebra in ``run_all``, which also puts the algebra's name there.
    d_r_matches_induced gets one entry per (lam, R) of it, and an entry shares the induced
    structures of an earlier one with the same R and deformed bracket, built and checked once.
    Above ``MAX_RELATIVE_CANDIDATES`` grid points per search it raises ``ValueError``.
    """
    if identity == "cup_trivial_cohomology":
        return _cocycle_data(alg, max_arity)
    if identity not in ("relative_consistency", "d_r_matches_induced"):
        return None
    if "relative" not in shared:
        # the acted copy carries alg's twist: the intertwiners are alg's twist commutant
        candidates = 3 ** len(compatibility_basis(alg.space, alg.space, 1))
        if candidates > MAX_RELATIVE_CANDIDATES:
            raise ValueError(f"{shared.get('name', 'algebra')}: the relative Rota-Baxter searches"
                             f" would check {candidates} candidates each (at most"
                             f" {MAX_RELATIVE_CANDIDATES}); leave out relative_consistency and"
                             " d_r_matches_induced with --identity")
        shared["relative"] = _relative_context(alg)
    if identity == "relative_consistency":
        return shared["relative"]
    from .operators import _induced_structures
    action, verified = shared["relative"]
    # the search decided each operator: each distinct induced structure is built once
    return action, [(lam, operator_cochain(action.acted.space, action.acting.space, R), rep)
                    for (lam, R), (_, rep) in zip(verified, _induced_structures(action, verified))]


# ---------------------------------------------------------------------------
# Identity checkers: return a mismatch tuple or None


def _check_mc_homlie(alg, rng, max_arity, ctx):
    own = br.nr_bracket(alg.mu, alg.mu)
    if not own.is_zero():
        return _mismatch("structure cochain square", own,
                         SkewCochain.zero(alg.space, alg.space, own.arity))
    nu = sample_cochain(alg.space, alg.space, 2, rng)
    square_zero = br.nr_bracket(nu, nu).is_zero()
    jacobi = hom_jacobi_witness(RawHomStructure(alg.space, nu)) is None
    if square_zero != jacobi:
        return ("Maurer-Cartan vs direct twisted Jacobi", None,
                f"bracket square zero: {square_zero}", f"cyclic sum zero: {jacobi}")
    return None


def _check_nr_graded_lie(alg, rng, max_arity, ctx):
    P, Q, R = (_sample_endo(alg, rng, max_arity) for _ in range(3))
    return _skew_jacobi("insertion bracket", br.nr_bracket, lambda f: f.arity - 1, P, Q, R)


def _check_cup_graded_lie(alg, rng, max_arity, ctx):
    P, Q, R = (_sample_endo(alg, rng, max_arity) for _ in range(3))
    return _skew_jacobi("cup bracket", lambda a, b: br.cup_bracket(a, b, alg),
                        lambda f: f.arity, P, Q, R)


def _check_cup_via_theta(alg, rng, max_arity, ctx):
    P, Q = (_sample_endo(alg, rng, max_arity) for _ in range(2))
    n = Q.arity
    rhs = (contract(P, br.theta(alg, Q)) - br.theta(alg, contract(P, Q))).scale(_sign(n))
    return _mismatch("cup via theta", br.cup_bracket(P, Q, alg), rhs)


def _check_cup_via_delta(alg, rng, max_arity, ctx):
    P, Q = (_sample_endo(alg, rng, max_arity) for _ in range(2))
    m = P.arity
    adj = adjoint_representation(alg)
    rhs = (contract(P, delta_hom(adj, Q))
           + contract(delta_hom(adj, P), Q).scale(_sign(m - 1))
           + delta_hom(adj, contract(P, Q)).scale(_sign(m)))
    return _mismatch("cup via coboundary", br.cup_bracket(P, Q, alg), rhs)


def _check_delta_cup_derivation(alg, rng, max_arity, ctx):
    P, Q = (_sample_endo(alg, rng, max_arity) for _ in range(2))
    m = P.arity
    adj = adjoint_representation(alg)
    lhs = delta_hom(adj, br.cup_bracket(P, Q, alg))
    rhs = (br.cup_bracket(delta_hom(adj, P), Q, alg)
           + br.cup_bracket(P, delta_hom(adj, Q), alg).scale(_sign(m)))
    return _mismatch("coboundary derives cup", lhs, rhs)


def _check_cup_trivial_cohomology(alg, rng, max_arity, ctx):
    m = rng.randint(1, max_arity)
    n = rng.randint(1, max_arity)
    P = _sample_cocycle(ctx, m, rng, alg.space, alg.space)
    Q = _sample_cocycle(ctx, n, rng, alg.space, alg.space)
    adj = adjoint_representation(alg)
    preimage = contract(P, Q).scale(_sign(m))
    return _mismatch("cup of cocycles is the explicit coboundary",
                     br.cup_bracket(P, Q, alg), delta_hom(adj, preimage))


def _check_theta_cup_derivation(alg, rng, max_arity, ctx):
    P, Q = (_sample_endo(alg, rng, max_arity) for _ in range(2))
    n = Q.arity
    lhs = br.theta(alg, br.cup_bracket(P, Q, alg))
    rhs = (br.cup_bracket(br.theta(alg, P), Q, alg).scale(_sign(n))
           + br.cup_bracket(P, br.theta(alg, Q), alg))
    return _mismatch("theta derives cup", lhs, rhs)


def _check_pre_lie(alg, rng, max_arity, ctx):
    P, Q, R = (_sample_endo(alg, rng, max_arity) for _ in range(3))
    m, n = P.arity, Q.arity
    lhs = contract(contract(P, Q), R) - contract(P, contract(Q, R))
    rhs = (contract(contract(Q, P), R) - contract(Q, contract(P, R))).scale(
        _sign((m - 1) * (n - 1)))
    return _mismatch("graded right pre-Lie identity", lhs, rhs)


def _check_rho_is_action(alg, rng, max_arity, ctx):
    P, Q, E, F = (_sample_endo(alg, rng, max_arity) for _ in range(4))
    m, n, k = P.arity - 1, Q.arity - 1, E.arity
    PE = contract(P, E)
    first = _mismatch("insertion is a bracket morphism",
                      contract(br.nr_bracket(P, Q), E),
                      contract(P, contract(Q, E)) - contract(Q, PE).scale(_sign(m * n)))
    if first is not None:
        return first
    return _mismatch("insertion derives cup",
                     contract(P, br.cup_bracket(E, F, alg)),
                     br.cup_bracket(PE, F, alg)
                     + br.cup_bracket(E, contract(P, F), alg).scale(_sign(m * k)))


def _sample_pair(alg, rng, max_arity) -> GradedPair:
    deg = rng.randint(1, max(1, max_arity - 1))
    return GradedPair(sample_cochain(alg.space, alg.space, deg + 1, rng),
                      sample_cochain(alg.space, alg.space, deg, rng))


def _check_semidirect_jacobi(alg, rng, max_arity, ctx):
    a, b, c = (_sample_pair(alg, rng, max_arity) for _ in range(3))
    return _skew_jacobi("semidirect bracket",
                        lambda x, y: br.semidirect_graded_bracket(alg, x, y),
                        lambda p: p.degree, a, b, c, mismatch=_pair_mismatch)


def _check_graph_delta_closed(alg, rng, max_arity, ctx):
    P, Q = (_sample_endo(alg, rng, max_arity) for _ in range(2))
    adj = adjoint_representation(alg)
    lhs = delta_hom(adj, br.fn_bracket(alg, P, Q))
    rhs = br.nr_bracket(delta_hom(adj, P), delta_hom(adj, Q))
    return _mismatch("coboundary graph closure", lhs, rhs)


def _check_fn_graded_lie(alg, rng, max_arity, ctx):
    P, Q, R = (_sample_endo(alg, rng, max_arity) for _ in range(3))
    return _skew_jacobi("corrected cup bracket",
                        lambda a, b: br.fn_bracket(alg, a, b), lambda f: f.arity, P, Q, R)


def _check_fn_two_formulas(alg, rng, max_arity, ctx):
    P, Q = (_sample_endo(alg, rng, max_arity) for _ in range(2))
    m = P.arity
    adj = adjoint_representation(alg)
    defining = br.fn_bracket(alg, P, Q)
    first = _mismatch("defining vs explicit shuffle formula",
                      defining, _fn_explicit(alg, P, Q))
    if first is not None:
        return first
    alt = br.nr_bracket(P, delta_hom(adj, Q)) + delta_hom(adj, contract(P, Q)).scale(_sign(m))
    return _mismatch("defining vs coboundary form", defining, alt)


def _check_matched_pair_axioms(alg, rng, max_arity, ctx):
    P, Q, E, F = (_sample_endo(alg, rng, max_arity) for _ in range(4))
    m, n = P.arity - 1, Q.arity - 1
    k, l = E.arity, F.arity
    fn = lambda a, b: br.fn_bracket(alg, a, b)
    rho = contract
    psi = lambda e, p: br.fn_bracket(alg, e, p)
    # the brackets that two axioms share, each taken once
    PQ, PE, QE = br.nr_bracket(P, Q), rho(P, E), rho(Q, E)
    check = _mismatch("action morphism axiom",
                      rho(PQ, E), rho(P, QE) - rho(Q, PE).scale(_sign(m * n)))
    if check is not None:
        return check
    EF, EP, FP = fn(E, F), psi(E, P), psi(F, P)
    check = _mismatch("twisted derivation axiom",
                      rho(P, EF),
                      fn(PE, F) + fn(E, rho(P, F)).scale(_sign(m * k))
                      + rho(FP, E).scale(_sign((m + k) * l))
                      - rho(EP, F).scale(_sign(m * k)))
    if check is not None:
        return check
    check = _mismatch("reverse morphism axiom",
                      psi(EF, P), psi(E, FP) - psi(F, EP).scale(_sign(k * l)))
    if check is not None:
        return check
    return _mismatch("reverse derivation axiom",
                     psi(E, PQ),
                     br.nr_bracket(EP, Q)
                     + br.nr_bracket(P, psi(E, Q)).scale(_sign(k * m))
                     + psi(QE, P).scale(_sign((k + m) * n))
                     - psi(PE, Q).scale(_sign(k * m)))


def _check_bicrossed_jacobi(alg, rng, max_arity, ctx):
    a, b, c = (_sample_pair(alg, rng, max_arity) for _ in range(3))
    ab = br.bicrossed_bracket(alg, a, b)
    check = _skew_jacobi("bicrossed bracket",
                         lambda x, y: br.bicrossed_bracket(alg, x, y),
                         lambda p: p.degree, a, b, c, mismatch=_pair_mismatch, PQ=ab)
    if check is not None:
        return check
    adj = adjoint_representation(alg)

    def embed(pair: GradedPair) -> GradedPair:
        shift = delta_hom(adj, pair.lower).scale(_sign(pair.degree))
        return GradedPair(pair.upper + shift, pair.lower)

    return _pair_mismatch("pair embedding preserves brackets",
                          embed(ab), br.semidirect_graded_bracket(alg, embed(a), embed(b)))


def _check_graph_theta_closed(alg, rng, max_arity, ctx):
    P, Q = (_sample_endo(alg, rng, max_arity) for _ in range(2))
    lhs = br.theta(alg, br.derived_bracket(alg, P, Q))
    rhs = br.nr_bracket(br.theta(alg, P), br.theta(alg, Q))
    return _mismatch("theta graph closure", lhs, rhs)


def _check_derived_graded_lie(alg, rng, max_arity, ctx):
    P, Q, R = (_sample_endo(alg, rng, max_arity) for _ in range(3))
    return _skew_jacobi("derived bracket",
                        lambda a, b: br.derived_bracket(alg, a, b),
                        lambda f: f.arity, P, Q, R)


def _check_derived_two_formulas(alg, rng, max_arity, ctx):
    P, Q = (_sample_endo(alg, rng, max_arity) for _ in range(2))
    return _mismatch("defining vs explicit three-sum formula",
                     br.derived_bracket(alg, P, Q),
                     _derived_rel_explicit(adjoint_representation(alg), P, Q))


def _check_d_lambda_derivation(alg, rng, max_arity, ctx):
    P, Q = (_sample_endo(alg, rng, max_arity) for _ in range(2))
    lam = rat(rng.choice(_LAMBDAS))
    m = P.arity
    lhs = d_lambda(alg, br.derived_bracket(alg, P, Q), lam)
    rhs = (br.derived_bracket(alg, d_lambda(alg, P, lam), Q)
           + br.derived_bracket(alg, P, d_lambda(alg, Q, lam)).scale(_sign(m)))
    return _mismatch("weighted differential derives the derived bracket", lhs, rhs)


def _check_theta_squared(alg, rng, max_arity, ctx):
    f = _sample_endo(alg, rng, max_arity)
    n = f.arity
    adj = adjoint_representation(alg)
    theta_f = br.theta(alg, f)
    lhs = br.theta(alg, theta_f)
    rhs = (br.theta(alg, delta_hom(adj, f)) - delta_hom(adj, theta_f)).scale(_sign(n))
    return _mismatch("theta squared", lhs, rhs)


def _check_rb_lemma(alg, rng, max_arity, ctx):
    R = sample_cochain(alg.space, alg.space, 1, rng)
    lam = rat(rng.choice(_LAMBDAS))
    theta_R = br.theta(alg, R)
    first = _mismatch("cup with the structure cochain",
                      br.cup_bracket(alg.mu, R, alg), contract(theta_R, alg.mu))
    if first is not None:
        return first
    lhs = br.theta(alg, d_lambda(alg, R, lam))
    rhs = br.nr_bracket(alg.mu, theta_R).scale(-lam)
    return _mismatch("theta of the weighted differential", lhs, rhs)


def _check_relative_consistency(alg, rng, max_arity, ctx):
    from .operators import _graph_closed, _relative_mc, relative_rb_pointwise
    action, verified = ctx
    lam = rat(rng.choice(_LAMBDAS))
    if rng.random() < 0.2 and verified:
        lam, R = verified[rng.randrange(len(verified))]
    else:
        R = cochain_matrix(sample_cochain(action.acted.space, action.acting.space, 1, rng))
    pointwise = relative_rb_pointwise(action, R, lam)  # the one twist guard of the trial
    graph = _graph_closed(action, R, lam)
    mc = _relative_mc(action, R, lam)
    if pointwise != graph or pointwise != mc:
        return ("relative operator criteria disagree", None,
                f"pointwise={pointwise}, graph={graph}", f"Maurer-Cartan={mc}")
    return None


def _check_d_r_matches_induced(alg, rng, max_arity, ctx):
    action, induced = ctx
    lam, rc, rep = induced[rng.randrange(len(induced))]
    arity = rng.randint(1, max_arity)
    f = sample_cochain(action.acted.space, action.acting.space, arity, rng)
    return _mismatch("operator coboundary vs induced-module coboundary",
                     d_lambda_tilde(action.acted, f, lam) + br.derived_bracket_rel(action, rc, f),
                     delta_hom(rep, f))


# Checker functions are named after their identity tags.
_CHECKERS = {tag: globals()[f"_check_{tag}"] for tag in IDENTITIES}


def verify(identity: str, algebra: HomLieAlgebra, trials: int = 50, seed: int = 0,
           max_arity: int = 3) -> VerificationReport:
    """Run one identity for the given number of independent random trials."""
    return _verify(identity, algebra, trials, seed, max_arity, {})


def _verify(identity: str, algebra: HomLieAlgebra, trials: int, seed: int, max_arity: int,
            shared: dict) -> VerificationReport:
    if identity not in _CHECKERS:
        raise ValueError(f"unknown identity tag: {identity!r}")
    for name, value in (("trials", trials), ("max_arity", max_arity)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    checker = _CHECKERS[identity]
    ctx = _context(identity, algebra, max_arity, shared)
    failures = []
    for trial in range(trials):
        rng = _stream(seed, identity, trial)
        result = checker(algebra, rng, max_arity, ctx)
        if result is not None:
            detail, witness, lhs, rhs = result
            failures.append(Failure(trial, detail, witness, lhs, rhs))
    return VerificationReport(identity, trials, tuple(failures))


def default_fixtures() -> list[tuple[str, HomLieAlgebra]]:
    return [
        ("abelian-dim2", fixture_abelian(2)),
        ("threedim-multiplicative", fixture_b()),
        ("yau-sl2", fixture_yau_sl2()),
        ("yau-heisenberg", fixture_yau_heisenberg()),
        ("yau-shear", fixture_yau_shear()),
        ("yau-dim4", fixture_yau_dim4()),
    ]


def run_all(algebras: list[tuple[str, HomLieAlgebra]] | None = None, trials: int = 50,
            seed: int = 0, max_arity: int = 3,
            identities: tuple[str, ...] | None = None) -> SuiteReport:
    """Every identity over every algebra; deterministic for a fixed seed."""
    if algebras is None:
        algebras = default_fixtures()
    tags = identities if identities is not None else IDENTITIES
    results = []
    for name, alg in algebras:
        shared = {"name": name}
        reports = tuple(_verify(tag, alg, trials, seed, max_arity, shared) for tag in tags)
        results.append((name, reports))
    return SuiteReport(seed, trials, max_arity, tuple(results))

"""The integer pair residuals against a ``Vec`` route.

Every pointwise operator identity is read off one integer kernel,
``structures._column_brackets``: the numerators of table(A e_x, B e_y) on basis
pairs, for an algebra's kept skew table or an action's kept numerators.  The
oracle here recomputes each value one ``Vec`` at a time, with nothing but
``alg.bracket``, ``Representation.act`` and ``cochains.evaluate`` on the bracket
cochain: the kernel itself, the deformed brackets and the two sides of the
Nijenhuis, Rota-Baxter and relative identities (the verdicts' A = C and a
search's bilinear part A != C), graph closure, the induced structures, the
semidirect product and the morphism equations of orders 0-2.  The inputs are
random dense rational matrices on the six default fixtures and on their dense
transports (``test_transport.G``); the public witnesses are checked on random
twist-compatible operators, and a seeded sample of them is pinned by SHA-256.
One ``_induced_structures`` call builds and checks each distinct induced
structure once: the tests count the checks of every relative context, compare
each entry with the operator's standalone build, and make the two weights
differ by running the contexts on the adjoint action.
"""

import hashlib
from fractions import Fraction
from itertools import combinations

import pytest

from homlie import operators, structures, theorems
from homlie.cochains import (SkewCochain, TwistedSpace, cochain_matrix, compatibility_basis,
                             evaluate, operator_cochain)
from homlie.differentials import _action_columns
from homlie.linalg import Mat, Vec, mat_rank
from homlie.operators import nijenhuis_defect, relative_rb_defect, rota_baxter_defect
from homlie.structures import (HomLieAction, HomLieAlgebra, adjoint_action,
                               bracket_action_on_abelian, fixture_yau_heisenberg, fixture_yau_sl2,
                               order_witness, semidirect_weight)
from homlie.theorems import _relative_context, _stream, default_fixtures
from test_transport import FIXTURES_3, G, transport

ALGEBRAS = default_fixtures() + [(f"{name}-transported", HomLieAlgebra(moved.space, moved.mu))
                                 for name, alg in FIXTURES_3 for moved in (transport(alg, G),)]
# brackets and twists with denominators, which the default fixtures' brackets do not have
FRACTIONAL = [("yau-sl2-t3", fixture_yau_sl2(3)),
              ("yau-heisenberg-half", fixture_yau_heisenberg("1/2", 3))]
LAMS = (Fraction(0), Fraction(1), Fraction(-1, 2))


def dense(rows, cols, rng):
    """A random dense rational matrix: every entry nonzero, denominators up to 3."""
    return Mat([[Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                 for _ in range(cols)] for _ in range(rows)])


def commuting(source, target, rng):
    """A random rational twist-compatible operator: the compatible basis, rational coefficients."""
    total = Mat.zero(target.dim, source.dim)
    for b in compatibility_basis(source, target, 1):
        total = total + cochain_matrix(b).scale(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))))
    return total


def pairs(dim):
    return list(combinations(range(dim), 2))


# ---------------------------------------------------------------------------
# The Vec route


def vec_deformed(action, R, lam=None):
    """(x, y) -> Rx . y - Ry . x + lam [x, y], or - R[x, y] for lam None, on ``Vec`` alone.

    The acted bracket is ``cochains.evaluate`` on its bracket cochain.
    """
    def value(x, y):
        bracket = evaluate(action.acted.mu, [x, y])
        third = -(R @ bracket) if lam is None else bracket.scale(lam)
        return action.act(R @ x, y) - action.act(R @ y, x) + third

    return value


def vec_sides(action, A, C, deformed):
    """[((x, y), [Ax, Cy], A(deformed(x, y)))] on the increasing acted basis pairs, on ``Vec``."""
    e = action.acted.space.basis
    return [((x, y), action.acting.bracket(A @ e[x], C @ e[y]), A @ deformed(e[x], e[y]))
            for x, y in pairs(len(e))]


def vec_defects(action, R, lam=None):
    """The pointwise defects [Rx, Ry] - R(deformed(x, y)), pair after pair, as one ``Vec``."""
    return Vec.concat(*[lhs - rhs for _, lhs, rhs in vec_sides(action, R, R,
                                                                vec_deformed(action, R, lam))])


def vec_witness(sides):
    return next(((pair, lhs, rhs) for pair, lhs, rhs in sides if lhs != rhs), None)


def vec_order_witness(source, target, terms, n):
    """``order_witness`` one ``Vec`` at a time: phi_n [x, y] against sum [phi_a x, phi_b y]."""
    m, e = terms[n], source.space.basis
    if target.alpha @ m != m @ source.alpha:
        return ("twist intertwining", None, target.alpha @ m, m @ source.alpha)
    for x, y in pairs(source.dim):
        lhs = m @ evaluate(source.mu, [e[x], e[y]])
        rhs = target.bracket(terms[0] @ e[x], terms[n] @ e[y])
        for a in range(1, n + 1):
            rhs = rhs + target.bracket(terms[a] @ e[x], terms[n - a] @ e[y])
        if lhs != rhs:
            return ("bracket preservation", (x, y), lhs, rhs)
    return None


def rows_as_vecs(rows, den):
    return [Vec.make([Fraction(x, den) for x in row]) for row in rows]


# ---------------------------------------------------------------------------
# The kernel and the residual rows


@pytest.mark.parametrize("name,alg", ALGEBRAS + FRACTIONAL)
def test_the_kernel_is_the_vec_bracket_and_action(name, alg):
    rng = _stream(7, "kernel", name)
    A, B = dense(alg.dim, alg.dim, rng), dense(alg.dim, alg.dim, rng)
    e, ordered = alg.space.basis, [(x, y) for x in range(alg.dim) for y in range(alg.dim)]
    table = structures._skew_numerators(alg)
    both = structures._column_brackets(table, [A.num, B.num], [A.num, B.num], ordered)
    for M, found in zip((A, B), both):
        for N, values in zip((A, B), found):
            den = table[1] * M.den * N.den
            got = [structures._row_sum(terms, alg.dim) for terms in values]
            assert rows_as_vecs(got, den) == [evaluate(alg.mu, [M @ e[x], N @ e[y]])
                                              for x, y in ordered]
    for action in (adjoint_action(alg), bracket_action_on_abelian(alg)):
        acts = _action_columns(action, 0) or ([{}] * alg.dim, 1)  # None for the zero action
        values = structures._column_brackets(acts, [A.num], None, ordered)[0]
        assert rows_as_vecs([structures._row_sum(t, alg.dim) for t in values], acts[1] * A.den) == [
            action.act(A @ e[x], e[y]) for x, y in ordered]


@pytest.mark.parametrize("name,alg", ALGEBRAS + FRACTIONAL)
def test_the_residual_rows_are_the_vec_residuals(name, alg):
    # the deformed brackets and both sides of each identity, on dense operators that
    # need not intertwine the twists: the private routines run no guard
    rng = _stream(8, "residuals", name)
    adj, abelian = adjoint_action(alg), bracket_action_on_abelian(alg)
    cases = [(adj, None)] + [(action, lam) for action in (adj, abelian) for lam in LAMS]
    for _ in range(2):
        A, C = dense(alg.dim, alg.dim, rng), dense(alg.dim, alg.dim, rng)
        for action, lam in cases:
            deformed = operators._deformed(action, [A, C], lam)
            for M, (rows, den) in zip((A, C), deformed):
                reference = vec_deformed(action, M, lam)
                assert rows_as_vecs(rows, den) == [reference(*[action.acted.space.basis[i]
                                                                for i in pair])
                                                   for pair in pairs(alg.dim)], (lam, M)
            # the search's bilinear part: every ordered pair of matrices, A != C too
            sides = operators._pair_sides(action, [A, C], deformed)
            for X, row in zip((A, C), sides):
                for Y, (lhs, lden, rhs, rden) in zip((A, C), row):
                    reference = vec_sides(action, X, Y, vec_deformed(action, Y, lam))
                    assert rows_as_vecs(lhs, lden) == [v for _, v, _ in reference]
                    assert rows_as_vecs(rhs, rden) == [v for _, _, v in reference]


@pytest.mark.parametrize("name,alg", ALGEBRAS + FRACTIONAL)
def test_the_witnesses_are_the_vec_witnesses(name, alg):
    rng = _stream(9, "witnesses", name)
    adj, abelian = adjoint_action(alg), bracket_action_on_abelian(alg)
    identity = Mat.identity(alg.dim)
    operators_ = [commuting(alg.space, alg.space, rng) for _ in range(4)] + [identity.scale(2)]
    failed = 0
    for R in operators_:
        want = vec_witness(vec_sides(adj, R, R, vec_deformed(adj, R)))
        assert nijenhuis_defect(alg, R) == want
        failed += want is not None
        for lam in LAMS:
            for action in (adj, abelian):
                want = vec_witness(vec_sides(action, R, R, vec_deformed(action, R, lam)))
                assert relative_rb_defect(action, R, lam) == want, (lam, R)
                failed += want is not None
            assert rota_baxter_defect(alg, R, lam) == vec_witness(
                vec_sides(adj, R, R, vec_deformed(adj, R, lam)))
        terms = [R] + [commuting(alg.space, alg.space, rng) for _ in range(2)]
        for n in range(3):
            assert order_witness(alg, alg, terms, n) == vec_order_witness(alg, alg, terms, n), n
    assert failed or alg.mu.is_zero()


@pytest.mark.parametrize("name,alg", ALGEBRAS + FRACTIONAL)
def test_a_map_off_the_commutant_fails_the_twist_equation_first(name, alg):
    rng = _stream(10, "off", name)
    for _ in range(3):
        M = dense(alg.dim, alg.dim, rng)
        commutes = alg.alpha @ M == M @ alg.alpha  # every map, for a scalar twist
        witness = order_witness(alg, alg, (M,), 0)
        assert witness == vec_order_witness(alg, alg, (M,), 0)
        assert (witness is not None and witness[0] == "twist intertwining") == (not commutes)
        if not commutes:
            with pytest.raises(ValueError, match="intertwine"):
                nijenhuis_defect(alg, M)


def test_graph_closure_induced_structures_and_semidirect_products_are_the_vec_ones():
    for name, alg in default_fixtures() + FRACTIONAL:
        if alg.dim > 3:
            continue
        action, verified = _relative_context(alg)
        g, h = action.acting, action.acted
        for lam, R in verified[:6]:
            [(induced, rep)] = operators._induced_structures(action, [(lam, R)])
            deformed = vec_deformed(action, R, lam)
            e = h.space.basis
            assert all(induced.mu.value_on(pair) == deformed(e[pair[0]], e[pair[1]])
                       for pair in pairs(h.dim))
            assert rep.table == tuple(tuple(g.bracket(R @ e[i], x) + R @ action.act(x, e[i])
                                            for x in g.space.basis) for i in range(h.dim))
        for lam in LAMS:
            big = semidirect_weight(action, lam)
            gzero, hzero = Vec.zero(g.dim), Vec.zero(h.dim)
            for i, j in pairs(g.dim + h.dim):
                if j < g.dim:
                    want = Vec.concat(g.table[i][j], hzero)
                elif i < g.dim:
                    want = Vec.concat(gzero, action.table[i][j - g.dim])
                else:
                    want = Vec.concat(gzero, h.table[i - g.dim][j - g.dim].scale(lam))
                assert big.mu.value_on((i, j)) == want, (name, lam, (i, j))
            rng = _stream(11, "graph", name, lam)
            sampled = [commuting(h.space, g.space, rng) for _ in range(3)]
            for R in sampled + [R for _, R in verified]:
                columns = [Vec.concat(R @ x, x) for x in h.space.basis]
                closed = mat_rank(Mat.from_columns(columns + [
                    big.bracket(columns[i], columns[j]) for i, j in pairs(h.dim)])) == h.dim
                assert operators._graph_closed(action, R, lam) == closed


def test_a_map_between_spaces_of_two_dimensions_reads_the_same_rows():
    # the zero action of an abelian 2-dim algebra on a 3-dim one: R maps 3 dimensions to 2
    acted = dict(default_fixtures())["threedim-multiplicative"]
    space = TwistedSpace(Mat([[1, 0], [0, 2]]))
    acting = HomLieAlgebra(space, SkewCochain.zero(space, space, 2))
    action = HomLieAction(acting, acted, tuple((Vec.zero(3),) * 3 for _ in range(2)))
    rng, e = _stream(12, "rectangular"), acted.space.basis
    for lam in LAMS:
        A, C = dense(2, 3, rng), dense(2, 3, rng)
        deformed = operators._deformed(action, [A, C], lam)
        for M, (rows, den) in zip((A, C), deformed):
            reference = vec_deformed(action, M, lam)
            assert rows_as_vecs(rows, den) == [reference(e[x], e[y]) for x, y in pairs(3)]
        for X, row in zip((A, C), operators._pair_sides(action, [A, C], deformed)):
            for Y, (lhs, lden, rhs, rden) in zip((A, C), row):
                reference = vec_sides(action, X, Y, vec_deformed(action, Y, lam))
                assert rows_as_vecs(lhs, lden) == [v for _, v, _ in reference]
                assert rows_as_vecs(rhs, rden) == [v for _, _, v in reference]
        big, columns = semidirect_weight(action, lam), [Vec.concat(A @ x, x) for x in e]
        assert operators._graph_closed(action, A, lam) == (mat_rank(Mat.from_columns(columns + [
            big.bracket(columns[i], columns[j]) for i, j in pairs(3)])) == 3)


def test_a_witness_builds_vecs_for_the_first_failing_pair_alone(monkeypatch):
    built = []
    real = structures._vec_reduced
    monkeypatch.setattr(structures, "_vec_reduced", lambda *args: built.append(args) or real(*args))
    lhs, rhs = [[1, 2], [3, 4], [5, 6], [7, 8]], [[2, 4], [6, 8], [5, 7], [0, 0]]
    # the rows are equal at the first two pairs, over the denominators 2 and 4
    assert structures._witness(["a", "b", "c", "d"], lhs, 2, rhs, 4) == (
        "c", Vec.make([Fraction(5, 2), 3]), Vec.make([Fraction(5, 4), Fraction(7, 4)]))
    assert len(built) == 2
    assert structures._witness(["a", "b"], lhs[:2], 2, rhs[:2], 4) is None and len(built) == 2
    assert structures._witness(["a"], [[1, 2]], 1, [[1, 3]], 1)[0] == "a"


# ---------------------------------------------------------------------------
# Induced structures shared within one call


def _counting(monkeypatch, *names):
    """Wrap each named check of ``operators`` to count its calls."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        real = getattr(operators, name)

        def counting(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(operators, name, counting)
    return calls


def assert_standalone(action, verified, entries):
    """Each context entry (lam, rc, rep) of verified's (lam, R) is what R builds alone."""
    assert [lam for lam, _ in verified] == [lam for lam, _, _ in entries]
    for (lam, R), (_, rc, rep) in zip(verified, entries):
        alone, alone_rep = operators.induced_structures(action, R, lam)
        assert rc == operator_cochain(action.acted.space, action.acting.space, R)
        assert rep.algebra == alone and rep.algebra.space == action.acted.space
        assert rep.module == alone_rep.module == action.acting.space
        assert rep.table == alone_rep.table


def test_one_operator_at_two_weights_of_the_adjoint_action_induces_two_structures(monkeypatch):
    alg, Z = dict(default_fixtures())["threedim-multiplicative"], Mat.zero(3, 3)
    adj = adjoint_action(alg)
    calls = _counting(monkeypatch, "representation_witness")
    (zero, _), (one, _) = operators._induced_structures(adj, [(Fraction(0), Z), (Fraction(1), Z)])
    assert zero.mu.is_zero() and one.mu == alg.mu and calls["representation_witness"] == 2
    # nothing is kept between calls: a second call checks again, on its own action's spaces
    other = adjoint_action(fixture_yau_sl2())
    for action in (adj, other, adj):
        [(induced, rep)] = operators._induced_structures(action, [(Fraction(0), Z)])
        assert induced.space == action.acted.space and rep.module == action.acting.space
    assert calls["representation_witness"] == 5


DISTINCT = {"abelian-dim2": 81, "threedim-multiplicative": 11, "yau-sl2": 3,
            "yau-heisenberg": 7, "yau-shear": 27, "yau-dim4": 15,
            "yau-sl2-t3": 3, "yau-heisenberg-half": 7}


@pytest.mark.parametrize("name,alg", default_fixtures() + FRACTIONAL)
def test_a_context_checks_each_distinct_induced_structure_once(name, alg, monkeypatch):
    # the acted bracket of the abelian copy is zero, so both weights find one list
    shared = {}
    calls = _counting(monkeypatch, "representation_witness", "check_morphism")
    action, entries = theorems._context("d_r_matches_induced", alg, 3, shared)
    verified = shared["relative"][1]
    assert calls == dict.fromkeys(calls, DISTINCT[name]) and len(verified) == 2 * DISTINCT[name]
    assert len({id(rep) for _, _, rep in entries}) == DISTINCT[name]
    assert_standalone(action, verified, entries)


def test_the_adjoint_action_s_two_weights_build_their_own_structures(monkeypatch):
    # on the adjoint action, lam [h, k] no longer vanishes: the weights find different lists
    monkeypatch.setattr(theorems, "bracket_action_on_abelian", adjoint_action)
    lengths = []
    for name, alg in default_fixtures():
        shared = {}
        action, entries = theorems._context("d_r_matches_induced", alg, 3, shared)
        lengths.append(len(entries))
        assert_standalone(action, shared["relative"][1], entries)
        assert theorems._verify("d_r_matches_induced", alg, 50, 0, 3, shared).passed
    assert lengths == [162, 25, 11, 19, 45, 103]


# ---------------------------------------------------------------------------
# A pinned sample of witnesses


def sampled_witnesses():
    """The witnesses of a seeded sample of failing twist-compatible rational operators."""
    out = []
    for name, alg in ALGEBRAS:
        rng = _stream(31, "witness", name)
        abelian = bracket_action_on_abelian(alg)
        for _ in range(4):
            R = commuting(alg.space, alg.space, rng)
            out.append((name, "Nijenhuis", nijenhuis_defect(alg, R)))
            for lam in LAMS:
                out.append((name, f"Rota-Baxter {lam}", rota_baxter_defect(alg, R, lam)))
                out.append((name, f"relative {lam}", relative_rb_defect(abelian, R, lam)))
            terms = [commuting(alg.space, alg.space, rng) for _ in range(3)]
            for n in range(3):
                out.append((name, f"order {n}", order_witness(alg, alg, terms, n)))
    return [w for w in out if w[2] is not None]


def test_a_seeded_sample_of_witnesses_is_pinned():
    # recorded from the Vec implementation of the pair identities
    witnesses = sampled_witnesses()
    assert len(witnesses) == 354
    assert hashlib.sha256(repr(witnesses).encode()).hexdigest() == (
        "c1ad1f00273328fe0e9645792d812eb0c04b36bb66102398a5c4b450ec675b7d")

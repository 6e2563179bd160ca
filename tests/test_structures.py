from fractions import Fraction

import pytest

from homlie.linalg import Mat, Vec
from homlie.cochains import SkewCochain, TwistedSpace
from homlie.structures import (HomLieAlgebra, HomMorphism, RawHomStructure,
                               adjoint_action, adjoint_representation, as_hom_lie,
                               bracket_action_on_abelian, check_action,
                               check_hom_jacobi, check_morphism, check_multiplicative,
                               check_representation, commutator_hom_lie, fixture_abelian,
                               fixture_3dim, fixture_b, fixture_jackson_sl2,
                               fixture_yau_dim4, fixture_yau_heisenberg, fixture_yau_sl2,
                               multiplicativity_failures, multiplicativity_witness,
                               semidirect_weight, trivial_representation, yau_twist)


def test_jackson_fixture_values():
    j = fixture_jackson_sl2(2)
    e, h, f = (j.space.basis_vec(i) for i in range(3))
    assert j.bracket(h, e) == e.scale(2)
    assert j.bracket(e, f) == h.scale("3/2")
    assert j.bracket(h, f) == f.scale(-4)
    assert j.alpha == Mat.diagonal([2, 2, 4])


def test_jackson_jacobi_all_q_multiplicative_only_at_one():
    for q in ("1", "2", "-1", "1/2", "5/3"):
        j = fixture_jackson_sl2(q)
        assert check_hom_jacobi(j)
    assert check_multiplicative(fixture_jackson_sl2(1))
    j2 = fixture_jackson_sl2(2)
    assert not check_multiplicative(j2)
    failures = {pair: (lhs, rhs) for pair, lhs, rhs in multiplicativity_failures(j2)}
    lhs, rhs = failures[(0, 2)]
    assert lhs == Vec.make([0, 3, 0]) and rhs == Vec.make([0, 12, 0])


def test_jackson_q1_is_classical_sl2():
    j = as_hom_lie(fixture_jackson_sl2(1))
    assert j.alpha == Mat.identity(3)


def test_threedim_jacobi_and_multiplicativity_grid():
    import random
    rng = random.Random(123)
    for _ in range(10):
        params = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(4)]
        assert check_hom_jacobi(fixture_3dim(*params))
    for a in (0, 1):
        for d in (0, 1):
            for b in (0, 1, 2):
                for c in (0, 1, 2):
                    s = fixture_3dim(a, b, c, d)
                    assert check_multiplicative(s) == (a == 0 and d == 0)


def test_threedim_witnesses():
    s = fixture_3dim(1, 0, 0, 0)
    pair, lhs, rhs = multiplicativity_witness(s)
    assert pair == (0, 1) and lhs == Vec.make([1, 0, 0]) and rhs == Vec.make([2, 0, 0])


def test_hom_lie_algebra_constructor_rejects_bad_structures():
    with pytest.raises(ValueError):
        as_hom_lie(fixture_jackson_sl2(2))
    with pytest.raises(ValueError):
        as_hom_lie(fixture_3dim(1, 1, 1, 1))
    # bracket failing the twisted Jacobi identity but multiplicative
    sp = TwistedSpace.untwisted(3)
    mu = SkewCochain(sp, sp, 2, {(0, 1): Vec.make([1, 0, 0]),
                                 (0, 2): Vec.make([0, 1, 0])})
    raw = RawHomStructure(sp, mu)
    assert check_multiplicative(raw) and not check_hom_jacobi(raw)
    with pytest.raises(ValueError):
        as_hom_lie(raw)


def test_abelian_fixture():
    a = fixture_abelian(2)
    assert check_hom_jacobi(a) and check_multiplicative(a)
    assert a.bracket(a.space.basis_vec(0), a.space.basis_vec(1)).is_zero()


def test_adjoint_representation_and_action():
    for alg in (fixture_b(), fixture_yau_sl2(), fixture_yau_dim4()):
        assert check_representation(adjoint_representation(alg))
        assert check_action(adjoint_action(alg))


def test_an_action_is_a_representation_and_the_adjoint_object_is_one():
    from homlie.brackets import derived_bracket_rel, theta_tilde
    from homlie.differentials import delta_hom
    from homlie.structures import Representation
    from homlie.theorems import sample_cochain, _stream
    B = fixture_b()
    assert adjoint_representation(B) is adjoint_action(B)
    assert adjoint_action(B) is adjoint_action(B)
    act = bracket_action_on_abelian(B)
    assert isinstance(act, Representation)
    rep = Representation(B, act.module, act.table)  # the same data, a plain representation
    rng = _stream(5, "action-as-rep")
    f = sample_cochain(B.space, act.module, 1, rng)
    assert delta_hom(act, f) == delta_hom(rep, f) and not delta_hom(act, f).is_zero()
    P, Q = (sample_cochain(act.module, B.space, k, rng) for k in (1, 2))
    assert theta_tilde(act, P) == theta_tilde(rep, P) and not theta_tilde(act, P).is_zero()
    assert derived_bracket_rel(act, P, Q) == derived_bracket_rel(rep, P, Q)


def test_trivial_representation():
    B = fixture_b()
    assert check_representation(trivial_representation(B, B.space))
    other = TwistedSpace(Mat.diagonal([1, 3]))
    assert check_representation(trivial_representation(B, other))


def test_bracket_action_on_abelian_is_valid_and_not_adjoint():
    B = fixture_b()
    act = bracket_action_on_abelian(B)
    assert check_action(act)
    assert act.acted.mu.is_zero() and not B.mu.is_zero()


def test_yau_twist_cases():
    sp = TwistedSpace.untwisted(3)
    heis = SkewCochain(sp, sp, 2, {(0, 1): Vec.make([0, 0, 1])})
    # identity map returns the Lie algebra itself
    same = yau_twist(heis, Mat.identity(3))
    assert same.mu == heis and same.alpha == Mat.identity(3)
    # zero map gives the abelian structure
    ab = yau_twist(heis, Mat.zero(3, 3))
    assert ab.mu.is_zero()
    twisted = fixture_yau_sl2()
    assert check_hom_jacobi(twisted) and check_multiplicative(twisted)
    # a non-homomorphism twist is rejected
    with pytest.raises(ValueError):
        yau_twist(heis, Mat.diagonal([1, 1, 5]))
    # a bracket violating the Jacobi identity is rejected
    bad = SkewCochain(sp, sp, 2, {(0, 1): Vec.make([1, 0, 0]),
                                  (0, 2): Vec.make([0, 1, 0])})
    with pytest.raises(ValueError):
        yau_twist(bad, Mat.identity(3))


def test_commutator_hom_lie_matrix_algebra():
    # 2x2 matrices as a 4-dim associative algebra, basis E11, E12, E21, E22
    def unit(i, j):
        return 2 * i + j

    table = [[Vec.zero(4) for _ in range(4)] for _ in range(4)]
    for i in range(2):
        for j in range(2):
            for k in range(2):
                for l in range(2):
                    if j == k:
                        table[unit(i, j)][unit(k, l)] = Vec.basis(4, unit(i, l))
    product = tuple(tuple(row) for row in table)
    raw = commutator_hom_lie(product, Mat.identity(4))
    assert check_hom_jacobi(raw)
    alg = as_hom_lie(raw)
    e12, e21 = Vec.basis(4, 1), Vec.basis(4, 2)
    assert alg.bracket(e12, e21) == Vec.make([1, 0, 0, -1])


def test_commutator_hom_lie_degenerate_products():
    zero = tuple(tuple(Vec.zero(2) for _ in range(2)) for _ in range(2))
    assert commutator_hom_lie(zero, Mat.identity(2)).mu.is_zero()
    # commutative product: symmetric table, abelian bracket
    sym = tuple(tuple(Vec.basis(2, 0) for _ in range(2)) for _ in range(2))
    assert commutator_hom_lie(sym, Mat.identity(2)).mu.is_zero()
    # non-associative product is rejected: (e1 e1) e1 = e1 but e1 (e1 e1) = 0
    bad = [[Vec.zero(2) for _ in range(2)] for _ in range(2)]
    bad[0][0] = Vec.basis(2, 1)
    bad[1][0] = Vec.basis(2, 0)
    with pytest.raises(ValueError):
        commutator_hom_lie(tuple(tuple(r) for r in bad), Mat.identity(2))


def test_semidirect_weight_structure():
    B = fixture_b()
    act = adjoint_action(B)
    big = semidirect_weight(act, 1)
    assert isinstance(big, HomLieAlgebra) and big.dim == 6
    # restricted to the acting summand the bracket is the original one
    for i in range(3):
        for j in range(3):
            x = Vec(tuple(Vec.basis(3, i).entries) + (Fraction(0),) * 3)
            y = Vec(tuple(Vec.basis(3, j).entries) + (Fraction(0),) * 3)
            got = big.bracket(x, y)
            want = B.bracket(Vec.basis(3, i), Vec.basis(3, j))
            assert got == Vec(tuple(want.entries) + (Fraction(0),) * 3)
    # restricted to the acted summand the bracket scales linearly in the weight
    big2 = semidirect_weight(act, 2)
    for i in range(3):
        for j in range(3):
            h = Vec((Fraction(0),) * 3 + tuple(Vec.basis(3, i).entries))
            k = Vec((Fraction(0),) * 3 + tuple(Vec.basis(3, j).entries))
            assert big2.bracket(h, k) == big.bracket(h, k).scale(2)


def test_semidirect_weight_kept_per_weight():
    act = adjoint_action(fixture_b())
    one = semidirect_weight(act, "1")
    assert semidirect_weight(act, 1) is one and semidirect_weight(act, Fraction(1)) is one
    two = semidirect_weight(act, 2)
    assert two is not one
    acted = [Vec.concat(Vec.zero(3), Vec.basis(3, i)) for i in range(3)]
    scaled = [(two.bracket(h, k), one.bracket(h, k).scale(2)) for h in acted for k in acted]
    assert all(got == want for got, want in scaled)
    assert any(not got.is_zero() for got, _ in scaled)
    # another action on the same algebras builds its own product
    assert semidirect_weight(adjoint_action(fixture_b()), 1) is not one


def test_search_and_induced_structures_verify_one_product_per_weight(monkeypatch):
    from homlie import structures
    from homlie.operators import induced_structures, search_relative_rb
    act = bracket_action_on_abelian(fixture_b())
    checked = []
    real = structures.hom_jacobi_witness

    def counting(s):
        if s.dim == 6:
            checked.append(s)
        return real(s)

    monkeypatch.setattr(structures, "hom_jacobi_witness", counting)
    for lam in (0, 1):
        before = len(checked)
        found = search_relative_rb(act, lam)
        assert found
        for R in found:
            induced_structures(act, R, lam)
        assert len(checked) - before == 1


def test_semidirect_weight_zero_with_abelian_module():
    B = fixture_b()
    act = bracket_action_on_abelian(B)
    big = semidirect_weight(act, 0)
    assert check_hom_jacobi(big) and check_multiplicative(big)


def test_shear_twist_fixture():
    from homlie.structures import fixture_yau_shear
    s = fixture_yau_shear()
    assert s.alpha != Mat.diagonal([1, 1, 1])
    assert s.alpha.rows[0][1] == 1  # genuinely non-diagonal
    assert check_hom_jacobi(s) and check_multiplicative(s)


def test_morphism_checks():
    B = fixture_b()
    assert check_morphism(HomMorphism(B, B, Mat.identity(3)))
    assert check_morphism(HomMorphism(B, B, Mat.zero(3, 3)))
    # a map that scales only one bracket side fails
    assert not check_morphism(HomMorphism(B, B, Mat.diagonal([2, 1, 1])))
    # twist intertwining failure on the two Yau twists
    sl2, heis = fixture_yau_sl2(), fixture_yau_heisenberg()
    assert not check_morphism(HomMorphism(sl2, heis, Mat.identity(3)))


def test_adjoint_representation_is_one_instance_serving_the_structure_table():
    for alg in (fixture_b(), fixture_yau_sl2(), fixture_yau_dim4()):
        adj = adjoint_representation(alg)
        assert adjoint_representation(alg) is adj
        assert adj.table is alg.table
        basis = alg.space.basis
        for x in basis:
            for y in basis:
                assert adj.act(x, y) == alg.bracket(x, y)


def _representation_witness_over_ordered_pairs(rep):
    """The reference for representation_witness: the bracket law on every ordered pair (i, j)."""
    alg, mod = rep.algebra, rep.module
    gtwisted, vtwisted = alg.space.twisted_basis(1), mod.twisted_basis(1)
    for i in range(alg.dim):
        for j in range(mod.dim):
            lhs = mod.alpha @ rep.table[i][j]
            rhs = rep.act(gtwisted[i], vtwisted[j])
            if lhs != rhs:
                return ("twist equivariance", (i, j), lhs, rhs)
    for i in range(alg.dim):
        for j in range(alg.dim):
            for k in range(mod.dim):
                lhs = rep.act(alg.table[i][j], vtwisted[k])
                rhs = (rep.act(gtwisted[i], rep.table[j][k])
                       - rep.act(gtwisted[j], rep.table[i][k]))
                if lhs != rhs:
                    return ("bracket compatibility", (i, j, k), lhs, rhs)
    return None


def _planted(rep):
    """rep with one action entry x . e_k doubled or shifted by e_k, for every (x, k)."""
    from homlie.structures import Representation
    for x in range(rep.algebra.dim):
        for k in range(rep.module.dim):
            for wrong in (rep.table[x][k].scale(2), rep.table[x][k] + rep.module.basis[k]):
                table = [list(row) for row in rep.table]
                table[x][k] = wrong
                yield x, Representation(rep.algebra, rep.module, table)


def _equivariant_tables(alg, module):
    """A basis of the action tables with beta(x . v) = alpha(x) . beta(v), by one kernel.

    The unknown x . e_b = sum_c t[x, b, c] e_c is coordinate (x * m + b) * m + c.
    """
    from homlie.linalg import kernel_basis
    n, m = alg.dim, module.dim
    alpha, beta = alg.alpha.rows, module.alpha.rows
    rows = []
    for x in range(n):
        for b in range(m):
            for c in range(m):
                row = [Fraction(0)] * (n * m * m)
                for a in range(m):
                    row[(x * m + b) * m + a] += beta[c][a]
                for k in range(n):
                    for d in range(m):
                        row[(k * m + d) * m + c] -= alpha[k][x] * beta[d][b]
                rows.append(row)
    return kernel_basis(Mat(rows))


def _random_equivariant(alg, module, kernel, rng):
    """A random integer combination of the kernel, as a Representation of alg on module."""
    from homlie.structures import Representation
    n, m = alg.dim, module.dim
    picks = [rng.randint(-2, 2) for _ in kernel]
    coeffs = [sum((k[t] * c for k, c in zip(kernel, picks)), Fraction(0)) for t in range(n * m * m)]
    return Representation(alg, module, [[Vec(coeffs[(x * m + b) * m:(x * m + b + 1) * m])
                                         for b in range(m)] for x in range(n)])


def _dense_pairs():
    """(algebra, module space): the default fixtures on their own and on dense twists.

    A 3-dim fixture moved by the dense unimodular change of basis of the transport
    tests gives a dense twist; it acts on its own space and on the fixture's.
    """
    from test_transport import G, transport
    from homlie.theorems import default_fixtures
    for _, alg in default_fixtures():
        yield alg, alg.space
        if alg.dim == 3:
            moved = as_hom_lie(transport(alg, G))
            yield moved, moved.space
            yield moved, alg.space
            yield alg, moved.space


def test_representation_witness_matches_the_ordered_pair_reference():
    import random
    from homlie.structures import representation_witness
    from homlie.theorems import _context, default_fixtures
    reps, bracket_failures = [], set()
    for _, alg in default_fixtures():
        actions = [adjoint_action(alg), bracket_action_on_abelian(alg)]
        induced = _context("d_r_matches_induced", alg, 3, {})[1]
        reps += actions + [rep for _, _, rep in induced]
        for action in actions:
            for x, rep in _planted(action):
                reps.append(rep)
                w = representation_witness(rep)
                if w is not None and w[0] == "bracket compatibility":
                    i, j, _ = w[1]
                    bracket_failures.add("first" if x == i else "second" if x == j else "other")
    # random twist-equivariant tables on the default and dense twists reach the bracket law
    rng, random_failures = random.Random(43), 0
    for alg, module in _dense_pairs():
        kernel = _equivariant_tables(alg, module)
        for _ in range(6):
            rep = _random_equivariant(alg, module, kernel, rng)
            reps.append(rep)
            w = representation_witness(rep)
            assert w is None or w[0] == "bracket compatibility"
            random_failures += w is not None
    assert len(reps) > 300 and random_failures > 60
    for rep in reps:
        assert representation_witness(rep) == _representation_witness_over_ordered_pairs(rep)
    # planted entries fail the bracket law as the first and as the second index of a pair
    assert {"first", "second"} <= bracket_failures


def _hom_jacobi_three_brackets(s):
    """The reference for hom_jacobi_witness: each triple's cyclic sum as three brackets, added."""
    from itertools import combinations
    table, twisted = s.table, s.space.twisted_basis(1)
    for i, j, k in combinations(range(s.dim), 3):
        total = (s.bracket(twisted[i], table[j][k]) + s.bracket(twisted[j], table[k][i])
                 + s.bracket(twisted[k], table[i][j]))
        if not total.is_zero():
            return (i, j, k), total
    return None


def test_hom_jacobi_witness_matches_the_three_bracket_reference():
    import random
    from itertools import combinations
    from homlie.structures import hom_jacobi_witness
    rng, structures, failing = random.Random(41), [], 0
    for alg, module in _dense_pairs():
        structures.append(alg)
        for _ in range(8):  # random skew brackets with denominators, mostly not Hom-Jacobi
            structures.append(RawHomStructure(module, SkewCochain(module, module, 2, {
                key: Vec([Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3)))
                          for _ in range(module.dim)])
                for key in combinations(range(module.dim), 2) if rng.random() < 0.8})))
    for s in structures:
        w = hom_jacobi_witness(s)
        assert w == _hom_jacobi_three_brackets(s)
        failing += w is not None
    assert len(structures) > 100 and failing > 60


# -- the integer structure checks at scale ---------------------------------------
#
# The checks read integer numerators; the references above read ``Vec``.  The
# routes differ most on larger brackets, non-diagonal and singular twists and
# weights with denominators, so these inputs add every default fixture's
# weighted semidirect products (dimensions 4-8) at the workload weights,
# the filiform algebras L8-L12 untwisted and Yau-twisted by the diagonal
# automorphism diag(2, 3, 6, 12, ...), a singular twist of L8, and planted
# failures in each.

WEIGHTS = (0, 1, -1, "1/2", 2)


def filiform(n, twist=None):
    """The filiform Lie algebra L_n, [e_0, e_i] = e_(i+1) for 0 < i < n - 1, Yau-twisted by twist."""
    plain = TwistedSpace.untwisted(n)
    mu = SkewCochain(plain, plain, 2, {(0, i): plain.basis[i + 1] for i in range(1, n - 1)})
    return yau_twist(mu, Mat.identity(n) if twist is None else twist)


def filiform_weights(n):
    """diag(2, 3, 6, 12, ...): e_0 has weight 2 and e_i weight 3 * 2^(i-1), an automorphism of L_n."""
    return Mat.diagonal([2] + [3 * 2 ** (i - 1) for i in range(1, n)])


def singular_shift(n):
    """e_0 fixed, e_i -> e_(i+1) for 0 < i < n - 1 and e_(n-1) -> 0: a singular endomorphism of L_n."""
    return Mat([[1 if i == j == 0 or 0 < j == i - 1 else 0 for j in range(n)] for i in range(n)])


def structures_at_scale():
    """(name, algebra): every default fixture's semidirect products, L8-L12 and a singular twist."""
    from homlie.theorems import default_fixtures
    for name, alg in default_fixtures():
        for kind, action in (("adjoint", adjoint_action(alg)),
                             ("abelian", bracket_action_on_abelian(alg))):
            for lam in WEIGHTS:
                yield f"{name}-{kind}-{lam}", semidirect_weight(action, lam)
    for n in range(8, 13):
        yield f"L{n}", filiform(n)
        yield f"L{n}-twisted", filiform(n, filiform_weights(n))
    yield "L8-singular", filiform(8, singular_shift(8))


SCALE = list(structures_at_scale())


def planted_brackets(s, rng, count=3):
    """count raw copies of s, each with one bracket [e_i, e_j] shifted by +-e_k or +-e_k / 2."""
    from itertools import combinations
    pairs = list(combinations(range(s.dim), 2))
    for _ in range(count):
        pair, k = rng.choice(pairs), rng.randrange(s.dim)
        shift = s.space.basis[k].scale(Fraction(rng.choice((1, -1)), rng.choice((1, 2))))
        coeffs = dict(s.mu.coeffs)
        coeffs[pair] = coeffs.get(pair, Vec.zero(s.dim)) + shift
        yield RawHomStructure(s.space, SkewCochain(s.space, s.space, 2, coeffs))


def test_the_scale_inputs_are_what_they_say():
    names = dict(SCALE)
    assert len(SCALE) == 6 * 2 * 5 + 11
    assert {s.dim for name, s in SCALE if not name.startswith("L")} == {4, 6, 8}
    assert all(isinstance(s, HomLieAlgebra) for _, s in SCALE)  # both checks passed
    shift = names["L8-singular"].alpha.num
    assert not any(row[7] for row in shift) and shift[2][1] == 1  # singular, not diagonal
    assert names["L12-twisted"].alpha == Mat.diagonal([2, 3, 6, 12, 24, 48, 96, 192, 384,
                                                       768, 1536, 3072])


def test_hom_jacobi_witness_matches_the_three_bracket_reference_at_scale():
    import random
    from homlie.structures import hom_jacobi_witness
    rng, failing = random.Random(47), set()
    for name, s in SCALE:
        assert hom_jacobi_witness(s) is None and _hom_jacobi_three_brackets(s) is None, name
        for raw in planted_brackets(s, rng):
            w = hom_jacobi_witness(raw)
            assert w == _hom_jacobi_three_brackets(raw), name
            if w is not None:
                failing.add(name.split("-")[0] if name.startswith("L") else "semidirect")
                failing.add("fraction" if w[1].den > 1 else "integer")
    assert failing == {"semidirect", "L8", "L9", "L10", "L11", "L12", "fraction", "integer"}


def test_representation_witness_matches_the_ordered_pair_reference_at_scale():
    import random
    from homlie.structures import Representation, representation_witness
    rng, kinds = random.Random(53), set()
    for name, s in SCALE:
        adjoint = adjoint_representation(s)
        assert representation_witness(adjoint) is None, name
        assert _representation_witness_over_ordered_pairs(adjoint) is None, name
        for _ in range(2):  # one planted entry x . e_k, scaled or shifted by e_k / 2
            x, k = rng.randrange(s.dim), rng.randrange(s.dim)
            table = [list(row) for row in adjoint.table]
            table[x][k] = rng.choice((table[x][k].scale(-1), table[x][k] + s.space.basis[k].scale(
                Fraction(1, 2))))
            rep = Representation(s, s.space, table)
            w = representation_witness(rep)
            assert w == _representation_witness_over_ordered_pairs(rep), (name, x, k)
            kinds.add(w and w[0])
    assert kinds == {None, "twist equivariance", "bracket compatibility"}

import gc
import random
import weakref
from fractions import Fraction
from itertools import permutations
from math import comb, factorial, prod

import pytest

from homlie.linalg import Mat, Vec
from homlie.cochains import (SkewCochain, TwistedSpace, cochain_matrix,
                             compatibility_basis, contract, evaluate, is_compatible,
                             operator_cochain, perm_sign, shuffles, sort_with_sign)
from homlie.differentials import delta_hom
from homlie.structures import (adjoint_representation, fixture_3dim, fixture_b,
                               fixture_jackson_sl2, fixture_yau_sl2)
from homlie.theorems import sample_cochain, _stream


def _brute_shuffles(blocks):
    total = sum(blocks)
    out = {}
    for p in permutations(range(total)):
        ok, start = True, 0
        for b in blocks:
            seg = p[start:start + b]
            if any(seg[i] >= seg[i + 1] for i in range(len(seg) - 1)):
                ok = False
                break
            start += b
        if ok:
            out[p] = perm_sign(p)
    return out


@pytest.mark.parametrize("blocks", [(1, 1), (2, 1), (3, 0), (0, 2), (2, 2), (1, 1, 1),
                                    (2, 1, 2), (3, 1)])
def test_shuffles_match_brute_force(blocks):
    got = dict(shuffles(*blocks))
    assert got == _brute_shuffles(blocks)
    assert len(got) == factorial(sum(blocks)) // prod(factorial(b) for b in blocks)


def test_shuffles_small_cases():
    assert dict(shuffles(1, 1)) == {(0, 1): 1, (1, 0): -1}
    two_one = dict(shuffles(2, 1))
    assert len(two_one) == 3 and sorted(two_one.values()) == [-1, 1, 1]
    assert dict(shuffles(4, 0)) == {(0, 1, 2, 3): 1}


@pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2)])
def test_shuffle_partition_property(m, n):
    # Sh(m, n) splits by whether position 1 or position m+1 carries the
    # smallest value, giving sign-preserving and (-1)^m-twisted copies of
    # Sh(m-1, n) and Sh(m, n-1).
    full = dict(shuffles(m, n))
    assert len(full) == comb(m + n, m)
    first = {img: s for img, s in full.items() if img[0] == 0}
    second = {img: s for img, s in full.items() if img[m] == 0}
    assert len(first) + len(second) == len(full)
    reduced_first = {tuple(v - 1 for v in img[1:]): s for img, s in first.items()}
    assert reduced_first == dict(shuffles(m - 1, n))
    sign_m = -1 if m % 2 else 1
    reduced_second = {tuple(v - 1 for v in img[:m] + img[m + 1:]): s * sign_m
                      for img, s in second.items()}
    assert reduced_second == dict(shuffles(m, n - 1))


def test_sort_with_sign():
    assert sort_with_sign([2, 0, 1]) == (1, (0, 1, 2))
    assert sort_with_sign([1, 0]) == (-1, (0, 1))
    assert sort_with_sign([0, 2, 0]) == (0, None)


def test_evaluation_alternation_and_multilinearity():
    B = fixture_b()
    mu, sp = B.mu, B.space
    e = [sp.basis_vec(i) for i in range(3)]
    assert evaluate(mu, [e[0], e[0]]).is_zero()
    assert evaluate(mu, [e[1], e[0]]) == -mu.value_on((0, 1))
    assert evaluate(mu, [e[0] + e[1], e[1]]) == mu.value_on((0, 1))
    x = e[0].scale(2) - e[2].scale("1/3")
    y = e[1] + e[2].scale(5)
    lhs = evaluate(mu, [x.scale(3), y])
    assert lhs == evaluate(mu, [x, y]).scale(3)
    with pytest.raises(ValueError):
        evaluate(mu, [e[0]])


def test_evaluation_agrees_with_full_permutation_expansion():
    rng = _stream(11, "eval")
    B = fixture_b()
    f = sample_cochain(B.space, B.space, 2, rng)
    args = [Vec.make([rng.randint(-3, 3) for _ in range(3)]) for _ in range(2)]
    brute = Vec.zero(3)
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            sign, key = sort_with_sign([i, j])
            brute = brute + f.value_on(key).scale(Fraction(sign) * args[0][i] * args[1][j])
    assert evaluate(f, args) == brute


def test_compatibility_identity_twist_and_fixtures():
    sp = TwistedSpace.untwisted(3)
    rng = random.Random(5)
    f = SkewCochain(sp, sp, 2, {(0, 1): Vec.make([1, 2, 3]), (0, 2): Vec.make([0, -1, 1])})
    assert is_compatible(f)
    jackson = fixture_jackson_sl2(2)
    assert not is_compatible(jackson.mu)
    assert is_compatible(fixture_3dim(0, 1, 1, 0).mu)
    assert not is_compatible(fixture_3dim(1, 0, 0, 0).mu)


def test_compatibility_basis_dimensions():
    plain2 = TwistedSpace.untwisted(2)
    assert len(compatibility_basis(plain2, plain2, 1)) == 4
    diag = TwistedSpace(Mat.diagonal([1, 2]))
    basis = compatibility_basis(diag, diag, 1)
    assert len(basis) == 2
    for b in basis:
        m = cochain_matrix(b)
        assert m.rows[0][1] == 0 and m.rows[1][0] == 0
    assert compatibility_basis(plain2, plain2, 3) == []
    for arity in (1, 2, 3):
        for b in compatibility_basis(fixture_b().space, fixture_b().space, arity):
            assert is_compatible(b)


def test_compatibility_bases_go_with_their_space():
    """Bases are kept on their domain: they keep no space alive, an equal twist builds its own."""
    def probe():
        alg = fixture_yau_sl2(3)
        for arity in (1, 2, 3):
            compatibility_basis(alg.space, alg.space, arity)
        delta_hom(adjoint_representation(alg), compatibility_basis(alg.space, alg.space, 1)[0])
        return weakref.ref(alg.space)

    space = probe()
    gc.collect()
    assert space() is None
    alpha = Mat.diagonal([2, 1, "1/2"])
    spaces = (TwistedSpace(alpha), TwistedSpace(alpha))
    bases = [compatibility_basis(w, w, 2) for w in spaces]
    assert bases[0] is not bases[1] and bases[0] == bases[1]
    for w, basis in zip(spaces, bases):
        assert basis and all(b.domain is w for b in basis)


def test_degree0_fixed_vectors():
    sp = TwistedSpace(Mat.diagonal([1, 2, 2]))
    fixed = compatibility_basis(sp, sp, 0)
    assert len(fixed) == 1 and fixed[0].value_on(()) == Vec.basis(3, 0)


def test_contract_identity_cases():
    B = fixture_b()
    sp = B.space
    ident = operator_cochain(sp, sp, Mat.identity(3))
    assert contract(ident, B.mu) == B.mu.scale(2)
    rng = _stream(3, "contract")
    q = sample_cochain(sp, sp, 1, rng)
    # arity-1 insertion is composition
    assert cochain_matrix(contract(q, ident)) == cochain_matrix(q)
    p3 = sample_cochain(sp, sp, 3, rng)
    assert contract(ident, p3) == p3.scale(3)


def test_contract_matches_pointwise_shuffle_sum():
    B = fixture_b()
    sp = B.space
    rng = _stream(9, "contract-oracle")
    P = sample_cochain(sp, sp, 2, rng)
    Q = sample_cochain(sp, sp, 2, rng)
    got = contract(P, Q)
    alpha = sp.alpha
    basis = [sp.basis_vec(i) for i in range(3)]
    for key in [(0, 1, 2)]:
        total = Vec.zero(3)
        for image, sign in shuffles(2, 1):
            args = [basis[key[p]] for p in image]
            head = evaluate(P, args[:2])
            total = total + evaluate(Q, [head, alpha @ args[2]]).scale(sign)
        assert got.value_on(key) == total


def test_contract_preserves_compatibility():
    B = fixture_b()
    rng = _stream(4, "compat")
    P = sample_cochain(B.space, B.space, 2, rng)
    Q = sample_cochain(B.space, B.space, 2, rng)
    assert is_compatible(contract(P, Q))


def test_contract_mixed_matches_brute_force_on_module_valued_cochains():
    from homlie.structures import bracket_action_on_abelian
    B = fixture_b()
    act = bracket_action_on_abelian(B)
    hs = act.acted.space
    rng = _stream(7, "mixed2")
    f = sample_cochain(hs, hs, 2, rng)       # endomorphism-type cochain on the module
    P = sample_cochain(hs, B.space, 2, rng)  # module-to-algebra cochain
    got = contract(f, P)
    beta = hs.alpha
    basis = [hs.basis_vec(i) for i in range(3)]
    for key in [(0, 1, 2)]:
        total = Vec.zero(3)
        for image, sign in shuffles(2, 1):
            args = [basis[key[p]] for p in image]
            head = evaluate(f, args[:2])
            total = total + evaluate(P, [head, beta @ args[2]]).scale(sign)
        assert got.value_on(key) == total


def test_cochain_shape_errors():
    B = fixture_b()
    other = TwistedSpace.untwisted(2)
    with pytest.raises(ValueError):
        contract(B.mu, SkewCochain.zero(other, other, 2))
    with pytest.raises(ValueError):
        SkewCochain(B.space, B.space, 2, {(1, 0): Vec.zero(3)})
    with pytest.raises(ValueError):
        SkewCochain.zero(B.space, B.space, -1)


def test_scale_by_an_int_sign_skips_the_rational_path():
    B = fixture_b()
    P = sample_cochain(B.space, B.space, 2, _stream(5, "scale-sign"))
    assert not P.is_zero()
    assert P.scale(1) is P
    for c in (-1, Fraction(-1), "-1"):
        assert P.scale(c) == -P
    assert P.scale(Fraction(1)) == P and P.scale(-1).scale(-1) == P

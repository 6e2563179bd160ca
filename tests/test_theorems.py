import pytest

from homlie.linalg import Vec
from homlie.cochains import SkewCochain, shuffles
from homlie.structures import fixture_abelian, fixture_b
from homlie import brackets
from homlie.theorems import IDENTITIES, run_all, sample_cochain, verify, _stream
from homlie import io as hio

B = fixture_b()


def test_identity_catalogue_is_complete():
    assert len(IDENTITIES) == 24
    assert len(set(IDENTITIES)) == 24


def test_unknown_identity_rejected():
    with pytest.raises(ValueError):
        verify("definitely-not-a-tag", B, trials=1)


def test_sample_cochain_deterministic_and_compatible():
    from homlie.cochains import is_compatible
    a = sample_cochain(B.space, B.space, 2, _stream(4, "s"))
    b = sample_cochain(B.space, B.space, 2, _stream(4, "s"))
    assert a == b
    assert is_compatible(a)


def _sample_by_linear_combination(domain, codomain, arity, rng):
    """The reference for sample_cochain: one linear_combination over the compatible basis."""
    from homlie.cochains import compatibility_basis, linear_combination
    return linear_combination(domain, codomain, arity, [
        (rng.randint(-3, 3), b) for b in compatibility_basis(domain, codomain, arity)])


def test_sample_cochain_is_the_linear_combination_of_the_basis():
    import random
    from homlie.structures import bracket_action_on_abelian
    from homlie.theorems import default_fixtures
    from homlie.cochains import TwistedSpace, compatibility_basis
    from homlie.linalg import Mat
    relative = bracket_action_on_abelian(fixture_b())
    mixed = TwistedSpace(Mat([[0, 3], [0, 2]]))  # its arity-1 basis has denominators 1 and 3
    assert {b.den for b in compatibility_basis(mixed, mixed, 1)} == {1, 3}
    spaces = [(alg.space, alg.space) for _, alg in default_fixtures()]
    spaces += [(relative.acted.space, relative.acting.space), (mixed, mixed)]
    nonzero = 0
    for domain, codomain in spaces:
        for arity in (1, 2, 3):
            for seed in range(300):
                rng, ref = random.Random(seed), random.Random(seed)
                got = sample_cochain(domain, codomain, arity, rng)
                want = _sample_by_linear_combination(domain, codomain, arity, ref)
                assert got.num == want.num and got.den == want.den  # dict order aside
                assert (got.domain, got.codomain, got.arity) == (domain, codomain, arity)
                assert rng.getstate() == ref.getstate()
                nonzero += not got.is_zero()
    assert nonzero > 4500


def test_top_arity_cocycles_are_sampled():
    from homlie.cohomology import ComplexSpec
    from homlie.theorems import _cocycle_data, _sample_cocycle
    ab = fixture_abelian(2)
    data = _cocycle_data(ab, 2)
    spec = ComplexSpec.adjoint(ab)
    samples = [_sample_cocycle(data, 2, _stream(seed, "top"), ab.space, ab.space)
               for seed in range(5)]
    assert any(not f.is_zero() for f in samples)
    assert all(spec.differential(f).is_zero() for f in samples)


@pytest.mark.parametrize("tag", IDENTITIES)
def test_each_identity_passes_on_the_threedim_fixture(tag):
    report = verify(tag, B, trials=3, seed=11)
    assert report.passed, report.failures[0]


def test_verify_is_deterministic():
    r1 = verify("cup_graded_lie", B, trials=5, seed=42)
    r2 = verify("cup_graded_lie", B, trials=5, seed=42)
    assert r1.to_json() == r2.to_json()


def test_abelian_algebra_passes_vacuously():
    ab = fixture_abelian(2)
    for tag in ("cup_graded_lie", "fn_graded_lie", "derived_graded_lie"):
        assert verify(tag, ab, trials=2, seed=0).passed


def test_identities_hold_with_a_non_diagonal_twist():
    # unipotent twist: compatibility spaces are not coordinate-aligned, so
    # twist powers and shuffle sums are exercised off the diagonal
    from homlie.structures import fixture_yau_shear
    shear = fixture_yau_shear()
    for tag in ("mc_homlie", "cup_graded_lie", "fn_two_formulas",
                "derived_two_formulas", "theta_squared", "rb_lemma"):
        report = verify(tag, shear, trials=3, seed=17)
        assert report.passed, (tag, report.failures[0])


def test_run_all_empty_list_gives_empty_report():
    suite = run_all([], trials=1)
    assert suite.results == () and suite.all_passed


def test_run_all_json_is_byte_stable():
    algebras = [("threedim-multiplicative", B)]
    tags = ("mc_homlie", "pre_lie")
    s1 = hio.dumps(run_all(algebras, trials=3, seed=9, identities=tags).to_json())
    s2 = hio.dumps(run_all(algebras, trials=3, seed=9, identities=tags).to_json())
    assert s1 == s2


def test_run_all_builds_the_relative_context_once_per_algebra(monkeypatch):
    from homlie import theorems
    built = []
    original = theorems._relative_context

    def counting(alg):
        built.append(alg)
        return original(alg)

    monkeypatch.setattr(theorems, "_relative_context", counting)
    abelian = fixture_abelian(2)
    tags = ("relative_consistency", "mc_homlie", "d_r_matches_induced")
    suite = run_all([("b", B), ("abelian", abelian)], trials=2, seed=3, identities=tags)
    assert suite.all_passed
    assert [a is alg for a, alg in zip(built, (B, abelian))] == [True, True]
    assert len(built) == 2
    # verify alone still builds its own context.
    verify("d_r_matches_induced", B, trials=1)
    assert len(built) == 3


def _unsigned_cup(P, Q, codomain_alg):
    """Mutated cup bracket: shuffle signs dropped (deliberate sign error)."""
    m, n = P.arity, Q.arity
    beta_n = codomain_alg.space.twist_power(n - 1)
    beta_m = codomain_alg.space.twist_power(m - 1)
    terms = list(shuffles(m, n))

    def value(key):
        total = Vec.zero(codomain_alg.dim)
        for image, _sign in terms:
            left = P.value_on(tuple(key[p] for p in image[:m]))
            right = Q.value_on(tuple(key[p] for p in image[m:]))
            if left.is_zero() or right.is_zero():
                continue
            total = total + codomain_alg.bracket(beta_n @ left, beta_m @ right)
        return total

    return SkewCochain.from_function(P.domain, P.codomain, m + n, value)


def test_mutated_cup_bracket_is_caught_with_witnesses(monkeypatch):
    # max_arity=1 keeps every trial at the (1, 1) arity pair, where the
    # dropped shuffle sign is always visible on this fixture
    monkeypatch.setattr(brackets, "cup_bracket", _unsigned_cup)
    for tag in ("cup_graded_lie", "cup_via_theta", "cup_via_delta"):
        report = verify(tag, B, trials=12, seed=1, max_arity=1)
        assert not report.passed, tag
        failure = report.failures[0]
        assert failure.witness is not None
        assert failure.lhs != failure.rhs
    monkeypatch.undo()
    assert verify("cup_graded_lie", B, trials=3, seed=1).passed


def test_sign_flip_in_theta_tilde_is_caught_by_the_explicit_formula(monkeypatch):
    # derived_bracket goes through theta~ of the adjoint representation; the
    # explicit shuffle sum does not, so a planted sign error shows up
    real = brackets.theta_tilde
    monkeypatch.setattr(brackets, "theta_tilde", lambda rep, P: -real(rep, P))
    report = verify("derived_two_formulas", B, trials=12, seed=505)
    assert not report.passed
    assert report.failures[0].lhs != report.failures[0].rhs
    monkeypatch.undo()
    assert verify("derived_two_formulas", B, trials=12, seed=505).passed

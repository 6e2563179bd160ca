"""Acceptance suite: one test per criterion, exact equality throughout.

Each criterion prints a PASS/FAIL line (collected in the terminal summary).
All comparisons are exact rational equality; there are no tolerances
anywhere.  Default scale: dims <= 4, arities <= 3, 50 trials per identity.
"""

import json
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction

from conftest import record_acceptance

from homlie.linalg import Mat, Vec, kernel_basis
from homlie.cochains import (SkewCochain, cochain_matrix, compatibility_basis,
                             contract, flatten_cochain, operator_cochain)
from homlie.structures import (HomMorphism, RawHomStructure, adjoint_representation,
                               bracket_action_on_abelian, check_hom_jacobi,
                               check_morphism, check_multiplicative,
                               check_representation, fixture_3dim, fixture_b,
                               fixture_jackson_sl2, fixture_yau_dim4,
                               fixture_yau_heisenberg, fixture_yau_sl2,
                               hom_jacobi_witness, multiplicativity_failures)
from homlie.differentials import delta_hom
from homlie import brackets
from homlie.brackets import cup_bracket, derived_bracket, nr_bracket
from homlie.differentials import d_lambda
from homlie.cohomology import ComplexSpec, cohomology, is_coboundary, square_zero_witness
from homlie.deformations import MorphismDeformation, check_order_deformation, extend, obstruction
from homlie.operators import (induced_structures, is_nijenhuis, is_rota_baxter,
                              nijenhuis_report, relative_rb_graph, relative_rb_mc,
                              relative_rb_pointwise, search_nijenhuis,
                              search_relative_rb)
from homlie.theorems import sample_cochain, verify, _stream

B = fixture_b()
YAU_FIXTURES = [("yau-sl2", fixture_yau_sl2()), ("yau-heisenberg", fixture_yau_heisenberg())]
ALL_FIXTURES = [("threedim-multiplicative", B)] + YAU_FIXTURES + [("yau-dim4", fixture_yau_dim4())]


@contextmanager
def criterion(label: str):
    try:
        yield
    except BaseException:
        record_acceptance(f"{label}: FAIL")
        raise
    record_acceptance(f"{label}: PASS")


def test_c01_jackson_sl2_regression():
    with criterion("criterion 1 (Jackson sl2 regression)"):
        j2 = fixture_jackson_sl2(2)
        failures = {pair: (lhs, rhs) for pair, lhs, rhs in multiplicativity_failures(j2)}
        lhs, rhs = failures[(0, 2)]
        assert lhs == Vec.make([0, 3, 0])    # twist of [e, f] is 3h
        assert rhs == Vec.make([0, 12, 0])   # bracket of twisted e, f is 12h
        assert not check_multiplicative(j2)
        assert check_hom_jacobi(j2)
        j1 = fixture_jackson_sl2(1)
        assert check_multiplicative(j1) and check_hom_jacobi(j1)
        # same verdicts through the command-line surface
        fx = subprocess.run([sys.executable, "-m", "homlie.cli", "fixture",
                             "jackson-sl2", "--q", "2"], capture_output=True, text=True)
        chk = subprocess.run([sys.executable, "-m", "homlie.cli", "check", "structure",
                              "-", "--json"], input=fx.stdout, capture_output=True,
                             text=True)
        assert chk.returncode == 1
        payload = json.loads(chk.stdout)
        pairs = {tuple(f["pair"]): f for f in payload["multiplicativity_failures"]}
        assert pairs[(1, 3)]["twist_of_bracket"] == ["0", "3", "0"]
        assert pairs[(1, 3)]["bracket_of_twists"] == ["0", "12", "0"]
        fx1 = subprocess.run([sys.executable, "-m", "homlie.cli", "fixture",
                              "jackson-sl2", "--q", "1"], capture_output=True, text=True)
        chk1 = subprocess.run([sys.executable, "-m", "homlie.cli", "check", "structure", "-"],
                              input=fx1.stdout, capture_output=True, text=True)
        assert chk1.returncode == 0


def test_c02_threedim_family():
    with criterion("criterion 2 (3-dim example family)"):
        rng = random.Random(2024)
        for _ in range(20):
            params = [Fraction(rng.randint(-8, 8), rng.randint(1, 5)) for _ in range(4)]
            assert check_hom_jacobi(fixture_3dim(*params)), params
        for a in (0, 1):
            for d in (0, 1):
                for b in (0, 1, 2):
                    for c in (0, 1, 2):
                        got = check_multiplicative(fixture_3dim(a, b, c, d))
                        assert got == (a == 0 and d == 0), (a, b, c, d)


def _raw_skew_cochain(space, rng):
    """Random skew 2-cochain with no twist-compatibility (a corrupted candidate)."""
    from itertools import combinations
    table = {key: Vec.make([rng.randint(-3, 3) for _ in range(space.dim)])
             for key in combinations(range(space.dim), 2)}
    return SkewCochain(space, space, 2, table)


def test_c03_maurer_cartan_matches_structure_oracle():
    with criterion("criterion 3 (Maurer-Cartan vs twisted Jacobi oracle)"):
        for name, alg in ALL_FIXTURES[:3]:
            rng = _stream(303, name)
            candidates = [alg.mu, alg.mu.scale(2), alg.mu.scale("-1/2")]
            candidates += [sample_cochain(alg.space, alg.space, 2, rng)
                           for _ in range(10)]
            candidates += [_raw_skew_cochain(alg.space, rng) for _ in range(10)]
            disagreements = 0
            failing = 0
            for nu in candidates:
                mc_zero = nr_bracket(nu, nu).is_zero()
                jacobi = hom_jacobi_witness(RawHomStructure(alg.space, nu)) is None
                disagreements += (mc_zero != jacobi)
                failing += (not jacobi)
            assert disagreements == 0, name
            assert failing > 0, f"{name}: corrupted candidates never failed"


GRADED_LIE_TAGS = ("nr_graded_lie", "cup_graded_lie", "fn_graded_lie", "derived_graded_lie")


def test_c04_graded_lie_suites():
    with criterion("criterion 4 (graded Lie suites, 50 trials each)"):
        for name, alg in [("threedim-multiplicative", B)] + YAU_FIXTURES:
            for tag in GRADED_LIE_TAGS:
                report = verify(tag, alg, trials=50, seed=404)
                assert report.passed, (name, tag, report.failures[0])


STRUCTURAL_TAGS = (
    "cup_via_theta", "cup_via_delta", "delta_cup_derivation",
    "cup_trivial_cohomology", "theta_cup_derivation", "pre_lie", "rho_is_action",
    "semidirect_jacobi", "graph_delta_closed", "fn_two_formulas",
    "matched_pair_axioms", "bicrossed_jacobi", "graph_theta_closed",
    "derived_two_formulas", "d_lambda_derivation", "theta_squared", "rb_lemma",
)


def test_c05_structural_identities_and_mutation(monkeypatch):
    with criterion("criterion 5 (structural identities + mutation test)"):
        for tag in STRUCTURAL_TAGS:
            report = verify(tag, B, trials=50, seed=505)
            assert report.passed, (tag, report.failures[0])
        # sign-flip mutation in the cup bracket must break identities 3, 4, 5
        from test_theorems import _unsigned_cup
        monkeypatch.setattr(brackets, "cup_bracket", _unsigned_cup)
        for tag in ("cup_graded_lie", "cup_via_theta", "cup_via_delta"):
            report = verify(tag, B, trials=12, seed=505, max_arity=1)
            assert not report.passed, tag
            witness = report.failures[0]
            assert witness.witness is not None and witness.lhs != witness.rhs
        monkeypatch.undo()


def test_c06_cup_product_trivial_on_cohomology():
    with criterion("criterion 6 (cup product trivial on cohomology)"):
        adj = adjoint_representation(B)
        spec = ComplexSpec.adjoint(B)
        rng = _stream(606, "cocycles")
        cocycle_data = {}
        for m in (1, 2):
            basis = compatibility_basis(B.space, B.space, m)
            cols = [flatten_cochain(delta_hom(adj, b)) for b in basis]
            cocycle_data[m] = (basis, kernel_basis(Mat.from_columns(cols)))
        checked = 0
        while checked < 10:
            m = rng.choice((1, 2))
            n = rng.choice((1, 2))
            def draw(k):
                basis, kern = cocycle_data[k]
                total = SkewCochain.zero(B.space, B.space, k)
                for kv in kern:
                    c = rng.randint(-3, 3)
                    if c:
                        for b, coeff in zip(basis, kv.entries):
                            total = total + b.scale(coeff * c)
                return total
            P, Q = draw(m), draw(n)
            if P.is_zero() or Q.is_zero():
                continue
            checked += 1
            cup = cup_bracket(P, Q, B)
            sign = -1 if m % 2 else 1
            preimage = contract(P, Q).scale(sign)
            assert cup == delta_hom(adj, preimage)
            found = is_coboundary(spec, cup)
            assert found is not None
            assert spec.differential(found) == cup


def test_c07_nijenhuis_operators():
    with criterion("criterion 7 (Nijenhuis operators)"):
        for c in ("0", "1", "-2", "1/2"):
            n = Mat.identity(3).scale(Fraction(c))
            assert is_nijenhuis(B, n)
            assert nijenhuis_report(B, n).ok
        found = search_nijenhuis(B)
        assert found and any(not m.is_zero() for m in found)
        for m in found:
            report = nijenhuis_report(B, m)
            assert report.ok, (m, report.failed())


def test_c08_rota_baxter_operators():
    with criterion("criterion 8 (Rota-Baxter operators)"):
        for lam in ("0", "1", "2", "-1/2"):
            lam = Fraction(lam)
            assert is_rota_baxter(B, Mat.zero(3, 3), lam)
            assert is_rota_baxter(B, Mat.identity(3).scale(-lam), lam)
        rng = _stream(808, "rb")
        passing = failing = 0
        for _ in range(40):
            rm = cochain_matrix(sample_cochain(B.space, B.space, 1, rng))
            lam = Fraction(rng.choice([0, 1, 2, -1]))
            # direct identity and Maurer-Cartan residual, compared explicitly
            from homlie.operators import rota_baxter_defect
            direct = rota_baxter_defect(B, rm, lam) is None
            rc = operator_cochain(B.space, B.space, rm)
            residual = d_lambda(B, rc, lam) + derived_bracket(B, rc, rc).scale(Fraction(1, 2))
            assert direct == residual.is_zero(), (rm, lam)
            passing += direct
            failing += not direct
        assert failing > 0


def test_c09_relative_rota_baxter():
    with criterion("criterion 9 (relative Rota-Baxter operators)"):
        action = bracket_action_on_abelian(B)
        rng = _stream(909, "relrb")
        disagreements = 0
        for _ in range(40):
            rm = cochain_matrix(sample_cochain(action.acted.space, B.space, 1, rng))
            lam = Fraction(rng.choice([0, 1, 2]))
            a = relative_rb_pointwise(action, rm, lam)
            b = relative_rb_graph(action, rm, lam)
            c = relative_rb_mc(action, rm, lam)
            disagreements += not (a == b == c)
        assert disagreements == 0
        for lam in (Fraction(0), Fraction(1)):
            verified = search_relative_rb(action, lam)
            assert verified
            for R in verified[-3:]:
                induced, rep = induced_structures(action, R, lam)
                assert check_hom_jacobi(induced) and check_multiplicative(induced)
                assert check_representation(rep)
                assert check_morphism(HomMorphism(induced, B, R))
                op_spec = ComplexSpec.relative_rb(action, R, lam)
                mod_spec = ComplexSpec.hom_rep(rep)
                for degree in (1, 2, 3):
                    assert op_spec.matrix(degree) == mod_spec.matrix(degree)


def test_c10_morphism_deformation_theory():
    with criterion("criterion 10 (morphism deformation theory)"):
        A = fixture_yau_sl2()
        phi = Mat.identity(3)
        spec = ComplexSpec.morphism(HomMorphism(A, A, phi))
        assert cohomology(spec, 2).dim_h == 0
        basis = spec.basis(1)
        cols = [flatten_cochain(spec.differential(b)) for b in basis]
        kern = kernel_basis(Mat.from_columns(cols))
        assert kern
        nonzero_obstructions = 0
        for kv in kern:
            z = SkewCochain.zero(A.space, A.space, 1)
            for b, c in zip(basis, kv.entries):
                z = z + b.scale(c * 2)
            d = MorphismDeformation(A, A, (phi, cochain_matrix(z)))
            assert check_order_deformation(d)
            while d.order < 4:
                ob = obstruction(d)
                assert spec.differential(ob.cocycle).is_zero()
                nonzero_obstructions += not ob.cocycle.is_zero()
                assert ob.is_coboundary
                d = extend(d)
                assert d is not None
                assert check_order_deformation(d)
            assert d.order == 4
        assert nonzero_obstructions > 0
        # obstruction closedness on a second fixture pair
        spec_b = ComplexSpec.morphism(HomMorphism(B, B, Mat.identity(3)))
        basis_b = spec_b.basis(1)
        cols_b = [flatten_cochain(spec_b.differential(b)) for b in basis_b]
        for kv in kernel_basis(Mat.from_columns(cols_b)):
            z = SkewCochain.zero(B.space, B.space, 1)
            for b, c in zip(basis_b, kv.entries):
                z = z + b.scale(c)
            d = MorphismDeformation(B, B, (Mat.identity(3), cochain_matrix(z)))
            ob = obstruction(d)
            assert spec_b.differential(ob.cocycle).is_zero()


def test_c11_all_differentials_square_to_zero():
    with criterion("criterion 11 (differentials square to zero, degrees 1..4)"):
        for name, alg in ALL_FIXTURES:
            action = bracket_action_on_abelian(alg)
            specs = [
                ComplexSpec.adjoint(alg),
                ComplexSpec.relative(alg, alg.space, 1),
                ComplexSpec.morphism(HomMorphism(alg, alg, Mat.identity(alg.dim))),
                ComplexSpec.scaled_trivial(alg, 2),
                ComplexSpec.relative(action.acted, alg.space, 1),
                ComplexSpec.relative_rb(action, Mat.zero(alg.dim, alg.dim), 1),
            ]
            if name == "threedim-multiplicative":
                ops = search_relative_rb(action, 1)
                specs.append(ComplexSpec.relative_rb(action, ops[-1], 1))
            for k, spec in enumerate(specs):
                assert square_zero_witness(spec, 4) is None, (name, k)


def test_c12_deterministic_reports():
    with criterion("criterion 12 (byte-identical reports for a fixed seed)"):
        args = [sys.executable, "-m", "homlie.cli", "verify-theorems",
                "--fixture", "threedim-multiplicative", "--trials", "3",
                "--seed", "12", "--json"]
        first = subprocess.run(args, capture_output=True, text=True)
        second = subprocess.run(args, capture_output=True, text=True)
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout.encode() == second.stdout.encode()
        assert json.loads(first.stdout)["all_passed"] is True

"""Exact rational bracket calculus for multiplicative Hom-Lie algebras."""

from .linalg import Mat, Vec, kernel_basis, mat_rank, rat, rat_str, solve_linear
from .cochains import (SkewCochain, TwistedSpace, cochain_matrix, compatibility_basis,
                       compatibility_witness, contract, evaluate,
                       fixed_vectors, is_compatible, operator_cochain, shuffles)
from .structures import (HomLieAction, HomLieAlgebra, HomMorphism, RawHomStructure,
                         Representation, adjoint_action, adjoint_representation,
                         as_hom_lie, bracket_action_on_abelian, check_action,
                         check_hom_jacobi, check_morphism, check_multiplicative,
                         check_representation, commutator_hom_lie, fixture_abelian,
                         fixture_3dim, fixture_b, fixture_jackson_sl2, fixture_yau_dim4,
                         fixture_yau_heisenberg, fixture_yau_shear, fixture_yau_sl2,
                         hom_jacobi_witness,
                         morphism_witness, multiplicativity_failures,
                         multiplicativity_witness, semidirect_weight,
                         trivial_representation, yau_twist)
from .differentials import (Degree0Cochain, d_lambda, d_lambda_tilde, d_trivial,
                            delta_hom, delta_hom_deg0, delta_tr)
from .brackets import (GradedPair, bicrossed_bracket, cup_bracket, derived_bracket,
                       derived_bracket_rel, fn_bracket, nr_bracket,
                       semidirect_graded_bracket, theta, theta_tilde)
from .cohomology import (CohomologyReport, ComplexSpec, cohomology, d_phi, d_rb,
                         is_coboundary, square_zero_witness)
from .operators import (ConsistencyError, deformed_bracket_n, induced_structures,
                        is_nijenhuis, is_relative_rb, is_rota_baxter, mc_residual,
                        nijenhuis_report, rb_deformed_bracket, search_nijenhuis,
                        search_relative_rb, search_rota_baxter)
from .deformations import MorphismDeformation, ObstructionClass, check_order_deformation, extend, obstruction
from .theorems import IDENTITIES, SuiteReport, VerificationReport, run_all, sample_cochain, verify

__all__ = [name for name in dir() if not name.startswith("_")]

"""Exact rational bracket calculus for multiplicative Hom-Lie algebras.

The package loads lazily (PEP 562): ``import homlie`` imports no submodule,
and ``homlie.<name>`` imports the submodule that defines ``name`` on first
use.  ``from homlie.<module> import ...`` works as for any package.
"""

import importlib
import sys
import types

_EXPORTS = {
    "linalg": ("Mat", "Vec", "kernel_basis", "mat_rank", "rat", "rat_str", "solve_linear"),
    "cochains": ("SkewCochain", "TwistedSpace", "cochain_matrix", "compatibility_basis",
                 "compatibility_witness", "contract", "evaluate", "is_compatible",
                 "operator_cochain", "shuffles"),
    "structures": ("ConsistencyError", "HomLieAction", "HomLieAlgebra", "HomMorphism",
                   "RawHomStructure", "Representation", "adjoint_action", "adjoint_representation",
                   "as_hom_lie", "bracket_action_on_abelian", "check_action",
                   "check_hom_jacobi", "check_morphism", "check_multiplicative",
                   "check_representation", "commutator_hom_lie", "fixture_abelian",
                   "fixture_3dim", "fixture_b", "fixture_jackson_sl2", "fixture_yau_dim4",
                   "fixture_yau_heisenberg", "fixture_yau_shear", "fixture_yau_sl2",
                   "hom_jacobi_witness", "morphism_representation", "morphism_witness",
                   "multiplicativity_failures",
                   "multiplicativity_witness", "semidirect_weight", "trivial_representation",
                   "yau_twist"),
    "differentials": ("d_lambda", "d_lambda_tilde", "d_trivial", "delta_hom", "delta_tr"),
    "brackets": ("GradedPair", "bicrossed_bracket", "cup_bracket", "derived_bracket",
                 "derived_bracket_rel", "fn_bracket", "nr_bracket",
                 "semidirect_graded_bracket", "theta", "theta_tilde"),
    "cohomology": ("CohomologyReport", "ComplexSpec", "cohomology", "is_coboundary",
                   "square_zero_witness"),
    "operators": ("deformed_bracket_n", "induced_structures", "is_nijenhuis", "is_relative_rb",
                  "is_rota_baxter", "mc_residual", "nijenhuis_report", "rb_deformed_bracket",
                  "search_nijenhuis", "search_relative_rb", "search_rota_baxter"),
    "deformations": ("MorphismDeformation", "ObstructionClass", "check_order_deformation",
                     "extend", "obstruction"),
    "theorems": ("IDENTITIES", "SuiteReport", "VerificationReport", "run_all",
                 "sample_cochain", "verify"),
}

# Public name -> defining submodule.
_ORIGIN = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(set(_EXPORTS) | set(_ORIGIN))


def __getattr__(name: str):
    if name in _ORIGIN:
        value = getattr(importlib.import_module(f"{__name__}.{_ORIGIN[name]}"), name)
    elif name in _EXPORTS:
        value = importlib.import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))


class _Package(types.ModuleType):
    """``homlie.cohomology`` is the function, not the submodule of that name.

    Loading a submodule binds it on the package; for ``cohomology`` the
    function it defines is bound instead, whichever import loads it first.
    """

    def __setattr__(self, name, value):
        if name == "cohomology" and isinstance(value, types.ModuleType):
            value = value.cohomology
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

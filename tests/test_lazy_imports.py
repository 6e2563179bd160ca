"""Lazy loading: the modules each command loads, the public API, the CLI text.

``import homlie`` loads no submodule and every CLI command imports only the
modules it runs, none of them ``dataclasses`` and the introspection modules it
pulls in.  Module sets are read in fresh interpreters; no timing is
asserted.  The public names and the ``verify-theorems`` help and error text
were recorded from the eagerly loaded package.
"""

import importlib
import json
import os
import subprocess
import sys

import pytest

import homlie
from homlie import io as hio
from homlie.cli import main
from homlie.structures import fixture_b

SRC = os.path.dirname(os.path.dirname(os.path.abspath(homlie.__file__)))

SUBMODULES = ("brackets", "cochains", "cohomology", "deformations", "differentials",
              "linalg", "operators", "structures", "theorems")

PUBLIC_NAMES = {
    'CohomologyReport', 'ComplexSpec', 'ConsistencyError',
    'GradedPair', 'HomLieAction', 'HomLieAlgebra', 'HomMorphism', 'IDENTITIES', 'Mat',
    'MorphismDeformation', 'ObstructionClass', 'RawHomStructure', 'Representation',
    'SkewCochain', 'SuiteReport', 'TwistedSpace', 'Vec', 'VerificationReport',
    'adjoint_action', 'adjoint_representation', 'as_hom_lie', 'bicrossed_bracket',
    'bracket_action_on_abelian', 'brackets', 'check_action', 'check_hom_jacobi',
    'check_morphism', 'check_multiplicative', 'check_order_deformation',
    'check_representation', 'cochain_matrix', 'cochains', 'cohomology',
    'commutator_hom_lie', 'compatibility_basis', 'compatibility_witness', 'contract',
    'cup_bracket', 'd_lambda', 'd_lambda_tilde', 'd_trivial',
    'deformations', 'deformed_bracket_n', 'delta_hom', 'delta_tr',
    'derived_bracket', 'derived_bracket_rel', 'differentials', 'evaluate', 'extend',
    'fixture_3dim', 'fixture_abelian', 'fixture_b',
    'fixture_jackson_sl2', 'fixture_yau_dim4', 'fixture_yau_heisenberg',
    'fixture_yau_shear', 'fixture_yau_sl2', 'fn_bracket', 'hom_jacobi_witness',
    'induced_structures', 'is_coboundary', 'is_compatible', 'is_nijenhuis',
    'is_relative_rb', 'is_rota_baxter', 'kernel_basis', 'linalg', 'mat_rank',
    'mc_residual', 'morphism_representation', 'morphism_witness',
    'multiplicativity_failures', 'multiplicativity_witness', 'nijenhuis_report', 'nr_bracket',
    'obstruction',
    'operator_cochain', 'operators', 'rat', 'rat_str', 'rb_deformed_bracket', 'run_all',
    'sample_cochain', 'search_nijenhuis', 'search_relative_rb', 'search_rota_baxter',
    'semidirect_graded_bracket', 'semidirect_weight', 'shuffles', 'solve_linear',
    'square_zero_witness', 'structures', 'theorems', 'theta', 'theta_tilde',
    'trivial_representation', 'verify', 'yau_twist',
}


def _fresh(code: str) -> str:
    """Run ``code`` in a fresh interpreter that imports the package from this tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (SRC, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _modules_after(code: str) -> set[str]:
    """Every module loaded after ``code`` ran (read before ``json`` is imported to print it)."""
    out = _fresh(code + "\nimport sys\nloaded = sorted(sys.modules)\n"
                        "import json\nprint(json.dumps(loaded))")
    return set(json.loads(out.splitlines()[-1]))


def _loaded_after(code: str) -> set[str]:
    """The ``homlie`` modules (without the prefix) loaded after ``code`` ran."""
    return {m.removeprefix("homlie.") for m in _modules_after(code)
            if m.split(".")[0] == "homlie"}


def _cli_code(argv: list[str]) -> str:
    return f"import homlie.cli\nassert homlie.cli.main({argv!r}) == 0"


def _cli_loads(argv: list[str]) -> set[str]:
    return _loaded_after(_cli_code(argv))


@pytest.fixture
def algebra_file(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(hio.dumps(hio.structure_to_json(fixture_b())))
    return str(path)


# -- import graph -------------------------------------------------------------


def test_import_homlie_loads_no_submodule():
    assert _loaded_after("import homlie") == {"homlie"}


def test_import_theorems_loads_no_operator_code():
    # only the two relative identities read operators, and they import it when they run
    loaded = _loaded_after("import homlie.theorems")
    assert "cohomology" in loaded and "operators" not in loaded


def test_cli_and_check_structure_load_only_parsing_and_structures(algebra_file):
    parsing = {"homlie", "cli", "io", "linalg", "cochains", "structures"}
    assert _loaded_after("import homlie.cli") == parsing
    assert _cli_loads(["check", "structure", algebra_file]) == parsing


@pytest.mark.parametrize("coefficients", ["adjoint", "trivial", "morphism"])
def test_module_coefficient_cohomology_loads_no_operator_code(algebra_file, tmp_path,
                                                              coefficients):
    if coefficients == "morphism":  # the identity of the algebra, a module complex too
        phi = tmp_path / "phi.json"
        phi.write_text(hio.dumps({"target": hio.structure_to_json(fixture_b()),
                                  "map": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}))
        coefficients = f"morphism:{phi}"
    loaded = _cli_loads(["cohomology", "--algebra", algebra_file,
                         "--coefficients", coefficients, "--degree", "2"])
    assert "cohomology" in loaded
    assert not loaded & {"operators", "brackets", "theorems", "deformations"}


def test_deform_extend_loads_no_operator_code(algebra_file, tmp_path):
    identity = tmp_path / "id.json"
    identity.write_text(hio.dumps([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]))
    loaded = _cli_loads(["deform", "extend", "--algebra", algebra_file, "--target", algebra_file,
                         "--morphism", str(identity), "--to-order", "1"])
    assert "deformations" in loaded
    assert not loaded & {"operators", "theorems"}


def test_bracket_command_loads_no_operator_code(algebra_file, tmp_path):
    mu = tmp_path / "mu.json"
    mu.write_text(hio.dumps(hio.cochain_to_json(fixture_b().mu)))
    loaded = _cli_loads(["bracket", "--kind", "cup", "--algebra", algebra_file,
                         "--p", str(mu), "--q", str(mu)])
    assert "brackets" in loaded
    assert not loaded & {"operators", "cohomology", "theorems", "deformations"}


# ``dataclasses`` imports these (``inspect`` brings ``ast``, ``dis`` and
# ``tokenize``); no command needs them, and each process would load them.
INTROSPECTION = {"dataclasses", "inspect", "ast", "dis", "tokenize"}

# case: argv given the algebra, cochain, operator and morphism files; None
# stands for ``import homlie.theorems``, which every benchmark worker runs.
_INTROSPECTION_CASES = {
    "import-theorems": None,
    "bracket-cup": lambda f: ["bracket", "--kind", "cup", "--algebra", f["alg"],
                              "--p", f["mu"], "--q", f["mu"]],
    "cohomology-adjoint": lambda f: ["cohomology", "--algebra", f["alg"],
                                     "--coefficients", "adjoint", "--degree", "2"],
    "cohomology-morphism": lambda f: ["cohomology", "--algebra", f["alg"],
                                      "--coefficients", f"morphism:{f['phi']}", "--degree", "2"],
    "check-nijenhuis": lambda f: ["check", "nijenhuis", "--algebra", f["alg"], "--op", f["id"]],
    "deform-extend": lambda f: ["deform", "extend", "--algebra", f["alg"], "--target", f["alg"],
                                "--morphism", f["id"], "--to-order", "1"],
}


@pytest.fixture(scope="module")
def introspection_at_start():
    """The introspection modules a bare interpreter of this environment already has."""
    return _modules_after("") & INTROSPECTION


@pytest.mark.parametrize("case", sorted(_INTROSPECTION_CASES))
def test_no_command_loads_dataclasses_or_inspect(tmp_path, introspection_at_start, case):
    blob = hio.structure_to_json(fixture_b())
    identity = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    docs = {"alg": blob, "mu": hio.cochain_to_json(fixture_b().mu), "id": identity,
            "phi": {"target": blob, "map": identity}}
    files = {}
    for name, doc in docs.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(hio.dumps(doc))
    argv = _INTROSPECTION_CASES[case]
    code = "import homlie.theorems" if argv is None else _cli_code(argv(
        {k: str(v) for k, v in files.items()}))
    assert _modules_after(code) & INTROSPECTION <= introspection_at_start


# -- public API ---------------------------------------------------------------


def test_public_names_are_unchanged():
    assert set(homlie.__all__) == PUBLIC_NAMES
    assert PUBLIC_NAMES <= set(dir(homlie))


def test_each_public_name_is_the_object_its_submodule_defines():
    modules = [importlib.import_module(f"homlie.{m}") for m in SUBMODULES]
    for name in sorted(PUBLIC_NAMES):
        value = getattr(homlie, name)
        if name in SUBMODULES and name != "cohomology":
            assert value is sys.modules[f"homlie.{name}"], name
            continue
        # Every submodule that binds the name binds this object.
        holders = [vars(m)[name] for m in modules if name in vars(m)]
        assert holders and all(h is value for h in holders), name
        if hasattr(value, "__module__"):
            assert getattr(sys.modules[value.__module__], name) is value, name


def test_cohomology_is_the_function_whichever_import_loads_it_first():
    out = _fresh("from homlie.cohomology import ComplexSpec\nimport sys, homlie\n"
                 "import homlie.cohomology as h\n"
                 "f = sys.modules['homlie.cohomology'].cohomology\n"
                 "print(homlie.cohomology is f, h is f, callable(f))")
    assert out.split() == ["True", "True", "True"]


def test_star_import_and_submodule_attributes():
    out = _fresh("from homlie import *\nimport homlie\n"
                 "missing = [n for n in homlie.__all__ if n not in globals()]\n"
                 "print(missing, homlie.operators.search_nijenhuis is search_nijenhuis,"
                 " homlie.theorems.IDENTITIES is IDENTITIES)")
    assert out.strip() == "[] True True"


def test_consistency_error_is_one_class_defined_in_structures():
    out = _fresh("import homlie\nfrom homlie.operators import ConsistencyError\n"
                 "import homlie.deformations as d, homlie.structures as s\n"
                 "print(homlie.ConsistencyError is ConsistencyError is d.ConsistencyError"
                 " is s.ConsistencyError, ConsistencyError.__module__)")
    assert out.split() == ["True", "homlie.structures"]


# -- CLI text -----------------------------------------------------------------


IDENTITY_CHOICES = (
    "mc_homlie", "nr_graded_lie", "cup_graded_lie", "cup_via_theta", "cup_via_delta",
    "delta_cup_derivation", "cup_trivial_cohomology", "theta_cup_derivation", "pre_lie",
    "rho_is_action", "semidirect_jacobi", "graph_delta_closed", "fn_graded_lie",
    "fn_two_formulas", "matched_pair_axioms", "bicrossed_jacobi", "graph_theta_closed",
    "derived_graded_lie", "derived_two_formulas", "d_lambda_derivation", "theta_squared",
    "rb_lemma", "relative_consistency", "d_r_matches_induced",
)
_BRACED = "{" + ",".join(IDENTITY_CHOICES) + "}"
USAGE = (
    "usage: homlie verify-theorems [-h] [--seed SEED] [--trials TRIALS]\n"
    "                              [--max-arity MAX_ARITY] [--fixture FIXTURE]\n"
    "                              [--algebra ALGEBRA]\n"
    f"                              [--identity {_BRACED}]\n"
    "                              [--json]\n"
)
HELP = USAGE + (
    "\n"
    "options:\n"
    "  -h, --help            show this help message and exit\n"
    "  --seed SEED\n"
    "  --trials TRIALS\n"
    "  --max-arity MAX_ARITY\n"
    "  --fixture FIXTURE\n"
    "  --algebra ALGEBRA\n"
    f"  --identity {_BRACED}\n"
    "  --json\n"
)


def test_verify_theorems_help_lists_identities_in_order(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorems", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == HELP


def test_unknown_identity_is_the_same_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(["verify-theorems", "--identity", "bogus"])
    assert exc.value.code == 2
    choices = ", ".join(repr(name) for name in IDENTITY_CHOICES)
    assert capsys.readouterr().err == USAGE + (
        "homlie verify-theorems: error: argument --identity: invalid choice: 'bogus'"
        f" (choose from {choices})\n")
